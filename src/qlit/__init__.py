"""Boolean literal/variable quantification with boundary-rule semantics,
linear-time circuit quantification and classifier explanation queries."""

from .core import (
    Annotation,
    Circuit,
    CircuitBuilder,
    Clause,
    Formula,
    Literal,
    Term,
    Universe,
    Variable,
    World,
    condition,
    evaluate,
    flip,
    negate,
)
from .errors import (
    ArityError,
    CapacityError,
    ConfigurationError,
    InvalidLiteralSetError,
    NoDecisionError,
    ParseError,
    PreconditionError,
    QlitError,
    StructureError,
    UniverseMismatchError,
)
from .quantify import (
    erase,
    exists_literal,
    exists_variable,
    forall_literal,
    forall_variable,
    quantify_set,
)
from .tractable import Cnf, Dnf

__version__ = "0.1.0"

# the seeded property suites of ``qlit.checks``, listed here so that the
# command line can offer them without importing that module
SUITE_NAMES = (
    "duality",
    "order",
    "selection",
    "syntax",
    "sandwich",
    "know",
    "tractable",
    "appendixA",
    "reasons",
    "bias",
)

__all__ = [
    "Annotation",
    "ArityError",
    "CapacityError",
    "Circuit",
    "CircuitBuilder",
    "Clause",
    "Cnf",
    "ConfigurationError",
    "Dnf",
    "Formula",
    "InvalidLiteralSetError",
    "Literal",
    "NoDecisionError",
    "ParseError",
    "PreconditionError",
    "QlitError",
    "StructureError",
    "Term",
    "Universe",
    "UniverseMismatchError",
    "Variable",
    "World",
    "condition",
    "erase",
    "evaluate",
    "exists_literal",
    "exists_variable",
    "flip",
    "forall_literal",
    "forall_variable",
    "negate",
    "quantify_set",
]

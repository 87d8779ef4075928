"""Exception hierarchy shared by all qlit modules."""


class QlitError(Exception):
    """Base class for every error raised by this package."""


class UniverseMismatchError(QlitError):
    """An operand references a variable outside the expected universe."""


class InvalidLiteralSetError(QlitError):
    """A term or clause was given two literals over the same variable."""


class ArityError(QlitError):
    """A world or instance does not cover its universe exactly once."""


class CapacityError(QlitError):
    """An enumeration exceeded its configured cap.

    The message names the cap so callers can raise it deliberately.
    """


class StructureError(QlitError):
    """A circuit does not satisfy the structural annotation it claims.

    Carries the offending node id when one can be named.
    """

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message if node is None else f"{message} (node {node})")
        self.node = node


class PreconditionError(QlitError):
    """A closure precondition was asserted by the caller but does not hold."""


class NoDecisionError(QlitError):
    """An explanation query was asked about an undecided population."""


class ConfigurationError(QlitError):
    """A query needs configuration (e.g. protected features, or the
    enumeration cap) that is missing or invalid."""


class ParseError(QlitError):
    """Malformed input text. Always carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column

"""Representation-agnostic literal and variable quantification.

Universal quantification of a literal strengthens a formula until it no
longer depends on the literal's negation; existential quantification weakens
it until it no longer depends on the literal itself.  Both are defined by
conditioning and are returned as folded expression trees: results are unique
up to logical equivalence only, so tests compare models, never syntax.

:func:`quantify` is the one entry point for every representation: flat forms
and verified Decision-DNNF or SDD circuits take their linear routines, and
formulas, plain NNF and DNNF circuits take the definitional route.  There,
each item's two conditionings rebuild only the item variable's cone (its
literal nodes, the gates above them and the gates that fold on their own,
marked once per item); every other node is its own image, so the result is
the one a whole-DAG rebuild gives, node for node.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import tractable
from .core import Annotation, Formula, Literal, Term, Variable, condition, cone
from .tractable import Cnf, Dnf

__all__ = [
    "quantify",
    "forall_literal",
    "exists_literal",
    "forall_variable",
    "exists_variable",
    "quantify_set",
    "erase",
]


def _expand(formula: Formula, forall: bool, item) -> Formula:
    """The definitional rule: join both conditionings of ``formula``, with
    ``and`` to quantify universally and ``or`` existentially.  For a literal
    ``l`` the ``~l`` side is guarded first, ``l | formula|~l`` or ``~l &
    formula|~l``; a variable needs no guard."""
    u = formula.universe
    outer, inner = ("and", "or") if forall else ("or", "and")
    var = item.variable if isinstance(item, Literal) else item
    nodes = cone(formula, var.index)  # one cone serves both conditionings
    if not isinstance(item, Literal):
        pos = u.literal_by_code(2 * var.index + 1)
        parts = [condition(formula, pos, nodes), condition(formula, ~pos, nodes)]
    elif forall:
        parts = [u.fold(inner, [u.lit(item), condition(formula, ~item, nodes)]), condition(formula, item, nodes)]
    else:
        parts = [condition(formula, item, nodes), u.fold(inner, [u.lit(~item), condition(formula, ~item, nodes)])]
    return u.fold(outer, parts)


def forall_literal(formula: Formula, lit) -> Formula:
    """Strengthen ``formula`` so it no longer depends on the negation of
    ``lit``: ``(lit | (formula | ~lit)) & (formula | lit)``, folded."""
    return _expand(formula, True, formula.universe.literal(lit))


def exists_literal(formula: Formula, lit) -> Formula:
    """Weaken ``formula`` so it no longer depends on ``lit``:
    ``(formula | lit) | (~lit & (formula | ~lit))``, folded."""
    return _expand(formula, False, formula.universe.literal(lit))


def forall_variable(formula: Formula, var: Variable) -> Formula:
    """Conjoin both conditionings; equals quantifying both literals."""
    formula.universe.check(var)
    return _expand(formula, True, var)


def exists_variable(formula: Formula, var: Variable) -> Formula:
    """Disjoin both conditionings; equals quantifying both literals."""
    formula.universe.check(var)
    return _expand(formula, False, var)


def quantify_set(formula: Formula, quantifier: str, items: Iterable) -> Formula:
    """Left fold of the single-item operators over ``items``.

    ``quantifier`` is ``"forall"`` or ``"exists"``.  Items may be literals,
    variables, or their string forms; they may repeat and may contain
    complementary literals.  The outcome is order-independent up to logical
    equivalence, which the test suite checks rather than assumes.
    """
    if quantifier not in ("forall", "exists"):
        raise ValueError(f"unknown quantifier {quantifier!r}")
    u = formula.universe
    out = formula
    for spec in items:
        out = _expand(out, quantifier == "forall", u.item(spec))
    return out


# the linear routines (universal, existential) by value type or circuit
# annotation; looked up by name on ``tractable`` at call time, so wrappers
# installed on that module (such as perfbench's tracer) are the ones called
_ROUTINES = {
    Cnf: ("cnf_forall_literal", "cnf_exists_literal"),
    Dnf: ("dnf_forall_literal", "dnf_exists_literal"),
    Annotation.DECISION_DNNF: ("ddnnf_forall", "ddnnf_exists"),
    Annotation.SDD: ("sdd_forall", "sdd_exists"),
}


def quantify(value, quantifier: str, items: Iterable):
    """Quantify ``items`` out of any value with the best routine it admits.

    CNFs and DNFs take the flat-form rules and verified Decision-DNNF and SDD
    circuits the linear circuit routines, each in one call on the whole
    literal set (a variable stands for both of its literals).  Anything else
    takes :func:`quantify_set` on its formula: formulas themselves, and plain
    NNF and DNNF circuits.
    """
    if quantifier not in ("forall", "exists"):
        raise ValueError(f"unknown quantifier {quantifier!r}")
    u = value.universe
    resolved = [u.item(spec) for spec in items]
    names = _ROUTINES.get(getattr(value, "annotation", type(value)))
    if names is None:
        return quantify_set(value.to_formula(), quantifier, resolved)
    lits = []
    for item in resolved:
        if isinstance(item, Variable):
            pos = u.literal_by_code(2 * item.index + 1)
            lits += [pos, ~pos]
        else:
            lits.append(item)
    return getattr(tractable, names[quantifier == "exists"])(value, lits)


def erase(term: Term, variables: Iterable[Variable]) -> Term:
    """Drop the literals of the given variables from ``term``."""
    variables = list(variables)  # read once: the check would use up an iterator
    for var in variables:
        term.universe.check(var)
    return term.without_variables(variables)

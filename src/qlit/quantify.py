"""Representation-agnostic literal and variable quantification.

Universal quantification of a literal strengthens a formula until it no
longer depends on the literal's negation; existential quantification weakens
it until it no longer depends on the literal itself.  Both are defined by
conditioning and are returned as folded expression trees: results are unique
up to logical equivalence only, so tests compare models, never syntax.

:func:`quantify` is the one entry point for every representation: flat forms
and verified Decision-DNNF or SDD circuits take their linear routines, and
formulas, plain NNF and DNNF circuits take the definitional route.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    Annotation,
    Circuit,
    Formula,
    Term,
    Variable,
    condition,
)
from .tractable import (
    Cnf,
    Dnf,
    cnf_exists_literal,
    cnf_forall_literal,
    ddnnf_exists,
    ddnnf_forall,
    dnf_exists_literal,
    dnf_forall_literal,
    sdd_exists,
    sdd_forall,
)

__all__ = [
    "quantify",
    "forall_literal",
    "exists_literal",
    "forall_variable",
    "exists_variable",
    "quantify_set",
    "erase",
]


def forall_literal(formula: Formula, lit) -> Formula:
    """Strengthen ``formula`` so it no longer depends on the negation of
    ``lit``: ``(lit | (formula | ~lit)) & (formula | lit)``, folded."""
    u = formula.universe
    lit = u.literal(lit)
    return u.fold(
        "and",
        [
            u.fold("or", [u.lit(lit), condition(formula, ~lit)]),
            condition(formula, lit),
        ],
    )


def exists_literal(formula: Formula, lit) -> Formula:
    """Weaken ``formula`` so it no longer depends on ``lit``:
    ``(formula | lit) | (~lit & (formula | ~lit))``, folded."""
    u = formula.universe
    lit = u.literal(lit)
    return u.fold(
        "or",
        [
            condition(formula, lit),
            u.fold("and", [u.lit(~lit), condition(formula, ~lit)]),
        ],
    )


def forall_variable(formula: Formula, var: Variable) -> Formula:
    """Conjoin both conditionings; equals quantifying both literals."""
    u = formula.universe
    u.check(var)
    pos = u.literal_by_code(2 * var.index + 1)
    return u.fold("and", [condition(formula, pos), condition(formula, ~pos)])


def exists_variable(formula: Formula, var: Variable) -> Formula:
    """Disjoin both conditionings; equals quantifying both literals."""
    u = formula.universe
    u.check(var)
    pos = u.literal_by_code(2 * var.index + 1)
    return u.fold("or", [condition(formula, pos), condition(formula, ~pos)])


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
        item = u.item(spec)
        if isinstance(item, Variable):
            out = (
                forall_variable(out, item)
                if quantifier == "forall"
                else exists_variable(out, item)
            )
        else:
            out = (
                forall_literal(out, item)
                if quantifier == "forall"
                else exists_literal(out, item)
            )
    return out


def quantify(value, quantifier: str, items: Iterable):
    """Quantify ``items`` out of any value with the best routine it admits.

    CNFs and DNFs take the flat-form rules and verified Decision-DNNF and SDD
    circuits the linear circuit routines, one literal at a time (a variable
    stands for both of its literals).  Formulas take :func:`quantify_set`,
    and so do plain NNF and DNNF circuits, through their formula.
    """
    if quantifier not in ("forall", "exists"):
        raise ValueError(f"unknown quantifier {quantifier!r}")
    u = value.universe
    resolved = [u.item(spec) for spec in items]
    if isinstance(value, Formula):
        return quantify_set(value, quantifier, resolved)
    if isinstance(value, Circuit) and value.annotation not in (
        Annotation.DECISION_DNNF,
        Annotation.SDD,
    ):
        return quantify_set(value.to_formula(), quantifier, resolved)
    lits = []
    for item in resolved:
        if isinstance(item, Variable):
            pos = u.literal_by_code(2 * item.index + 1)
            lits += [pos, ~pos]
        else:
            lits.append(item)
    forall = quantifier == "forall"
    if isinstance(value, Circuit):
        if value.annotation == Annotation.SDD:
            return sdd_forall(value, lits) if forall else sdd_exists(value, lits)
        return ddnnf_forall(value, lits) if forall else ddnnf_exists(value, lits)
    if isinstance(value, Cnf):
        step = cnf_forall_literal if forall else cnf_exists_literal
    elif isinstance(value, Dnf):
        step = dnf_forall_literal if forall else dnf_exists_literal
    else:
        raise TypeError(f"cannot quantify {value!r}")
    for lit in lits:
        value = step(value, lit)
    return value


def erase(term: Term, variables: Iterable[Variable]) -> Term:
    """Drop the literals of the given variables from ``term``."""
    for var in variables:
        term.universe.check(var)
    return term.without_variables(variables)

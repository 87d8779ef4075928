"""Brute-force semantic ground truth.

Everything here is defined directly over the full space of worlds: a formula
(or circuit, term, clause, ...) is mapped to a truth table stored as one big
integer whose bit ``w`` says whether the world with index ``w`` is a model.
A set of boundary rules is stored the same way, as one crossing mask per
variable, ``mask & ~flip_i(mask)``: bit ``w`` of mask ``i`` is the rule on
world ``w`` whose consequent is variable ``i``.  Model enumeration, boundary
models, rules, their transitions under quantification, independent models and
the fixed-point reconstruction of models from rules are all computed on these
integers.  Other modules are validated against this one, never the reverse.

Every query takes values only: the universe is the value's own, and the
queries that compare two values refuse values of different universes.
Enumeration is exact and capped (default 24 variables); the
``QLIT_ENUM_CAP`` environment variable is the one way to change the cap, and
exceeding it is an error, never silent sampling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .core import (
    Circuit,
    Clause,
    Formula,
    Literal,
    Term,
    Universe,
    Variable,
    World,
    truth_table,
)
from .errors import CapacityError, PreconditionError, UniverseMismatchError

__all__ = [
    "BRule",
    "ModelSet",
    "RuleSet",
    "TransitionReport",
    "enumerate_models",
    "boundary_models",
    "b_rules",
    "is_independent_model",
    "reconstruct_models",
    "literal_independent",
    "variable_independent",
    "brule_transition_report",
    "models_mask",
    "equivalent",
    "entails",
    "consistent",
    "valid",
    "default_cap",
]

_DEFAULT_CAP = 24


def default_cap() -> int:
    """Enumeration cap: ``QLIT_ENUM_CAP`` when set, else 24 variables."""
    return int(os.environ.get("QLIT_ENUM_CAP", _DEFAULT_CAP))


def _check_cap(universe: Universe) -> None:
    limit = default_cap()
    if len(universe) > limit:
        raise CapacityError(
            f"universe has {len(universe)} variables, enumeration cap is {limit}"
        )


# -- truth tables as big integers ---------------------------------------------


def _var_patterns(n: int) -> list[int]:
    """Bit ``w`` of pattern ``i`` is set iff bit ``i`` of ``w`` is, over
    ``2**n`` rows."""
    masks = []
    for i in range(n):
        p = 1 << i
        unit = ((1 << p) - 1) << p  # one period: p zeros then p ones
        reps = 1 << (n - i - 1)
        rep_pattern = ((1 << (2 * p * reps)) - 1) // ((1 << (2 * p)) - 1)
        masks.append(unit * rep_pattern)
    return masks


def _var_masks(universe: Universe) -> list[int]:
    """Bit ``w`` of mask ``i`` is set iff variable ``i`` is true in world ``w``."""
    if universe._var_masks is None:
        universe._var_masks = _var_patterns(len(universe))
    return universe._var_masks


def _full_mask(universe: Universe) -> int:
    return (1 << (1 << len(universe))) - 1


def _flip_mask(universe: Universe, mask: int, var_index: int) -> int:
    """Permuted table: bit ``w`` becomes the bit of ``w`` with variable flipped."""
    p = 1 << var_index
    ones = _var_masks(universe)[var_index]
    zeros = _full_mask(universe) & ~ones
    return ((mask & zeros) << p) | ((mask & ones) >> p)


def _condition_mask(universe: Universe, mask: int, lit: Literal) -> int:
    """Table of ``f | lit``: every world looks up its ``lit``-side twin."""
    ones = _var_masks(universe)[lit.variable.index]
    side = ones if lit.positive else _full_mask(universe) & ~ones
    kept = mask & side
    p = 1 << lit.variable.index
    return kept | (kept >> p if lit.positive else kept << p)


def _literal_mask(universe: Universe, code: int) -> int:
    ones = _var_masks(universe)[code >> 1]
    return ones if code & 1 else _full_mask(universe) & ~ones


def models_mask(value) -> int:
    """Truth table of any logical value, as an integer over the ``2**n``
    worlds of its universe."""
    u = value.universe
    _check_cap(u)
    if isinstance(value, (Formula, Circuit)):
        return _dag_mask(u, value)
    if isinstance(value, World):
        return 1 << value.bits
    if isinstance(value, Term):
        out = _full_mask(u)
        for code in value.codes:
            out &= _literal_mask(u, code)
        return out
    if isinstance(value, Clause):
        out = 0
        for code in value.codes:
            out |= _literal_mask(u, code)
        return out
    to_formula = getattr(value, "to_formula", None)
    if to_formula is not None:
        return _dag_mask(u, to_formula())
    raise TypeError(f"cannot compute a truth table for {value!r}")


_MASK_CACHE_VAR_LIMIT = 16  # above this, per-node tables get too large to keep


def _dag_mask(universe: Universe, value: Formula | Circuit) -> int:
    memo = None
    # formula nodes are interned per universe and immutable, so their truth
    # tables can be remembered across calls (bounded to small universes)
    if isinstance(value, Formula) and len(universe) <= _MASK_CACHE_VAR_LIMIT:
        memo = getattr(universe, "_oracle_mask_cache", None)
        if memo is None:
            memo = {}
            universe._oracle_mask_cache = memo
    return truth_table(value, _var_masks(universe), _full_mask(universe), memo=memo)


def _same_universe(value, universe: Universe) -> None:
    if value.universe is not universe:
        raise UniverseMismatchError("value does not live in the requested universe")


def equivalent(a, b) -> bool:
    """Exact model-set equality, by enumeration."""
    mask = models_mask(a)
    _same_universe(b, a.universe)
    return mask == models_mask(b)


def entails(a, b) -> bool:
    """``a`` implies ``b``: every model of ``a`` is a model of ``b``."""
    mask = models_mask(a)
    _same_universe(b, a.universe)
    return mask & ~models_mask(b) == 0


def consistent(a) -> bool:
    return models_mask(a) != 0


def valid(a) -> bool:
    return models_mask(a) == _full_mask(a.universe)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- rule and model containers -------------------------------------------------


@dataclass(frozen=True)
class BRule:
    """A boundary rule: a total antecedent over all-but-one variable plus an
    inferred literal of the remaining variable."""

    antecedent: Term
    consequent: Literal

    def __post_init__(self):
        universe = self.antecedent.universe
        universe.check(self.consequent)
        # a term's literals are over distinct variables, so n - 1 of them,
        # all in range and none over the consequent's variable, are exactly
        # the other variables
        codes = self.antecedent.codes
        skip = 2 * self.consequent.variable.index
        if (
            len(codes) != len(universe) - 1
            or skip in codes
            or skip + 1 in codes
            or (codes and (min(codes) < 0 or max(codes) >= 2 * len(universe)))
        ):
            raise UniverseMismatchError(
                "antecedent must cover exactly the non-consequent variables"
            )

    @property
    def universe(self) -> Universe:
        return self.antecedent.universe

    def world(self) -> World:
        """The boundary model this rule describes."""
        return self.antecedent.add(self.consequent).to_world()

    def sort_key(self) -> tuple:
        return (self.antecedent.codes, self.consequent.code)

    def __str__(self) -> str:
        ante = " ".join(str(lit) for lit in self.antecedent) or "true"
        return f"{ante} -> {self.consequent}"

    def __repr__(self) -> str:
        return f"BRule({self})"


class _SortedSet:
    __slots__ = ("universe", "items", "_set")

    def __init__(self, universe: Universe, items: Iterable):
        self.universe = universe
        self.items = tuple(items)
        self._set = frozenset(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __contains__(self, item) -> bool:
        return item in self._set

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._set == self._set

    def __hash__(self) -> int:
        return hash(self._set)


class ModelSet(_SortedSet):
    """Worlds in canonical order, plus the generating universe."""

    def __init__(self, universe: Universe, worlds: Iterable[World]):
        super().__init__(universe, sorted(worlds, key=lambda w: w.bits))

    def bits(self) -> frozenset[int]:
        return frozenset(w.bits for w in self.items)

    def __repr__(self) -> str:
        return "ModelSet({" + ", ".join(str(w) for w in self.items) + "})"


class RuleSet(_SortedSet):
    """Boundary rules in canonical order, plus the generating universe."""

    __slots__ = ("_crossings",)

    def __init__(self, universe: Universe, rules: Iterable[BRule]):
        super().__init__(universe, sorted(rules, key=BRule.sort_key))
        self._crossings: list[int] | None = None

    def _crossing_masks(self) -> list[int]:
        """The rules as one crossing mask per consequent variable."""
        if self._crossings is None:
            masks = [0] * len(self.universe)
            for r in self.items:
                masks[r.consequent.variable.index] |= 1 << r.world().bits
            self._crossings = masks
        return self._crossings

    def pairs(self) -> frozenset[tuple[int, int]]:
        """Rules as (world bits, consequent variable index) pairs."""
        return frozenset(
            (bits, i)
            for i, crossing in enumerate(self._crossing_masks())
            for bits in _iter_bits(crossing)
        )

    def __repr__(self) -> str:
        return "RuleSet({" + ", ".join(str(r) for r in self.items) + "})"


def _crossings(universe: Universe, mask: int) -> list[int]:
    """The boundary rules of a truth table, as crossing masks."""
    return [mask & ~_flip_mask(universe, mask, i) for i in range(len(universe))]


def _rules(universe: Universe, crossings: list[int]) -> list[BRule]:
    """One rule per set bit of the crossing masks, in canonical order."""
    n = len(universe)
    literals = universe._literals
    out = []
    for i, crossing in enumerate(crossings):
        for bits in _iter_bits(crossing):
            codes = tuple(2 * k + (bits >> k & 1) for k in range(n) if k != i)
            out.append(BRule(Term(universe, codes), literals[2 * i + (bits >> i & 1)]))
    return sorted(out, key=BRule.sort_key)


def _rule_set(universe: Universe, rules: list[BRule], crossings: list[int]) -> RuleSet:
    out = RuleSet(universe, rules)
    out._crossings = crossings
    return out


# -- oracle operations ----------------------------------------------------------


def enumerate_models(value) -> ModelSet:
    """Exactly the worlds satisfying ``value``, in canonical order."""
    u = value.universe
    mask = models_mask(value)
    return ModelSet(u, (World(u, bits) for bits in _iter_bits(mask)))


def boundary_models(value) -> set[tuple[World, Literal]]:
    """All pairs ``(world, literal)`` where the world is a model containing the
    literal and flipping that literal produces a counter-model."""
    u = value.universe
    literals = u._literals
    return {
        (World(u, bits), literals[2 * i + (bits >> i & 1)])
        for i, crossing in enumerate(_crossings(u, models_mask(value)))
        for bits in _iter_bits(crossing)
    }


def b_rules(value) -> RuleSet:
    """The boundary rules of ``value``: one per boundary (model, literal) pair."""
    u = value.universe
    crossings = _crossings(u, models_mask(value))
    return _rule_set(u, _rules(u, crossings), crossings)


def is_independent_model(value, world: World, term: Term) -> bool:
    """True iff ``term`` is contained in ``world`` and every way of flipping
    literals of ``term`` keeps the world a model of ``value``."""
    _same_universe(value, world.universe)
    mask = models_mask(value)
    if any(code not in world.to_term().codes for code in term.codes):
        return False
    rest = world.to_term().difference(term.literals())
    return models_mask(rest) & ~mask == 0


def reconstruct_models(rules: RuleSet, bmodels: ModelSet) -> ModelSet:
    """Grow the boundary models to the full model set using only the rules.

    Iterates ``W |= flip_i(W & ~R_i)`` over every variable ``i``, where ``R_i``
    is the crossing mask of the rules on ``i``, to its least fixed point: the
    boundary models closed under flips that no rule forbids.  Boundary models
    of a consistent, non-valid formula are never empty, so empty input means
    the source formula was valid or inconsistent and is refused.
    """
    u = bmodels.universe
    if len(bmodels) == 0:
        raise PreconditionError(
            "valid-or-inconsistent formula: no boundary models to reconstruct from"
        )
    if rules.universe is not u:
        raise UniverseMismatchError("rules and boundary models differ in universe")
    rule_masks = rules._crossing_masks()
    current = sum(1 << bits for bits in bmodels.bits())
    while True:
        grown = current
        for i in range(len(u)):
            grown |= _flip_mask(u, grown & ~rule_masks[i], i)
        if grown == current:
            break
        current = grown
    return ModelSet(u, (World(u, bits) for bits in _iter_bits(current)))


def literal_independent(value, lit: Literal) -> bool:
    """True iff no boundary rule of ``value`` infers ``lit``."""
    u = value.universe
    u.check(lit)
    mask = models_mask(value)
    i = lit.variable.index
    crossing = mask & ~_flip_mask(u, mask, i)
    side = _literal_mask(u, lit.code)
    return crossing & side == 0


def variable_independent(value, var: Variable) -> bool:
    """Independence of both literals of ``var``."""
    u = value.universe
    u.check(var)
    pos = u.literal_by_code(2 * var.index + 1)
    return literal_independent(value, pos) and literal_independent(value, ~pos)


# -- boundary-rule dynamics under universal literal quantification ---------------


@dataclass
class TransitionReport:
    """How the rule set changes when one literal is universally quantified.

    ``checks`` holds one flag per clause of the deletion/preservation theorem
    (a-d), the introduction-shape theorem (add1) and the four-condition
    introduction criterion (add2).
    """

    quantified: Literal
    rules_before: RuleSet
    rules_after: RuleSet
    preserved: tuple[BRule, ...]
    deleted: tuple[BRule, ...]
    introduced: tuple[BRule, ...]
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_lines(self) -> list[str]:
        lines = []
        for rule in self.preserved:
            lines.append(f"{rule} [kept]")
        for rule in self.deleted:
            lines.append(f"{rule} [deleted]")
        for rule in self.introduced:
            lines.append(f"{rule} [introduced]")
        return lines


def _transition_checks(
    universe: Universe, lit: Literal, before: list[int], after: list[int]
) -> dict[str, bool]:
    """Every clause of the characterization, as masks over the crossing masks
    before and after quantifying ``lit`` that must be empty.  A rule on variable
    ``j`` whose world contains ``lit`` infers ``lit`` when ``j`` is ``lit``'s
    variable ``q``, and uses it otherwise."""
    u = universe
    q = lit.variable.index
    on = _literal_mask(u, lit.code)
    off = _literal_mask(u, lit.code ^ 1)
    bq, aq = before[q], after[q]
    flipped_bq = _flip_mask(u, bq, q)
    others = [j for j in range(len(u)) if j != q]
    return {
        # (a) rules inferring the quantified literal survive
        "a": bq & on & ~aq == 0,
        # (b) no surviving rule infers its negation
        "b": aq & off == 0,
        # (c) rules using the quantified literal survive
        "c": all(before[j] & on & ~after[j] == 0 for j in others),
        # (d) a rule using the negated literal survives iff the companion rule
        #     on the same world that infers the negated literal is absent
        "d": all(before[j] & off & ~(after[j] ^ bq) == 0 for j in others),
        # (add1) introduced rules always use the negated literal
        "add1": aq & ~bq == 0
        and all(after[j] & ~before[j] & on == 0 for j in others),
        # (add2) exact introduction criterion, on every world with the negated
        # literal and every other variable j: flipping either q or j must stay
        # inside the rules, flipping both outside
        "add2": all(
            off & (after[j] & ~before[j]) == off & _flip_mask(u, before[j], q)
            & _flip_mask(u, bq, j) & ~flipped_bq & ~_flip_mask(u, before[j], j)
            for j in others
        ),
    }


def brule_transition_report(value, lit: Literal) -> TransitionReport:
    """Compare rules before and after quantifying ``lit`` universally and check
    every clause of the deletion/preservation/introduction characterization."""
    u = value.universe
    u.check(lit)
    mask = models_mask(value)

    lit_mask = _literal_mask(u, lit.code)
    mask_given_lit = _condition_mask(u, mask, lit)
    mask_given_neg = _condition_mask(u, mask, ~lit)
    quantified = (lit_mask | mask_given_neg) & mask_given_lit

    before = _crossings(u, mask)
    after = _crossings(u, quantified)
    # each rule is built once: the kept ones serve both rule sets
    preserved = _rules(u, [b & a for b, a in zip(before, after)])
    deleted = _rules(u, [b & ~a for b, a in zip(before, after)])
    introduced = _rules(u, [a & ~b for b, a in zip(before, after)])

    return TransitionReport(
        quantified=lit,
        rules_before=_rule_set(u, preserved + deleted, before),
        rules_after=_rule_set(u, preserved + introduced, after),
        preserved=tuple(preserved),
        deleted=tuple(deleted),
        introduced=tuple(introduced),
        checks=_transition_checks(u, lit, before, after),
    )

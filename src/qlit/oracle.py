"""Brute-force semantic ground truth.

Everything here is defined directly over the full space of worlds: a formula
(or circuit, term, clause, ...) is mapped to a truth table stored as one big
integer whose bit ``w`` says whether the world with index ``w`` is a model.
A set of boundary rules is stored the same way, as one crossing mask per
variable, ``mask & ~flip_i(mask)``: bit ``w`` of mask ``i`` is the rule on
world ``w`` whose consequent is variable ``i``.  Model enumeration, boundary
models, rules, their transitions under quantification, independent models and
the fixed-point reconstruction of models from rules are all computed on these
integers, which are all a :class:`ModelSet` or :class:`RuleSet` keeps.  Other
modules are validated against this one, never the reverse.

Every query takes values only: the universe is the value's own, and the
queries that compare two values refuse values of different universes.
Enumeration is exact and capped (default 24 variables); the
``QLIT_ENUM_CAP`` environment variable is the one way to change the cap, and
exceeding it is an error, never silent sampling.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    Clause,
    Literal,
    Term,
    Universe,
    Variable,
    World,
    _MASK_CACHE_VAR_LIMIT,
    _iter_bits,
    _tables_fit,
    _var_patterns,
    truth_table,
)
from .errors import CapacityError, ConfigurationError, PreconditionError, UniverseMismatchError

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

# a miss that fills a universe's cache of root tables takes this lock, so two
# threads never fill it past its bound; a hit reads without it
_MASK_CACHE_LOCK = threading.Lock()


def default_cap() -> int:
    """Enumeration cap: ``QLIT_ENUM_CAP`` when set, else 24 variables.

    Any other value than a non-negative decimal integer is refused."""
    text = os.environ.get("QLIT_ENUM_CAP")
    if text is None:
        return _DEFAULT_CAP
    if not (text.isascii() and text.isdigit()):
        raise ConfigurationError(
            f"QLIT_ENUM_CAP must be a non-negative integer, got {text!r}"
        )
    return int(text)


def _check_cap(universe: Universe) -> None:
    limit = default_cap()
    if len(universe) > limit:
        raise CapacityError(
            f"universe has {len(universe)} variables, enumeration cap is {limit}"
        )


# -- truth tables as big integers ---------------------------------------------


def _full_mask(universe: Universe) -> int:
    return (1 << (1 << len(universe))) - 1


def _flip_mask(universe: Universe, mask: int, var_index: int) -> int:
    """Permuted table: bit ``w`` becomes the bit of ``w`` with variable flipped."""
    p = 1 << var_index
    high = mask & _var_patterns(len(universe))[var_index]
    return (mask ^ high) << p | high >> p


def _condition_mask(universe: Universe, mask: int, lit: Literal) -> int:
    """Table of ``f | lit``: every world looks up its ``lit``-side twin."""
    p = 1 << lit.variable.index
    high = mask & _var_patterns(len(universe))[lit.variable.index]
    if lit.positive:
        return high | high >> p
    low = mask ^ high
    return low | low << p


def _literal_mask(universe: Universe, code: int) -> int:
    ones = _var_patterns(len(universe))[code >> 1]
    return ones if code & 1 else _full_mask(universe) & ~ones


def models_mask(value) -> int:
    """Truth table of any logical value, as an integer over the ``2**n``
    worlds of its universe."""
    u = value.universe
    _check_cap(u)
    if isinstance(value, World):
        return 1 << value.bits
    if isinstance(value, Term):
        return _term_table(len(u), value.codes)
    if isinstance(value, Clause):
        return _full_mask(u) ^ _term_table(len(u), tuple([code ^ 1 for code in value.codes]))
    to_formula = getattr(value, "to_formula", None)
    if to_formula is None:
        raise TypeError(f"cannot compute a truth table for {value!r}")
    return _formula_masks(to_formula())[0]


def _term_table(n: int, codes: tuple[int, ...]) -> int:
    """The truth table of the term ``codes`` over ``n`` variables, built up
    from the lowest variable: a free variable doubles the table, a positive
    literal moves it to the upper half of a table twice its size and a
    negative literal to the lower half.  The tables grow geometrically, so
    the build costs about two operations on ``2**n`` bits."""
    signs = [None] * n
    for code in codes:
        signs[code >> 1] = code & 1
    table = 1
    for i, sign in enumerate(signs):
        if sign is None:
            table |= table << (1 << i)
        elif sign:
            table <<= 1 << i
    return table


def _formula_masks(*formulas) -> tuple[int, ...]:
    """The truth tables of formulas of one universe, from one walk over the
    union of their nodes."""
    first = formulas[0]
    u, roots = first.universe, tuple([f.id for f in formulas])
    # the nodes of a universe's store never change, so the tables of the
    # roots asked for are remembered across calls, by id, up to 16 variables
    tables = tuple([u._oracle_mask_cache.get(root) for root in roots])
    if None not in tables:
        return tables
    masks, full = _var_patterns(len(u)), _full_mask(u)
    tables = truth_table(first, masks, full, roots)
    if len(u) <= _MASK_CACHE_VAR_LIMIT:
        with _MASK_CACHE_LOCK:
            cache = u._oracle_mask_cache
            if _tables_fit(len(cache) + len(roots), full.bit_length()):
                cache.update(zip(roots, tables))
            else:  # full: replaced whole, so a thread that read the old one keeps it
                u._oracle_mask_cache = {}
    return tables


def _same_universe(value, universe: Universe) -> None:
    if value.universe is not universe:
        raise UniverseMismatchError("value does not live in the requested universe")


# values whose truth table is made from their literals, without a walk
_DIRECT = (World, Term, Clause)


def _pair_masks(a, b) -> tuple[int, int]:
    """The truth tables of ``a`` and ``b``, with the checks of
    ``models_mask(a)``, then ``b``'s universe, then ``models_mask(b)``.
    Two DAG values (formulas, circuits) are read from one walk, so the
    nodes they share are evaluated once."""
    if (
        isinstance(a, _DIRECT) or isinstance(b, _DIRECT)
        or not hasattr(a, "to_formula") or not hasattr(b, "to_formula")
    ):
        mask = models_mask(a)
        _same_universe(b, a.universe)
        return mask, models_mask(b)
    u = a.universe
    _check_cap(u)
    _same_universe(b, u)
    return _formula_masks(a.to_formula(), b.to_formula())


def equivalent(a, b) -> bool:
    """Exact model-set equality, by enumeration."""
    first, second = _pair_masks(a, b)
    return first == second


def entails(a, b) -> bool:
    """``a`` implies ``b``: every model of ``a`` is a model of ``b``."""
    first, second = _pair_masks(a, b)
    return first & ~second == 0


def consistent(a) -> bool:
    return models_mask(a) != 0


def valid(a) -> bool:
    return models_mask(a) == _full_mask(a.universe)


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
        """The boundary model this rule describes: the antecedent's true
        variables, and the consequent's if it is positive."""
        bits = sum(1 << (code >> 1) for code in self.antecedent.codes if code & 1)
        consequent = self.consequent
        return World(self.universe, bits | consequent.positive << consequent.variable.index)

    def sort_key(self) -> tuple:
        return (self.antecedent.codes, self.consequent.code)

    def __str__(self) -> str:
        ante = " ".join(str(lit) for lit in self.antecedent) or "true"
        return f"{ante} -> {self.consequent}"

    def __repr__(self) -> str:
        return f"BRule({self})"


class _MaskSet:
    """Shared behaviour of model and rule sets: a set stores ``masks``, a
    tuple of integers over the worlds of its ``universe``, and nothing else.
    ``items`` makes the worlds or rules in canonical order on each access."""

    __slots__ = ("universe", "masks")

    @classmethod
    def _of(cls, universe: Universe, masks: Iterable[int]):
        out = object.__new__(cls)
        out.universe, out.masks = universe, tuple(masks)
        return out

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self.masks)

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other) -> bool:
        mine = type(other) is type(self) and other.universe is self.universe
        return mine and other.masks == self.masks

    def __hash__(self) -> int:
        return hash((id(self.universe), self.masks))

    def __repr__(self) -> str:
        return "%s({%s})" % (type(self).__name__, ", ".join(map(str, self.items)))


class ModelSet(_MaskSet):
    """A set of worlds as its truth table, ``masks == (table,)``."""

    __slots__ = ()

    def __init__(self, universe: Universe, worlds: Iterable[World]):
        table = bytearray((1 << len(universe) >> 3) or 1)  # linear, where a sum is not
        for w in worlds:
            table[w.bits >> 3] |= 1 << (w.bits & 7)
        self.universe, self.masks = universe, (int.from_bytes(table, "little"),)

    @property
    def items(self) -> tuple[World, ...]:
        return tuple([World(self.universe, bits) for bits in _iter_bits(self.masks[0])])

    def bits(self) -> frozenset[int]:
        return frozenset(_iter_bits(self.masks[0]))

    def __contains__(self, world) -> bool:
        mine = isinstance(world, World) and world.universe is self.universe
        return mine and bool(self.masks[0] >> world.bits & 1)


class RuleSet(_MaskSet):
    """A set of boundary rules as one crossing mask per consequent variable."""

    __slots__ = ()

    def __init__(self, universe: Universe, rules: Iterable[BRule]):
        masks = [0] * len(universe)
        for r in rules:
            masks[r.consequent.variable.index] |= 1 << r.world().bits
        self.universe, self.masks = universe, tuple(masks)

    @property
    def items(self) -> tuple[BRule, ...]:
        return _rules(self.universe, self.masks)

    def pairs(self) -> frozenset[tuple[int, int]]:
        """Rules as (world bits, consequent variable index) pairs."""
        return frozenset(_crossing_pairs(self.masks))

    def __contains__(self, rule) -> bool:
        mine = isinstance(rule, BRule) and rule.universe is self.universe
        return mine and bool(self.masks[rule.consequent.variable.index] >> rule.world().bits & 1)


def _crossings(universe: Universe, mask: int) -> list[int]:
    """The boundary rules of a truth table, as crossing masks."""
    return [mask & ~_flip_mask(universe, mask, i) for i in range(len(universe))]


def _crossing_pairs(crossings: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The (world bits, variable index) pair of each set bit of the masks."""
    for i, crossing in enumerate(crossings):
        for bits in _iter_bits(crossing):
            yield bits, i


@lru_cache(maxsize=16)
def _byte_codes(n: int) -> tuple:
    """Per byte of a world's bits, lowest first, and per value of that byte:
    the literal codes of the byte's variables, and their bits as base-4
    digits, variable 0 the most significant of ``n``."""
    out = []
    for low in range(0, n, 8):
        width = min(8, n - low)
        out.append(tuple(
            (
                tuple([2 * (low + t) + (byte >> t & 1) for t in range(width)]),
                sum((byte >> t & 1) << 2 * (n - 1 - low - t) for t in range(width)),
            )
            for byte in range(1 << width)
        ))
    return tuple(out)


def _world_codes(chunks: tuple, bits: int) -> tuple[tuple[int, ...], int]:
    """The literal codes of world ``bits`` and its base-4 digits."""
    codes, digits = (), 0
    for k, chunk in enumerate(chunks):
        part, value = chunk[bits >> 8 * k & 255]
        codes += part
        digits += value
    return codes, digits


def _rules(universe: Universe, crossings: Iterable[int]) -> tuple[BRule, ...]:
    """One rule per set bit of the crossing masks, in canonical order.

    The codes are made here, so nothing is checked again: a world's literal
    codes are one tuple that each of its rules slices, and a rule gets its
    two fields as the frozen dataclass's ``__init__`` sets them, without
    ``__post_init__``.  Canonical order, antecedent codes then consequent
    code, is the integer order of one key per rule: the world's base-4
    digits with a 2 at the consequent's variable, then the consequent's
    polarity as a last bit.  Two antecedents first differ at a variable
    both hold, which their bits order, or at the first consequent: there
    the other rule holds that variable's code and this one the next
    variable's, so the digit 2 sorts it after.  Equal antecedents leave
    the order to the last bit.
    """
    n = len(universe)
    literals = universe._literals
    chunks = _byte_codes(n)
    worlds: dict[int, tuple[tuple[int, ...], int]] = {}
    keys: list[int] = []
    antecedents: list[tuple[int, ...]] = []
    consequents: list[Literal] = []
    for i, crossing in enumerate(crossings):
        step = 1 << 2 * (n - 1 - i)
        for bits in _iter_bits(crossing):
            world = worlds.get(bits)
            if world is None:
                world = worlds[bits] = _world_codes(chunks, bits)
            codes, digits = world
            bit = bits >> i & 1
            keys.append((digits + (2 - bit) * step) << 1 | bit)
            antecedents.append(codes[:i] + codes[i + 1:])
            consequents.append(literals[codes[i]])
    view, new, set_field = Term._view, object.__new__, object.__setattr__
    out = []
    for r in sorted(range(len(keys)), key=keys.__getitem__):
        rule = new(BRule)
        set_field(rule, "antecedent", view(universe, antecedents[r]))
        set_field(rule, "consequent", consequents[r])
        out.append(rule)
    return tuple(out)


# -- oracle operations ----------------------------------------------------------


def enumerate_models(value) -> ModelSet:
    """Exactly the worlds satisfying ``value``, in canonical order."""
    return ModelSet._of(value.universe, (models_mask(value),))


def boundary_models(value) -> set[tuple[World, Literal]]:
    """All pairs ``(world, literal)`` where the world is a model containing the
    literal and flipping that literal produces a counter-model."""
    u = value.universe
    literals = u._literals
    worlds: dict[int, World] = {}  # one world per boundary model, shared by its pairs
    pairs = []
    for i, crossing in enumerate(_crossings(u, models_mask(value))):
        inferred = literals[2 * i], literals[2 * i + 1]
        for bits in _iter_bits(crossing):
            world = worlds.get(bits)
            if world is None:
                world = worlds[bits] = World(u, bits)
            pairs.append((world, inferred[bits >> i & 1]))
    return set(pairs)


def b_rules(value) -> RuleSet:
    """The boundary rules of ``value``: one per boundary (model, literal) pair."""
    u = value.universe
    return RuleSet._of(u, _crossings(u, models_mask(value)))


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
    current = bmodels.masks[0]
    if not current:
        raise PreconditionError(
            "valid-or-inconsistent formula: no boundary models to reconstruct from"
        )
    if rules.universe is not u:
        raise UniverseMismatchError("rules and boundary models differ in universe")
    while True:
        grown = current
        for i, rule_mask in enumerate(rules.masks):
            grown |= _flip_mask(u, grown & ~rule_mask, i)
        if grown == current:
            break
        current = grown
    return ModelSet._of(u, (current,))


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


@dataclass(frozen=True)
class TransitionReport:
    """How the rule set changes when one literal is universally quantified.

    The five rule fields are :class:`RuleSet`s.  ``checks`` maps, read-only,
    each clause of the deletion/preservation theorem (a-d), the
    introduction-shape theorem (add1) and the four-condition introduction
    criterion (add2) to a flag; it follows from the rules, so it is not hashed.
    """

    quantified: Literal
    rules_before: RuleSet
    rules_after: RuleSet
    preserved: RuleSet
    deleted: RuleSet
    introduced: RuleSet
    checks: Mapping[str, bool] = field(default_factory=dict, hash=False)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_lines(self) -> list[str]:
        tags = {"kept": self.preserved, "deleted": self.deleted, "introduced": self.introduced}
        return [f"{rule} [{tag}]" for tag, rules in tags.items() for rule in rules]


def _transition_checks(
    universe: Universe, lit: Literal, before: Sequence[int], after: Sequence[int]
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
    # forall lit . f  ==  (lit | f|~lit) & f|lit
    given_neg, given_lit = _condition_mask(u, mask, ~lit), _condition_mask(u, mask, lit)
    before = _crossings(u, mask)
    after = _crossings(u, (_literal_mask(u, lit.code) | given_neg) & given_lit)
    return TransitionReport(
        quantified=lit,
        rules_before=RuleSet._of(u, before),
        rules_after=RuleSet._of(u, after),
        preserved=RuleSet._of(u, [b & a for b, a in zip(before, after)]),
        deleted=RuleSet._of(u, [b & ~a for b, a in zip(before, after)]),
        introduced=RuleSet._of(u, [a & ~b for b, a in zip(before, after)]),
        checks=MappingProxyType(_transition_checks(u, lit, before, after)),
    )

"""Seeded random inputs for the property harness and the test suite.

Random formulas exercise the full connective set (including nested
negation); random circuits are correct by construction: decision circuits
come out of Shannon expansion with node sharing, partition circuits out of
recursive cube splitting.  Builders used for the large timing ladders skip
re-verification since the shape is guaranteed.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator, Sequence

from .core import (
    Annotation,
    Circuit,
    CircuitBuilder,
    Clause,
    Formula,
    Term,
    Universe,
)
from .circuits import verify_decision_dnnf, verify_sdd
from .oracle import models_mask
from .tractable import Cnf, Dnf

__all__ = [
    "random_formula",
    "random_consistent_formula",
    "random_term",
    "random_clause",
    "random_cnf",
    "random_dnf",
    "random_literal",
    "random_decision_dnnf",
    "random_sdd",
    "all_terms",
    "parity_decision_dnnf",
    "big_random_cnf",
]


def random_literal(universe: Universe, rng: random.Random):
    return universe.literal_by_code(rng.randrange(2 * len(universe)))


def random_formula(universe: Universe, rng: random.Random, depth: int = 3) -> Formula:
    if depth <= 0 or rng.random() < 0.15:
        roll = rng.random()
        if roll < 0.04:
            return universe.true
        if roll < 0.08:
            return universe.false
        return universe.lit(random_literal(universe, rng))
    shape = rng.random()
    if shape < 0.2:
        return ~random_formula(universe, rng, depth - 1)
    left = random_formula(universe, rng, depth - 1)
    right = random_formula(universe, rng, depth - 1)
    if shape < 0.5:
        return left & right
    if shape < 0.8:
        return left | right
    if shape < 0.9:
        return left.implies(right)
    return left.iff(right)


def random_consistent_formula(
    universe: Universe, rng: random.Random, depth: int = 3
) -> Formula:
    """Redraw until the formula has a model and a counter-model."""
    full = (1 << (1 << len(universe))) - 1
    while True:
        formula = random_formula(universe, rng, depth)
        mask = models_mask(formula)
        if mask == 0:
            continue
        if mask == full:
            continue
        return formula


def _random_codes(universe: Universe, rng: random.Random, width: int) -> tuple[int, ...]:
    """The sorted codes of ``width`` literals over distinct random variables."""
    chosen = rng.sample(range(len(universe)), width)
    return tuple(sorted(2 * v + rng.randrange(2) for v in chosen))


def random_term(universe: Universe, rng: random.Random, width: int | None = None) -> Term:
    if width is None:
        width = rng.randint(0, len(universe))
    return Term(universe, _random_codes(universe, rng, width))


def random_clause(universe: Universe, rng: random.Random, width: int | None = None) -> Clause:
    if width is None:
        width = rng.randint(1, max(1, min(3, len(universe))))
    return Clause(universe, _random_codes(universe, rng, width))


def random_cnf(
    universe: Universe, rng: random.Random, clauses: int | None = None
) -> Cnf:
    if clauses is None:
        clauses = rng.randint(1, 2 * len(universe))
    return Cnf(universe, [random_clause(universe, rng) for _ in range(clauses)])


def random_dnf(universe: Universe, rng: random.Random, terms: int | None = None) -> Dnf:
    if terms is None:
        terms = rng.randint(1, 2 * len(universe))
    return Dnf(
        universe,
        [
            random_term(universe, rng, rng.randint(1, max(1, min(3, len(universe)))))
            for _ in range(terms)
        ],
    )


def all_terms(universe: Universe) -> Iterator[Term]:
    """Every term over the universe (3^n of them)."""
    options = [(None, 2 * i, 2 * i + 1) for i in range(len(universe))]
    for picks in product(*options):
        yield Term(universe, tuple(c for c in picks if c is not None))


# -- decision circuits -------------------------------------------------------------


def _table_cofactors(table: int, remaining: int) -> tuple[int, int]:
    """Split a truth table over ``remaining`` variables on its first variable."""
    low = high = 0
    for j in range(1 << (remaining - 1)):
        low |= (table >> (2 * j) & 1) << j
        high |= (table >> (2 * j + 1) & 1) << j
    return low, high


def _shannon(
    builder: CircuitBuilder,
    variables: Sequence[int],
    pos: int,
    table: int,
    memo: dict,
) -> int:
    remaining = len(variables) - pos
    if remaining == 0:
        return builder.const(bool(table & 1))
    key = (pos, table)
    got = memo.get(key)
    if got is not None:
        return got
    low_table, high_table = _table_cofactors(table, remaining)
    low = _shannon(builder, variables, pos + 1, low_table, memo)
    high = _shannon(builder, variables, pos + 1, high_table, memo)
    if low == high:
        out = low
    else:
        var = variables[pos]
        out = builder.add_or(
            [
                builder.add_and([builder.lit(2 * var), low]),
                builder.add_and([builder.lit(2 * var + 1), high]),
            ],
            decision=var,
        )
    memo[key] = out
    return out


def random_decision_dnnf(universe: Universe, rng: random.Random) -> Circuit:
    """A verified decision circuit: conjunction of Shannon-expanded random
    functions over disjoint variable groups."""
    n = len(universe)
    indexes = list(range(n))
    rng.shuffle(indexes)
    group_count = rng.randint(1, max(1, min(3, n)))
    groups: list[list[int]] = [[] for _ in range(group_count)]
    for position, var in enumerate(indexes):
        groups[position % group_count].append(var)
    builder = CircuitBuilder(universe)
    roots = []
    for group in groups:
        if not group:
            continue
        table = rng.getrandbits(1 << len(group))
        roots.append(_shannon(builder, group, 0, table, {}))
    root = roots[0] if len(roots) == 1 else builder.add_and(roots)
    circuit = builder.finish(root, Annotation.DECISION_DNNF)
    return verify_decision_dnnf(circuit)


def parity_decision_dnnf(universe: Universe) -> Circuit:
    """A chain-shaped decision circuit (odd parity), linear in the universe.

    Built verified by construction; used for the size/timing ladders where
    re-verification would dominate the measurement.
    """
    n = len(universe)
    builder = CircuitBuilder(universe)
    even, odd = builder.const(True), builder.const(False)
    for i in range(n - 1, -1, -1):
        lit_neg, lit_pos = builder.lit(2 * i), builder.lit(2 * i + 1)
        next_even = builder.add_or(
            [builder.add_and([lit_neg, even]), builder.add_and([lit_pos, odd])],
            decision=i,
        )
        next_odd = builder.add_or(
            [builder.add_and([lit_neg, odd]), builder.add_and([lit_pos, even])],
            decision=i,
        )
        even, odd = next_even, next_odd
    return builder.finish(odd, Annotation.DECISION_DNNF, verified=True)


def big_random_cnf(universe: Universe, rng: random.Random, clauses: int, width: int = 3) -> Cnf:
    """A large random CNF built straight from code tuples, for the ladders."""
    width = min(width, len(universe))
    return Cnf._of(universe, [_random_codes(universe, rng, width) for _ in range(clauses)])


# -- partition circuits --------------------------------------------------------------


def _cube_split(variables: Sequence[int], rng: random.Random) -> list[tuple[int, ...]]:
    """A random partition of the cube over ``variables`` into literal terms."""
    if not variables or rng.random() < 0.3:
        return [()]
    var = variables[0]
    rest = variables[1:]
    left = [(2 * var + 1,) + t for t in _cube_split(rest, rng)]
    right = [(2 * var,) + t for t in _cube_split(rest, rng)]
    return left + right


def _term_node(builder: CircuitBuilder, codes: tuple[int, ...]) -> int:
    if not codes:
        return builder.const(True)
    if len(codes) == 1:
        return builder.lit(codes[0])
    return builder.add_and([builder.lit(c) for c in codes])


def _random_sdd_node(
    builder: CircuitBuilder, variables: Sequence[int], rng: random.Random, depth: int
) -> int:
    if not variables:
        return builder.const(rng.random() < 0.5)
    if len(variables) == 1 or depth <= 0:
        roll = rng.random()
        if roll < 0.15:
            return builder.const(roll < 0.075)
        return builder.lit(2 * variables[0] + rng.randrange(2))
    prime_count = rng.randint(1, min(2, len(variables) - 1))
    prime_vars = variables[:prime_count]
    sub_vars = variables[prime_count:]
    terms = _cube_split(prime_vars, rng)
    while len(terms) < 2:
        terms = _cube_split(prime_vars, rng)
    children = []
    for codes in terms:
        prime = _term_node(builder, codes)
        sub = _random_sdd_node(builder, sub_vars, rng, depth - 1)
        children.append(builder.add_and([prime, sub]))
    return builder.add_or(children)


def random_sdd(universe: Universe, rng: random.Random) -> Circuit:
    """A verified partition circuit over a shuffled variable order."""
    indexes = list(range(len(universe)))
    rng.shuffle(indexes)
    builder = CircuitBuilder(universe)
    root = _random_sdd_node(builder, indexes, rng, depth=3)
    circuit = builder.finish(root, Annotation.SDD)
    return verify_sdd(circuit)

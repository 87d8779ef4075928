"""The partition rule, ``circuits.partition_fault``, in its two callers.

A classifier's CNF pair is accepted without the oracle when the negated
clauses of both sides partition the worlds; a seeded differential checks the
whole mutual-negation check against ``oracle.equivalent`` on decision-tree
pairs, their mutants and a partition that no tree makes.  The SDD verifier
takes the same rule past 10 prime variables, on primes built in memory and
on the same primes read back from the text the writer emits.
"""

import random

import pytest

from conftest import unit_clause_bundle
from qlit import oracle
from qlit.circuits import emit_sdd, parse_sdd, partition_fault, verify_sdd
from qlit.core import Annotation, CircuitBuilder, Universe, negate
from qlit.errors import CapacityError, StructureError, UniverseMismatchError
from qlit.io import parse_classifier_bundle
from qlit.tractable import Cnf
from qlit.xai import Classifier


def _mask(codes) -> int:
    return sum(1 << c for c in codes)


# the five terms a & ~b, b & ~c, c & ~a, a & b & c and ~a & ~b & ~c over the
# variables (a, b, c) = (0, 1, 2): they partition the worlds, yet no variable
# is in all of them, so no decision tree has them as its leaves
CYCLE = ((1, 2), (3, 4), (5, 0), (1, 3, 5), (0, 2, 4))


def _on(term, variables):
    """``term``, a ``CYCLE`` term, moved onto ``variables``."""
    return tuple(sorted(2 * variables[c >> 1] + (c & 1) for c in term))


def tree_paths(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """The leaf paths of a random decision tree over ``n`` variables, as
    literal codes; a leaf with three unused variables may instead end in the
    five ``CYCLE`` terms over them."""
    paths = [()]
    for _ in range(rng.randint(0, 2 * n)):
        open_ = [k for k, p in enumerate(paths) if len(p) < n]
        if not open_:
            break
        path = paths.pop(rng.choice(open_))
        var = rng.choice([v for v in range(n) if v not in {c >> 1 for c in path}])
        paths += [path + (2 * var + 1,), path + (2 * var,)]
    for k, path in enumerate(paths):
        free = [v for v in range(n) if v not in {c >> 1 for c in path}]
        if len(free) >= 3 and rng.random() < 0.2:
            chosen = rng.sample(free, 3)
            paths[k:k + 1] = [path + _on(term, chosen) for term in CYCLE]
            break
    return paths


MUTANTS = ("tree", "dropped", "swapped", "unit", "repeated", "weakened", "empty")


def cnf_pair(seed: int):
    """A seeded pair ``(kind, positive, negative)`` over 2-20 features: the two
    sides of a decision tree (each clause a leaf's path negated), or one
    mutant of them."""
    rng = random.Random(seed)
    n = 2 + seed % 19
    kind = MUTANTS[seed // 19 % len(MUTANTS)]
    paths = tree_paths(rng, n)
    sides = ([], [])
    for path in paths:
        sides[rng.randrange(2)].append(tuple(sorted(c ^ 1 for c in path)))
    side = rng.randrange(2)
    mine, other = sides[side], sides[1 - side]
    if kind == "dropped" and mine:
        mine.pop(rng.randrange(len(mine)))
    elif kind == "swapped" and mine:
        other.append(mine.pop(rng.randrange(len(mine))))
    elif kind == "unit":
        mine.append((rng.randrange(2 * n),))
    elif kind == "repeated" and mine:
        other.append(rng.choice(mine))
    elif kind == "weakened" and mine:
        # a clause widened by one literal is implied by the clause, so the
        # side keeps its models while the negated clauses overlap
        clause = rng.choice(mine)
        free = [v for v in range(n) if v not in {c >> 1 for c in clause}]
        if free:
            mine.append(tuple(sorted(clause + (2 * rng.choice(free) + rng.randrange(2),))))
    elif kind == "empty":
        mine.clear()
    u = Universe(n)

    def cnf(clauses):
        return Cnf(u, [[u.literal_by_code(c) for c in clause] for clause in clauses])

    return kind, cnf(sides[0]), cnf(sides[1])


def accepted(positive, negative) -> bool:
    try:
        Classifier(positive, negative)
    except UniverseMismatchError:
        return False
    return True


@pytest.mark.filterwarnings("error")
class TestMutualNegation:
    def test_accepted_exactly_when_the_oracle_agrees(self):
        faults = {None: 0, "overlap": 0, "gap": 0}
        outcomes = {True: 0, False: 0}
        for seed in range(1_064):
            kind, positive, negative = cnf_pair(seed)
            truth = oracle.equivalent(negative, negate(positive.to_formula()))
            fault = partition_fault([*map(_mask, positive.codes), *map(_mask, negative.codes)])
            faults[fault] += 1
            outcomes[truth] += 1
            # a partition is the negation and a gap is not; only an overlap needs the oracle
            assert fault == "overlap" or truth is (fault is None), (seed, kind)
            assert accepted(positive, negative) is truth, (seed, kind)
        assert min(faults.values()) >= 100 and min(outcomes.values()) >= 300

    def test_a_partition_no_tree_makes_is_accepted(self):
        u = Universe(["a", "b", "c"])
        clauses = [[u.literal_by_code(c ^ 1) for c in term] for term in CYCLE]
        for split in range(1 << len(CYCLE)):
            sides = ([], [])
            for k, clause in enumerate(clauses):
                sides[split >> k & 1].append(clause)
            assert accepted(Cnf(u, sides[0]), Cnf(u, sides[1]))

    def test_empty_sides(self):
        u = Universe(["a"])
        assert not accepted(Cnf(u), Cnf(u))  # true, true
        assert accepted(Cnf(u, [[]]), Cnf(u))  # false, true
        assert partition_fault([]) == "gap" and partition_fault([0]) is None

    def test_a_tree_pair_past_the_oracle_cap_is_accepted(self):
        n = oracle.default_cap() + 40
        rng = random.Random(3)
        while True:
            paths = tree_paths(rng, n)
            if len(paths) > 20:
                break
        u = Universe(n)
        sides = ([], [])
        for k, path in enumerate(paths):
            sides[k % 2].append([u.literal_by_code(c ^ 1) for c in path])
        positive, negative = Cnf(u, sides[0]), Cnf(u, sides[1])
        assert Classifier(positive, negative).negative is negative
        with pytest.raises(UniverseMismatchError, match="negation"):
            Classifier(positive, Cnf(u, sides[1][1:]))

    def test_other_pairs_past_the_oracle_cap_raise(self):
        n = oracle.default_cap() + 1
        u = Universe(n)
        formula = u.all_disj(u.lit(v.name) for v in u.variables)
        with pytest.raises(CapacityError):
            Classifier(formula, negate(formula))
        # the negated clauses overlap, so only the oracle could decide
        positive = Cnf(u, [u.clause("x1"), u.clause("x1,x2")])
        negative = Cnf(u, [u.clause("~x1")])
        with pytest.raises(CapacityError):
            Classifier(positive, negative)

    def test_a_positive_side_alone_loads_at_any_size(self):
        bundle = parse_classifier_bundle(unit_clause_bundle(1200))
        classifier = Classifier(bundle.positive)
        assert len(classifier.features) == 1200 and classifier.clause_masks[1] is None


# -- the SDD verifier's term route --------------------------------------------------


def term_sdd(primes, n: int):
    """An SDD over ``n`` prime variables and two more: one or-node whose
    primes are the code tuples ``primes`` (terms) or ``"or"`` (the non-term
    ``(x1 & x2) | (~x1 & x3)``), each with a literal sub over the two extra
    variables.  The circuit is annotated, not verified."""
    u = Universe(n + 2)
    builder = CircuitBuilder(u)
    elements = []
    for k, prime in enumerate(primes):
        if prime == "or":
            node = builder.add_or([
                builder.add_and([builder.lit(1), builder.lit(3)]),
                builder.add_and([builder.lit(0), builder.lit(5)]),
            ])
        elif len(prime) == 1:
            node = builder.lit(prime[0])
        else:
            node = builder.add_and([builder.lit(c) for c in prime])
        elements.append(builder.add_and((node, builder.lit(2 * n + k % 4))))
    return u, builder.finish(builder.add_or(elements), Annotation.SDD)


def decision_list(n: int) -> list[tuple[int, ...]]:
    """The terms ``x1``, ``~x1 & x2``, ..., ``~x1 & ... & ~xn``."""
    return [tuple(range(0, 2 * k, 2)) + ((2 * k + 1,) if k < n else ()) for k in range(n + 1)]


def both_routes(primes, n: int):
    """The circuit verified in memory, and read back from its SDD text."""
    u, circuit = term_sdd(primes, n)
    return u, circuit, lambda: verify_sdd(circuit), lambda: parse_sdd(emit_sdd(circuit), u)


class TestSddTermPartitions:
    @pytest.mark.parametrize("n", [4, 10, 11, 16])
    def test_decision_list_round_trips(self, n):
        u, circuit, in_memory, from_text = both_routes(decision_list(n), n)
        for verified in (in_memory(), from_text()):
            assert verified.annotation == Annotation.SDD and verified.verified
            assert oracle.equivalent(verified, circuit)

    def test_wide_partition_with_primes_in_any_order(self):
        primes = decision_list(40)
        random.Random(7).shuffle(primes)
        u, circuit, in_memory, from_text = both_routes(primes, 40)
        in_memory()
        from_text()

    @pytest.mark.parametrize("fault,message", [
        ("overlap", "primes are not pairwise inconsistent"),
        ("gap", "primes do not cover all assignments"),
        ("or", "prime too large for semantic check and not term shaped"),
    ])
    def test_faults_are_refused(self, fault, message):
        primes = decision_list(16)
        if fault == "overlap":
            primes[-1] = primes[-1][1:]  # drops ~x1, so it meets the prime x1
        elif fault == "gap":
            primes.pop()
        else:
            primes[-1] = "or"
        _, _, in_memory, from_text = both_routes(primes, 16)
        for route in (in_memory, from_text):
            with pytest.raises(StructureError, match=message):
                route()

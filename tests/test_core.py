"""Core value types: worlds, terms, clauses, formulas, conditioning,
evaluation and negation."""

import random
import sys
import threading

import pytest

from qlit import oracle
from qlit.core import (
    CircuitBuilder,
    Universe,
    World,
    condition,
    evaluate,
    flip,
    negate,
    to_nnf,
)
from qlit.errors import ArityError, InvalidLiteralSetError, UniverseMismatchError
from qlit.generators import random_formula
from qlit.io import parse_formula
from qlit.quantify import exists_literal, forall_literal

from conftest import tt_models


class TestFlip:
    def test_flip_to_opposite_literal(self, xyz):
        w = xyz.world(["x", "y", "~z"])
        assert str(flip(w, xyz.literal("~x"))) == "~x y ~z"

    def test_flip_to_held_literal_is_identity(self, xyz):
        w = xyz.world(["x", "y", "~z"])
        assert flip(w, xyz.literal("x")) is w

    def test_flip_involution(self, xyz):
        rng = random.Random(7)
        for _ in range(50):
            w = World(xyz, rng.getrandbits(3))
            lit = xyz.literal_by_code(rng.randrange(6))
            if lit not in w:
                assert flip(flip(w, lit), ~lit) == w

    def test_foreign_variable_rejected(self, xyz):
        other = Universe(["a"])
        w = xyz.world(["x", "y", "z"])
        with pytest.raises(UniverseMismatchError):
            flip(w, other.literal("a"))


class TestCondition:
    def test_equivalence_conditioned_on_x(self):
        u = Universe(["x", "y"])
        f = parse_formula("(x => y) & (y => x)", u)
        conditioned = condition(f, u.literal("x"))
        assert tt_models(conditioned) == tt_models(u.lit("y"))

    def test_constant_untouched(self, xyz):
        assert condition(xyz.true, xyz.literal("x")) is xyz.true

    def test_loan_cnf_conditioned_on_not_d(self):
        u = Universe(["d", "g", "h", "i"])
        f = parse_formula("(h | i) & (~d | g) & (~d | i)", u)
        conditioned = condition(f, u.literal("~d"))
        assert tt_models(conditioned) == tt_models(parse_formula("h | i", u))

    def test_result_never_mentions_the_variable(self, xyz):
        rng = random.Random(3)
        for _ in range(200):
            f = random_formula(xyz, rng)
            lit = xyz.literal_by_code(rng.randrange(6))
            conditioned = condition(f, lit)
            assert lit.variable not in conditioned.mentioned_variables()


class TestEvaluate:
    def test_model_of_majority_like_formula(self, xyz):
        f = parse_formula("(x | y) & (x | z) & (y | z)", xyz)
        assert evaluate(f, xyz.world(["~x", "y", "z"])) is True

    def test_counter_model(self, xyz):
        f = parse_formula("(x | y) & (x | z) & (y | z)", xyz)
        assert evaluate(f, xyz.world(["~x", "~y", "~z"])) is False

    def test_false_everywhere(self, xyz):
        for w in xyz.worlds():
            assert evaluate(xyz.false, w) is False

    def test_agrees_with_structural_recursion(self, xyz):
        rng = random.Random(11)
        for _ in range(100):
            f = random_formula(xyz, rng)
            expected = tt_models(f)
            for w in xyz.worlds():
                assert evaluate(f, w) == (w.bits in expected)


class TestNegate:
    def test_de_morgan_on_conjunction(self):
        u = Universe(["x", "y"])
        negated = negate(u.lit("x") & u.lit("y"))
        assert str(negated) == "~x | ~y"

    def test_loan_negation_matches_published_cnf(self):
        u = Universe(["d", "g", "h", "i"])
        delta = parse_formula("(h | i) & (~d | g) & (~d | i)", u)
        want = parse_formula("(d | ~i) & (d | ~h) & (~g | ~i)", u)
        assert tt_models(negate(delta)) == tt_models(want)

    def test_double_negation_preserves_models(self, xyz):
        rng = random.Random(13)
        for _ in range(100):
            f = random_formula(xyz, rng)
            assert tt_models(negate(negate(f))) == tt_models(f)

    def test_model_complement(self, xyz):
        rng = random.Random(17)
        everything = set(range(8))
        for _ in range(200):
            f = random_formula(xyz, rng)
            assert tt_models(negate(f)) == everything - tt_models(f)

    def test_negation_is_nnf(self, xyz):
        rng = random.Random(19)
        for _ in range(100):
            f = random_formula(xyz, rng)
            stack = [negate(f)]
            while stack:
                node = stack.pop()
                assert node.kind != "not"
                stack.extend(node.children)


class TestLiteralSets:
    def test_term_rejects_complementary_pair(self, xyz):
        with pytest.raises(InvalidLiteralSetError):
            xyz.term("x,~x")

    def test_clause_rejects_complementary_pair(self, xyz):
        with pytest.raises(InvalidLiteralSetError):
            xyz.clause(["y", "~y"])

    def test_empty_term_is_true_and_empty_clause_false(self, xyz):
        assert tt_models(xyz.term().to_formula()) == set(range(8))
        assert tt_models(xyz.clause().to_formula()) == set()

    def test_canonical_order(self, xyz):
        term = xyz.term("z,~x,y")
        assert str(term) == "~x,y,z"


class TestStructuralHashing:
    def test_same_expression_same_identity(self, xyz):
        x, y = xyz.lit("x"), xyz.lit("y")
        assert (x & y) is (x & y)
        assert (x | y) is not (y | x)
        assert ~x is ~x

    def test_mixed_universe_operation_rejected(self, xyz):
        other = Universe(["x"])
        with pytest.raises(UniverseMismatchError):
            xyz.lit("x") & other.lit("x")

    def test_two_threads_get_one_node_per_key(self):
        # two threads build the same 600 conjunctions on each of 60 fresh
        # universes, switching as often as the interpreter allows; both must
        # get the node the universe keeps for each key
        rng = random.Random(4099)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(60):
                u = Universe(24)
                pairs = [(rng.randrange(48), rng.randrange(48)) for _ in range(600)]
                barrier = threading.Barrier(2, timeout=60)
                results = [[], []]

                def build(slot):
                    barrier.wait()
                    results[slot] = [u.lit(a) & u.lit(b) for a, b in pairs]

                threads = [threading.Thread(target=build, args=(slot,)) for slot in (0, 1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                first, second = results
                assert len(first) == len(second) == 600
                assert all(a is b for a, b in zip(first, second))
                assert all(u._node_cache[node.key] is node for node in first)
        finally:
            sys.setswitchinterval(old)
        assert sys.getswitchinterval() == old


class TestWorlds:
    def test_world_must_be_total(self, xyz):
        with pytest.raises(ArityError):
            xyz.world(["x", "y"])

    def test_world_rejects_duplicate_variable(self, xyz):
        with pytest.raises(ArityError):
            xyz.world(["x", "~x", "y"])

    def test_round_trip_through_term(self, xyz):
        w = xyz.world(["x", "~y", "z"])
        assert w.to_term().to_world() == w

    def test_evaluate_rejects_foreign_world(self, xyz):
        other = Universe(["x", "y", "z"])
        f = xyz.lit("x")
        with pytest.raises(UniverseMismatchError):
            evaluate(f, other.world(["x", "y", "z"]))


class TestCircuitNegation:
    def test_dual_construction_bounds_and_models(self, xyz):
        from qlit.generators import random_decision_dnnf
        from qlit import oracle

        rng = random.Random(23)
        for _ in range(50):
            circuit = random_decision_dnnf(xyz, rng)
            negated = negate(circuit)
            assert len(negated) <= 2 * len(circuit)
            full = set(range(8))
            assert (
                oracle.enumerate_models(negated).bits()
                == full - oracle.enumerate_models(circuit.to_formula()).bits()
            )


class TestNnf:
    def test_to_nnf_pushes_negations(self, xyz):
        f = ~(xyz.lit("x") & ~(xyz.lit("y") | xyz.lit("z")))
        nnf = to_nnf(f)
        stack = [nnf]
        while stack:
            node = stack.pop()
            assert node.kind != "not"
            stack.extend(node.children)
        assert tt_models(nnf) == tt_models(f)


DEPTH = 10**5


@pytest.fixture(scope="module")
def deep_chain():
    """A left-deep chain alternating ``and`` and ``or``, DEPTH gates deep."""
    u = Universe(["x", "y", "z"])
    leaves = [u.lit("x"), u.lit("~y"), u.lit("z")]
    f = leaves[0]
    for i in range(DEPTH):
        f = (f & leaves[i % 3]) if i % 2 else (f | leaves[i % 3])
    return f


class TestDeepChains:
    """Every pass is a loop over the shared walk, so depth is bounded by
    memory, not by the recursion limit."""

    def test_no_recursion_limit_override(self):
        assert sys.getrecursionlimit() < DEPTH

    def test_condition_and_quantifiers(self, deep_chain):
        u = deep_chain.universe
        x = u.literal("x")
        mask = oracle.models_mask(deep_chain)
        given_x = oracle._condition_mask(u, mask, x)
        given_not_x = oracle._condition_mask(u, mask, ~x)
        x_mask = oracle.models_mask(u.lit("x"))
        assert oracle.models_mask(condition(deep_chain, x)) == given_x
        assert oracle.models_mask(forall_literal(deep_chain, x)) == (
            (x_mask | given_not_x) & given_x
        )
        assert oracle.models_mask(exists_literal(deep_chain, x)) == (
            given_x | (~x_mask & given_not_x)
        )

    def test_negate_and_nnf(self, deep_chain):
        mask = oracle.models_mask(deep_chain)
        assert oracle.models_mask(negate(deep_chain)) == 0xFF & ~mask
        assert oracle.models_mask(to_nnf(deep_chain)) == mask

    def test_evaluate_and_models_mask_agree(self, deep_chain):
        u = deep_chain.universe
        mask = oracle.models_mask(deep_chain)
        for bits in range(8):
            assert evaluate(deep_chain, World(u, bits)) == bool(mask >> bits & 1)

    def test_str(self, deep_chain):
        text = str(deep_chain)
        # every or-gate under an and-gate is parenthesized
        assert text.count("(") == text.count(")") == DEPTH // 2
        assert text.startswith("(" * (DEPTH // 2) + "x | x) & ~y | z) & x")
        assert text.endswith(" | z) & x")

    def test_circuit_to_formula(self):
        u = Universe(["x", "y", "z"])
        builder = CircuitBuilder(u)
        node = builder.lit(1)
        for i in range(DEPTH):
            if i % 2:
                node = builder.add_and([node, builder.lit(3)])
            else:
                node = builder.add_or([node, builder.lit(4)])
        circuit = builder.finish(node)
        assert oracle.models_mask(circuit.to_formula()) == oracle.models_mask(circuit)

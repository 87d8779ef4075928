"""Core value types: worlds, terms, clauses, formulas, conditioning,
evaluation and negation."""

import copy
import pickle
import random
import sys
import threading

import pytest

from qlit import oracle
from qlit.core import (
    CircuitBuilder,
    Literal,
    Universe,
    Variable,
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
from qlit.tractable import Cnf, Dnf

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


class TestRecords:
    """``Variable`` and ``Literal`` are immutable records compared by field;
    formulas and circuits are immutable too."""

    def test_assignment_and_deletion_are_refused(self, xyz):
        var, lit = xyz.variable("x"), xyz.literal("~y")
        for record, field in ((var, "index"), (var, "name"), (lit, "positive"), (lit, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert (var.index, var.name, lit.positive) == (0, "x", False)

    def test_formulas_and_circuits_refuse_assignment_and_deletion(self, xyz):
        formula = xyz.lit("x") & xyz.lit("y")
        builder = CircuitBuilder(xyz)
        circuit = builder.finish(builder.add_and([builder.lit(1), builder.lit(3)]))
        for value, fields in (
            (formula, ("id", "universe", "extra")),
            (circuit, ("annotation", "partitions", "root", "kinds", "extra")),
        ):
            for field in fields:
                with pytest.raises(AttributeError):
                    setattr(value, field, 0)
                with pytest.raises(AttributeError):
                    delattr(value, field)
        # the one interned handle every holder shares still names its node
        assert formula is xyz.lit("x") & xyz.lit("y") and str(formula) == "x & y"
        assert circuit.annotation == "nnf" and circuit.partitions is None

    def test_equal_fields_compare_and_hash_alike(self, xyz):
        var = xyz.variable("y")
        twin = Variable(1, "y")
        assert twin == var and twin is not var and hash(twin) == hash(var)
        assert Variable(1, "z") != var and Variable(2, "y") != var and var != (1, "y")
        lit = Literal(twin, True)
        assert lit == xyz.literal("y") and hash(lit) == hash(xyz.literal("y"))
        assert {lit: 1}[xyz.literal("y")] == 1
        assert ~lit == xyz.literal("~y") and ~lit != lit
        assert sorted([xyz.literal("z"), lit, ~lit]) == [~lit, lit, xyz.literal("z")]
        assert repr(var) == "Variable(1, 'y')" and repr(~lit) == "Literal(~y)"

    def test_records_survive_copy_and_pickle(self, xyz):
        lit = xyz.literal("~z")
        assert pickle.loads(pickle.dumps(lit)) == lit
        assert copy.deepcopy(lit) == lit and copy.copy(lit.variable) == lit.variable


class TestFlatFormViews:
    """A CNF or DNF stores code tuples; ``Clause`` and ``Term`` objects are
    made on each access and never kept."""

    def test_each_access_makes_equal_new_elements(self, xyz):
        cnf = Cnf(xyz, [["x", "~y"], "z"])
        first, second = cnf.elements, cnf.clauses
        assert first == second == (xyz.clause("x,~y"), xyz.clause("z"))
        assert all(a is not b for a, b in zip(first, second))
        assert cnf.codes == ((1, 2), (5,))
        dnf = Dnf(xyz, [xyz.term("y"), []])
        assert dnf.terms == (xyz.term("y"), xyz.term()) and dnf.terms[0] is not dnf.terms[0]

    def test_duplicates_are_kept_once_in_first_order(self, xyz):
        clause = xyz.clause("y,x")
        cnf = Cnf(xyz, [clause, xyz.clause("z"), clause, ["x", "y"]])
        assert cnf.codes == ((1, 3), (5,)) and len(cnf) == 2
        assert cnf == Cnf(xyz, ["z", "x,y"]) and hash(cnf) == hash(Cnf(xyz, ["z", "x,y"]))

    def test_invalid_elements_are_refused(self, xyz):
        with pytest.raises(InvalidLiteralSetError):
            Cnf(xyz, [["x", "~x"]])
        with pytest.raises(InvalidLiteralSetError):
            Dnf(xyz, ["y,~y"])
        with pytest.raises(InvalidLiteralSetError):
            Cnf(xyz, [Universe(["x", "y", "z"]).clause("x")])
        with pytest.raises(InvalidLiteralSetError):
            Dnf(xyz, [Universe(["x"]).term("x")])

    def test_no_state_beyond_the_codes(self, xyz):
        cnf = Cnf(xyz, ["y,z", "x"])
        str(cnf), list(cnf), cnf.elements
        assert set(Cnf.__slots__) | set(Cnf.__mro__[1].__slots__) == {"universe", "codes"}
        assert not hasattr(cnf, "__dict__")
        assert str(cnf) == "x & (y | z)" and cnf.codes == ((3, 5), (1,))


class TestStructuralHashing:
    def test_same_expression_same_identity(self, xyz):
        x, y = xyz.lit("x"), xyz.lit("y")
        assert (x & y) is (x & y)
        assert (x | y) is not (y | x)
        assert ~x is ~x

    def test_gate_refuses_what_it_cannot_print_or_fold(self, xyz):
        """An unknown kind, a ``not`` of other than one part, and a constant
        (which would intern a second ``true``) are refused, adding no node;
        ``and`` and ``or`` of any arity are gates."""
        x, y = xyz.lit("x"), xyz.lit("y")
        nodes = len(xyz._store.kinds)
        for kind, parts in [("xor", [x, y]), ("not", [x, y]), ("not", []), ("true", [])]:
            with pytest.raises(ValueError):
                xyz.gate(kind, parts)
        assert len(xyz._store.kinds) == nodes
        assert xyz.gate("not", [x]) is ~x and xyz.gate("and", [x, y]) is x & y
        assert str(xyz.gate("or", [x])) == "x" and xyz.gate("and", []).children == ()

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
                assert all(
                    u._node_cache[("and", tuple(c.id for c in node.children), -1)] == node.id
                    for node in first
                )
        finally:
            sys.setswitchinterval(old)
        assert sys.getswitchinterval() == old

    def test_two_threads_add_disjoint_nodes_at_distinct_ids(self):
        # one thread builds conjunctions, the other disjunctions, all new to
        # the store, switching as often as the interpreter allows; a lost
        # race on the store's miss path would give two keys one id.  The
        # store's kind list appends through a Python call, where a switch
        # can fall between taking an id and recording it
        class SwitchingList(list):
            def append(self, item):
                super().append(item)

        rng = random.Random(4111)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(60):
                u = Universe(24)
                u._store.kinds = SwitchingList(u._store.kinds)
                lits = [u.lit(code) for code in range(48)]
                pairs = list({(rng.randrange(48), rng.randrange(48)) for _ in range(600)})
                barrier = threading.Barrier(2, timeout=60)
                results = {}

                def build(kind):
                    barrier.wait()
                    results[kind] = [u.gate(kind, (lits[a], lits[b])) for a, b in pairs]

                threads = [threading.Thread(target=build, args=(kind,)) for kind in ("and", "or")]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                store = u._store
                assert len(store.kinds) == len(store.args) == len(u._node_cache) == 50 + 2 * len(pairs)
                for kind, nodes in results.items():
                    for node, (a, b) in zip(nodes, pairs):
                        arg = (lits[a].id, lits[b].id)
                        assert (store.kinds[node.id], store.args[node.id]) == (kind, arg)
                        assert node.kind == kind and node.children == (lits[a], lits[b])
                        assert u._node_cache[(kind, arg, -1)] == node.id
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


def _ref_prune(kinds, args, decisions, root):
    """The lists of the nodes reachable from ``root``, renumbered in order."""
    kept = sorted(_reachable(args, root))
    new_id = {old: new for new, old in enumerate(kept)}.__getitem__
    return (
        [kinds[i] for i in kept],
        [tuple(map(new_id, args[i])) if type(args[i]) is tuple else args[i] for i in kept],
        [decisions[i] for i in kept],
        new_id(root),
    )


def _reachable(args, root):
    """The ids under ``root``, root included."""
    seen, stack = {root}, [root]
    while stack:
        arg = args[stack.pop()]
        for child in arg if type(arg) is tuple else ():
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def _random_builder(rng, n):
    """A builder holding literals and random gates over older nodes."""
    b = CircuitBuilder(Universe(n))
    ids = [b.lit(code) for code in rng.sample(range(2 * n), min(2 * n, 4))]
    for _ in range(rng.randrange(1, 30)):
        kids = tuple(rng.sample(ids, rng.randint(1, min(3, len(ids)))))
        ids.append(b._add(rng.choice(["and", "or"]), kids, rng.randrange(-1, n)))
    return b


class TestFinishPrunesOnlyOrphans:
    def test_orphans_are_pruned_and_the_rest_renumbered(self):
        rng = random.Random(1108)
        pruned = 0
        for _ in range(300):
            b = _random_builder(rng, rng.randint(2, 6))
            lists = (list(b.kinds), list(b.args), list(b.decisions))
            root = rng.randrange(len(b.kinds))
            c = b.finish(root, prune=True)
            want = _ref_prune(*lists, root)
            assert (c.kinds, c.args, c.decisions, c.root) == want
            pruned += len(c.kinds) < len(lists[0])
        assert pruned > 200

    def test_without_orphans_the_lists_are_kept_and_no_walk_runs(self, monkeypatch):
        from qlit import core

        def no_walk(*args):
            raise AssertionError("walked")

        rng = random.Random(1109)
        for _ in range(100):
            b = _random_builder(rng, rng.randint(2, 6))
            parents = {child for arg in b.args if type(arg) is tuple for child in arg}
            orphans = tuple(i for i in range(len(b.kinds)) if i not in parents)
            root = orphans[0] if len(orphans) == 1 else b._add("or", orphans)
            lists = (b.kinds, b.args, b.decisions)
            with monkeypatch.context() as patch:
                patch.setattr(core, "walk", no_walk)
                c = b.finish(root, prune=True)
            assert (c.kinds, c.args, c.decisions) == lists
            assert c.kinds is b.kinds and c.args is b.args and c.decisions is b.decisions
            assert c.root == root and len(_reachable(c.args, root)) == len(c.kinds)


class TestUniverseValues:
    def test_built_values_equal_constructed_ones(self):
        for names in (0, 3, ["a", "b c", "~d", "x1"]):
            u = Universe(names)
            n = len(u)
            assert [v.name for v in u] == (names if isinstance(names, list) else [f"x{i + 1}" for i in range(n)])
            assert u.variables == tuple(Variable(i, v.name) for i, v in enumerate(u))
            assert u._literals == tuple(Literal(v, p) for v in u.variables for p in (False, True))
            assert all(type(lit.positive) is bool and lit.variable is u.variables[lit.code >> 1] for lit in u._literals)
            assert u._by_name == {v.name: v for v in u.variables}
            for value in (*u.variables, *u._literals):
                with pytest.raises(AttributeError):
                    value.index = 0

    @pytest.mark.parametrize(
        "names, repeated", [(["a", "b", "a"], "a"), (["a", "b", "b", "a"], "b"), (iter("xyzy"), "y")]
    )
    def test_the_first_repeated_name_is_refused(self, names, repeated):
        with pytest.raises(InvalidLiteralSetError, match=f"duplicate variable name '{repeated}'"):
            Universe(names)

"""The enumeration oracle: models, boundary models, rules, independence,
reconstruction and the rule-transition report."""

import dataclasses
import random
import threading

import pytest

from qlit import core
from qlit.core import Universe, World, evaluate, negate, truth_table
from qlit.errors import (
    CapacityError,
    ConfigurationError,
    PreconditionError,
    UniverseMismatchError,
)
from qlit.generators import (
    parity_decision_dnnf,
    random_clause,
    random_consistent_formula,
    random_decision_dnnf,
    random_formula,
    random_sdd,
    random_term,
)
from qlit.io import parse_formula
from qlit.quantify import forall_literal, quantify_set
from qlit.tractable import Cnf, Dnf, cnf_forall_literal, ddnnf_forall, dnf_exists_literal
from qlit import oracle

from conftest import tt_models
from table_memory import TestTableMemory  # noqa: F401  (collected here)


def rules_as_text(value) -> set[str]:
    return {str(r) for r in oracle.b_rules(value)}


class TestEnumerateModels:
    def test_majority_like_formula_has_four_models(self, xyz):
        f = parse_formula("(x | y) & (x | z) & (y | z)", xyz)
        got = {str(w) for w in oracle.enumerate_models(f)}
        assert got == {"~x y z", "x ~y z", "x y ~z", "x y z"}

    def test_false_has_no_models(self, xyz):
        assert len(oracle.enumerate_models(xyz.false)) == 0

    def test_matches_independent_recursion(self):
        u = Universe(4)
        rng = random.Random(23)
        for _ in range(150):
            f = random_formula(u, rng)
            assert oracle.enumerate_models(f).bits() == frozenset(tt_models(f))


class TestBoundaryModels:
    def test_equivalence_formula_is_boundary_on_both_variables(self):
        u = Universe(["x", "y"])
        f = parse_formula("(x => y) & (y => x)", u)
        got = {(str(w), str(l)) for w, l in oracle.boundary_models(f)}
        assert ("x y", "x") in got and ("x y", "y") in got

    def test_conjunction_chain_single_boundary_world(self):
        for n in (2, 4, 6):
            u = Universe(n)
            f = u.all_conj(u.lit(v.name) for v in u)
            pairs = oracle.boundary_models(f)
            assert len({w for w, _ in pairs}) == 1
            assert len(pairs) == n

    def test_valid_formula_has_no_boundary(self, xyz):
        assert oracle.boundary_models(xyz.true) == set()


class TestBRules:
    def test_majority_like_formula_six_rules(self, xyz):
        f = parse_formula("(x | y) & (x | z) & (y | z)", xyz)
        assert rules_as_text(f) == {
            "~x z -> y",
            "~y z -> x",
            "~x y -> z",
            "x ~y -> z",
            "y ~z -> x",
            "x ~z -> y",
        }

    def test_or_with_forced_literal_five_rules(self, xyz):
        f = parse_formula("(x | y) & z", xyz)
        got = rules_as_text(f)
        assert len(got) == 5
        assert "~y z -> x" in got and "~x z -> y" in got
        assert "~x ~y -> z" not in got

    def test_parity_chain_rule_count(self):
        # every model of a parity chain is boundary on every variable, so the
        # exact count is n * 2^(n-1)
        for n in (2, 3, 4):
            u = Universe(n)
            f = u.lit(u.variables[0].name)
            for v in u.variables[1:]:
                f = f.iff(~u.lit(v.name))  # xor as negated equivalence
            assert len(oracle.b_rules(f)) == n * 2 ** (n - 1)

    def test_a_rule_set_is_complete_at_construction(self, xyz):
        # built through the public constructor, a rule set holds its crossing
        # masks from the start, and no query fills anything in later
        rules = oracle.RuleSet(xyz, oracle.b_rules(parse_formula("(x | y) & z", xyz)))
        slots = ("universe", "masks")
        before = [getattr(rules, name) for name in slots]
        pairs = rules.pairs()
        oracle.reconstruct_models(rules, oracle.ModelSet(xyz, [World(xyz, 0b101)]))
        assert [getattr(rules, name) for name in slots] == before
        assert before[1] is not None and len(pairs) == 5

    def test_empty_universe_has_no_rules(self):
        u = Universe([])
        assert len(oracle.b_rules(u.true)) == 0
        assert oracle.boundary_models(u.false) == set()


class TestBRuleValidation:
    def test_accepts_exactly_what_the_set_definition_accepts(self):
        from qlit.core import Term

        def set_definition(antecedent, consequent):
            universe = antecedent.universe
            ante_vars = {c >> 1 for c in antecedent.codes}
            return ante_vars == set(range(len(universe))) - {consequent.variable.index}

        rng = random.Random(61)
        seen = {True: 0, False: 0}
        for _ in range(3000):
            n = rng.randrange(1, 7)
            u = Universe(n)
            consequent = u.literal_by_code(rng.randrange(2 * n))
            # distinct variables, some of them out of range or negative
            if rng.random() < 0.5:  # the other variables, one maybe out of range
                chosen = [v for v in range(n) if v != consequent.variable.index]
                if chosen and rng.random() < 0.3:
                    chosen[rng.randrange(len(chosen))] = rng.choice([-1, n, n + 1])
            else:
                chosen = rng.sample(range(-2, n + 2), rng.randrange(n + 1))
            codes = tuple(2 * v + rng.randrange(2) for v in chosen)
            antecedent = Term(u, codes)
            want = set_definition(antecedent, consequent)
            seen[want] += 1
            if want:
                assert oracle.BRule(antecedent, consequent).consequent is consequent
            else:
                with pytest.raises(UniverseMismatchError, match="antecedent must cover"):
                    oracle.BRule(antecedent, consequent)
        assert min(seen.values()) > 500


class TestIndependentModels:
    def test_model_depending_on_pair(self, xyz):
        f = parse_formula("(x | y) & z", xyz)
        w = xyz.world(["x", "y", "z"])
        assert not oracle.is_independent_model(f, w, xyz.term("x,y"))

    def test_negation_side_is_independent(self, xyz):
        f = negate(parse_formula("(x | y) & z", xyz))
        w = xyz.world(["x", "y", "~z"])
        assert oracle.is_independent_model(f, w, xyz.term("x,y"))

    def test_empty_term_on_any_model(self, xyz):
        rng = random.Random(5)
        for _ in range(50):
            f = random_formula(xyz, rng)
            for w in oracle.enumerate_models(f):
                assert oracle.is_independent_model(f, w, xyz.term())
                break

    def test_term_outside_world_is_false(self, xyz):
        assert not oracle.is_independent_model(
            xyz.true, xyz.world(["x", "y", "z"]), xyz.term("~x")
        )


class TestReconstruction:
    def test_majority_like_formula_recovers_non_boundary_model(self, xyz):
        f = parse_formula("(x | y) & (x | z) & (y | z)", xyz)
        rules = oracle.b_rules(f)
        bmodels = oracle.ModelSet(xyz, {w for w, _ in oracle.boundary_models(f)})
        rebuilt = oracle.reconstruct_models(rules, bmodels)
        assert xyz.world(["x", "y", "z"]).bits not in bmodels.bits()
        assert rebuilt == oracle.enumerate_models(f)

    def test_single_world_formula_is_a_fixed_point(self, xyz):
        f = xyz.world(["x", "~y", "z"]).to_term().to_formula()
        rules = oracle.b_rules(f)
        bmodels = oracle.ModelSet(xyz, {w for w, _ in oracle.boundary_models(f)})
        assert oracle.reconstruct_models(rules, bmodels) == oracle.enumerate_models(f)

    def test_random_consistent_formulas(self):
        u = Universe(5)
        rng = random.Random(31)
        for _ in range(100):
            f = random_consistent_formula(u, rng)
            rules = oracle.b_rules(f)
            bmodels = oracle.ModelSet(u, {w for w, _ in oracle.boundary_models(f)})
            assert oracle.reconstruct_models(rules, bmodels) == oracle.enumerate_models(f)

    def test_refuses_rules_from_another_universe(self, xyz):
        f = parse_formula("x & y", xyz)
        other = Universe(["x", "y", "z", "w"])
        bmodels = oracle.ModelSet(other, {World(other, 3)})
        with pytest.raises(UniverseMismatchError):
            oracle.reconstruct_models(oracle.b_rules(f), bmodels)

    def test_refuses_valid_or_inconsistent_input(self, xyz):
        for f in (xyz.true, xyz.false):
            rules = oracle.b_rules(f)
            bmodels = oracle.ModelSet(xyz, set())
            with pytest.raises(PreconditionError, match="valid-or-inconsistent"):
                oracle.reconstruct_models(rules, bmodels)


class TestLiteralIndependence:
    def test_redundant_negative_literal(self):
        u = Universe(["x", "y"])
        f = parse_formula("(x & y) | (~x & y)", u)
        assert oracle.literal_independent(f, u.literal("~x"))

    def test_equivalence_formula_depends_on_x(self):
        u = Universe(["x", "y"])
        f = parse_formula("(x => y) & (y => x)", u)
        assert not oracle.literal_independent(f, u.literal("x"))

    def test_fresh_variable_is_independent(self, xyz):
        rng = random.Random(37)
        u = Universe(["x", "y", "z", "fresh"])
        for _ in range(30):
            f = random_formula(Universe(["x", "y", "z"]), rng)
            lifted = parse_formula(str(f), u)
            assert oracle.variable_independent(lifted, u.variable("fresh"))


class TestTransitionReport:
    def test_equivalence_formula_quantified_on_x(self):
        u = Universe(["x", "y"])
        f = parse_formula("(x => y) & (y => x)", u)
        report = oracle.brule_transition_report(f, u.literal("x"))
        assert report.passed
        kept = {str(r) for r in report.preserved}
        deleted = {str(r) for r in report.deleted}
        assert kept == {"y -> x", "x -> y"}
        assert deleted == {"~y -> ~x", "~x -> ~y"}
        assert not report.introduced

    def test_independent_variable_changes_nothing(self):
        u = Universe(["x", "y"])
        f = u.lit("y")
        report = oracle.brule_transition_report(f, u.literal("x"))
        assert report.passed
        assert not report.deleted and not report.introduced

    def test_serialization_format(self):
        u = Universe(["x", "y"])
        f = parse_formula("(x => y) & (y => x)", u)
        lines = oracle.brule_transition_report(f, u.literal("x")).to_lines()
        assert "x -> y [kept]" in lines
        assert "~x -> ~y [deleted]" in lines

    def test_random_trials_pass_every_clause(self):
        u = Universe(5)
        rng = random.Random(41)
        for _ in range(300):
            f = random_formula(u, rng)
            lit = u.literal_by_code(rng.randrange(10))
            assert oracle.brule_transition_report(f, lit).passed


class TestRuleAlgebra:
    def test_negation_flips_consequents(self, xyz):
        rng = random.Random(43)
        for _ in range(150):
            f = random_formula(xyz, rng)
            direct = {(r.antecedent.codes, r.consequent.code) for r in oracle.b_rules(f)}
            flipped = {
                (r.antecedent.codes, r.consequent.code ^ 1)
                for r in oracle.b_rules(negate(f))
            }
            assert direct == flipped

    def test_connective_rule_containment(self, xyz):
        rng = random.Random(47)
        for _ in range(150):
            f = random_formula(xyz, rng)
            g = random_formula(xyz, rng)
            rf, rg = set(oracle.b_rules(f)), set(oracle.b_rules(g))
            for combined in (f & g, f | g):
                rc = set(oracle.b_rules(combined))
                assert rf & rg <= rc <= rf | rg

    def test_conjoined_units_example(self):
        u = Universe(["x", "y"])
        assert rules_as_text(u.lit("x") & u.lit("y")) == {"x -> y", "y -> x"}
        assert rules_as_text(u.lit("x") | u.lit("y")) == {"~x -> y", "~y -> x"}

    def test_rule_count_bounds(self, xyz):
        # rules are crossing edges of the model set: at most n per boundary
        # model, and at most n per world on the smaller side of the cut
        # (boundary models themselves can outnumber the smaller side, so the
        # two bounds are separate, not a chain)
        rng = random.Random(53)
        n = len(xyz)
        for _ in range(150):
            f = random_formula(xyz, rng)
            rules = oracle.b_rules(f)
            boundary = {w for w, _ in oracle.boundary_models(f)}
            models = oracle.enumerate_models(f)
            counter = oracle.enumerate_models(negate(f))
            assert len(rules) <= n * len(boundary)
            assert len(rules) <= n * min(len(models), len(counter))
            assert len(boundary) <= len(models)

    def test_rule_membership_characterization(self, xyz):
        # a rule holds exactly when the antecedent is feasible and forces the
        # consequent
        rng = random.Random(59)
        for _ in range(100):
            f = random_formula(xyz, rng)
            rule_pairs = oracle.b_rules(f).pairs()
            for bits in range(8):
                world = World(xyz, bits)
                for var in xyz.variables:
                    antecedent = world.to_term().without_variables([var])
                    consequent = world.literals()[var.index]
                    feasible = oracle.consistent(f & antecedent.to_formula())
                    forces = oracle.entails(
                        f, negate(antecedent.to_formula()) | xyz.lit(consequent)
                    )
                    assert ((bits, var.index) in rule_pairs) == (feasible and forces)

    def test_independent_model_iff_no_rule_uses_remainder(self, xyz):
        rng = random.Random(61)
        for _ in range(100):
            f = random_formula(xyz, rng)
            rules = oracle.b_rules(f)
            for world in oracle.enumerate_models(f):
                world_term = world.to_term()
                alpha = random_term(xyz, rng)
                if not alpha.issubset(world_term):
                    continue
                beta = world_term.difference(alpha.literals())
                blocked = any(
                    set(beta.codes) <= set(r.antecedent.codes) for r in rules
                )
                assert oracle.is_independent_model(f, world, alpha) == (not blocked)


class TestCaps:
    def test_cap_error_names_the_cap(self):
        u = Universe(30)
        with pytest.raises(CapacityError, match="24"):
            oracle.enumerate_models(u.true)

    def test_environment_override(self, xyz, monkeypatch):
        monkeypatch.setenv("QLIT_ENUM_CAP", "2")
        with pytest.raises(CapacityError, match="cap is 2"):
            oracle.enumerate_models(xyz.true)
        monkeypatch.setenv("QLIT_ENUM_CAP", "8")
        assert len(oracle.enumerate_models(xyz.true)) == 8

    @pytest.mark.parametrize("text", ["abc", "-3", "", "2.5", " 8", "\u00b2"])
    def test_an_invalid_override_is_refused(self, xyz, monkeypatch, text):
        monkeypatch.setenv("QLIT_ENUM_CAP", text)
        with pytest.raises(ConfigurationError) as caught:
            oracle.default_cap()
        assert "QLIT_ENUM_CAP" in str(caught.value) and repr(text) in str(caught.value)
        with pytest.raises(ConfigurationError):
            oracle.enumerate_models(xyz.true)

    def test_zero_is_a_cap(self, monkeypatch):
        monkeypatch.setenv("QLIT_ENUM_CAP", "0")
        assert oracle.default_cap() == 0
        assert len(oracle.enumerate_models(Universe([]).true)) == 1
        with pytest.raises(CapacityError, match="cap is 0"):
            oracle.enumerate_models(Universe(1).true)


def _tables(*values):
    """Each value's truth table from its own walk."""
    u = values[0].universe
    masks, full = core._var_patterns(len(u)), (1 << (1 << len(u))) - 1
    out = []
    for value in values:
        if isinstance(value, World):
            value = value.to_term()
        value = value if hasattr(value, "_dag") else value.to_formula()
        out.append(truth_table(value, masks, full))
    return out


def _check_pair(a, b):
    first, second = _tables(a, b)
    assert oracle.equivalent(a, b) == (first == second)
    assert oracle.entails(a, b) == (first & ~second == 0)
    assert oracle.entails(b, a) == (second & ~first == 0)


class TestPairedTables:
    """``equivalent`` and ``entails`` read two DAG values' tables from one
    walk; they must agree with two separate tables, on the path that keeps
    every table (up to 16 variables) and the release path."""

    @pytest.mark.parametrize("n", [10, 14, 17, 20])
    def test_a_formula_against_its_quantification(self, n):
        rng = random.Random(9500 + n)
        u = Universe(n)
        for _ in range(3):
            f = random_formula(u, rng, depth=7)
            items = [u._literals[rng.randrange(2 * n)] for _ in range(3)]
            for quantifier in ("forall", "exists"):
                g = quantify_set(f, quantifier, items)
                _check_pair(f, g)
                _check_pair(g, f)

    @pytest.mark.parametrize("n", [11, 18])
    def test_unrelated_formulas_and_shared_nodes(self, n):
        rng = random.Random(9600 + n)
        u = Universe(n)
        for _ in range(3):
            f, g = random_formula(u, rng, depth=6), random_formula(u, rng, depth=6)
            _check_pair(f, g)
            _check_pair(f, f)  # one root, twice
            _check_pair(f & g, f)  # one root under the other
            _check_pair(u.lit(0), ~u.lit(0) | f)
            _check_pair(u.true, f)

    @pytest.mark.parametrize("n", [10, 18])
    def test_circuits(self, n):
        rng = random.Random(9700 + n)
        u = Universe(n)
        circuit = random_decision_dnnf(u, rng) if n <= 12 else random_sdd(u, rng)
        f = random_formula(u, rng, depth=5)
        _check_pair(circuit, f)
        _check_pair(circuit, circuit.to_formula())
        if n <= 12:
            _check_pair(ddnnf_forall(circuit, [u._literals[3]]), circuit)

    @pytest.mark.parametrize("n", [10, 17])
    def test_formulas_against_terms_clauses_and_worlds(self, n):
        rng = random.Random(9800 + n)
        u = Universe(n)
        f = random_formula(u, rng, depth=6)
        for other in (
            random_term(u, rng), random_clause(u, rng), World(u, rng.getrandbits(n)),
            u.term(), u.clause(),
        ):
            _check_pair(f, other)


class TestComparisonErrorOrder:
    """Checks keep their order: the first value's capacity, then the second
    value's universe, then the second value's table."""

    def test_capacity_before_universe(self, monkeypatch):
        monkeypatch.setenv("QLIT_ENUM_CAP", "3")
        big, other = Universe(4), Universe(2)
        for a in (big.lit(0) & big.lit(2), big.term("x1"), random_decision_dnnf(big, random.Random(1))):
            for b in (other.lit(0), other.clause("x1"), big.lit(1)):
                for compare in (oracle.equivalent, oracle.entails):
                    with pytest.raises(CapacityError):
                        compare(a, b)

    def test_universe_before_the_second_table(self):
        u, other = Universe(3), Universe(3)
        f = u.lit(0) | u.lit(3)
        circuit = random_decision_dnnf(other, random.Random(2))
        for a, b in ((f, other.lit(0)), (f, circuit), (circuit, f), (u.term("x1"), other.lit(1)),
                     (f, other.term("x2")), (f, World(other, 1)), (f, object())):
            for compare in (oracle.equivalent, oracle.entails):
                with pytest.raises((UniverseMismatchError, AttributeError)) as caught:
                    compare(a, b)
                assert caught.type is (AttributeError if type(b) is object else UniverseMismatchError)

    def test_a_value_without_a_table(self, xyz):
        f = parse_formula("x | y", xyz)
        for compare in (oracle.equivalent, oracle.entails):
            with pytest.raises(TypeError, match="cannot compute a truth table"):
                compare(f, _NoTable(xyz))
            with pytest.raises(TypeError, match="cannot compute a truth table"):
                compare(_NoTable(xyz), Universe(3).lit(0))


class _NoTable:
    """A value of a universe that has no truth table."""

    def __init__(self, universe):
        self.universe = universe


class TestMaskCacheBound:
    def test_many_formulas_on_one_universe_keep_the_cache_under_its_bound(self):
        # 1,024 root tables of 2**16 bits fill the cache's 8 MiB
        u = Universe(16)
        rng = random.Random(9300)
        masks, full = core._var_patterns(16), (1 << (1 << 16)) - 1
        caches = [u._oracle_mask_cache]
        for _ in range(2500):
            f = random_formula(u, rng, depth=5)
            assert oracle.models_mask(f) == truth_table(f, masks, full)
            assert len(u._oracle_mask_cache) << 16 <= core._TABLE_BITS
            if u._oracle_mask_cache is not caches[-1]:
                caches.append(u._oracle_mask_cache)
        assert len(caches) >= 3  # full and dropped at least twice

    def test_threads_share_the_cache(self):
        # four threads fill one 12-variable universe's cache, 16,384 root
        # tables, several times over; every table is the one a single thread
        # computes, and no thread sees the cache past its bound
        u = Universe(12)
        rngs = [random.Random(9900 + k) for k in range(4)]
        formulas = [[random_formula(u, rng, depth=3) for _ in range(20000)] for rng in rngs]
        results = [None] * 4

        def run(k):
            tables, drops, seen, over = [], 0, 0, 0
            for f in formulas[k]:
                tables.append(oracle.models_mask(f))
                size = len(u._oracle_mask_cache)
                drops += size < seen
                over += size << 12 > core._TABLE_BITS
                seen = size
            results[k] = tables, drops, over

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        masks, full = core._var_patterns(12), (1 << (1 << 12)) - 1
        for k, (tables, _, over) in enumerate(results):
            assert tables == [truth_table(f, masks, full) for f in formulas[k]]
            assert not over
        assert max(drops for _, drops, _ in results) >= 3


def _state(obj) -> dict:
    """The attributes of ``obj``, with containers copied."""
    return {
        name: value.copy() if isinstance(value, (list, dict, set)) else value
        for name, value in vars(obj).items()
    }


class TestUniverseUnchanged:
    @pytest.mark.parametrize("n", [10, 18])
    def test_oracle_queries_leave_the_universe_as_it_was(self, n):
        # a random formula, conjoined with one total term so that the
        # formula has at most one model and few rules at any size
        u = Universe(n)
        rng = random.Random(9200 + n)
        f = random_formula(u, rng, depth=6) & u.all_conj(
            u.lit(2 * i + rng.randrange(2)) for i in range(n)
        )
        g = negate(negate(f))
        cache = u._oracle_mask_cache
        before, store_before = _state(u), _state(u._store)
        oracle.models_mask(f)
        assert oracle.equivalent(f, g)
        oracle.b_rules(f)
        oracle.boundary_models(g)
        after = _state(u)
        assert u._oracle_mask_cache is cache
        del before["_oracle_mask_cache"], after["_oracle_mask_cache"]
        assert after == before
        assert _state(u._store) == store_before


class TestModelSetSemantics:
    def test_worlds_are_sorted_canonically(self, xyz):
        f = parse_formula("(x | y) & (x | z) & (y | z)", xyz)
        bits = [w.bits for w in oracle.enumerate_models(f)]
        assert bits == sorted(bits)

    def test_evaluate_agrees_with_membership(self, xyz):
        rng = random.Random(67)
        for _ in range(50):
            f = random_formula(xyz, rng)
            models = oracle.enumerate_models(f)
            for w in xyz.worlds():
                assert (w in models) == evaluate(f, w)


class TestSetsAreTheirMasks:
    def test_results_build_no_rule(self, xyz, monkeypatch):
        f = parse_formula("(x | y) & z", xyz)
        rule = next(iter(oracle.b_rules(f)))
        bmodels = oracle.ModelSet(xyz, {w for w, _ in oracle.boundary_models(f)})

        def refuse(*args):
            raise AssertionError("a rule object was built")

        monkeypatch.setattr(oracle, "_rules", refuse)
        rules = oracle.b_rules(f)
        assert len(rules) == 5 and rule in rules
        assert len(oracle.reconstruct_models(rules, bmodels)) == 3
        report = oracle.brule_transition_report(f, xyz.literal("~x"))
        counts = [len(getattr(report, name)) for name in (
            "rules_before", "rules_after", "preserved", "deleted", "introduced"
        )]
        assert counts == [5, 4, 3, 2, 1] and report.passed
        with pytest.raises(AssertionError, match="rule object"):
            list(rules)

    def test_reading_rules_runs_no_checking_constructor(self, monkeypatch):
        u = Universe(7)
        f = random_formula(u, random.Random(9500), depth=6)
        rules = oracle.b_rules(f)
        want = [(r.antecedent.codes, r.consequent.code) for r in rules]
        text = repr(rules)

        def refuse(*args):
            raise AssertionError("a checking constructor ran")

        monkeypatch.setattr(oracle.BRule, "__post_init__", refuse)
        monkeypatch.setattr(core._LiteralSet, "__init__", refuse)
        assert [(r.antecedent.codes, r.consequent.code) for r in rules.items] == want
        assert repr(rules) == text and len(list(rules)) == len(rules) > 0
        # both patches are live: a rule or term made from outside runs them
        rule = rules.items[0]
        for build in (lambda: oracle.BRule(rule.antecedent, rule.consequent),
                      lambda: core.Term(u, rule.antecedent.codes)):
            with pytest.raises(AssertionError, match="checking constructor"):
                build()

    def test_membership_needs_the_same_universe(self, xyz):
        f = parse_formula("(x | y) & z", xyz)
        other = Universe(["x", "y", "z"])
        g = parse_formula("(x | y) & z", other)
        models, rules = oracle.enumerate_models(f), oracle.b_rules(f)
        assert World(xyz, 0b101) in models and World(other, 0b101) not in models
        assert all(r in rules for r in oracle.b_rules(f))
        assert not any(r in rules for r in oracle.b_rules(g))
        assert "x" not in models and World(xyz, 0b101) not in rules
        assert models != oracle.enumerate_models(g) and rules != oracle.b_rules(g)
        empty = oracle.ModelSet(xyz, [])
        assert empty != oracle.ModelSet(other, []) and len(empty) == 0


def _fields(value) -> dict:
    """Every slot and attribute of ``value``."""
    names = [n for cls in type(value).__mro__ for n in getattr(cls, "__slots__", ())]
    return {n: getattr(value, n) for n in names + list(getattr(value, "__dict__", ()))}


class TestValueTypesStayAsBuilt:
    def test_every_query_leaves_every_field_and_frozen_fields_refuse_writes(self, xyz):
        f = parse_formula("(x | y) & z", xyz)
        bmodels = oracle.ModelSet(xyz, {w for w, _ in oracle.boundary_models(f)})
        report = oracle.brule_transition_report(f, xyz.literal("~x"))
        model_sets = [
            oracle.enumerate_models(f),
            oracle.ModelSet(xyz, oracle.enumerate_models(f)),
            oracle.reconstruct_models(oracle.b_rules(f), bmodels),
        ]
        rule_sets = [
            oracle.b_rules(f),
            oracle.RuleSet(xyz, oracle.b_rules(f)),
            report.rules_before,
            report.preserved,
            report.introduced,
        ]
        rule = next(iter(rule_sets[0]))
        values = [*model_sets, *rule_sets, bmodels, rule, report]
        before = [_fields(v) for v in values]
        checks = dict(report.checks)

        for sets in (model_sets, rule_sets[:3]):
            assert all(s == sets[0] and hash(s) == hash(sets[0]) for s in sets)
        for s in model_sets + rule_sets:
            items = list(s)
            assert len(s) == len(items) and all(item in s for item in items)
            assert repr(s) == f"{type(s).__name__}({{{', '.join(map(str, items))}}})"
        for models in model_sets:
            assert models.bits() == frozenset(w.bits for w in models)
        for rules in rule_sets:
            assert rules.pairs() == frozenset(
                (r.world().bits, r.consequent.variable.index) for r in rules
            )
            oracle.reconstruct_models(rules, bmodels)
        assert rule in rule_sets[0] and hash(rule) == hash(rule) and repr(rule)
        assert report == oracle.brule_transition_report(f, xyz.literal("~x"))
        assert hash(report) == hash(oracle.brule_transition_report(f, xyz.literal("~x")))
        assert report.to_lines() and report.passed and repr(report)

        for value, fields in zip(values, before):
            assert _fields(value).keys() == fields.keys()
            assert all(getattr(value, n) is old for n, old in fields.items())
        assert dict(report.checks) == checks
        for frozen, name in ((rule, "consequent"), (report, "preserved")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frozen, name, None)
        with pytest.raises(TypeError):
            report.checks["a"] = False

    def test_core_and_flat_values_keep_every_field_through_every_query(self, xyz):
        from qlit.quantify import quantify_set
        from qlit.tractable import verify_decision_dnnf

        f = parse_formula("(x | ~y) & (z => x)", xyz)
        circuit = random_decision_dnnf(xyz, random.Random(9700))
        cnf = Cnf(xyz, [xyz.clause("x,~y"), xyz.clause("z")])
        dnf = Dnf(xyz, [xyz.term("x,~y"), xyz.term("~z")])
        term, clause, world = xyz.term("x,~z"), xyz.clause("~x,y"), World(xyz, 0b101)
        values = [xyz, f, circuit, cnf, dnf, term, clause, world]
        before = [_fields(v) for v in values]
        lists = [{n: list(v) for n, v in old.items() if isinstance(v, list)} for old in before]
        lit = xyz.literal("~y")

        for value in values[1:]:
            assert str(value) and repr(value) and value == value
            mask = oracle.models_mask(value)
            assert oracle.enumerate_models(value).masks == (mask,)
            rules = oracle.b_rules(value)
            assert rules.items == oracle.RuleSet(xyz, rules).items
            assert {w for w, _ in oracle.boundary_models(value)} <= set(xyz.worlds())
            assert oracle.equivalent(value, value) and oracle.entails(value, value)
        for value in (f, circuit, cnf, dnf):
            assert oracle.brule_transition_report(value, lit).passed
            assert oracle.literal_independent(value, lit) in (True, False)
        for routine, value, op in (
            (cnf_forall_literal, cnf, "forall"),
            (dnf_exists_literal, dnf, "exists"),
            (ddnnf_forall, verify_decision_dnnf(circuit), "forall"),
        ):
            want = quantify_set(value.to_formula(), op, [lit])
            assert oracle.equivalent(routine(value, [lit]), want)
        assert cnf.clauses and dnf.terms and term.literals() and clause.literals()
        assert term.to_formula() and clause.to_formula() and term.is_total() is False
        assert world.to_term().to_world() == world and world.flip("y") != world
        assert evaluate(f, world) == oracle.models_mask(f) >> world.bits & 1
        assert negate(f) and xyz.term(["x", "~y"]) and list(xyz) and len(xyz) == 3
        assert oracle.is_independent_model(f, world, term) in (True, False)

        for value, fields, contents in zip(values, before, lists):
            assert _fields(value).keys() == fields.keys()
            assert all(getattr(value, n) is old for n, old in fields.items())
            assert all(getattr(value, n) == old for n, old in contents.items())


# -- per-pair references for the mask algebra ---------------------------------------
#
# A rule is a (world bits, consequent variable index) pair.  These are the
# definitions the crossing masks replace, kept as loops over pairs.


def ref_boundary_pairs(u, mask):
    pairs = []
    for i in range(len(u)):
        for bits in range(1 << len(u)):
            if mask >> bits & 1 and not mask >> (bits ^ (1 << i)) & 1:
                pairs.append((bits, i))
    return pairs


def ref_rule(u, bits, i):
    world = World(u, bits)
    antecedent = world.to_term().without_variables([u.variables[i]])
    return oracle.BRule(antecedent, world.literals()[i])


def ref_checks(u, lit, before, after):
    i = lit.variable.index
    neg_code = lit.code ^ 1
    introduced = after - before

    def infers(pair, code):
        bits, j = pair
        return j == code >> 1 and (bits >> j & 1) == (code & 1)

    def uses(pair, code):
        bits, j = pair
        return j != code >> 1 and (bits >> (code >> 1) & 1) == (code & 1)

    checks = {}
    checks["a"] = all(p in after for p in before if infers(p, lit.code))
    checks["b"] = not any(infers(p, neg_code) for p in after)
    checks["c"] = all(p in after for p in before if uses(p, lit.code))
    checks["d"] = all(
        (p in after) == ((p[0], i) not in before) for p in before if uses(p, neg_code)
    )
    checks["add1"] = all(uses(p, neg_code) for p in introduced)
    ok = True
    for bits in range(1 << len(u)):
        if (bits >> i & 1) != (neg_code & 1):
            continue
        for j in range(len(u)):
            if j == i:
                continue
            lhs = (bits, j) not in before and (bits, j) in after
            flip_i, flip_j = bits ^ (1 << i), bits ^ (1 << j)
            rhs = (
                (flip_i, j) in before
                and (flip_j, i) in before
                and (flip_i, i) not in before
                and (flip_j, j) not in before
            )
            ok &= lhs == rhs
    checks["add2"] = ok
    return checks


def ref_report(f, lit):
    u = f.universe
    mask = oracle.models_mask(f)
    quantified = oracle.models_mask(forall_literal(f, lit))
    before = frozenset(ref_boundary_pairs(u, mask))
    after = frozenset(ref_boundary_pairs(u, quantified))

    def make(pairs):
        return tuple(sorted((ref_rule(u, b, j) for b, j in pairs), key=oracle.BRule.sort_key))

    return {
        "rules_before": make(before),
        "rules_after": make(after),
        "preserved": make(before & after),
        "deleted": make(before - after),
        "introduced": make(after - before),
        "checks": list(ref_checks(u, lit, before, after).items()),
    }


def ref_reconstruct(rule_pairs, bmodel_bits, n):
    current = set(bmodel_bits)
    while True:
        added = [
            bits ^ (1 << i)
            for bits in sorted(current)
            for i in range(n)
            if (bits, i) not in rule_pairs and bits ^ (1 << i) not in current
        ]
        if not added:
            return current
        current.update(added)


def masks_of(u, pairs):
    masks = [0] * len(u)
    for bits, i in pairs:
        masks[i] |= 1 << bits
    return masks


def pairs_of(masks):
    return frozenset(
        (bits, i) for i, m in enumerate(masks) for bits in range(m.bit_length()) if m >> bits & 1
    )


class TestMasksAgainstPairReferences:
    def test_every_report_field_matches_in_order(self):
        rng = random.Random(71)
        for n in range(1, 9):
            u = Universe(n)
            for _ in range(12 if n <= 6 else 3):
                f = random_formula(u, rng)
                for code in range(2 * n):
                    lit = u.literal_by_code(code)
                    report = oracle.brule_transition_report(f, lit)
                    got = {
                        "rules_before": report.rules_before.items,
                        "rules_after": report.rules_after.items,
                        "preserved": report.preserved.items,
                        "deleted": report.deleted.items,
                        "introduced": report.introduced.items,
                        "checks": list(report.checks.items()),
                    }
                    assert got == ref_report(f, lit)
                    assert report.passed

    def test_rules_and_boundary_models_match(self):
        rng = random.Random(73)
        for n in range(1, 7):
            u = Universe(n)
            for _ in range(15):
                f = random_formula(u, rng)
                pairs = ref_boundary_pairs(u, oracle.models_mask(f))
                rules = oracle.b_rules(f)
                assert rules.items == tuple(
                    sorted((ref_rule(u, b, i) for b, i in pairs), key=oracle.BRule.sort_key)
                )
                assert rules.pairs() == frozenset(pairs)
                # a rule set built from rule objects derives the same masks
                assert oracle.RuleSet(u, rules).pairs() == frozenset(pairs)
                assert oracle.boundary_models(f) == {
                    (World(u, b), World(u, b).literals()[i]) for b, i in pairs
                }

    def test_mask_checks_match_on_perturbed_masks(self):
        # flipped bits turn the masks into rule sets no formula has, so every
        # check must fail somewhere: none of the mask expressions is vacuous
        rng = random.Random(79)
        seen_false = set()
        for _ in range(3000):
            n = rng.randint(2, 4)
            u = Universe(n)
            f = random_formula(u, rng)
            lit = u.literal_by_code(rng.randrange(2 * n))
            before = masks_of(u, ref_boundary_pairs(u, oracle.models_mask(f)))
            after = masks_of(
                u, ref_boundary_pairs(u, oracle.models_mask(forall_literal(f, lit)))
            )
            for _ in range(rng.randint(1, 3)):
                side = rng.choice((before, after))
                side[rng.randrange(n)] ^= 1 << rng.randrange(1 << n)
            got = oracle._transition_checks(u, lit, before, after)
            want = ref_checks(u, lit, pairs_of(before), pairs_of(after))
            assert list(got.items()) == list(want.items())
            seen_false.update(k for k, v in got.items() if not v)
        assert seen_false == {"a", "b", "c", "d", "add1", "add2"}

    def test_reconstruction_matches_on_formulas_and_on_rule_subsets(self):
        rng = random.Random(83)
        for _ in range(200):
            n = rng.randint(1, 6)
            u = Universe(n)
            f = random_formula(u, rng)
            rules = oracle.b_rules(f)
            bmodels = oracle.ModelSet(u, {w for w, _ in oracle.boundary_models(f)})
            if rng.random() < 0.5:  # drop rules: reconstruction then overshoots
                rules = oracle.RuleSet(u, [r for r in rules if rng.random() < 0.7])
            if len(bmodels) == 0:
                with pytest.raises(PreconditionError):
                    oracle.reconstruct_models(rules, bmodels)
                continue
            got = oracle.reconstruct_models(rules, bmodels)
            want = ref_reconstruct(rules.pairs(), bmodels.bits(), n)
            assert [w.bits for w in got] == sorted(want)


class TestRulesAgainstTheCheckedConstructor:
    def test_items_equal_checked_rules_in_canonical_order(self):
        # rules of random formulas and of parity (every model boundary on
        # every variable), and of random masks, which hold rule pairs no
        # formula has: two rules with one antecedent and opposite consequents
        rng = random.Random(9600)
        for n in range(1, 12):
            u = Universe(n)
            masks = [oracle.models_mask(random_formula(u, rng, depth=rng.randint(2, 7)))
                     for _ in range(6 if n <= 8 else 2)]
            masks.append(oracle.models_mask(parity_decision_dnnf(u)))
            for mask in masks:
                pairs = ref_boundary_pairs(u, mask)
                want = sorted((ref_rule(u, b, i) for b, i in pairs), key=oracle.BRule.sort_key)
                assert oracle.RuleSet._of(u, oracle._crossings(u, mask)).items == tuple(want)
            crossings = [rng.getrandbits(1 << n) & rng.getrandbits(1 << n) for _ in range(n)]
            want = sorted(
                (ref_rule(u, b, i) for b, i in pairs_of(crossings)), key=oracle.BRule.sort_key
            )
            assert oracle.RuleSet._of(u, crossings).items == tuple(want)


class TestRuleWorldsFromCodes:
    def test_world_is_the_antecedent_with_the_consequent_added(self):
        rng = random.Random(9601)
        total = 0
        for n in range(1, 12):
            u = Universe(n)
            crossings = [rng.getrandbits(1 << n) & rng.getrandbits(1 << n) for _ in range(n)]
            rules = oracle.RuleSet._of(u, crossings).items
            for rule in rules:
                want = rule.antecedent.add(rule.consequent).to_world()
                assert rule.world() == want and type(rule.world().bits) is int
            # both readers of ``world``: the constructor and membership
            rule_set = oracle.RuleSet(u, rules)
            assert rule_set == oracle.RuleSet._of(u, crossings)
            assert all(rule in rule_set for rule in rules)
            total += len(rules)
        assert total > 5000

"""The enumeration oracle: models, boundary models, rules, independence,
reconstruction and the rule-transition report."""

import random

import pytest

from qlit.core import Universe, World, evaluate, negate
from qlit.errors import CapacityError, PreconditionError, UniverseMismatchError
from qlit.generators import (
    random_consistent_formula,
    random_formula,
    random_term,
)
from qlit.io import parse_formula
from qlit.quantify import forall_literal
from qlit import oracle

from conftest import tt_models


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
                        "preserved": report.preserved,
                        "deleted": report.deleted,
                        "introduced": report.introduced,
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

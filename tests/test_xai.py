"""Classifier queries: decisions, feature/characteristic independence,
reasons, bias and relevance, against the two worked classifiers."""

import random

import pytest

from qlit.core import Universe, World, negate
from qlit.errors import (
    ArityError,
    ConfigurationError,
    NoDecisionError,
    UniverseMismatchError,
)
from qlit.generators import random_consistent_formula
from qlit.io import parse_classifier_bundle, parse_formula
from qlit import oracle
from qlit.tractable import Cnf
from qlit.xai import (
    Classifier,
    Decision,
    biased_instances,
    complete_reason,
    decide,
    instances_independent_of_characteristics,
    instances_independent_of_features,
    is_decision_biased,
    relevance_report,
    sufficient_reasons,
)

from conftest import unit_clause_bundle


def equiv(a, b) -> bool:
    a = a.to_formula() if isinstance(a, Cnf) else a
    b = b.to_formula() if isinstance(b, Cnf) else b
    return oracle.equivalent(a, b)


class TestDecide:
    def test_guarantor_and_income_population_is_positive(self, loan):
        assert decide(loan, "g,i") is Decision.POSITIVE

    def test_defaulted_non_owner_population_is_undecided(self, loan):
        assert decide(loan, "d,~h") is Decision.UNDEFINED

    def test_defaulted_instance_is_negative(self, loan):
        assert decide(loan, "d,~g,h,i") is Decision.NEGATIVE

    def test_every_instance_is_decided(self, loan):
        for world in loan.features.worlds():
            assert decide(loan, world.to_term()) is not Decision.UNDEFINED

    def test_foreign_universe_rejected(self, loan):
        other = Universe(["d", "g", "h", "i"])
        with pytest.raises(UniverseMismatchError):
            decide(loan, other.term("d"))


class TestFeatureIndependence:
    def test_positive_side_without_default_and_home(self, loan):
        got = instances_independent_of_features(loan, "positive", ["d", "h"])
        assert equiv(got, parse_formula("g & i", loan.features))

    def test_positive_side_without_default_and_guarantor_is_empty(self, loan):
        got = instances_independent_of_features(loan, "positive", ["d", "g"])
        assert equiv(got, loan.features.false)

    def test_negative_side_without_default_and_guarantor(self, loan):
        got = instances_independent_of_features(loan, "negative", ["d", "g"])
        assert equiv(got, parse_formula("~h & ~i", loan.features))

    def test_negative_side_without_default_and_home_is_empty(self, loan):
        got = instances_independent_of_features(loan, "negative", ["d", "h"])
        assert equiv(got, loan.features.false)

    def test_membership_agrees_with_erase_and_decide(self, loan):
        u = loan.features
        rng = random.Random(3)
        for _ in range(100):
            variables = [v for v in u.variables if rng.random() < 0.5]
            for side in ("positive", "negative"):
                selector = instances_independent_of_features(loan, side, variables)
                selector_f = selector.to_formula() if isinstance(selector, Cnf) else selector
                mask = oracle.models_mask(selector_f)
                for world in u.worlds():
                    term = world.to_term()
                    decision = decide(loan, term)
                    erased = term.without_variables(variables)
                    agrees = (
                        decision is Decision(side)
                        and decide(loan, erased) is decision
                    )
                    assert bool(mask >> world.bits & 1) == agrees


class TestCharacteristicIndependence:
    def test_negative_side_independent_of_default_and_home(self, loan):
        got = instances_independent_of_characteristics(loan, "negative", ["d", "h"])
        assert equiv(got, parse_formula("~h & ~i", loan.features))

    def test_instance_membership_via_drop(self, loan):
        # the applicant keeps being denied when the defaulted flag is
        # vacuously dropped or home ownership is dropped
        u = loan.features
        got = instances_independent_of_characteristics(loan, "negative", ["~d", "h"])
        selector = got.to_formula() if isinstance(got, Cnf) else got
        world = u.world(["d", "h", "g", "~i"])
        from qlit.core import evaluate

        assert evaluate(selector, world)
        term = world.to_term()
        assert decide(loan, term.difference([u.literal("h")])) is Decision.NEGATIVE

    def test_empty_characteristic_set_is_identity(self, loan):
        got = instances_independent_of_characteristics(loan, "positive", [])
        assert equiv(got, loan.positive.to_formula())


class TestCompleteReason:
    def test_admission_instance_reason(self, admission):
        u = admission.features
        reason = complete_reason(admission, "e,~f,g,r,w")
        want = parse_formula("(e | g) & (e | w) & r & (~f | g | w)", u)
        assert equiv(reason, want)
        assert isinstance(reason, Cnf)
        # monotone and over the instance's own characteristics only
        codes = {c for clause in reason.elements for c in clause.codes}
        assert codes <= set(u.term("e,~f,g,r,w").codes)

    def test_admission_population_reason(self, admission):
        reason = complete_reason(admission, "~e,~f,~r")
        want = parse_formula("(~e | ~f) & ~r", admission.features)
        assert equiv(reason, want)

    def test_single_term_classifier_keeps_every_characteristic(self):
        u = Universe(["a", "b"])
        gamma = u.term("a,~b")
        classifier = Classifier(gamma.to_formula())
        reason = complete_reason(classifier, gamma)
        assert equiv(reason, gamma.to_formula())

    def test_sandwich(self, admission):
        u = admission.features
        rng = random.Random(5)
        for _ in range(100):
            bits = rng.getrandbits(len(u))
            term = World(u, bits).to_term()
            reason = complete_reason(admission, term)
            reason_f = reason.to_formula() if isinstance(reason, Cnf) else reason
            deciding = admission.side(decide(admission, term))
            deciding_f = deciding.to_formula() if isinstance(deciding, Cnf) else deciding
            assert oracle.entails(term, reason_f)
            assert oracle.entails(reason_f, deciding_f)

    def test_undecided_population_refused(self, loan):
        with pytest.raises(NoDecisionError):
            complete_reason(loan, "d,~h")


class TestSufficientReasons:
    def test_not_rich_applicant_two_reasons(self, admission):
        got = sufficient_reasons(admission, "e,f,g,w,~r")
        assert [str(t) for t in got.sufficient] == ["e,f,g", "e,f,w"]
        assert got.decision is Decision.POSITIVE

    def test_rich_applicant_five_reasons(self, admission):
        got = sufficient_reasons(admission, "e,f,g,w,r")
        assert {str(t) for t in got.sufficient} == {
            "e,f,g",
            "e,f,w",
            "e,g,r",
            "e,r,w",
            "g,r,w",
        }

    def test_denied_population_two_reasons(self, admission):
        got = sufficient_reasons(admission, "~e,~f,~r")
        assert {str(t) for t in got.sufficient} == {"~e,~r", "~f,~r"}
        assert got.decision is Decision.NEGATIVE

    def test_reason_set_invariants(self, admission):
        u = admission.features
        rng = random.Random(7)
        for _ in range(50):
            term = World(u, rng.getrandbits(len(u))).to_term()
            got = sufficient_reasons(admission, term)
            complete = (
                got.complete.to_formula()
                if isinstance(got.complete, Cnf)
                else got.complete
            )
            for reason in got.sufficient:
                assert reason.issubset(term)
                assert oracle.entails(reason, complete)

    def test_cap_raises(self, admission):
        from qlit.errors import CapacityError

        with pytest.raises(CapacityError, match="raise the cap"):
            sufficient_reasons(admission, "e,f,g,w,r", cap=2)

    def test_a_reason_longer_than_the_recursion_limit(self):
        # the hitting-set search chooses one literal per level, 1,200 deep
        bundle = parse_classifier_bundle(unit_clause_bundle(1200))
        classifier = Classifier(bundle.positive, bundle.negative)
        term = ",".join(f"v{i}" for i in range(1, 1201))
        got = sufficient_reasons(classifier, term)
        assert got.decision is Decision.POSITIVE
        assert [str(t) for t in got.sufficient] == [term]


class TestBias:
    def test_positive_bias_formula(self, admission):
        u = admission.features
        got = biased_instances(admission, "positive")
        want = parse_formula(
            "(e | g) & (e | w) & r & (~f | g) & (~f | w) & (~e | ~f)", u
        )
        assert equiv(got, want)

    def test_failed_exam_slice(self, admission):
        u = admission.features
        got = ~u.lit("e") & biased_instances(admission, "positive")
        want = parse_formula("~e & g & r & w", u)
        assert equiv(got, want)

    def test_known_biased_instance(self, admission):
        assert is_decision_biased(admission, "e,~f,g,r,w") is True

    def test_protected_free_classifier_is_never_biased(self):
        u = Universe(["a", "b"])
        classifier = Classifier(u.true, protected=["a"])
        for side in ("positive", "negative"):
            assert equiv(biased_instances(classifier, side), u.false)
        for world in u.worlds():
            assert is_decision_biased(classifier, world.to_term()) is False

    def test_empty_protected_set_refused(self, loan):
        with pytest.raises(ConfigurationError):
            biased_instances(loan, "positive")

    def test_partial_instance_refused(self, admission):
        with pytest.raises(ArityError):
            is_decision_biased(admission, "e,f")

    def test_matches_brute_force_flip_search(self):
        u = Universe(5)
        rng = random.Random(11)
        for _ in range(60):
            classifier = Classifier(
                random_consistent_formula(u, rng),
                protected=[v for v in u.variables if rng.random() < 0.4]
                or [u.variables[0]],
            )
            bits = rng.getrandbits(5)
            term = World(u, bits).to_term()
            fast = is_decision_biased(classifier, term)
            decision = decide(classifier, term)
            indexes = [v.index for v in classifier.protected]
            slow = any(
                decide(
                    classifier,
                    World(
                        u,
                        bits
                        ^ sum(1 << i for k, i in enumerate(indexes) if pick >> k & 1),
                    ).to_term(),
                )
                is not decision
                for pick in range(1 << len(indexes))
            )
            assert fast == slow


class TestRelevance:
    def test_income_is_irrelevant_for_safe_population(self, loan):
        report = relevance_report(loan, "~d,h,i")
        by_name = {row.feature.name: row for row in report.rows}
        assert by_name["i"].feature_irrelevant
        assert by_name["i"].flag == "feature-irrelevant"
        assert by_name["d"].flag == "essential"

    def test_denied_applicant_rows(self, loan):
        # dropping home ownership keeps the denial; the defaulted flag and
        # the missing income are what the decision hinges on
        report = relevance_report(loan, "d,h,g,~i")
        assert report.decision is Decision.NEGATIVE
        by_name = {row.feature.name: row for row in report.rows}
        assert by_name["h"].characteristic_irrelevant
        assert by_name["d"].flag == "essential"
        assert by_name["i"].flag == "essential"

    def test_jointly_dependent_feature_pair(self, loan):
        # erasing default and home ownership together leaves the applicant
        # undecided, even though home ownership alone is droppable
        got = instances_independent_of_features(loan, "negative", ["d", "h"])
        assert equiv(got, loan.features.false)
        term = loan.features.term("d,h,g,~i")
        erased = term.without_variables(
            [loan.features.variable("d"), loan.features.variable("h")]
        )
        assert decide(loan, erased) is Decision.UNDEFINED

    def test_trivial_classifier_everything_irrelevant(self):
        u = Universe(["a", "b"])
        classifier = Classifier(u.true)
        report = relevance_report(classifier, u.term("a,~b"))
        assert all(row.feature_irrelevant for row in report.rows)

    def test_containment_is_structural(self, admission):
        u = admission.features
        rng = random.Random(13)
        for _ in range(50):
            term = World(u, rng.getrandbits(len(u))).to_term()
            for row in relevance_report(admission, term).rows:
                if row.feature_irrelevant:
                    assert row.characteristic_irrelevant

    def test_undecided_population_refused(self, loan):
        with pytest.raises(NoDecisionError):
            relevance_report(loan, "d,~h")


class TestClassifierLoading:
    def test_mismatched_negation_rejected(self):
        u = Universe(["x", "y"])
        positive = Cnf(u, [u.clause("x,y")])
        wrong_negative = Cnf(u, [u.clause("~x")])
        with pytest.raises(UniverseMismatchError, match="negation"):
            Classifier(positive, wrong_negative)

    def test_materialized_negation_matches_oracle(self):
        u = Universe(4)
        rng = random.Random(17)
        for _ in range(30):
            f = random_consistent_formula(u, rng)
            classifier = Classifier(f)
            assert oracle.equivalent(classifier.negative, negate(f))

    @pytest.mark.filterwarnings("error")
    def test_large_formula_pair_is_checked_exactly(self):
        u = Universe(14)
        positive = u.all_disj(u.lit(v.name) for v in u.variables)
        negative = negate(positive)
        classifier = Classifier(positive, negative)
        assert classifier.negative is negative
        with pytest.raises(UniverseMismatchError, match="negation"):
            Classifier(positive, u.all_conj(u.lit(v.name) for v in u.variables[1:]))

    def test_long_cnf_classifier_loads(self):
        u = Universe(12)
        rng = random.Random(5)
        clauses = set()
        while len(clauses) < 650:
            chosen = rng.sample(range(12), 6)
            clauses.add(tuple(sorted(2 * v + rng.randrange(2) for v in chosen)))
        cnf = Cnf(u, [u.clause([u.literal_by_code(c) for c in codes]) for codes in clauses])
        classifier = Classifier(cnf)
        mask = (1 << (1 << 12)) - 1
        for clause in cnf.clauses:
            mask &= oracle.models_mask(clause)
        assert oracle.models_mask(classifier.negative) == ((1 << (1 << 12)) - 1) & ~mask

    @pytest.mark.filterwarnings("error")
    def test_exact_check_on_a_long_cnf(self):
        u = Universe(16)
        rng = random.Random(6)
        clauses = []
        for _ in range(600):
            chosen = rng.sample(range(16), 5)
            clauses.append(u.clause([u.literal_by_code(2 * v + rng.randrange(2)) for v in chosen]))
        positive = Cnf(u, clauses)
        negative = negate(positive.to_formula())
        assert Classifier(positive, negative).negative is negative
        with pytest.raises(UniverseMismatchError, match="negation"):
            Classifier(positive, positive.to_formula())

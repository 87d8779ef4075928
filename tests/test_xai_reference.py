"""Classifier queries on clause masks, against the set-based queries they
replaced.

The references below are the earlier implementations: decisions by set
intersection with each clause, relevance rows that decide the erased and the
dropped sub-term separately, the hitting-set search on ``frozenset`` clauses
and bias as the bias formula evaluated at the instance.  They run on seeded
classifiers of three kinds: CNF pairs from random decision trees over 4-14
features (their mutual negation is checked by the partition rule, with no
warning), a random CNF with its materialized formula negation, and random
formulas.  Formula classifiers of 17-20 features, past the oracle's
16-variable table cache, a CNF with its derived formula negation at that
size and unchecked pairs run the entailment queries against the same
references; the cap and the one look-up of a formula side's truth table per
query are pinned down too.
"""

import random
import re
import warnings

import pytest

from conftest import unit_clause_bundle
from qlit import oracle
from qlit.core import Universe, World, evaluate, negate
from qlit.errors import CapacityError, NoDecisionError, UniverseMismatchError
from qlit.formulas import prime_forms
from qlit.generators import random_cnf, random_consistent_formula
from qlit.io import parse_classifier_bundle
from qlit.quantify import erase, quantify
from qlit.tractable import Cnf
from qlit.xai import (
    Classifier,
    Decision,
    biased_instances,
    complete_reason,
    decide,
    is_decision_biased,
    relevance_report,
    sufficient_reasons,
)


# -- references ------------------------------------------------------------------


def ref_entails(term, value):
    if isinstance(value, Cnf):
        codes = set(term.codes)
        return not any(codes.isdisjoint(clause) for clause in value.codes)
    return oracle.entails(term, value)


def ref_decide(classifier, term):
    if ref_entails(term, classifier.positive):
        return Decision.POSITIVE
    if ref_entails(term, classifier.negative):
        return Decision.NEGATIVE
    return Decision.UNDEFINED


def ref_minimal_hitting_sets(family, cap):
    results = set()

    def minimal(chosen):
        for lit in chosen:
            if not any(clause & chosen == {lit} for clause in family):
                return False
        return True

    stack = [(frozenset(), frozenset())]
    while stack:
        chosen, banned = stack.pop()
        unhit = next((c for c in family if not c & chosen), None)
        if unhit is None:
            if minimal(chosen):
                results.add(tuple(sorted(chosen)))
                if len(results) > cap:
                    raise CapacityError(f"more than {cap} sufficient reasons")
            continue
        children, blocked = [], banned
        for lit in sorted(unhit - banned):
            children.append((chosen | {lit}, blocked))
            blocked = blocked | {lit}
        stack.extend(reversed(children))
    return sorted(results)


def ref_complete_reason(classifier, term):
    """(decision, reason): the deciding side quantified through ``quantify``
    on the population's literals and every unmentioned feature."""
    decision = ref_decide(classifier, term)
    if decision is Decision.UNDEFINED:
        raise NoDecisionError("population is not decided, no reason exists")
    mentioned = {v.index for v in term.variables()}
    unmentioned = [v for v in classifier.features if v.index not in mentioned]
    return decision, quantify(classifier.side(decision), "forall", [*term.literals(), *unmentioned])


def ref_sufficient_reasons(classifier, term, cap):
    """(decision, reason code tuples); ``NoDecisionError`` or ``CapacityError``
    as the earlier query raised them."""
    decision, reason = ref_complete_reason(classifier, term)
    if isinstance(reason, Cnf):
        return decision, ref_minimal_hitting_sets([frozenset(c) for c in reason.codes], cap)
    hitting = sorted(prime_forms(reason, "implicants").codes)
    if len(hitting) > cap:
        raise CapacityError(f"more than {cap} sufficient reasons")
    return decision, hitting


def ref_relevance_rows(classifier, term):
    decision = ref_decide(classifier, term)
    if decision is Decision.UNDEFINED:
        raise NoDecisionError("undecided")
    rows = []
    for lit in term.literals():
        feature_ok = ref_decide(classifier, erase(term, [lit.variable])) is decision
        characteristic_ok = ref_decide(classifier, term.difference([lit])) is decision
        rows.append((lit.variable.index, lit.code, feature_ok, characteristic_ok or feature_ok))
    return decision, rows


def ref_is_decision_biased(classifier, term):
    side = ref_decide(classifier, term)
    return evaluate(biased_instances(classifier, side), term.to_world())


# -- classifiers -----------------------------------------------------------------


def tree_classifier(seed):
    """A CNF pair from a random decision tree: the positive side has one
    clause per negative leaf (its path negated), and the other way round."""
    rng = random.Random(seed)
    n = 4 + seed % 11
    u = Universe(n)
    paths = [()]
    for _ in range(rng.randint(1, 3 * n)):
        open_ = [k for k, p in enumerate(paths) if len(p) < n]
        if not open_:
            break
        path = paths.pop(rng.choice(open_))
        used = {c >> 1 for c in path}
        var = rng.choice([v for v in range(n) if v not in used])
        paths += [path + (2 * var + 1,), path + (2 * var,)]
    labels = [k % 2 == 0 for k in range(len(paths))]
    rng.shuffle(labels)

    def side(label):
        return Cnf(u, [
            u.clause([u.literal_by_code(c ^ 1) for c in path])
            for path, leaf in zip(paths, labels) if leaf is not label
        ])

    protected = rng.sample(u.variables, rng.randint(1, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return Classifier(side(True), side(False), protected=protected), rng


def cnf_classifier(seed):
    rng = random.Random(seed)
    u = Universe(3 + seed % 3)
    protected = rng.sample(u.variables, rng.randint(1, 2))
    return Classifier(random_cnf(u, rng), protected=protected), rng


def formula_classifier(seed):
    rng = random.Random(seed)
    u = Universe(3 + seed % 3)
    protected = rng.sample(u.variables, rng.randint(1, 2))
    return Classifier(random_consistent_formula(u, rng), protected=protected), rng


KINDS = {"tree": tree_classifier, "cnf": cnf_classifier, "formula": formula_classifier}
CASES = [(kind, seed) for kind in KINDS for seed in range(22)]


def populations(classifier, rng, count=6):
    """Full instances and, for each, a random part of it."""
    u = classifier.features
    for _ in range(count):
        instance = World(u, rng.getrandbits(len(u))).to_term()
        part = u.term([lit for lit in instance.literals() if rng.random() < 0.6])
        yield instance
        yield part


def outcome(query, *args):
    """The query's result, or the type of the error it raised."""
    try:
        return query(*args)
    except (NoDecisionError, CapacityError) as error:
        return type(error)


# -- tests -----------------------------------------------------------------------


@pytest.mark.parametrize("kind,seed", CASES)
class TestAgainstReference:
    def test_decide(self, kind, seed):
        classifier, rng = KINDS[kind](seed)
        for term in populations(classifier, rng):
            assert decide(classifier, term) is ref_decide(classifier, term)

    def test_sufficient_reasons(self, kind, seed):
        classifier, rng = KINDS[kind](seed)
        for term in populations(classifier, rng):
            got = outcome(sufficient_reasons, classifier, term)
            want = outcome(ref_sufficient_reasons, classifier, term, 100_000)
            if isinstance(got, type):
                assert got is want
                continue
            assert (got.decision, [t.codes for t in got.sufficient]) == want

    def test_complete_reason(self, kind, seed):
        classifier, rng = KINDS[kind](seed)
        for term in populations(classifier, rng):
            try:
                decision, want = ref_complete_reason(classifier, term)
            except NoDecisionError as error:
                for query in (complete_reason, sufficient_reasons):
                    with pytest.raises(NoDecisionError, match=f"^{re.escape(str(error))}$"):
                        query(classifier, term)
                continue
            reasons = sufficient_reasons(classifier, term)
            assert reasons.decision is decision
            for got in (complete_reason(classifier, term), reasons.complete):
                assert type(got) is type(want) and got.universe is want.universe
                # a CNF reason keeps the reference's clause order; formulas are interned
                assert got.codes == want.codes if isinstance(want, Cnf) else got is want

    def test_cap_raises_where_the_reference_does(self, kind, seed):
        classifier, rng = KINDS[kind](seed)
        for term in populations(classifier, rng, count=3):
            if ref_decide(classifier, term) is Decision.UNDEFINED:
                continue
            count = len(ref_sufficient_reasons(classifier, term, 100_000)[1])
            for cap in range(max(0, count - 2), count + 1):
                got = outcome(sufficient_reasons, classifier, term, cap)
                want = outcome(ref_sufficient_reasons, classifier, term, cap)
                assert (got is CapacityError) == (want is CapacityError) == (count > cap)

    def test_relevance_rows(self, kind, seed):
        classifier, rng = KINDS[kind](seed)
        for term in populations(classifier, rng):
            got = outcome(relevance_report, classifier, term)
            want = outcome(ref_relevance_rows, classifier, term)
            if isinstance(got, type):
                assert got is want
                continue
            rows = [
                (r.feature.index, r.characteristic.code, r.feature_irrelevant,
                 r.characteristic_irrelevant)
                for r in got.rows
            ]
            assert (got.decision, rows) == want

    def test_bias(self, kind, seed):
        classifier, rng = KINDS[kind](seed)
        for term in populations(classifier, rng):
            if len(term) == len(classifier.features):
                got = is_decision_biased(classifier, term)
                assert got is ref_is_decision_biased(classifier, term)


@pytest.mark.parametrize("seed", range(22))
def test_cnf_pair_bias_matches_brute_force_flip_search(seed):
    classifier, rng = tree_classifier(seed)
    u = classifier.features
    indexes = [v.index for v in classifier.protected]
    for _ in range(8):
        bits = rng.getrandbits(len(u))
        decision = ref_decide(classifier, World(u, bits).to_term())
        flips = (
            sum(1 << i for k, i in enumerate(indexes) if pick >> k & 1)
            for pick in range(1 << len(indexes))
        )
        slow = any(
            ref_decide(classifier, World(u, bits ^ flip).to_term()) is not decision
            for flip in flips
        )
        assert is_decision_biased(classifier, World(u, bits).to_term()) is slow


def test_the_unit_clause_bundle_at_1200_features():
    bundle = parse_classifier_bundle(unit_clause_bundle(1200))
    classifier = Classifier(bundle.positive, bundle.negative, protected=["v7"])
    term = classifier.instance(",".join(f"v{i}" for i in range(1, 1201)))
    got = sufficient_reasons(classifier, term)
    assert [t.codes for t in got.sufficient] == ref_sufficient_reasons(classifier, term, 1)[1]
    assert [t.codes for t in got.sufficient] == [term.codes]
    with pytest.raises(CapacityError):
        sufficient_reasons(classifier, term, cap=0)
    assert is_decision_biased(classifier, term) is True
    assert ref_is_decision_biased(classifier, term) is True


# -- formula sides through their truth tables -------------------------------------------


def wide_formula_classifier(seed):
    rng = random.Random(seed)
    u = Universe(17 + seed % 4)
    protected = rng.sample(u.variables, rng.randint(1, 3))
    return Classifier(random_consistent_formula(u, rng, depth=5), protected=protected), rng


def wide_cnf_classifier(seed):
    """A CNF positive side with its derived formula negation."""
    rng = random.Random(seed)
    u = Universe(17 + seed % 4)
    protected = rng.sample(u.variables, rng.randint(1, 3))
    return Classifier(random_cnf(u, rng, clauses=6), protected=protected), rng


def unchecked_classifier(seed):
    """A formula and its negation widened or narrowed by another, kept
    without the negation check: a population may entail both sides, or
    neither."""
    rng = random.Random(seed)
    u = Universe(3 + seed % 3 if seed % 2 else 17 + seed % 4)
    protected = rng.sample(u.variables, 1)
    positive, other = (random_consistent_formula(u, rng, depth=4) for _ in range(2))
    negative = negate(positive) | other if seed % 2 else negate(positive) & other
    return Classifier(positive, negative, protected=protected, check=False), rng


WIDE = {
    "wide formula": wide_formula_classifier,
    "wide cnf": wide_cnf_classifier,
    "unchecked": unchecked_classifier,
}


@pytest.mark.parametrize("kind,seed", [(kind, seed) for kind in WIDE for seed in range(4)])
def test_entailment_queries_read_the_side_tables_as_the_reference(kind, seed):
    classifier, rng = WIDE[kind](seed)
    decisions = set()
    for term in populations(classifier, rng, count=5):
        want = ref_decide(classifier, term)
        decisions.add(want)
        assert decide(classifier, term) is want
        got = outcome(relevance_report, classifier, term)
        want = outcome(ref_relevance_rows, classifier, term)
        if isinstance(got, type):
            assert got is want
        else:
            rows = [
                (r.feature.index, r.characteristic.code, r.feature_irrelevant,
                 r.characteristic_irrelevant)
                for r in got.rows
            ]
            assert (got.decision, rows) == want
        if len(term) == len(classifier.features):
            got, want = (
                biased_outcome(query, classifier, term)
                for query in (is_decision_biased, ref_is_decision_biased)
            )
            assert got == want
    assert decisions - {Decision.UNDEFINED}


def biased_outcome(query, classifier, term):
    """The bias query's answer, or the error of an undecided instance."""
    try:
        return query(classifier, term)
    except ValueError as error:
        return ValueError, str(error)


def test_an_undecided_instance_has_no_bias():
    # the negative side leaves a gap: ~a,~b entails neither side
    u = Universe(["a", "b"])
    classifier = Classifier(u.lit("a"), u.lit("~a") & u.lit("b"), protected=["b"], check=False)
    assert decide(classifier, "~a,~b") is Decision.UNDEFINED
    message = "^queries take a positive or negative side$"
    for query in (is_decision_biased, ref_is_decision_biased):
        with pytest.raises(ValueError, match=message):
            query(classifier, u.term("~a,~b"))
    for seed in (0, 2):  # gaps at 17 and 19 features
        classifier, rng = unchecked_classifier(seed)
        u = classifier.features
        instances = (World(u, rng.getrandbits(len(u))).to_term() for _ in range(200))
        term = next(t for t in instances if decide(classifier, t) is Decision.UNDEFINED)
        for query in (is_decision_biased, ref_is_decision_biased):
            with pytest.raises(ValueError, match=message):
                query(classifier, term)


def test_an_unchecked_side_of_another_universe_is_refused_when_read():
    u, other = Universe(["a", "b"]), Universe(["a", "b"])
    classifier = Classifier(u.lit("a"), other.lit("b"), check=False)
    assert decide(classifier, "a") is Decision.POSITIVE
    with pytest.raises(UniverseMismatchError, match="^value does not live in the requested universe$"):
        decide(classifier, "~a")
    with pytest.raises(UniverseMismatchError):
        oracle.entails(u.term("~a"), classifier.negative)


def cap_error(universe) -> str:
    """The oracle's own refusal of a truth table over ``universe``."""
    with pytest.raises(CapacityError) as error:
        oracle.entails(universe.term(), universe.true)
    return f"^{re.escape(str(error.value))}$"


def test_formula_queries_past_the_cap_raise_the_oracles_error(monkeypatch):
    classifier, rng = formula_classifier(2)
    u = classifier.features
    instance = World(u, 5).to_term()
    queries = (decide, relevance_report, is_decision_biased, complete_reason, sufficient_reasons)
    monkeypatch.setenv("QLIT_ENUM_CAP", str(len(u) - 1))
    message = cap_error(u)
    for query in queries:
        with pytest.raises(CapacityError, match=message):
            query(classifier, instance)
    # lowered after the tables were made: each query still reads the cap
    monkeypatch.delenv("QLIT_ENUM_CAP")
    for query in queries:
        query(classifier, instance)
    monkeypatch.setenv("QLIT_ENUM_CAP", str(len(u) - 1))
    for query in queries:
        with pytest.raises(CapacityError, match=message):
            query(classifier, instance)


def test_a_cnf_positive_decides_past_the_cap_and_its_formula_negative_refuses(monkeypatch):
    u = Universe(["a", "b", "c"])
    classifier = Classifier(Cnf(u, [u.clause("a,b"), u.clause("c")]))
    monkeypatch.setenv("QLIT_ENUM_CAP", "2")
    assert decide(classifier, "a,c") is Decision.POSITIVE
    with pytest.raises(CapacityError, match=cap_error(u)):
        decide(classifier, "~c")


def test_each_query_looks_up_a_formula_sides_table_once(monkeypatch):
    classifier, rng = wide_formula_classifier(1)
    made = []
    models_mask = oracle.models_mask

    def counted(value):
        made.append(value)
        return models_mask(value)

    def refused(*args):
        raise AssertionError("a formula side asked oracle.entails")

    monkeypatch.setattr(oracle, "models_mask", counted)
    monkeypatch.setattr(oracle, "entails", refused)
    queries = [decide, relevance_report, is_decision_biased]
    terms = list(populations(classifier, rng, count=9))
    sides = {id(classifier.positive), id(classifier.negative)}
    for k in range(50):
        term = terms[k % len(terms)]
        query = queries[k % 3]
        if query is is_decision_biased and len(term) < len(classifier.features):
            query = decide
        made.clear()
        outcome(query, classifier, term)
        assert made and len(set(map(id, made))) == len(made) and {id(v) for v in made} <= sides

"""Classifier-level query layer: decisions, relevance, reasons and bias.

A classifier is a formula over a feature universe whose models are the
positively decided instances; its negation (materialized at load) captures
the negative ones.  Explanation queries reduce to universal quantification:
quantifying an instance's own characteristics plus its unmentioned features
out of the deciding formula yields the complete reason, whose prime
implicants are the sufficient reasons; quantifying the protected features
characterizes biased decisions.

Every quantifying query goes through :func:`qlit.quantify.quantify`, so a
CNF side reaches the linear drop rule there, one pass for the whole literal
set, and a formula side the definitional operators.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import (
    Formula,
    Literal,
    Term,
    Universe,
    Variable,
    evaluate,
    negate,
    truth_table,
)
from .errors import (
    ArityError,
    CapacityError,
    ConfigurationError,
    NoDecisionError,
    UniverseMismatchError,
)
from . import circuits, oracle  # noqa: F401 - circuits: see below
from .formulas import prime_forms
from .quantify import erase, quantify
from .tractable import Cnf

# ``circuits`` loads here, not on the first circuit query, so that a tracer which wraps
# functions by name in the loaded modules (perfbench's) also wraps calls inside it

__all__ = [
    "Decision",
    "Classifier",
    "ReasonSet",
    "RelevanceRow",
    "RelevanceReport",
    "decide",
    "instances_independent_of_features",
    "instances_independent_of_characteristics",
    "complete_reason",
    "sufficient_reasons",
    "biased_instances",
    "is_decision_biased",
    "relevance_report",
]

NEGATION_CHECK_CAP = 12  # exact mutual-negation check; sampled above this
NEGATION_SAMPLES = 10_000
DEFAULT_REASON_CAP = 100_000


class Decision(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNDEFINED = "undefined"

    def __str__(self) -> str:
        return self.value


def _side_of(side) -> Decision:
    if isinstance(side, Decision):
        if side is Decision.UNDEFINED:
            raise ValueError("queries take a positive or negative side")
        return side
    if side in ("positive", "negative"):
        return Decision(side)
    raise ValueError(f"unknown side {side!r}")


class Classifier:
    """A deciding formula, its materialized negation, the feature universe and
    the protected feature set."""

    __slots__ = ("positive", "negative", "features", "protected")

    def __init__(
        self,
        positive: Formula | Cnf,
        negative: Formula | Cnf | None = None,
        protected: Iterable[Variable | str] = (),
        check: bool = True,
    ):
        self.features: Universe = positive.universe
        self.positive = positive
        if negative is None:
            negative = negate(positive.to_formula())
        elif check:
            self._check_mutual_negation(positive, negative)
        self.negative = negative
        self.protected = frozenset(
            self.features.variable(v) if isinstance(v, str) else v for v in protected
        )
        for var in self.protected:
            self.features.check(var)

    def _check_mutual_negation(self, positive, negative) -> None:
        if negative.universe is not self.features:
            raise UniverseMismatchError("classifier sides use different universes")
        if len(self.features) <= NEGATION_CHECK_CAP:
            if not oracle.equivalent(negative, negate(positive.to_formula())):
                raise UniverseMismatchError(
                    "negative side is not the negation of the positive side"
                )
            return
        # the seeded worlds, bit-sliced: bit k of masks[i] is variable i in
        # world k, so one pass per side evaluates every world at once
        rng = random.Random(0)
        size = len(self.features)
        worlds = [rng.getrandbits(size) for _ in range(NEGATION_SAMPLES)]
        masks = [
            int("".join("1" if w >> i & 1 else "0" for w in reversed(worlds)), 2)
            for i in range(size)
        ]
        full = (1 << NEGATION_SAMPLES) - 1
        pos_table = truth_table(positive.to_formula(), masks, full)
        neg_table = truth_table(negative.to_formula(), masks, full)
        if pos_table ^ neg_table != full:
            raise UniverseMismatchError(
                "negative side disagrees with the negation of the positive side"
            )
        warnings.warn(
            f"mutual negation only sampled ({NEGATION_SAMPLES} worlds) above "
            f"{NEGATION_CHECK_CAP} features",
            stacklevel=3,
        )

    def side(self, side) -> Formula | Cnf:
        return self.positive if _side_of(side) is Decision.POSITIVE else self.negative

    def instance(self, spec: str | Term) -> Term:
        term = self.features.term(spec) if isinstance(spec, str) else spec
        if not term.is_total():
            raise ArityError("an instance assigns every feature")
        return term

    def population(self, spec: str | Term) -> Term:
        return self.features.term(spec) if isinstance(spec, str) else spec

    def __repr__(self) -> str:
        names = sorted(v.name for v in self.protected)
        return (
            f"Classifier({len(self.features)} features"
            + (f", protected {{{', '.join(names)}}}" if names else "")
            + ")"
        )


def _term_entails(term: Term, value) -> bool:
    """Every completion of ``term`` satisfies ``value``."""
    if isinstance(value, Cnf):
        codes = set(term.codes)
        return not any(codes.isdisjoint(clause) for clause in value.codes)
    return oracle.entails(term, value)


def decide(classifier: Classifier, population: Term | str) -> Decision:
    """Positive when the population entails the classifier, negative when it
    entails the negation, undefined otherwise (never for a full instance)."""
    term = classifier.population(population)
    if term.universe is not classifier.features:
        raise UniverseMismatchError("population is over a different universe")
    if _term_entails(term, classifier.positive):
        return Decision.POSITIVE
    if _term_entails(term, classifier.negative):
        return Decision.NEGATIVE
    return Decision.UNDEFINED


def instances_independent_of_features(
    classifier: Classifier, side, variables: Iterable[Variable | str]
) -> Formula | Cnf:
    """Formula selecting the instances decided on the given side regardless
    of the given features."""
    resolved = [
        classifier.features.variable(v) if isinstance(v, str) else v for v in variables
    ]
    for var in resolved:
        classifier.features.check(var)
    return quantify(classifier.side(side), "forall", resolved)


def instances_independent_of_characteristics(
    classifier: Classifier, side, characteristics: Iterable[Literal | str]
) -> Formula | Cnf:
    """Formula selecting the instances decided on the given side independently
    of the given characteristics (their complements are quantified)."""
    quantified = [
        ~classifier.features.literal(lit) for lit in characteristics
    ]
    return quantify(classifier.side(side), "forall", quantified)


def complete_reason(classifier: Classifier, population: Term | str) -> Formula | Cnf:
    """Quantify the population's own characteristics and every unmentioned
    feature out of the deciding side.

    For CNF classifiers this is the linear drop rule: every clause keeps only
    the characteristics of the population, so the result is a monotone CNF
    over those characteristics.
    """
    term = classifier.population(population)
    decision = decide(classifier, term)
    if decision is Decision.UNDEFINED:
        raise NoDecisionError("population is not decided, no reason exists")
    deciding = classifier.side(decision)
    mentioned = {v.index for v in term.variables()}
    unmentioned = [v for v in classifier.features if v.index not in mentioned]
    return quantify(deciding, "forall", [*term.literals(), *unmentioned])


@dataclass
class ReasonSet:
    """The complete reason, its prime implicants and the decision they explain."""

    complete: Formula | Cnf
    sufficient: tuple[Term, ...]
    decision: Decision


def _minimal_hitting_sets(
    clauses: Sequence[frozenset[int]], cap: int
) -> list[tuple[int, ...]]:
    """All subset-minimal hitting sets of the clause family, by branch and
    bound with per-node exclusion sets, on a stack of frames, not Python's."""
    family = [c for c in clauses]
    results: set[tuple[int, ...]] = set()

    def minimal(chosen: frozenset[int]) -> bool:
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
                    raise CapacityError(
                        f"more than {cap} sufficient reasons; raise the cap to enumerate"
                    )
            continue
        children, blocked = [], banned
        for lit in sorted(unhit - banned):
            children.append((chosen | {lit}, blocked))
            blocked = blocked | {lit}
        stack.extend(reversed(children))  # the first child is searched first
    return sorted(results)


def sufficient_reasons(
    classifier: Classifier, population: Term | str, cap: int = DEFAULT_REASON_CAP
) -> ReasonSet:
    """Prime implicants of the complete reason, in canonical order.

    Equivalently (and tested as such): the minimal sub-terms of the
    population that receive the same decision.  Monotone CNF reasons are
    enumerated as minimal hitting sets of their clauses; other shapes go
    through the generic prime-implicant construction.
    """
    term = classifier.population(population)
    decision = decide(classifier, term)
    if decision is Decision.UNDEFINED:
        raise NoDecisionError("population is not decided, no reason exists")
    reason = complete_reason(classifier, term)
    u = classifier.features
    if isinstance(reason, Cnf):
        hitting = _minimal_hitting_sets([frozenset(c) for c in reason.codes], cap)
    else:
        hitting = sorted(prime_forms(reason, "implicants").codes)
        if len(hitting) > cap:
            raise CapacityError(
                f"more than {cap} sufficient reasons; raise the cap to enumerate"
            )
    terms = tuple(Term._view(u, codes) for codes in hitting)
    return ReasonSet(complete=reason, sufficient=terms, decision=decision)


def biased_instances(classifier: Classifier, side) -> Formula:
    """Instances decided on the given side whose decision flips under some
    reassignment of the protected features alone."""
    if not classifier.protected:
        raise ConfigurationError("classifier has no protected features")
    deciding = classifier.side(side).to_formula()
    invariant = quantify(
        classifier.side(side),
        "forall",
        sorted(classifier.protected, key=lambda v: v.index),
    )
    return deciding & negate(invariant.to_formula())


def is_decision_biased(classifier: Classifier, instance: Term | str) -> bool:
    """Whether the instance satisfies the bias formula of its own side."""
    term = classifier.instance(instance)
    side = decide(classifier, term)
    return evaluate(biased_instances(classifier, side), term.to_world())


@dataclass
class RelevanceRow:
    feature: Variable
    characteristic: Literal
    feature_irrelevant: bool
    characteristic_irrelevant: bool

    @property
    def flag(self) -> str:
        if self.feature_irrelevant:
            return "feature-irrelevant"
        if self.characteristic_irrelevant:
            return "characteristic-irrelevant"
        return "essential"


@dataclass
class RelevanceReport:
    decision: Decision
    rows: tuple[RelevanceRow, ...]

    def to_lines(self) -> list[str]:
        return [
            f"{row.feature.name}: {row.characteristic} [{row.flag}]"
            for row in self.rows
        ]


def relevance_report(classifier: Classifier, population: Term | str) -> RelevanceReport:
    """Flag each characteristic of the population.

    A feature is irrelevant when erasing it preserves the decision; a
    characteristic is irrelevant when dropping it preserves the decision.
    Feature irrelevance implies characteristic irrelevance (dropping the only
    literal of a variable and erasing the variable agree on terms), which the
    row construction preserves by checking both.
    """
    term = classifier.population(population)
    decision = decide(classifier, term)
    if decision is Decision.UNDEFINED:
        raise NoDecisionError("population is not decided, nothing to report")
    rows = []
    for lit in term.literals():
        var = lit.variable
        erased = erase(term, [var])
        dropped = term.difference([lit])
        feature_ok = decide(classifier, erased) is decision
        characteristic_ok = decide(classifier, dropped) is decision
        rows.append(
            RelevanceRow(
                feature=var,
                characteristic=lit,
                feature_irrelevant=feature_ok,
                characteristic_irrelevant=characteristic_ok or feature_ok,
            )
        )
    return RelevanceReport(decision=decision, rows=tuple(rows))

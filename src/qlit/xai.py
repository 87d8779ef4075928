"""Classifier-level query layer: decisions, relevance, reasons and bias.

A classifier is a formula over a feature universe whose models are the
positively decided instances; its negation captures the negative ones.  It
is materialized at load, or given and checked exactly: a CNF pair at any
size when the negated clauses of both sides partition the worlds (as a
decision tree's do), any other pair by the oracle, up to its cap.
Explanation queries reduce to universal quantification: quantifying an
instance's own characteristics plus its unmentioned features out of the
deciding formula yields the complete reason, whose prime implicants are the
sufficient reasons; quantifying the protected features characterizes biased
decisions.

Every quantifying query goes through :func:`qlit.quantify.quantify`, so a
CNF side reaches the linear drop rule there, one pass for the whole literal
set, and a formula side the definitional operators.  Queries that only ask
whether a population entails a CNF side (decisions, relevance, bias) and the
hitting-set search read the clause masks the classifier keeps: bit ``c`` of a
mask is literal code ``c``, so a term entails the side when its own mask meets
every clause mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import (
    Formula,
    Literal,
    Term,
    Universe,
    Variable,
    _iter_bits,
    negate,
)
from .errors import (
    ArityError,
    CapacityError,
    ConfigurationError,
    NoDecisionError,
    UniverseMismatchError,
)
from . import oracle
from .circuits import partition_fault
from .formulas import prime_forms
from .quantify import quantify
from .tractable import Cnf

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


def _mask(codes: Iterable[int]) -> int:
    """The bit mask of literal codes: bit ``c`` for code ``c``."""
    return sum(map((1).__lshift__, codes))


def _clause_masks(side: Formula | Cnf) -> tuple[int, ...] | None:
    """One mask per clause of a CNF side, in clause order; ``None`` for a
    formula side."""
    return tuple(map(_mask, side.codes)) if isinstance(side, Cnf) else None


class Classifier:
    """A deciding formula, its materialized negation, the feature universe and
    the protected feature set.

    ``clause_masks`` holds, for the positive then the negative side, one
    literal-code mask per clause of a CNF side, or ``None`` for a formula
    side.  They live on the classifier, built once with it, so no query
    rebuilds them and no cache can hand one classifier's masks to another.
    """

    __slots__ = ("positive", "negative", "features", "protected", "clause_masks")

    def __init__(
        self,
        positive: Formula | Cnf,
        negative: Formula | Cnf | None = None,
        protected: Iterable[Variable | str] = (),
        check: bool = True,
    ):
        self.features: Universe = positive.universe
        self.positive = positive
        self.negative = negate(positive.to_formula()) if negative is None else negative
        self.clause_masks = masks = (_clause_masks(positive), _clause_masks(self.negative))
        if negative is not None and check:
            if negative.universe is not self.features:
                raise UniverseMismatchError("classifier sides use different universes")
            # past the oracle's cap only a partition is accepted; the rest raise CapacityError
            fault = "overlap" if None in masks else partition_fault(masks[0] + masks[1])
            if fault == "gap" or fault and not oracle.equivalent(negative, negate(positive.to_formula())):
                raise UniverseMismatchError("negative side is not the negation of the positive side")
        self.protected = frozenset(
            self.features.variable(v) if isinstance(v, str) else v for v in protected
        )
        for var in self.protected:
            self.features.check(var)

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


def _entails(classifier: Classifier, side, masks, codes: tuple[int, ...], mask: int) -> bool:
    """Every completion of the population ``codes``, whose mask is ``mask``,
    satisfies ``side``: on a CNF side, the mask meets every clause mask."""
    if masks is None:
        return oracle.entails(Term._view(classifier.features, codes), side)
    return all(map(mask.__and__, masks))


def _decision(classifier: Classifier, codes: tuple[int, ...], mask: int) -> Decision:
    """The decision on a population of the classifier's universe."""
    positive, negative = classifier.clause_masks
    if _entails(classifier, classifier.positive, positive, codes, mask):
        return Decision.POSITIVE
    if _entails(classifier, classifier.negative, negative, codes, mask):
        return Decision.NEGATIVE
    return Decision.UNDEFINED


def decide(classifier: Classifier, population: Term | str) -> Decision:
    """Positive when the population entails the classifier, negative when it
    entails the negation, undefined otherwise (never for a full instance)."""
    term = classifier.population(population)
    if term.universe is not classifier.features:
        raise UniverseMismatchError("population is over a different universe")
    return _decision(classifier, term.codes, _mask(term.codes))


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
    return _complete_reason(classifier, term, decision)


def _complete_reason(classifier: Classifier, term: Term, decision: Decision) -> Formula | Cnf:
    """The complete reason for a decision already made on ``term``."""
    mentioned = {v.index for v in term.variables()}
    unmentioned = [v for v in classifier.features if v.index not in mentioned]
    return quantify(classifier.side(decision), "forall", [*term.literals(), *unmentioned])


@dataclass
class ReasonSet:
    """The complete reason, its prime implicants and the decision they explain."""

    complete: Formula | Cnf
    sufficient: tuple[Term, ...]
    decision: Decision


def _minimal_hitting_sets(clauses: Iterable[int], cap: int) -> list[tuple[int, ...]]:
    """All subset-minimal hitting sets of the family of clause masks, as
    sorted code tuples, by branch and bound with per-node exclusion masks, on
    a stack of frames, not Python's.

    A clause that contains another is hit whenever that one is, so the search
    runs on the family's minimal clauses only, shortest first: the same
    hitting sets, from a smaller tree.
    """
    family: list[int] = []
    for clause in sorted(dict.fromkeys(clauses), key=int.bit_count):
        for kept in family:
            if kept & clause == kept:
                break
        else:
            family.append(clause)
    results: set[int] = set()
    stack = [(0, 0)]
    while stack:
        chosen, banned = stack.pop()
        for clause in family:
            if not clause & chosen:
                break
        else:
            # minimal when every chosen literal is the only one chosen in
            # some clause
            sole = 0
            for clause in family:
                hit = clause & chosen
                if not hit & (hit - 1):
                    sole |= hit
            if sole == chosen:
                results.add(chosen)
                if len(results) > cap:
                    raise CapacityError(
                        f"more than {cap} sufficient reasons; raise the cap to enumerate"
                    )
            continue
        children, blocked, free = [], banned, clause & ~banned
        while free:
            low = free & -free
            children.append((chosen | low, blocked))
            blocked |= low
            free ^= low
        stack.extend(reversed(children))  # the lowest literal is searched first
    return sorted(tuple(_iter_bits(chosen)) for chosen in results)


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
    reason = _complete_reason(classifier, term, decision)
    u = classifier.features
    masks = classifier.clause_masks[decision is Decision.NEGATIVE]
    if masks is not None:
        # the reason's clauses are the deciding clauses cut to the population
        mask = _mask(term.codes)
        hitting = _minimal_hitting_sets(map(mask.__and__, masks), cap)
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
    """Whether the instance satisfies the bias formula of its own side.

    A decided instance satisfies its deciding side, so it is biased exactly
    when it falls outside the invariant, the side with the protected features
    universally quantified: when the instance without its protected
    characteristics no longer entails the side.
    """
    term = classifier.instance(instance)
    side = decide(classifier, term)
    if not classifier.protected:
        raise ConfigurationError("classifier has no protected features")
    deciding = classifier.side(side)
    masks = classifier.clause_masks[side is Decision.NEGATIVE]
    protected = {v.index for v in classifier.protected}
    kept = tuple([c for c in term.codes if c >> 1 not in protected])
    return not _entails(classifier, deciding, masks, kept, _mask(kept))


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
    characteristic is irrelevant when dropping it preserves the decision.  A
    term holds one literal per variable, so erasing a feature and dropping its
    characteristic leave the same sub-term: one decision per characteristic
    answers both, and feature irrelevance implies characteristic irrelevance.
    """
    term = classifier.population(population)
    decision = decide(classifier, term)
    if decision is Decision.UNDEFINED:
        raise NoDecisionError("population is not decided, nothing to report")
    codes, mask = term.codes, _mask(term.codes)
    rows = []
    for k, lit in enumerate(term.literals()):
        kept = _decision(classifier, codes[:k] + codes[k + 1:], mask ^ (1 << codes[k]))
        same = kept is decision
        rows.append(
            RelevanceRow(
                feature=lit.variable,
                characteristic=lit,
                feature_irrelevant=same,
                characteristic_irrelevant=same,
            )
        )
    return RelevanceReport(decision=decision, rows=tuple(rows))

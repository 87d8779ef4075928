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

A CNF side's complete reason is cut on literal codes by the linear drop
rule, one pass that keeps of each deciding clause only the population's
literals; a formula side, and every other quantifying query, goes through
:func:`qlit.quantify.quantify`.  Queries that only ask whether a population
entails a side (decisions, relevance, bias) read what the classifier keeps.
On a CNF side that is one mask per clause, which the hitting-set search
reads too: bit ``c`` of a mask is literal code ``c``, so a term entails the
side when its own mask meets every clause mask.  On a formula side it is the
side's truth table, looked up once per query through
:func:`qlit.oracle.models_mask`: a term entails the side when its own table
has no bit outside the side's, and a full instance reads the one bit of its
world.
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
    _refuse_assignment,
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
from .tractable import Cnf, _drop

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
    the protected feature set; immutable once made.

    ``clause_masks`` holds, for the positive then the negative side, one
    literal-code mask per clause of a CNF side, or ``None`` for a formula
    side.  They live on the classifier, built once with it, so no query
    rebuilds them and no cache can hand one classifier's masks to another.
    A formula side keeps nothing: each query that needs its truth table asks
    :func:`qlit.oracle.models_mask` once, which checks the cap and reads the
    oracle's table cache.
    """

    __slots__ = ("positive", "negative", "features", "protected", "clause_masks")
    __setattr__ = __delattr__ = _refuse_assignment

    def __init__(
        self,
        positive: Formula | Cnf,
        negative: Formula | Cnf | None = None,
        protected: Iterable[Variable | str] = (),
        check: bool = True,
    ):
        features: Universe = positive.universe
        derived = negative is None
        if derived:
            negative = negate(positive.to_formula())
        masks = (_clause_masks(positive), _clause_masks(negative))
        if check and not derived:
            if negative.universe is not features:
                raise UniverseMismatchError("classifier sides use different universes")
            # past the oracle's cap only a partition is accepted; the rest raise CapacityError
            fault = "overlap" if None in masks else partition_fault(masks[0] + masks[1])
            if fault == "gap" or fault and not oracle.equivalent(negative, negate(positive.to_formula())):
                raise UniverseMismatchError("negative side is not the negation of the positive side")
        protected = frozenset(
            features.variable(v) if isinstance(v, str) else v for v in protected
        )
        for var in protected:
            features.check(var)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)
        object.__setattr__(self, "clause_masks", masks)
        object.__setattr__(self, "protected", protected)

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


def _table(classifier: Classifier, negative: bool) -> int:
    """The truth table of a formula side, with the checks of
    ``oracle.entails(population, side)``: the cap, then the side's
    universe."""
    u = classifier.features
    side = classifier.negative if negative else classifier.positive
    if side.universe is not u:  # an unchecked pair
        oracle._check_cap(u)
        oracle._same_universe(side, u)
    return oracle.models_mask(side)


def _entails(
    classifier: Classifier, negative: bool, codes: tuple[int, ...], mask: int, read: list
) -> bool:
    """Every completion of the population ``codes``, whose mask is ``mask``,
    satisfies the negative or the positive side: on a CNF side, the mask
    meets every clause mask; on a formula side, the population's models are
    models of the side.  ``read`` holds, by side, the formula tables this
    query has looked up, so a query looks each one up once."""
    masks = classifier.clause_masks[negative]
    if masks is not None:
        return all(map(mask.__and__, masks))
    table = read[negative]
    if table is None:
        table = read[negative] = _table(classifier, negative)
    n = len(classifier.features)
    if len(codes) == n:  # a full instance: the bit of its world
        return bool(table >> sum([1 << (code >> 1) for code in codes if code & 1]) & 1)
    own = oracle._term_table(n, codes)
    return own & table == own


def _decision(classifier: Classifier, codes: tuple[int, ...], mask: int, read: list) -> Decision:
    """The decision on a population of the classifier's universe."""
    if _entails(classifier, False, codes, mask, read):
        return Decision.POSITIVE
    if _entails(classifier, True, codes, mask, read):
        return Decision.NEGATIVE
    return Decision.UNDEFINED


def decide(classifier: Classifier, population: Term | str) -> Decision:
    """Positive when the population entails the classifier, negative when it
    entails the negation, undefined otherwise (never for a full instance)."""
    return _decide(classifier, classifier.population(population), [None, None])


def _decide(classifier: Classifier, term: Term, read: list) -> Decision:
    """:func:`decide` on a term, through the formula tables in ``read``."""
    if term.universe is not classifier.features:
        raise UniverseMismatchError("population is over a different universe")
    return _decision(classifier, term.codes, _mask(term.codes), read)


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
    u = classifier.features
    quantified = [u.literal_by_code(u.literal(lit).code ^ 1) for lit in characteristics]
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
    side, u = classifier.side(decision), classifier.features
    if isinstance(side, Cnf):
        # quantifying the population and both literals of every other
        # feature drops every code but the population's own
        return _drop(side, set(range(2 * len(u))).difference(term.codes))
    mentioned = {v.index for v in term.variables()}
    unmentioned = [v for v in u if v.index not in mentioned]
    return quantify(side, "forall", [*term.literals(), *unmentioned])


@dataclass(frozen=True)
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
    term, read = classifier.instance(instance), [None, None]
    side = _decide(classifier, term, read)
    if not classifier.protected:
        raise ConfigurationError("classifier has no protected features")
    negative = _side_of(side) is Decision.NEGATIVE
    protected = {v.index for v in classifier.protected}
    kept = tuple([c for c in term.codes if c >> 1 not in protected])
    return not _entails(classifier, negative, kept, _mask(kept), read)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    A sub-term entails no side its term does not, so the decision stays
    exactly when the sub-term still entails the deciding side.
    """
    term, read = classifier.population(population), [None, None]
    decision = _decide(classifier, term, read)
    if decision is Decision.UNDEFINED:
        raise NoDecisionError("population is not decided, nothing to report")
    codes, mask, negative = term.codes, _mask(term.codes), decision is Decision.NEGATIVE
    rows = []
    for k, lit in enumerate(term.literals()):
        same = _entails(classifier, negative, codes[:k] + codes[k + 1:], mask ^ (1 << codes[k]), read)
        rows.append(
            RelevanceRow(
                feature=lit.variable,
                characteristic=lit,
                feature_irrelevant=same,
                characteristic_irrelevant=same,
            )
        )
    return RelevanceReport(decision=decision, rows=tuple(rows))

"""Seeded property suites over random inputs.

Each suite draws its own ``random.Random(seed)`` stream, runs a fixed number
of independent trials and reports pass/fail counts, so identical parameters
reproduce identical results.  The suites compare fast paths against the
enumeration oracle; a failure message carries the first counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import SUITE_NAMES, oracle
from .core import (
    Universe,
    World,
    condition,
    negate,
)
from .quantify import (
    exists_literal,
    exists_variable,
    forall_literal,
    forall_variable,
    quantify_set,
)
from .circuits import _var_bitmasks, ddnnf_exists, ddnnf_forall, ddnnf_shift, sdd_exists, sdd_forall, sdd_shift
from .tractable import (
    close_under,
    cnf_exists_literal,
    cnf_forall_literal,
    dnf_exists_literal,
    dnf_forall_literal,
)
from .xai import Classifier, Decision, decide, is_decision_biased, sufficient_reasons
from .generators import (
    all_terms,
    random_cnf,
    random_consistent_formula,
    random_decision_dnnf,
    random_dnf,
    random_formula,
    random_literal,
    random_sdd,
    random_term,
)

__all__ = ["SuiteResult", "run_suite", "SUITE_NAMES"]


@dataclass
class SuiteResult:
    name: str
    passed: int
    total: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def summary(self) -> str:
        return f"{self.passed}/{self.total} pass"


class _Suite:
    """One named suite: runs ``trials`` independent seeded trials."""

    def __init__(self, name: str, variables: int, trials: int, seed: int):
        self.result = SuiteResult(name, 0, 0)
        self.rng = random.Random(seed)
        self.variables = variables
        self.trials = trials

    def run(self, trial) -> SuiteResult:
        for index in range(self.trials):
            self.result.total += 1
            message = trial(self.rng)
            if message is None:
                self.result.passed += 1
            elif len(self.result.failures) < 5:
                self.result.failures.append(f"trial {index}: {message}")
        return self.result


# -- individual suites ---------------------------------------------------------


def _duality(suite: _Suite) -> SuiteResult:
    """Pushing a negation through a quantifier flips it, for literals and
    variables."""
    u = Universe(suite.variables)

    def trial(rng: random.Random):
        f = random_formula(u, rng)
        lit = random_literal(u, rng)
        var = lit.variable
        if not oracle.equivalent(
            exists_literal(f, lit), negate(forall_literal(negate(f), lit))
        ):
            return f"literal exists/forall duality broke on {f} with {lit}"
        if not oracle.equivalent(
            forall_literal(f, lit), negate(exists_literal(negate(f), lit))
        ):
            return f"literal forall/exists duality broke on {f} with {lit}"
        if not oracle.equivalent(
            exists_variable(f, var), negate(forall_variable(negate(f), var))
        ):
            return f"variable duality broke on {f} with {var.name}"
        return None

    return suite.run(trial)


def _order(suite: _Suite) -> SuiteResult:
    """Quantifying a set of items is order-independent, and quantifying both
    literals of a variable equals quantifying the variable."""
    u = Universe(suite.variables)

    def trial(rng: random.Random):
        f = random_formula(u, rng)
        items: list = [random_literal(u, rng) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.3:
            items.append(u.variables[rng.randrange(len(u))])
        shuffled = items[:]
        rng.shuffle(shuffled)
        for quantifier in ("forall", "exists"):
            a = quantify_set(f, quantifier, items)
            b = quantify_set(f, quantifier, shuffled)
            if not oracle.equivalent(a, b):
                return f"{quantifier} over {items} is order-dependent on {f}"
        var = u.variables[rng.randrange(len(u))]
        pos = u.literal_by_code(2 * var.index + 1)
        if not oracle.equivalent(
            forall_variable(f, var), quantify_set(f, "forall", [pos, ~pos])
        ):
            return f"forall variable vs both literals broke on {f}"
        if not oracle.equivalent(
            exists_variable(f, var), quantify_set(f, "exists", [~pos, pos])
        ):
            return f"exists variable vs both literals broke on {f}"
        return None

    return suite.run(trial)


def _selection(suite: _Suite) -> SuiteResult:
    """Worlds (and terms, up to 6 variables) satisfy a universal
    quantification exactly when they are independent of their literals that
    fall among the quantified complements."""
    u = Universe(suite.variables)

    def trial(rng: random.Random):
        f = random_formula(u, rng)
        lits = [random_literal(u, rng) for _ in range(rng.randint(1, 3))]
        quantified = quantify_set(f, "forall", lits)
        complements = {(~l).code for l in lits}
        q_mask = oracle.models_mask(quantified)
        for bits in range(1 << len(u)):
            world = World(u, bits)
            alpha = u.term(
                [u.literal_by_code(c) for c in complements if c in world.to_term().codes]
            )
            selected = bool(q_mask >> bits & 1)
            independent = oracle.is_independent_model(f, world, alpha)
            if selected != independent:
                return (
                    f"world {world} selection mismatch for {f} forall "
                    f"{[str(l) for l in lits]}"
                )
        if len(u) <= 6:
            f_mask = oracle.models_mask(f)
            for term in all_terms(u):
                rest = term.difference(
                    [u.literal_by_code(c) for c in complements if c in term.codes]
                )
                lhs = oracle.models_mask(term) & ~q_mask == 0
                rhs = oracle.models_mask(rest) & ~f_mask == 0
                if lhs != rhs:
                    return f"term {term} selection mismatch for {f}"
        return None

    return suite.run(trial)


def _syntax(suite: _Suite) -> SuiteResult:
    """Syntactic characterizations: universal quantification conjoins the
    negated antecedents of the rules inferring the dropped literal;
    existential quantification disjoins the antecedents of the rules
    inferring the dropped literal.  Also the term law and the
    variable-quantification decomposition."""
    u = Universe(suite.variables)

    def trial(rng: random.Random):
        f = random_formula(u, rng)
        lit = random_literal(u, rng)
        rules = oracle.b_rules(f).items  # read twice below
        neg_antecedents = [
            negate(r.antecedent.to_formula())
            for r in rules
            if r.consequent == ~lit
        ]
        expected = u.all_conj([f, *neg_antecedents])
        if not oracle.equivalent(forall_literal(f, lit), expected):
            return f"universal syntactic characterization broke on {f} with {lit}"
        antecedents = [
            r.antecedent.to_formula() for r in rules if r.consequent == lit
        ]
        expected = u.all_disj([f, *antecedents])
        if not oracle.equivalent(exists_literal(f, lit), expected):
            return f"existential syntactic characterization broke on {f} with {lit}"
        # universal quantification of a literal splits into the variable
        # quantification plus the literal-side restriction
        split = forall_variable(f, lit.variable) | (u.lit(lit) & f)
        if not oracle.equivalent(forall_literal(f, lit), split):
            return f"variable/literal split broke on {f} with {lit}"
        # quantifying a literal out of a term keeps the term intact unless
        # the complementary literal occurs in it
        term = random_term(u, rng)
        if (~lit).code not in term.codes:
            if not oracle.equivalent(forall_literal(term.to_formula(), lit), term.to_formula()):
                return f"term preservation broke on {term} with {lit}"
        # base and compound laws: constants, distribution, and the
        # disjoint-variable cases
        if not oracle.equivalent(forall_literal(u.true, lit), u.true):
            return "universal quantification of true broke"
        if not oracle.equivalent(exists_literal(u.false, lit), u.false):
            return "existential quantification of false broke"
        a = random_formula(u, rng, 2)
        b = random_formula(u, rng, 2)
        if not oracle.equivalent(
            exists_literal(a | b, lit), exists_literal(a, lit) | exists_literal(b, lit)
        ):
            return f"existential/or distribution broke on {a} | {b}"
        if not oracle.equivalent(
            forall_literal(a & b, lit), forall_literal(a, lit) & forall_literal(b, lit)
        ):
            return f"universal/and distribution broke on {a} & {b}"
        half = len(u) // 2
        left_vars = [v.name for v in u.variables[:half]]
        ua = random_formula(u, rng, 2)
        ua = condition_out(ua, left_vars, rng)
        ub = random_formula(u, rng, 2)
        ub = condition_out(ub, [v.name for v in u.variables[half:]], rng)
        if not oracle.equivalent(
            exists_literal(ua & ub, lit),
            exists_literal(ua, lit) & exists_literal(ub, lit),
        ):
            return "existential/and distribution broke on variable-disjoint parts"
        if not oracle.equivalent(
            forall_literal(ua | ub, lit),
            forall_literal(ua, lit) | forall_literal(ub, lit),
        ):
            return "universal/or distribution broke on variable-disjoint parts"
        return None

    return suite.run(trial)


def condition_out(formula, names, rng: random.Random):
    """Make a formula independent of the named variables by conditioning."""
    u = formula.universe
    for name in names:
        formula = condition(formula, u.literal(name if rng.random() < 0.5 else "~" + name))
    return formula


def _sandwich(suite: _Suite) -> SuiteResult:
    """The universal quantification implies the formula implies the
    existential one; the dropped models are exactly the boundary models of
    the complement literal, and the added models exactly the boundary models
    of the negation.  Also implication monotonicity and implicant/implicate
    preservation."""
    u = Universe(suite.variables)

    def trial(rng: random.Random):
        f = random_formula(u, rng)
        lit = random_literal(u, rng)
        forall_f = forall_literal(f, lit)
        exists_f = exists_literal(f, lit)
        if not oracle.entails(forall_f, f) or not oracle.entails(f, exists_f):
            return f"sandwich broke on {f} with {lit}"
        f_mask = oracle.models_mask(f)
        dropped = f_mask & ~oracle.models_mask(forall_f)
        expected = 0
        for world, boundary_lit in oracle.boundary_models(f):
            if boundary_lit == ~lit:
                expected |= 1 << world.bits
        if dropped != expected:
            return f"universal model delta broke on {f} with {lit}"
        added = oracle.models_mask(exists_f) & ~f_mask
        expected = 0
        for world, boundary_lit in oracle.boundary_models(negate(f)):
            if boundary_lit == ~lit:
                expected |= 1 << world.bits
        if added != expected:
            return f"existential model delta broke on {f} with {lit}"
        g = f | random_formula(u, rng, 2)  # f implies g by construction
        if not oracle.entails(forall_literal(f, lit), forall_literal(g, lit)):
            return f"universal monotonicity broke on {f} vs {g}"
        if not oracle.entails(exists_literal(f, lit), exists_literal(g, lit)):
            return f"existential monotonicity broke on {f} vs {g}"
        term = random_term(u, rng)
        if lit.code in term.codes and oracle.entails(term, f):
            if not oracle.entails(term, forall_f):
                return f"implicant preservation broke on {term}"
        extra = [
            c
            for c in random_term(u, rng).codes
            if c >> 1 != lit.variable.index
        ]
        clause = u.clause([u.literal_by_code(c) for c in extra] + [~lit])
        if oracle.entails(f, clause) and not oracle.entails(exists_f, clause):
            return f"implicate preservation broke on {clause}"
        return None

    return suite.run(trial)


def _know(suite: _Suite) -> SuiteResult:
    """Models are reconstructible from boundary rules alone, and equal rule
    sets characterize equal model sets among consistent formulas."""
    u = Universe(suite.variables)

    def trial(rng: random.Random):
        f = random_consistent_formula(u, rng)
        models = oracle.enumerate_models(f)
        rules = oracle.b_rules(f)
        bmodels = oracle.ModelSet(u, {w for w, _ in oracle.boundary_models(f)})
        rebuilt = oracle.reconstruct_models(rules, bmodels)
        if rebuilt != models:
            return f"reconstruction missed models of {f}"
        g = random_consistent_formula(u, rng)
        same_rules = oracle.b_rules(g) == rules
        same_models = oracle.enumerate_models(g) == models
        if same_rules != same_models:
            return f"rule/model characterization broke on {f} vs {g}"
        return None

    return suite.run(trial)


def _appendix_a(suite: _Suite) -> SuiteResult:
    """Every clause of the rule deletion/preservation/introduction
    characterization holds for the transition report."""
    u = Universe(suite.variables)

    def trial(rng: random.Random):
        f = random_formula(u, rng)
        lit = random_literal(u, rng)
        report = oracle.brule_transition_report(f, lit)
        if not report.passed:
            failed = [k for k, v in report.checks.items() if not v]
            return f"clauses {failed} failed on {f} with {lit}"
        return None

    return suite.run(trial)


def _tractable(suite: _Suite) -> SuiteResult:
    """Every flat-form and circuit routine agrees with its definitional
    counterpart, and the size bounds hold."""
    u = Universe(suite.variables)

    def trial(rng: random.Random):
        lit = random_literal(u, rng)
        cnf = random_cnf(u, rng)
        fast = cnf_forall_literal(cnf, [lit])
        if not oracle.equivalent(fast.to_formula(), forall_literal(cnf.to_formula(), lit)):
            return f"cnf universal broke on {cnf} with {lit}"
        if fast.literal_count() > cnf.literal_count():
            return f"cnf universal grew on {cnf}"
        fast = cnf_exists_literal(cnf, [lit])
        if not oracle.equivalent(fast.to_formula(), exists_literal(cnf.to_formula(), lit)):
            return f"cnf existential broke on {cnf} with {lit}"
        closed = close_under(cnf, lit.variable)
        fast = cnf_exists_literal(closed, [lit], assume_closed=True)
        if not oracle.equivalent(fast.to_formula(), exists_literal(cnf.to_formula(), lit)):
            return f"cnf existential (preclosed) broke on {cnf} with {lit}"

        dnf = random_dnf(u, rng)
        fast = dnf_exists_literal(dnf, [lit])
        if not oracle.equivalent(fast.to_formula(), exists_literal(dnf.to_formula(), lit)):
            return f"dnf existential broke on {dnf} with {lit}"
        if fast.literal_count() > dnf.literal_count():
            return f"dnf existential grew on {dnf}"
        fast = dnf_forall_literal(dnf, [lit])
        if not oracle.equivalent(fast.to_formula(), forall_literal(dnf.to_formula(), lit)):
            return f"dnf universal broke on {dnf} with {lit}"

        lits = [random_literal(u, rng) for _ in range(rng.randint(1, 3))]
        circuit = random_decision_dnnf(u, rng)
        reference = circuit.to_formula()
        out = ddnnf_exists(circuit, lits)
        if not oracle.equivalent(out, quantify_set(reference, "exists", lits)):
            return f"decision-circuit existential broke with {[str(l) for l in lits]}"
        if len(out) > len(circuit):
            return "decision-circuit existential grew"
        shifted = ddnnf_shift(circuit)
        if not oracle.equivalent(shifted, reference):
            return "decision-circuit shift changed models"
        if not _disjoint_disjunctions(shifted):
            return "decision-circuit shift left sharing disjuncts"
        out = ddnnf_forall(circuit, lits)
        if not oracle.equivalent(out, quantify_set(reference, "forall", lits)):
            return f"decision-circuit universal broke with {[str(l) for l in lits]}"

        sdd = random_sdd(u, rng)
        reference = sdd.to_formula()
        out = sdd_exists(sdd, lits)
        if not oracle.equivalent(out, quantify_set(reference, "exists", lits)):
            return "partition-circuit existential broke"
        if len(out) > len(sdd):
            return "partition-circuit existential grew"
        shifted = sdd_shift(sdd)
        if not oracle.equivalent(shifted, reference):
            return "partition-circuit shift changed models"
        if not _disjoint_disjunctions(shifted):
            return "partition-circuit shift left sharing disjuncts"
        if len(shifted) > 2 * len(sdd) + 2:
            return "partition-circuit shift more than doubled"
        out = sdd_forall(sdd, lits)
        if not oracle.equivalent(out, quantify_set(reference, "forall", lits)):
            return "partition-circuit universal broke"
        return None

    return suite.run(trial)


def _disjoint_disjunctions(circuit) -> bool:
    return "or" not in _var_bitmasks(circuit)[2]


def _reasons(suite: _Suite) -> SuiteResult:
    """Sufficient reasons equal the minimal same-decision sub-terms, found by
    exhaustive subset search; alternating CNF and free-form classifiers."""
    size = min(suite.variables, 6)
    u = Universe(size)

    def trial(rng: random.Random):
        if rng.random() < 0.5:
            classifier = Classifier(random_cnf(u, rng))
        else:
            classifier = Classifier(random_consistent_formula(u, rng))
        term = random_term(u, rng, rng.randint(1, size))
        decision = decide(classifier, term)
        if decision is Decision.UNDEFINED:
            bits = rng.getrandbits(size)
            term = World(u, bits).to_term()
            decision = decide(classifier, term)
        got = {t.codes for t in sufficient_reasons(classifier, term).sufficient}
        want = set()
        literals = list(term.codes)
        for pick in range(1 << len(literals)):
            subset = tuple(
                literals[i] for i in range(len(literals)) if pick >> i & 1
            )
            sub = u.term([u.literal_by_code(c) for c in subset])
            if decide(classifier, sub) is not decision:
                continue
            want.add(subset)
        minimal = {
            s for s in want if not any(set(t) < set(s) for t in want)
        }
        if got != minimal:
            return f"reasons mismatch on {term} (got {got}, want {minimal})"
        return None

    return suite.run(trial)


def _bias(suite: _Suite) -> SuiteResult:
    """The bias formula agrees with brute-force search over reassignments of
    the protected features."""
    size = min(suite.variables, 8)
    u = Universe(size)

    def trial(rng: random.Random):
        classifier = Classifier(
            random_consistent_formula(u, rng),
            protected=[
                v for v in u.variables if rng.random() < 0.5
            ] or [u.variables[rng.randrange(size)]],
        )
        bits = rng.getrandbits(size)
        instance = World(u, bits).to_term()
        fast = is_decision_biased(classifier, instance)
        decision = decide(classifier, instance)
        protected_idx = [v.index for v in classifier.protected]
        slow = False
        for pick in range(1 << len(protected_idx)):
            flipped = bits
            for k, index in enumerate(protected_idx):
                if pick >> k & 1:
                    flipped ^= 1 << index
            if decide(classifier, World(u, flipped).to_term()) is not decision:
                slow = True
                break
        if fast != slow:
            return f"bias mismatch on {instance}"
        return None

    return suite.run(trial)


# in the order of SUITE_NAMES, which the command line reads without
# importing this module
_SUITES = dict(
    zip(
        SUITE_NAMES,
        (
            _duality,
            _order,
            _selection,
            _syntax,
            _sandwich,
            _know,
            _tractable,
            _appendix_a,
            _reasons,
            _bias,
        ),
        strict=True,
    )
)


def run_suite(name: str, variables: int, trials: int, seed: int) -> SuiteResult:
    """Run one named suite and report its pass count."""
    try:
        runner = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown property {name!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    return runner(_Suite(name, variables, trials, seed))

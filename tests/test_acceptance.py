"""Acceptance gate: the golden classifier suites, figure-level values,
counting families, seeded property suites at full volume, linearity evidence
and the monotone-output check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  One check is intentionally red: the parity-family rule-count
closed form (criterion 6, parity clause) asserts 2^(n-1)*(n-1) rules, while
first-principles enumeration of boundary rules gives n*2^(n-1) (every model
of a parity function is boundary on every variable).  The test keeps the
stated value for visibility rather than silently correcting it.
"""

import random
import statistics
import time

import pytest

from qlit.core import Universe
from qlit.generators import (
    big_random_cnf,
    parity_decision_dnnf,
    random_decision_dnnf,
    random_sdd,
)
from qlit.io import emit_nnf, parse_formula, parse_nnf, parse_sdd
from qlit import oracle
from qlit.quantify import exists_literal
from qlit.tractable import cnf_forall_literal, ddnnf_exists, ddnnf_forall, sdd_forall
from qlit.xai import (
    biased_instances,
    complete_reason,
    instances_independent_of_characteristics,
    instances_independent_of_features,
    sufficient_reasons,
)
from qlit.checks import run_suite

from conftest import LOAN_DECISION_NNF


def report(number: str, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def check(failures: list[str], condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def as_formula(value):
    return value if not hasattr(value, "to_formula") else value.to_formula()


class TestCriterion1:
    def test_loan_golden_suite(self, loan):
        failures: list[str] = []
        u = loan.features
        started = time.perf_counter()
        cases = [
            ("positive", ["d", "h"], "g & i"),
            ("positive", ["d", "g"], "false"),
            ("negative", ["d", "g"], "~h & ~i"),
            ("negative", ["d", "h"], "false"),
        ]
        for side, names, want in cases:
            got = instances_independent_of_features(loan, side, names)
            check(
                failures,
                oracle.equivalent(as_formula(got), parse_formula(want, u)),
                f"features {names} on {side} side != {want}",
            )
        got = instances_independent_of_characteristics(loan, "negative", ["d", "h"])
        check(
            failures,
            oracle.equivalent(as_formula(got), parse_formula("~h & ~i", u)),
            "characteristics d,h on negative side != ~h & ~i",
        )
        elapsed = time.perf_counter() - started
        check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
        report("1", "loan classifier golden suite", failures)


class TestCriterion2:
    def test_admission_reasons(self, admission):
        failures: list[str] = []
        u = admission.features

        got = sufficient_reasons(admission, "e,f,g,w,~r")
        check(
            failures,
            {str(t) for t in got.sufficient} == {"e,f,g", "e,f,w"},
            f"reasons for e,f,g,w,~r were {[str(t) for t in got.sufficient]}",
        )

        got = sufficient_reasons(admission, "e,f,g,w,r")
        check(
            failures,
            {str(t) for t in got.sufficient}
            == {"e,f,g", "e,f,w", "e,g,r", "e,r,w", "g,r,w"},
            f"reasons for e,f,g,w,r were {[str(t) for t in got.sufficient]}",
        )

        reason = complete_reason(admission, "e,~f,g,r,w")
        want = parse_formula("(e | g) & (e | w) & r & (~f | g | w)", u)
        check(
            failures,
            oracle.equivalent(as_formula(reason), want),
            "complete reason for e,~f,g,r,w not equivalent to the stated CNF",
        )
        its_reasons = sufficient_reasons(admission, "e,~f,g,r,w")
        check(
            failures,
            {str(t) for t in its_reasons.sufficient}
            == {"e,g,r", "e,r,w", "e,~f,r", "g,r,w"},
            f"prime implicants were {[str(t) for t in its_reasons.sufficient]}",
        )

        got = sufficient_reasons(admission, "~e,~f,~r")
        check(
            failures,
            {str(t) for t in got.sufficient} == {"~e,~r", "~f,~r"},
            f"reasons for population ~e,~f,~r were {[str(t) for t in got.sufficient]}",
        )
        report("2", "admission classifier reasons", failures)


class TestCriterion3:
    def test_bias_formulas(self, admission):
        failures: list[str] = []
        u = admission.features
        got = biased_instances(admission, "positive")
        want = parse_formula(
            "(e | g) & (e | w) & r & (~f | g) & (~f | w) & (~e | ~f)", u
        )
        check(failures, oracle.equivalent(got, want), "positive bias formula differs")
        sliced = ~u.lit("e") & got
        check(
            failures,
            oracle.equivalent(sliced, parse_formula("~e & g & r & w", u)),
            "slice with ~e differs",
        )
        report("3", "bias characterization", failures)


class TestCriterion4:
    def test_figure_rules_and_models(self, xyz):
        failures: list[str] = []
        f = parse_formula("(x | y) & (x | z) & (y | z)", xyz)
        rules = {str(r) for r in oracle.b_rules(f)}
        check(
            failures,
            rules
            == {"~x z -> y", "~y z -> x", "~x y -> z", "x ~y -> z", "y ~z -> x", "x ~z -> y"},
            f"rules were {sorted(rules)}",
        )
        models = {str(w) for w in oracle.enumerate_models(f)}
        check(
            failures,
            models == {"~x y z", "x ~y z", "x y ~z", "x y z"},
            f"models were {sorted(models)}",
        )
        report("4", "hypercube figure rules and models", failures)


class TestCriterion5:
    def test_circuit_path(self):
        failures: list[str] = []
        u = Universe(["d", "g", "h", "i"])
        circuit = parse_nnf(LOAN_DECISION_NNF, u)
        delta = parse_formula("(h | i) & (~d | g) & (~d | i)", u)
        check(failures, oracle.equivalent(circuit, delta), "transcribed circuit differs")

        exists_d = ddnnf_exists(circuit, [u.pos("d")])
        check(
            failures,
            oracle.equivalent(exists_d, exists_literal(delta, u.pos("d"))),
            "existential quantification of d differs",
        )
        forall_d = ddnnf_forall(circuit, [u.pos("d")])
        check(
            failures,
            oracle.equivalent(forall_d, u.lit("i") & u.lit("g")),
            "universal quantification of d is not i & g",
        )
        report("5", "decision-circuit quantification path", failures)


class TestCriterion6:
    def test_conjunction_and_disjunction_families(self):
        failures: list[str] = []
        for n in range(2, 11):
            u = Universe(n)
            conj = u.all_conj(u.lit(v.name) for v in u)
            pairs = oracle.boundary_models(conj)
            check(
                failures,
                len({w for w, _ in pairs}) == 1 and len(oracle.b_rules(conj)) == n,
                f"conjunction family broke at n={n}",
            )
            disj = u.all_disj(u.lit(v.name) for v in u)
            pairs = oracle.boundary_models(disj)
            check(
                failures,
                len({w for w, _ in pairs}) == n and len(oracle.b_rules(disj)) == n,
                f"disjunction family broke at n={n}",
            )
        report("6", "conjunction/disjunction counting families", failures)

    def test_parity_family_closed_form(self):
        failures: list[str] = []
        for n in range(2, 11):
            u = Universe(n)
            f = u.lit(u.variables[0].name)
            for v in u.variables[1:]:
                f = f.iff(~u.lit(v.name))
            stated = 2 ** (n - 1) * (n - 1)
            enumerated = len(oracle.b_rules(f))
            check(
                failures,
                enumerated == stated,
                f"n={n}: stated closed form {stated}, enumeration gives {enumerated}"
                " (= n * 2^(n-1): every model of a parity function is boundary"
                " on every variable)",
            )
        report("6", "parity counting family closed form", failures)


SUITE_PLAN = [
    # (suite, variables, trials)
    ("duality", 8, 1000),
    ("order", 8, 1000),
    ("sandwich", 8, 1000),
    ("syntax", 6, 1000),
    ("selection", 6, 1000),
    ("know", 6, 500),
    ("tractable", 6, 1000),
    ("appendixA", 6, 1000),
    ("reasons", 6, 1000),
    ("bias", 8, 1000),
]


class TestCriterion7:
    @pytest.mark.parametrize("suite,variables,trials", SUITE_PLAN)
    def test_property_suite(self, suite, variables, trials):
        failures: list[str] = []
        result = run_suite(suite, variables, trials, seed=20240801)
        check(
            failures,
            result.ok,
            f"{result.summary()}; first failures: {result.failures[:2]}",
        )
        report("7", f"property suite {suite} {result.summary()}", failures)


def _fit_r_squared(sizes: list[int], times: list[float]) -> float:
    return statistics.correlation(sizes, times) ** 2


class TestCriterion8:
    def test_cnf_linearity(self):
        failures: list[str] = []
        rng = random.Random(99)
        sizes, times = [], []
        for target in (1_000, 10_000, 100_000, 1_000_000):
            u = Universe(max(12, target // 30))
            cnf = big_random_cnf(u, rng, clauses=target // 3)
            lit = u.literal_by_code(1)
            best = min(
                _timed(lambda: cnf_forall_literal(cnf, [lit]))
                for _ in range(3 if target <= 100_000 else 1)
            )
            out = cnf_forall_literal(cnf, [lit])
            check(
                failures,
                out.literal_count() <= cnf.literal_count(),
                f"output grew at {target} literals",
            )
            sizes.append(cnf.literal_count())
            times.append(best)
        r2 = _fit_r_squared(sizes, times)
        check(failures, r2 >= 0.98, f"linear fit R^2 = {r2:.4f} < 0.98")
        report("8", f"cnf universal quantification linearity (R^2 {r2:.4f})", failures)

    def test_circuit_linearity(self):
        failures: list[str] = []
        sizes, times = [], []
        for target in (1_000, 10_000, 100_000, 1_000_000):
            u = Universe(max(2, target // 8))
            circuit = parity_decision_dnnf(u)
            lit = u.literal_by_code(1)
            best = min(
                _timed(lambda: ddnnf_forall(circuit, [lit]))
                for _ in range(3 if target <= 100_000 else 1)
            )
            out = ddnnf_forall(circuit, [lit])
            check(
                failures,
                len(out) <= len(circuit),
                f"output grew at {len(circuit)} nodes",
            )
            sizes.append(len(circuit))
            times.append(best)
        r2 = _fit_r_squared(sizes, times)
        check(failures, r2 >= 0.98, f"linear fit R^2 = {r2:.4f} < 0.98")
        report(
            "8", f"decision-circuit universal quantification linearity (R^2 {r2:.4f})",
            failures,
        )


def _sdd_chain(nvars: int) -> str:
    """An SDD text of about ``8 * nvars`` circuit nodes: per variable two
    partitions ``(x & s) | (~x & s')`` over the two of the level below."""
    lines = ["T 0", "F 1"]
    low, high = 0, 1
    for var in range(1, nvars + 1):
        pos, neg, at = len(lines), len(lines) + 1, len(lines) + 2
        lines += [f"L {pos} {var}", f"L {neg} {-var}",
                  f"D {at} 2 {pos} {low} {neg} {high}", f"D {at + 1} 2 {pos} {high} {neg} {low}"]
        low, high = at, at + 1
    return "\n".join(lines) + "\n"


class TestReaderLinearity:
    """The readers, verification included, on chains of 10^3 to 10^5 nodes:
    ``parse_nnf`` on emitted parity chains and ``parse_sdd`` on SDD chains."""

    @pytest.mark.parametrize("fmt", ["nnf", "sdd"])
    def test_reader_linearity(self, fmt):
        failures: list[str] = []
        sizes, times = [], []
        for target in (1_000, 10_000, 30_000, 100_000):
            if fmt == "nnf":
                text, parse = emit_nnf(parity_decision_dnnf(Universe(target // 8))), parse_nnf
            else:
                text, parse = _sdd_chain(target // 8), parse_sdd
            runs = []
            for _ in range(3 if target < 100_000 else 1):
                started = time.perf_counter()
                circuit = parse(text)
                runs.append(time.perf_counter() - started)
            check(failures, circuit.annotation == ("decision-dnnf" if fmt == "nnf" else "sdd"),
                  f"{circuit.annotation} at {len(circuit)} nodes")
            sizes.append(len(circuit))
            times.append(min(runs))
        r2 = _fit_r_squared(sizes, times)
        check(failures, r2 >= 0.98, f"linear fit R^2 = {r2:.4f} < 0.98")
        report("8", f"{fmt} reader linearity (R^2 {r2:.4f})", failures)


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


class TestCriterion9:
    def test_monotone_outputs(self):
        failures: list[str] = []
        u = Universe(6)
        rng = random.Random(20240802)
        for index in range(200):
            if index % 2 == 0:
                circuit = random_decision_dnnf(u, rng)
                quantify = ddnnf_forall
            else:
                circuit = random_sdd(u, rng)
                quantify = sdd_forall
            appearing = {code >> 1 for code in circuit.literal_codes()}
            lits = [
                u.literal_by_code(2 * v + rng.randrange(2)) for v in sorted(appearing)
            ]
            if not lits:
                continue
            out = quantify(circuit, lits)
            codes = out.literal_codes()
            check(
                failures,
                not any(code ^ 1 in codes for code in codes),
                f"complementary pair survived in circuit {index}",
            )
        report("9", "monotone outputs after one-literal-per-variable", failures)

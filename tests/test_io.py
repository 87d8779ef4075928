"""Parsers and serializers: error positions, header validation, annotation
inference and round trips."""

import random

import pytest

from qlit.core import Annotation, Universe, truth_table
from qlit.errors import ParseError
from qlit.generators import random_decision_dnnf, random_formula, random_sdd
from qlit import oracle
from qlit.io import (
    emit_classifier_bundle,
    emit_dimacs,
    emit_nnf,
    emit_sdd,
    parse_classifier_bundle,
    parse_dimacs,
    parse_formula,
    parse_nnf,
    parse_sdd,
)

from conftest import ADMISSION_BUNDLE, LOAN_BUNDLE, LOAN_DECISION_NNF


class TestDimacs:
    def test_loan_cnf_with_named_variables(self):
        text = (
            "c var 1 d\nc var 2 g\nc var 3 h\nc var 4 i\n"
            "p cnf 4 3\n3 4 0\n-1 2 0\n-1 4 0\n"
        )
        cnf = parse_dimacs(text)
        assert [v.name for v in cnf.universe] == ["d", "g", "h", "i"]
        want = parse_formula("(h | i) & (~d | g) & (~d | i)", cnf.universe)
        assert oracle.equivalent(cnf.to_formula(), want)

    def test_empty_clause_list_is_true(self):
        cnf = parse_dimacs("p cnf 1 0\n")
        assert cnf.is_true() and len(cnf.universe) == 1

    def test_tautological_clause_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2.*tautological"):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dimacs("p dnf 2 1\n1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2 clauses"):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_round_trip(self):
        u = Universe(5)
        rng = random.Random(3)
        from qlit.generators import random_cnf

        for _ in range(50):
            cnf = random_cnf(u, rng)
            again = parse_dimacs(emit_dimacs(cnf), u)
            assert again == cnf


class TestNnf:
    def test_loan_circuit_annotation_and_models(self):
        u = Universe(["d", "g", "h", "i"])
        circuit = parse_nnf(LOAN_DECISION_NNF, u)
        assert circuit.annotation == Annotation.DECISION_DNNF
        want = parse_formula("(h | i) & (~d | g) & (~d | i)", u)
        assert oracle.equivalent(circuit, want)

    def test_single_literal_circuit(self):
        circuit = parse_nnf("nnf 1 0 1\nL 1\n")
        assert len(circuit) == 1
        assert oracle.equivalent(circuit, circuit.universe.lit("x1"))

    def test_forward_reference_rejected(self):
        with pytest.raises(ParseError, match="reference"):
            parse_nnf("nnf 2 2 1\nA 2 1 0\nL 1\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError, match="mismatch"):
            parse_nnf("nnf 2 1 1\nL 1\nA 2 0\n")

    def test_header_counts_validated(self):
        with pytest.raises(ParseError, match="declares 3 nodes"):
            parse_nnf("nnf 3 0 1\nL 1\n")
        with pytest.raises(ParseError, match="declares 4 edges"):
            parse_nnf("nnf 3 4 2\nL 1\nL 2\nA 2 0 1\n")

    def test_round_trip_is_identity_on_emitted(self):
        u = Universe(5)
        rng = random.Random(5)
        for _ in range(50):
            circuit = random_decision_dnnf(u, rng)
            text = emit_nnf(circuit)
            again = parse_nnf(text, u)
            assert emit_nnf(again) == text
            assert again.annotation == Annotation.DECISION_DNNF
            assert oracle.equivalent(again, circuit.to_formula())

    def test_plain_nnf_annotation_when_sharing_variables(self):
        u = Universe(["x", "y"])
        # (x & y) | (x & ~y) is a decision on y but declares no decision var,
        # so the strongest inferred annotation is DNNF; sharing x across an
        # and makes even that fail here: (x & y) | x shares x in the or only
        circuit = parse_nnf("nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nL -2\nO 0 2 2 0\n", u)
        assert circuit.annotation in (Annotation.NNF, Annotation.DNNF)


class TestSdd:
    def test_constant_node(self):
        circuit = parse_sdd("T 0\n", Universe(["x"]))
        assert oracle.valid(circuit)

    def test_malformed_element_count(self):
        with pytest.raises(ParseError, match="fields disagree"):
            parse_sdd("L 1 1\nD 2 2 1 1\n")

    def test_undefined_reference(self):
        with pytest.raises(ParseError, match="undefined node"):
            parse_sdd("L 1 1\nD 2 1 1 9\n")

    def test_round_trip_preserves_models(self):
        u = Universe(5)
        rng = random.Random(7)
        for _ in range(40):
            circuit = random_sdd(u, rng)
            text = emit_sdd(circuit)
            again = parse_sdd(text, u)
            assert oracle.equivalent(again, circuit.to_formula())
            assert emit_sdd(again) == text


class TestFormula:
    def test_precedence(self):
        u = Universe(["x", "y", "z"])
        f = parse_formula("~x & y | z => x <=> y", u)
        # reads as ((((~x & y) | z) => x) <=> y)
        want = (((~u.lit("x") & u.lit("y")) | u.lit("z")).implies(u.lit("x"))).iff(
            u.lit("y")
        )
        assert f is want

    def test_right_associative_arrows(self):
        u = Universe(["x", "y", "z"])
        assert parse_formula("x => y => z", u) is u.lit("x").implies(
            u.lit("y").implies(u.lit("z"))
        )

    def test_constants(self):
        u = Universe(["x"])
        assert parse_formula("true", u) is u.true
        assert parse_formula("false | x", u) is (u.false | u.lit("x"))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError, match="line 1, column 9"):
            parse_formula("x & y & ", Universe(["x", "y"]))
        with pytest.raises(ParseError, match="line 2, column 5"):
            parse_formula("x &\n  y )", Universe(["x", "y"]))

    def test_unknown_identifier_with_declared_universe(self):
        with pytest.raises(ParseError, match="unknown identifier 'q'"):
            parse_formula("x & q", Universe(["x"]))

    def test_universe_inferred_sorted(self):
        f = parse_formula("b | a")
        assert [v.name for v in f.universe] == ["a", "b"]

    def test_print_parse_round_trip(self):
        u = Universe(4)
        rng = random.Random(11)
        for _ in range(100):
            f = random_formula(u, rng)
            again = parse_formula(str(f), u)
            assert oracle.equivalent(f, again)


class TestBundle:
    def test_loan_bundle(self):
        bundle = parse_classifier_bundle(LOAN_BUNDLE)
        assert [v.name for v in bundle.universe] == ["d", "g", "h", "i"]
        assert bundle.negative is not None
        assert bundle.protected == ()

    def test_admission_protected_set(self):
        bundle = parse_classifier_bundle(ADMISSION_BUNDLE)
        assert bundle.protected == ("r",)

    def test_missing_delta_section(self):
        with pytest.raises(ParseError, match="no 'section delta'"):
            parse_classifier_bundle("var 1 x\n")

    def test_non_contiguous_indexes(self):
        with pytest.raises(ParseError, match="contiguous"):
            parse_classifier_bundle("var 1 x\nvar 3 y\nsection delta\np cnf 2 0\n")

    def test_error_line_numbers_offset_into_sections(self):
        text = "var 1 x\nsection delta\np cnf 1 1\n1 -1 0\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_classifier_bundle(text)

    def test_round_trip(self):
        bundle = parse_classifier_bundle(ADMISSION_BUNDLE)
        text = emit_classifier_bundle(bundle)
        again = parse_classifier_bundle(text)
        assert emit_classifier_bundle(again) == text
        assert again.positive == parse_dimacs(
            emit_dimacs(bundle.positive), again.universe
        )


def _sdd_chain_text(levels: int) -> str:
    """A right-linear SDD: level ``v`` is ``(x_v & a) | (~x_v & b)`` with
    ``a`` and ``b`` the two levels below it."""
    lines = ["T 0", "F 1"]
    below = (0, 1)
    for var in range(levels, 0, -1):
        pos, neg, node = len(lines), len(lines) + 1, len(lines) + 2
        lines += [f"L {pos} {var}", f"L {neg} {-var}"]
        lines.append(f"D {node} 2 {pos} {below[0]} {neg} {below[1]}")
        below = (node, below[0])
    return "\n".join(lines) + "\n"


class TestDeepSdd:
    def test_round_trip_of_a_2000_level_chain(self):
        u = Universe(2000)
        circuit = parse_sdd(_sdd_chain_text(2000), u)
        text = emit_sdd(circuit)
        again = parse_sdd(text, u)
        assert emit_sdd(again) == text
        rng = random.Random(3)
        masks = [rng.getrandbits(64) for _ in range(2000)]
        full = (1 << 64) - 1
        assert truth_table(again, masks, full) == truth_table(circuit, masks, full)

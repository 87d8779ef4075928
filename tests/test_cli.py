"""Command-line behaviour: spec'd invocations, exit codes, determinism, JSON
schema and the repl."""

import json

import pytest

from qlit import cli
from qlit.cli import main

from conftest import ADMISSION_BUNDLE, LOAN_BUNDLE, LOAN_DECISION_NNF, unit_clause_bundle

LOAN_CNF = (
    "c var 1 d\nc var 2 g\nc var 3 h\nc var 4 i\n"
    "p cnf 4 3\n3 4 0\n-1 2 0\n-1 4 0\n"
)


@pytest.fixture()
def loan_cnf_file(tmp_path):
    path = tmp_path / "loan.cnf"
    path.write_text(LOAN_CNF)
    return str(path)


@pytest.fixture()
def admission_file(tmp_path):
    path = tmp_path / "admission.bundle"
    path.write_text(ADMISSION_BUNDLE)
    return str(path)


@pytest.fixture()
def loan_bundle_file(tmp_path):
    path = tmp_path / "loan.bundle"
    path.write_text(LOAN_BUNDLE)
    return str(path)


@pytest.fixture()
def loan_nnf_file(tmp_path):
    path = tmp_path / "loan.nnf"
    path.write_text(LOAN_DECISION_NNF)
    return str(path)


class TestQuantify:
    def test_forall_features_on_cnf(self, capsys, loan_cnf_file):
        assert main(["quantify", "--op", "forall", "--items", "D,H", "--in", loan_cnf_file]) == 0
        assert capsys.readouterr().out == "g & i\n"

    def test_auto_and_formula_routes_agree(self, capsys, tmp_path, loan_cnf_file):
        formula_file = tmp_path / "loan.txt"
        formula_file.write_text("(h | i) & (~d | g) & (~d | i)\n")
        assert main(["quantify", "--op", "forall", "--items", "D,H", "--in", loan_cnf_file]) == 0
        fast = capsys.readouterr().out
        assert (
            main(
                [
                    "quantify",
                    "--op",
                    "forall",
                    "--items",
                    "D,H",
                    "--in",
                    str(formula_file),
                    "--repr",
                    "formula",
                ]
            )
            == 0
        )
        slow = capsys.readouterr().out
        from qlit.core import Universe
        from qlit.io import parse_formula
        from qlit import oracle

        u = Universe(["d", "g", "h", "i"])
        assert oracle.equivalent(parse_formula(fast, u), parse_formula(slow, u))

    def test_exists_literal_on_circuit(self, capsys, loan_nnf_file, tmp_path):
        out_file = tmp_path / "out.nnf"
        code = main(
            [
                "quantify",
                "--op",
                "exists",
                "--items",
                "d",
                "--in",
                loan_nnf_file,
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("nnf ")
        from qlit.core import Universe
        from qlit.io import parse_formula, parse_nnf
        from qlit import oracle

        u = Universe(["d", "g", "h", "i"])
        circuit = parse_nnf(text, u)
        want = parse_formula("(~d & (h | i)) | (i & g)", u)
        assert oracle.equivalent(circuit, want)

    def test_deterministic_output(self, capsys, loan_cnf_file):
        runs = []
        for _ in range(2):
            main(["quantify", "--op", "forall", "--items", "~d,~h", "--in", loan_cnf_file])
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

    def test_json_schema(self, capsys, loan_cnf_file):
        main(["quantify", "--op", "forall", "--items", "D,H", "--in", loan_cnf_file, "--json"])
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {"kind", "result", "items"}
        assert record["kind"] == "quantify"
        assert record["result"] == "g & i"

    @pytest.mark.parametrize("op", ["forall", "exists"])
    @pytest.mark.parametrize("items", ["d", "~d,h", "D,H", "G"])
    def test_every_corpus_input_agrees_with_formula_route(
        self, capsys, tmp_path, op, items, loan_cnf_file, loan_nnf_file
    ):
        formula_file = tmp_path / "loan.txt"
        formula_file.write_text("(h | i) & (~d | g) & (~d | i)\n")
        sdd_file = tmp_path / "loan.sdd"
        # loan classifier as a partition circuit: decide d, then g/h/i blocks
        sdd_file.write_text(
            "c var 1 d\nc var 2 g\nc var 3 h\nc var 4 i\n"
            "L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nL 5 3\nL 6 -3\nL 7 4\nL 8 -4\n"
            "F 9\nT 10\n"
            "D 11 2 7 10 8 9\n"  # i
            "D 12 2 5 10 6 11\n"  # h | i
            "D 13 2 3 11 4 9\n"  # g & i
            "D 14 2 1 13 2 12\n"  # (d & g & i) | (~d & (h | i))
        )
        from qlit.core import Universe
        from qlit.io import parse_formula
        from qlit import oracle

        u = Universe(["d", "g", "h", "i"])
        results = []
        for path, repr_ in (
            (loan_cnf_file, "auto"),
            (loan_nnf_file, "auto"),
            (str(sdd_file), "auto"),
            (str(formula_file), "formula"),
        ):
            assert main(["quantify", "--op", op, "--items", items, "--in", path, "--repr", repr_]) == 0
            out = capsys.readouterr().out
            if out.startswith("nnf "):
                from qlit.io import parse_nnf

                results.append(parse_nnf(out, u).to_formula())
            else:
                results.append(parse_formula(out, u))
        for other in results[1:]:
            assert oracle.equivalent(results[0], other)


def _quantify_out(capsys, *argv) -> str:
    assert main(["quantify", *argv]) == 0
    return capsys.readouterr().out


class TestQuantifyRoutes:
    """Every representation reaches a routine, checked against the formula
    route or against the oracle's own conditioning."""

    @pytest.mark.parametrize("op", ["forall", "exists"])
    def test_dnf_with_long_terms(self, capsys, tmp_path, op):
        from qlit.core import Universe
        from qlit.io import parse_formula
        from qlit import oracle

        path = tmp_path / "f.txt"
        path.write_text("a & b & c | ~a & d | b & ~c & d | ~b & c\n")
        u = Universe(["a", "b", "c", "d"])
        args = ["--op", op, "--items", "a,~c", "--in", str(path)]
        as_dnf = _quantify_out(capsys, *args, "--repr", "dnf")
        as_formula = _quantify_out(capsys, *args, "--repr", "formula")
        assert oracle.equivalent(parse_formula(as_dnf, u), parse_formula(as_formula, u))

    def test_dnf_constants_read_back(self, capsys, tmp_path):
        from qlit.core import Universe
        from qlit.tractable import Dnf

        path, out = tmp_path / "e.txt", tmp_path / "o.txt"
        path.write_text("a | b\n")
        args = ["--in", str(path), "--repr", "dnf", "--out", str(out)]
        assert _quantify_out(capsys, "--op", "exists", "--items", "a", *args) == "true\n"
        assert out.read_text() == "true\n"
        u = Universe(["a"])
        with_empty_term = str(Dnf(u, [u.term(), u.term("a")]))
        for text, printed in [
            ("true", "true"),
            ("false", "false"),
            (with_empty_term, "true | a"),
            ("a & false | true & a", "a"),  # false drops a term, true adds nothing
            ("a & ~a | b", "b"),  # so does a complementary pair
            ("a & ~a", "false"),
        ]:
            path.write_text(text + "\n")
            assert _quantify_out(capsys, "--op", "forall", "--items", ",", *args) == printed + "\n"

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("a & b |\nc & (d => a)\n", 2, 1),
            ("x => z | ~w & (u => v)\n", 1, 10),  # the operands ~x, z, ~w & ...
            ("x => (y =>\n (z | (~w & (u <=> v))))\n", 2, 7),
            ("a | (b |\n  (~~c)) | d\n", 2, 3),
            ("(a & b) => c\n", 1, 1),
            ("a | b <=> c\n", 1, 1),
            ("x | ((a | b) => c)\n", 1, 5),  # the ~(a | b) starts at the bracket
        ],
    )
    def test_dnf_fault_names_the_operand_that_is_not_a_term(
        self, capsys, tmp_path, text, line, column
    ):
        path = tmp_path / "f.txt"
        path.write_text(text)
        args = ["--op", "forall", "--items", "a", "--in", str(path), "--repr", "dnf"]
        assert main(["quantify", *args]) == 2
        assert capsys.readouterr().err == (
            f"error: line {line}, column {column}: input is not a disjunction of terms\n"
        )

    @pytest.mark.parametrize(
        "text, annotation",
        [
            # (x1 | x2) & x1: the and-node's children share x1
            ("nnf 4 4 2\nL 1\nL 2\nO 0 2 0 1\nA 2 2 0\n", "nnf"),
            # (x1 | x2) & x3, decomposable but without decision nodes
            ("nnf 5 4 3\nL 1\nL 2\nO 0 2 0 1\nL 3\nA 2 2 3\n", "dnnf"),
        ],
    )
    @pytest.mark.parametrize("op", ["forall", "exists"])
    def test_plain_nnf_and_dnnf_take_the_definitional_route(
        self, capsys, tmp_path, text, annotation, op
    ):
        from qlit.io import parse_formula, parse_nnf
        from qlit.quantify import quantify_set
        from qlit import oracle

        circuit = parse_nnf(text)
        assert circuit.annotation == annotation
        path = tmp_path / "c.nnf"
        path.write_text(text)
        out = _quantify_out(capsys, "--op", op, "--items", "~x1,X2", "--in", str(path))
        want = quantify_set(circuit.to_formula(), op, ["~x1", "X2"])
        assert oracle.equivalent(parse_formula(out, circuit.universe), want)

    def test_forall_on_600_disjuncts(self, capsys, tmp_path):
        import random

        from qlit.core import Universe
        from qlit.io import parse_formula
        from qlit import oracle

        rng = random.Random(9)
        names = [f"v{i}" for i in range(1, 17)]
        terms = []
        for _ in range(600):
            chosen = rng.sample(names, 3)
            terms.append(" & ".join(n if rng.random() < 0.5 else "~" + n for n in chosen))
        path = tmp_path / "long.txt"
        path.write_text(" | ".join(terms) + "\n")
        out = _quantify_out(capsys, "--op", "forall", "--items", "v3", "--in", str(path))
        u = Universe(sorted(names))
        v3 = u.literal("v3")
        mask = oracle.models_mask(parse_formula(path.read_text(), u))
        want = (oracle.models_mask(u.lit(v3)) | oracle._condition_mask(u, mask, ~v3)) & (
            oracle._condition_mask(u, mask, v3)
        )
        assert oracle.models_mask(parse_formula(out, u)) == want


class TestSingleEmit:
    def test_one_emit_for_stdout_and_out_file(self, tmp_path, capsys, monkeypatch, loan_nnf_file):
        from qlit.io import emit_nnf, parse_nnf
        from qlit.tractable import ddnnf_forall

        calls = []

        def counted(circuit):
            calls.append(circuit)
            return emit_nnf(circuit)

        monkeypatch.setattr(cli, "emit_nnf", counted)
        out = tmp_path / "out.nnf"
        argv = ["quantify", "--op", "forall", "--items", "d", "--in", loan_nnf_file]
        assert main(argv + ["--out", str(out)]) == 0
        assert len(calls) == 1
        circuit = parse_nnf(LOAN_DECISION_NNF)
        want = emit_nnf(ddnnf_forall(circuit, [circuit.universe.pos("d")]))
        assert out.read_text() == want
        assert capsys.readouterr().out == want


class TestBrules:
    def test_counts_and_transition(self, capsys, tmp_path):
        path = tmp_path / "eq.txt"
        path.write_text("(x => y) & (y => x)\n")
        assert main(["brules", "--in", str(path), "--report-transition", "x"]) == 0
        out = capsys.readouterr().out
        assert "rules: 4, boundary models: 2, transition on x: pass" in out
        assert "x -> y [kept]" in out
        assert "~x -> ~y [deleted]" in out

    def test_plain_listing(self, capsys, loan_cnf_file):
        assert main(["brules", "--in", loan_cnf_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("rules: 12, boundary models: 7")


# ``qlit brules`` output, recorded byte for byte: rules and worlds are made
# from masks on each read, and must keep their canonical order
FOUR_VARIABLE_FORMULA = "(a & b) | (~c & d) | (a & ~d)\n"
BRULES_OUTPUT = {
    ("loan", ()): (
        "rules: 12, boundary models: 7\n"
        "~d ~g ~h -> i\n"
        "~d ~g ~i -> h\n"
        "~d g ~h -> i\n"
        "~d g ~i -> h\n"
        "d g ~h -> i\n"
        "d g h -> i\n"
        "d ~h i -> g\n"
        "d h i -> g\n"
        "~g ~h i -> ~d\n"
        "~g h ~i -> ~d\n"
        "~g h i -> ~d\n"
        "g h ~i -> ~d\n"
        "~d ~g h ~i\n"
        "~d g h ~i\n"
        "~d ~g ~h i\n"
        "~d g ~h i\n"
        "d g ~h i\n"
        "~d ~g h i\n"
        "d g h i\n"
    ),
    ("loan", ("--json",)): (
        '{"items": ["~d ~g ~h -> i", "~d ~g ~i -> h", "~d g ~h -> i", "~d g ~i -> h", "d g ~h -> i", "d g h -> i", "d ~h i -> g", "d h i -> g", "~g ~h i -> ~d", "~g h ~i -> ~d", "~g h i -> ~d", "g h ~i -> ~d", "~d ~g h ~i", "~d g h ~i", "~d ~g ~h i", "~d g ~h i", "d g ~h i", "~d ~g h i", "d g h i"], "kind": "brules", "result": "rules: 12, boundary models: 7"}\n'
    ),
    ("loan", ("--report-transition", "d")): (
        "rules: 12, boundary models: 7, transition on d: pass\n"
        "~d g ~h -> i [kept]\n"
        "d g ~h -> i [kept]\n"
        "d g h -> i [kept]\n"
        "d ~h i -> g [kept]\n"
        "d h i -> g [kept]\n"
        "~d ~g ~h -> i [deleted]\n"
        "~d ~g ~i -> h [deleted]\n"
        "~d g ~i -> h [deleted]\n"
        "~g ~h i -> ~d [deleted]\n"
        "~g h ~i -> ~d [deleted]\n"
        "~g h i -> ~d [deleted]\n"
        "g h ~i -> ~d [deleted]\n"
        "~d g h -> i [introduced]\n"
        "~d ~h i -> g [introduced]\n"
        "~d h i -> g [introduced]\n"
    ),
    ("loan", ("--report-transition", "d", "--json")): (
        '{"items": ["~d g ~h -> i [kept]", "d g ~h -> i [kept]", "d g h -> i [kept]", "d ~h i -> g [kept]", "d h i -> g [kept]", "~d ~g ~h -> i [deleted]", "~d ~g ~i -> h [deleted]", "~d g ~i -> h [deleted]", "~g ~h i -> ~d [deleted]", "~g h ~i -> ~d [deleted]", "~g h i -> ~d [deleted]", "g h ~i -> ~d [deleted]", "~d g h -> i [introduced]", "~d ~h i -> g [introduced]", "~d h i -> g [introduced]"], "kind": "brules", "result": "rules: 12, boundary models: 7, transition on d: pass"}\n'
    ),
    ("four", ()): (
        "rules: 12, boundary models: 8\n"
        "~a ~b ~c -> d\n"
        "~a ~b d -> ~c\n"
        "~a b ~c -> d\n"
        "~a b d -> ~c\n"
        "a ~b c -> ~d\n"
        "a ~b d -> ~c\n"
        "a c d -> b\n"
        "~b ~c ~d -> a\n"
        "~b c ~d -> a\n"
        "b ~c ~d -> a\n"
        "b c ~d -> a\n"
        "b c d -> a\n"
        "a ~b ~c ~d\n"
        "a b ~c ~d\n"
        "a ~b c ~d\n"
        "a b c ~d\n"
        "~a ~b ~c d\n"
        "a ~b ~c d\n"
        "~a b ~c d\n"
        "a b c d\n"
    ),
    ("four", ("--json",)): (
        '{"items": ["~a ~b ~c -> d", "~a ~b d -> ~c", "~a b ~c -> d", "~a b d -> ~c", "a ~b c -> ~d", "a ~b d -> ~c", "a c d -> b", "~b ~c ~d -> a", "~b c ~d -> a", "b ~c ~d -> a", "b c ~d -> a", "b c d -> a", "a ~b ~c ~d", "a b ~c ~d", "a ~b c ~d", "a b c ~d", "~a ~b ~c d", "a ~b ~c d", "~a b ~c d", "a b c d"], "kind": "brules", "result": "rules: 12, boundary models: 8"}\n'
    ),
    ("four", ("--report-transition", "~a")): (
        "rules: 12, boundary models: 8, transition on ~a: pass\n"
        "~a ~b ~c -> d [kept]\n"
        "~a ~b d -> ~c [kept]\n"
        "~a b ~c -> d [kept]\n"
        "~a b d -> ~c [kept]\n"
        "a ~b d -> ~c [kept]\n"
        "a ~b c -> ~d [deleted]\n"
        "a c d -> b [deleted]\n"
        "~b ~c ~d -> a [deleted]\n"
        "~b c ~d -> a [deleted]\n"
        "b ~c ~d -> a [deleted]\n"
        "b c ~d -> a [deleted]\n"
        "b c d -> a [deleted]\n"
        "a ~b ~c -> d [introduced]\n"
        "a b ~c -> d [introduced]\n"
        "a b d -> ~c [introduced]\n"
    ),
    ("four", ("--report-transition", "~a", "--json")): (
        '{"items": ["~a ~b ~c -> d [kept]", "~a ~b d -> ~c [kept]", "~a b ~c -> d [kept]", "~a b d -> ~c [kept]", "a ~b d -> ~c [kept]", "a ~b c -> ~d [deleted]", "a c d -> b [deleted]", "~b ~c ~d -> a [deleted]", "~b c ~d -> a [deleted]", "b ~c ~d -> a [deleted]", "b c ~d -> a [deleted]", "b c d -> a [deleted]", "a ~b ~c -> d [introduced]", "a b ~c -> d [introduced]", "a b d -> ~c [introduced]"], "kind": "brules", "result": "rules: 12, boundary models: 8, transition on ~a: pass"}\n'
    ),
}


class TestBrulesOutput:
    @pytest.mark.parametrize("name, args", list(BRULES_OUTPUT))
    def test_output_is_unchanged(self, capsys, tmp_path, name, args):
        path = tmp_path / ("loan.cnf" if name == "loan" else "four.txt")
        path.write_text(LOAN_CNF if name == "loan" else FOUR_VARIABLE_FORMULA)
        assert main(["brules", "--in", str(path), *args]) == 0
        assert capsys.readouterr().out == BRULES_OUTPUT[name, args]


class TestClassifierCommands:
    def test_reasons_for_not_rich_applicant(self, capsys, admission_file):
        code = main(
            ["reasons", "--classifier", admission_file, "--term", "e,f,g,w,~r"]
        )
        assert code == 0
        assert capsys.readouterr().out == "positive\ne,f,g\ne,f,w\n"

    def test_decide_undefined_is_a_refusal(self, capsys, loan_bundle_file):
        code = main(["decide", "--classifier", loan_bundle_file, "--term", "d,~h"])
        assert code == 1
        assert capsys.readouterr().out == "undefined\n"

    def test_decide_positive(self, capsys, loan_bundle_file):
        assert main(["decide", "--classifier", loan_bundle_file, "--term", "g,i"]) == 0
        assert capsys.readouterr().out == "positive\n"

    def test_bias_instance(self, capsys, admission_file):
        code = main(
            ["bias", "--classifier", admission_file, "--term", "e,~f,g,r,w"]
        )
        assert code == 0
        assert capsys.readouterr().out == "biased\n"

    def test_bias_formulas_without_term(self, capsys, admission_file):
        assert main(["bias", "--classifier", admission_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("positive: ") and "negative: " in out

    def test_protected_override(self, capsys, loan_bundle_file):
        code = main(
            [
                "bias",
                "--classifier",
                loan_bundle_file,
                "--term",
                "~d,~g,h,i",
                "--protected",
                "d",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "biased\n"

    def test_relevance(self, capsys, loan_bundle_file):
        assert main(["relevance", "--classifier", loan_bundle_file, "--term", "~d,h,i"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "positive"
        assert "i: i [feature-irrelevant]" in out

    def test_reasons_on_undecided_population_refused(self, capsys, loan_bundle_file):
        code = main(["reasons", "--classifier", loan_bundle_file, "--term", "d,~h"])
        assert code == 1

    def test_a_reason_longer_than_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "units.bundle"
        path.write_text(unit_clause_bundle(1200))
        term = ",".join(f"v{i}" for i in range(1, 1201))
        assert main(["reasons", "--classifier", str(path), "--term", term]) == 0
        assert capsys.readouterr().out == f"positive\n{term}\n"


class TestSniffing:
    @pytest.mark.parametrize("comment", ["c\tnote", "cnote", "c", "c note"])
    def test_dimacs_and_nnf_after_any_comment_line(self, capsys, tmp_path, comment):
        for name, text in (("loan.cnf", LOAN_CNF), ("loan.nnf", LOAN_DECISION_NNF)):
            plain, commented = tmp_path / name, tmp_path / ("commented-" + name)
            plain.write_text(text)
            commented.write_text(f"{comment}\n{text}")
            assert cli._sniff(commented.read_text()) == cli._sniff(text) != "formula"
            argv = ["quantify", "--op", "forall", "--items", "d"]
            assert main([*argv, "--in", str(commented)]) == 0
            got = capsys.readouterr().out
            assert main([*argv, "--in", str(plain)]) == 0
            assert got == capsys.readouterr().out

    def test_a_formula_on_a_c_line_is_still_a_formula(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("c & d\n")
        assert cli._sniff(path.read_text()) == "formula"
        assert main(["quantify", "--op", "exists", "--items", "c", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "d\n"

    def test_a_formula_that_starts_with_a_header_word_is_a_formula(self, capsys, tmp_path):
        # the header is a whole first field: ``nnfa`` is a variable
        path = tmp_path / "f.txt"
        path.write_text("nnfa | b\n")
        assert cli._sniff(path.read_text()) == "formula"
        argv = ["quantify", "--op", "forall", "--items", "b", "--in", str(path)]
        assert main(argv) == 0
        got = capsys.readouterr().out
        assert main([*argv, "--repr", "formula"]) == 0
        assert got == capsys.readouterr().out


def _child_env() -> dict:
    """The environment of a child interpreter that imports this qlit."""
    import os

    import qlit

    src = os.path.dirname(os.path.dirname(qlit.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}


class TestImports:
    def test_cli_loads_only_what_quantify_needs(self, tmp_path):
        """Each ``qlit quantify`` route loads its own reader's module and no
        other: DIMACS neither ``circuits`` nor ``formulas``, circuits no
        ``formulas``, and none of them the oracle or the explanation layer."""
        import subprocess
        import sys

        inputs = {
            "in.cnf": "p cnf 2 2\n1 2 0\n-1 2 0\n",
            "in.nnf": "nnf 5 4 1\nL 1\nL -1\nA 0\nO 1 2 0 1\nA 2 3 2\n",
            "in.sdd": "L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nD 5 2 1 3 2 4\n",
            "in.txt": "x1 & ~x2\n",
        }
        base = ["qlit", "qlit.cli", "qlit.core", "qlit.errors", "qlit.io", "qlit.quantify", "qlit.tractable"]
        extra = {"in.cnf": [], "in.nnf": ["qlit.circuits"], "in.sdd": ["qlit.circuits"], "in.txt": ["qlit.formulas"]}
        for name, text in inputs.items():
            path = tmp_path / name
            path.write_text(text)
            script = (
                "import sys\n"
                "from qlit.cli import main\n"
                f"code = main(['quantify', '--op', 'forall', '--items', 'x1', '--in', {str(path)!r}])\n"
                "print(code, sorted(m for m in sys.modules if m.startswith('qlit')))\n"
                "print([m for m in ('json', 'shlex', 'dataclasses', 'inspect') if m in sys.modules])\n"
            )
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=_child_env()
            ).stdout
            assert out.splitlines()[-2:] == [f"0 {sorted(base + extra[name])}", "[]"], name

    @pytest.mark.parametrize(
        "name, text",
        [
            ("tiny.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n"),
            ("tiny.nnf", "nnf 5 4 1\nL 1\nL -1\nA 0\nO 1 2 0 1\nA 2 3 2\n"),
            ("tiny.sdd", "L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nD 5 2 1 3 2 4\n"),
        ],
        ids=["dimacs", "nnf", "sdd"],
    )
    def test_a_quantify_run_loads_no_oracle(self, tmp_path, name, text):
        import os
        import subprocess
        import sys

        import qlit

        path = tmp_path / name
        path.write_text(text)
        src = os.path.dirname(os.path.dirname(qlit.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        script = (
            "import sys\n"
            "from qlit.cli import main\n"
            f"code = main(['quantify', '--op', 'forall', '--items', 'x1', '--in', {str(path)!r}])\n"
            "print(code, [m for m in ('qlit.oracle', 'dataclasses', 'inspect') if m in sys.modules])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.splitlines()[-1] == "0 []"

    def test_unknown_suite_keeps_the_argparse_refusal(self, capsys):
        from qlit import SUITE_NAMES
        from qlit.checks import _SUITES

        assert tuple(_SUITES) == SUITE_NAMES
        with pytest.raises(SystemExit) as stop:
            main(["check", "--property", "nosuch"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith(
            "qlit check: error: argument --property: invalid choice: 'nosuch' (choose from "
            "'duality', 'order', 'selection', 'syntax', 'sandwich', 'know', 'tractable', "
            "'appendixA', 'reasons', 'bias')\n"
        )


class TestCheck:
    def test_small_suite_passes(self, capsys):
        code = main(
            ["check", "--property", "duality", "--vars", "4", "--trials", "40", "--seed", "0"]
        )
        assert code == 0
        assert capsys.readouterr().out == "40/40 pass\n"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_fewer_than_one_variable_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as stop:
            main(["check", "--property", "duality", "--vars", value, "--trials", "1"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith(
            "qlit check: error: argument --vars: "
            f"expected an integer of at least 1, got '{value}'\n"
        )

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_fewer_than_one_trial_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as stop:
            main(["check", "--property", "duality", "--vars", "3", "--trials", value])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith(
            "qlit check: error: argument --trials: "
            f"expected an integer of at least 1, got '{value}'\n"
        )

    @pytest.mark.parametrize("option", ["--trials", "--vars"])
    @pytest.mark.parametrize("value", ["1_0", "\u0661", "1.0"])
    def test_integers_are_ascii_digits(self, capsys, option, value):
        argv = {"--trials": "2", "--vars": "2", option: value}
        with pytest.raises(SystemExit) as stop:
            main(["check", "--property", "duality", *(f for pair in argv.items() for f in pair)])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"qlit check: error: argument {option}: expected an integer of at least 1, got {value!r}\n"
        )

    def test_deterministic_for_fixed_seed(self, capsys):
        outs = []
        for _ in range(2):
            main(["check", "--property", "order", "--vars", "4", "--trials", "25", "--seed", "9"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == "25/25 pass\n"


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n1 -1 0\n")
        code = main(["quantify", "--op", "forall", "--items", "x1", "--in", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("dup.cnf", "c var 1 a\nc var 2 a\np cnf 2 1\n1 2 0\n"),
            ("dup.nnf", "c var 1 a\nc var 2 a\nnnf 3 2 2\nL 1\nL 2\nA 2 0 1\n"),
        ],
    )
    def test_duplicate_var_names_are_2(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code = main(["quantify", "--op", "forall", "--items", "x1", "--in", str(path)])
        assert code == 2
        assert capsys.readouterr().err == "error: line 2, column 1: duplicate variable name 'a'\n"

    def test_duplicate_bundle_var_names_are_2(self, tmp_path, capsys):
        path = tmp_path / "dup.bundle"
        path.write_text("var 1 a\nvar 2 a\nsection delta\np cnf 2 1\n1 2 0\n")
        code = main(["decide", "--classifier", str(path), "--term", "a"])
        assert code == 2
        assert capsys.readouterr().err == "error: line 2, column 1: duplicate variable name 'a'\n"

    def test_undeclared_protected_name_is_2_on_its_line(self, tmp_path, capsys):
        path = tmp_path / "stray.bundle"
        path.write_text("var 1 a\nprotected zz\nsection delta\np cnf 1 1\n1 0\n")
        code = main(["decide", "--classifier", str(path), "--term", "a"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 2, column 1: protected variable 'zz' is not declared\n"
        )

    def test_missing_file_is_2(self, capsys):
        code = main(["brules", "--in", "/nonexistent/file.cnf"])
        assert code == 2

    def test_capacity_refusal_is_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QLIT_ENUM_CAP", "2")
        path = tmp_path / "three.txt"
        path.write_text("x & y & z\n")
        code = main(["brules", "--in", str(path)])
        assert code == 1

    @pytest.mark.parametrize("text", ["abc", "-3"])
    def test_invalid_cap_is_1_with_one_line(self, tmp_path, capsys, monkeypatch, text):
        monkeypatch.setenv("QLIT_ENUM_CAP", text)
        path = tmp_path / "three.txt"
        path.write_text("x & y & z\n")
        assert main(["brules", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: QLIT_ENUM_CAP must be a non-negative integer, got {text!r}\n"
        )
        assert captured.out == ""

    def test_internal_error_is_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        def broken(args, session):
            raise RuntimeError("handler broke\nsecond line")

        monkeypatch.setattr(cli, "_cmd_brules", broken)
        path = tmp_path / "f.txt"
        path.write_text("x & y\n")
        assert main(["brules", "--in", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "qlit: internal error: RuntimeError: handler broke second line\n"
        assert captured.out == ""

    def test_repl_reports_internal_error_and_keeps_reading(self, tmp_path, capsys, monkeypatch):
        import io as stdlib_io

        def broken(args, session):
            raise RuntimeError("handler broke")

        monkeypatch.setattr(cli, "_cmd_brules", broken)
        path = tmp_path / "f.txt"
        path.write_text("x & y\n")
        script = f"brules --in {path}\nquantify --op forall --items x --in {path}\nquit\n"
        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(script))
        assert main(["repl"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "qlit: internal error: RuntimeError: handler broke\n"
        assert captured.out.splitlines()[-1] == "x & y"  # the next line still ran


class TestProcessEntry:
    """``python -m qlit.cli`` reads ``sys.argv`` and freezes the heap before
    the interpreter ends: its exit codes and output are those of ``main(argv)``
    in-process."""

    def _child(self, argv, tmp_path, env=None):
        import subprocess
        import sys

        return subprocess.run(
            [sys.executable, "-m", "qlit.cli", *argv], capture_output=True, text=True,
            env={**_child_env(), **(env or {})}, cwd=tmp_path,
        )

    def test_a_large_result_reaches_stdout_and_the_out_file(self, tmp_path, capsys):
        import random

        rng = random.Random(18)
        lines = ["p cnf 300 12000"]
        for _ in range(12000):
            chosen = rng.sample(range(1, 301), 3)
            lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in chosen) + " 0")
        path = tmp_path / "big.cnf"
        path.write_text("\n".join(lines) + "\n")
        argv = ["quantify", "--op", "forall", "--items", "x1,~x2,X3", "--in", str(path)]
        assert main(argv + ["--out", str(tmp_path / "in_process.cnf")]) == 0
        want = capsys.readouterr()
        child = self._child(argv + ["--out", str(tmp_path / "child.cnf")], tmp_path)
        assert child.returncode == 0
        assert (child.stdout, child.stderr) == (want.out, want.err)
        assert want.out.count(" & ") + 1 >= 10_000
        out = (tmp_path / "child.cnf").read_bytes()
        assert out == (tmp_path / "in_process.cnf").read_bytes()
        assert out.startswith(b"p cnf 300 ") and out.count(b"\n") > 10_000

    def test_exit_codes_and_messages(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "bad.cnf").write_text("p cnf 1 1\n1 -1 0\n")
        (tmp_path / "three.txt").write_text("x & y & z\n")
        cases = [
            (["quantify", "--op", "exists", "--items", "x", "--in", "three.txt"], {}, 0),
            (["brules", "--in", "three.txt"], {"QLIT_ENUM_CAP": "2"}, 1),
            (["quantify", "--op", "forall", "--items", "x1", "--in", "bad.cnf"], {}, 2),
            (["quantify", "--op", "forall", "--items", "x1", "--in", "missing.cnf"], {}, 2),
        ]
        monkeypatch.chdir(tmp_path)
        for argv, env, code in cases:
            with monkeypatch.context() as patch:
                for key, value in env.items():
                    patch.setenv(key, value)
                assert main(argv) == code
            want = capsys.readouterr()
            child = self._child(argv, tmp_path, env)
            assert (child.returncode, child.stdout, child.stderr) == (code, want.out, want.err), argv

    def test_only_the_process_entry_freezes_the_heap(self, tmp_path):
        import subprocess
        import sys

        (tmp_path / "in.cnf").write_text("p cnf 2 1\n1 2 0\n")
        argv = ["quantify", "--op", "forall", "--items", "~x1", "--in", "in.cnf"]
        script = (
            "import gc, sys\n"
            "from qlit.cli import main\n"
            f"code = main({argv!r})\n"
            "frozen = gc.get_freeze_count()\n"
            f"sys.argv = ['qlit', *{argv!r}]\n"
            "code += main()\n"
            "print(code, frozen, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), cwd=tmp_path
        )
        assert child.stdout == "x2\nx2\n"
        assert child.stderr == "0 0 True\n"

    def test_an_internal_error_is_3(self, tmp_path):
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from qlit import cli\n"
            "def broken(args, session):\n"
            "    raise RuntimeError('handler broke')\n"
            "cli._cmd_brules = broken\n"
            "sys.argv = ['qlit', 'brules', '--in', 'f.txt']\n"
            "sys.exit(cli.main())\n"
        )
        (tmp_path / "f.txt").write_text("x & y\n")
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), cwd=tmp_path
        )
        assert (child.returncode, child.stdout) == (3, "")
        assert child.stderr == "qlit: internal error: RuntimeError: handler broke\n"


class TestHeaderLimits:
    """A variable count past ``MAX_VARIABLES`` is refused on its line, and
    every other line is read before the universe is built."""

    @pytest.mark.parametrize(
        "name, text, error",
        [
            ("huge.cnf", "p cnf 999999999999999999992 1\n1 0\n",
             "line 1, column 1: 999999999999999999992 variables, more than the limit of 1000000"),
            ("two_million.cnf", "p cnf 2000000 1\nx 0\n",
             "line 1, column 1: 2000000 variables, more than the limit of 1000000"),
            ("huge.nnf", "nnf 3 2 99999999999999999999999\nL 1\nL -1\nO 1 2 0 1\n",
             "line 1, column 1: 99999999999999999999999 variables, more than the limit of 1000000"),
            ("huge.sdd", "L 1 1\nL 2 -99999999999999999999\nD 3 1 1 2\n",
             "line 2, column 1: 99999999999999999999 variables, more than the limit of 1000000"),
        ],
    )
    def test_a_count_past_the_limit_is_2_on_its_line(self, tmp_path, capsys, name, text, error):
        path = tmp_path / name
        path.write_text(text)
        assert main(["quantify", "--op", "forall", "--items", "x1", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "module, text, error",
        [
            ("io", "p cnf 1000000 1\nx 0\n", "line 2, column 1: expected an integer, got 'x'"),
            ("io", "p cnf 1000000 1\n1 -1 0\n", "line 2, column 1: tautological clause over variable 1"),
            ("io", "p cnf 1000000 2\n1 0\n", "line 2, column 1: header declares 2 clauses, found 1"),
            ("circuits", "nnf 1 0 1000000\nX 1\n", "line 2, column 1: unknown node kind 'X'"),
            ("circuits", "nnf 2 0 1000000\nL 1\n", "line 2, column 1: header declares 2 nodes, found 1"),
            ("circuits", "L 1 1000000\nL 1 1\n", "line 2, column 1: node id 1 defined twice"),
        ],
    )
    def test_a_later_line_error_builds_no_universe(self, tmp_path, capsys, monkeypatch, module, text, error):
        import importlib

        def refuse(*args):
            raise AssertionError("a universe was built")

        monkeypatch.setattr(importlib.import_module(f"qlit.{module}"), "Universe", refuse)
        path = tmp_path / "late"
        path.write_text(text)
        assert main(["quantify", "--op", "forall", "--items", "x1", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


class TestNonAscii:
    """A byte past ASCII is a parse error on its line (exit 2), not a crash."""

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"p cnf 2 1\n\xd9\xa1 -2 0\n", 2),
            (b"c var 1 caf\xc3\xa9\r\nc var 2 b\r\np cnf 2 1\r\n1 -2 0\r\n", 1),
            (b"c one\rc two\r\nx1 & \xff\n", 3),
        ],
    )
    def test_quantify_input_is_2_on_the_line(self, tmp_path, capsys, data, line):
        path = tmp_path / "in.cnf"
        path.write_bytes(data)
        assert main(["quantify", "--op", "forall", "--items", "x1", "--in", str(path)]) == 2
        byte = next(b for b in data if b > 0x7F)
        assert capsys.readouterr().err == f"error: line {line}, column 1: non-ASCII byte {byte:#x}\n"

    def test_classifier_bundle_is_2_on_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.bundle"
        path.write_bytes(b"var 1 a\nvar 2 \xc3\xa9\nsection delta\np cnf 2 1\n1 0\n")
        assert main(["decide", "--classifier", str(path), "--term", "a"]) == 2
        assert capsys.readouterr().err == "error: line 2, column 1: non-ASCII byte 0xc3\n"

    def test_repl_load_reports_it_and_keeps_reading(self, tmp_path, capsys, monkeypatch):
        import io as stdlib_io

        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"p cnf 1 1\n1 0\nc \xe2\x80\x94\n")
        bundle = tmp_path / "bad.bundle"
        bundle.write_bytes(b"\xefvar 1 a\n")
        script = f"load {bad}\nload classifier {bundle}\nquit\n"
        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(script))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == [
            "error: line 3, column 1: non-ASCII byte 0xe2",
            "error: line 1, column 1: non-ASCII byte 0xef",
        ]


class TestIntegerFields:
    """An integer field is an optional sign and ASCII digits, as ``+2`` and
    ``01`` are; ``int`` alone would also read ``1_0`` as 10."""

    @pytest.mark.parametrize(
        "name, text, argv, error",
        [
            ("clause.cnf", "p cnf 10 1\n1_0 -2 0\n", [], "line 2, column 1: expected an integer, got '1_0'"),
            ("header.cnf", "p cnf 1_0 1\n1 -2 0\n", [], "line 1, column 1: non-numeric header counts"),
            ("literal.sdd", "L 1 1\nL 2 1_0\n", ["--repr", "sdd"], "line 2, column 1: non-numeric fields"),
            ("sniffed.sdd", "L 1 1\nL 2 1_0\n", [], "line 2, column 1: non-numeric fields"),
            ("child.nnf", "nnf 3 2 2\nL 1\nL -2\nA 2 0 1_0\n", [], "line 4, column 1: non-numeric node fields"),
            ("header.nnf", "nnf 1 0 1_0\nL 1\n", [], "line 1, column 1: non-numeric header counts"),
        ],
    )
    def test_underscored_integers_are_2_on_their_line(self, tmp_path, capsys, name, text, argv, error):
        path = tmp_path / name
        path.write_text(text)
        code = main(["quantify", "--op", "forall", "--items", "x1", "--in", str(path), *argv])
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "text, error",
        [
            ("var 1_0 a\nsection delta\np cnf 1 1\n1 0\n", "line 1, column 1: non-numeric variable index"),
            ("var 1 a\nsection delta\np cnf 1 1\n+1_0 0\n", "line 4, column 1: expected an integer, got '+1_0'"),
        ],
    )
    def test_underscored_integers_in_bundles_are_2_on_their_line(self, tmp_path, capsys, text, error):
        path = tmp_path / "bad.bundle"
        path.write_text(text)
        code = main(["decide", "--classifier", str(path), "--term", "a"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_signed_and_zero_padded_integers_still_read(self, tmp_path, capsys):
        path = tmp_path / "spelled.cnf"
        path.write_text("p cnf 02 +2\n+1 -02 0\n002 0\n")
        assert main(["quantify", "--op", "forall", "--items", "~x1", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "~x2 & x2\n"

    def test_sniffing_reads_only_such_integers(self):
        assert cli._sniff("L 1 -1\n") == "sdd"
        assert cli._sniff("L 1 +01\n") == "sdd"
        assert cli._sniff("L 1 1_0\n") == "formula"
        assert cli._sniff("L 1 \u0661\n") == "formula"


class TestRepl:
    def test_session_flow(self, capsys, monkeypatch, admission_file):
        import io as stdlib_io

        script = (
            f"load classifier {admission_file}\n"
            'reasons --term "e,f,g,w,~r"\n'
            "badcommand --x\n"
            "quit\n"
        )
        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(script))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "loaded Classifier(5 features" in out
        assert "e,f,g" in out and "e,f,w" in out

    def test_loaded_formula_reused(self, capsys, monkeypatch, tmp_path):
        import io as stdlib_io

        path = tmp_path / "eq.txt"
        path.write_text("(x => y) & (y => x)\n")
        script = f"load formula {path}\nquantify --op forall --items x\nquit\n"
        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(script))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert any("(x | ~y) & y" in line for line in out)

    def test_load_kinds_are_the_repr_choices(self, capsys, monkeypatch, loan_nnf_file):
        # the kinds of --repr, plus nnf for ddnnf
        import io as stdlib_io

        script = f"load ddnnf {loan_nnf_file}\nload nnf {loan_nnf_file}\nload tree {loan_nnf_file}\nquit\n"
        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(script))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("loaded ") for line in out) == 2
        assert "error: usage: load [classifier|cnf|dnf|ddnnf|sdd|formula|nnf] FILE" in out

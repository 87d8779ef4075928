"""Command-line behaviour: spec'd invocations, exit codes, determinism, JSON
schema and the repl."""

import json

import pytest

from qlit import cli
from qlit.cli import main

from conftest import ADMISSION_BUNDLE, LOAN_BUNDLE, LOAN_DECISION_NNF

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


class TestImports:
    def test_cli_loads_only_what_quantify_needs(self):
        import os
        import subprocess
        import sys

        import qlit

        src = os.path.dirname(os.path.dirname(qlit.__file__))
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        script = (
            "import sys, qlit.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('qlit')))\n"
            "print([m for m in ('json', 'shlex') if m in sys.modules])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        ).stdout
        modules = ["cli", "core", "errors", "io", "quantify", "tractable"]
        assert out == f"{['qlit'] + ['qlit.' + m for m in modules]}\n[]\n"

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

    def test_missing_file_is_2(self, capsys):
        code = main(["brules", "--in", "/nonexistent/file.cnf"])
        assert code == 2

    def test_capacity_refusal_is_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QLIT_ENUM_CAP", "2")
        path = tmp_path / "three.txt"
        path.write_text("x & y & z\n")
        code = main(["brules", "--in", str(path)])
        assert code == 1

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

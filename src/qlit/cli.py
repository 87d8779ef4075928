"""Command-line entry point.

Subcommands: ``quantify`` (definitional or representation-specific routines,
chosen by ``--repr``), ``brules`` (boundary rules and models, optionally the
quantification transition report), the classifier queries ``decide``,
``reasons``, ``bias`` and ``relevance``, the seeded property harness
``check`` and an interactive ``repl``.

Exit codes: 0 success, 1 logical refusal (undecided population, failed
precondition, exceeded cap), 2 parse or I/O error, 3 internal error (any
other exception, reported on one line).  With ``--json`` every
subcommand prints one object with ``kind``, ``result`` and ``items`` fields.
Identical inputs and seeds produce byte-identical output.

The ``QLIT_ENUM_CAP`` environment variable overrides the 24-variable
enumeration cap of the oracle.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections.abc import Sequence

from . import SUITE_NAMES, io
from .core import Circuit
from .errors import ParseError, QlitError
from .io import _all_ints, _ints, emit_dimacs
from .quantify import quantify
from .tractable import Cnf

# ``oracle``, ``xai``, ``checks``, ``json`` and ``shlex`` are imported by the
# handlers that use them, and ``circuits`` and ``formulas`` by the inputs that
# need them, so ``qlit quantify`` on DIMACS loads (or compiles) none of them

__all__ = ["main", "run"]


def _sniff(text: str) -> str:
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):  # the parsers' comments
            continue
        if stripped.startswith("p cnf"):
            return "cnf"
        if stripped.startswith("nnf"):
            return "ddnnf"
        fields = stripped.split()
        if fields[0] in ("T", "F", "L", "D") and len(fields) > 1 and _all_ints(fields[1:]):
            return "sdd"
        return "formula"
    return "formula"


def _read_text(path: str) -> str:
    """The text of an ASCII file; any other byte is a parse error on its line."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            data = handle.read()
        bad = next(k for k, byte in enumerate(data) if byte > 0x7F)
        line = len((data[:bad].decode("ascii") + "x").splitlines())
        raise ParseError(f"non-ASCII byte {data[bad]:#x}", line) from None


# the reader of each input kind, read on ``io`` at call time
_READERS = {"cnf": "parse_dimacs", "dnf": "parse_dnf", "ddnnf": "parse_nnf", "sdd": "parse_sdd",
            "formula": "parse_formula"}


def _load_input(path: str, repr_: str):
    text = _read_text(path)
    return getattr(io, _READERS[_sniff(text) if repr_ == "auto" else repr_])(text)


def _input(args, session):
    """The ``--in`` file, else the object loaded in the repl."""
    value = session.get("loaded") if args.input is None else _load_input(args.input, args.repr)
    if value is None:
        raise QlitError("no input: pass --in FILE or load one in the repl")
    return value


def _read_classifier(path: str) -> Classifier:
    from .xai import Classifier

    bundle = io.parse_classifier_bundle(_read_text(path))
    return Classifier(bundle.positive, bundle.negative, protected=bundle.protected)


def emit_nnf(circuit: Circuit) -> str:
    """:func:`qlit.io.emit_nnf`, read on ``io`` at each call."""
    return io.emit_nnf(circuit)


def _emit_result(value) -> str:
    """The text ``quantify`` prints: a circuit in the ``.nnf`` format, any
    other value in its display form."""
    if isinstance(value, Circuit):
        return emit_nnf(value)[:-1]  # without the final newline
    return str(value)


def _write_output(path: str, value, printed: str) -> None:
    """Write a result to ``path``: a CNF in DIMACS, any other value as the
    printed text plus a newline."""
    text = emit_dimacs(value) if isinstance(value, Cnf) else printed + "\n"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)


def _print(args, kind: str, result, items: list[str]) -> None:
    if getattr(args, "json", False):
        import json

        print(json.dumps({"kind": kind, "result": result, "items": items}, sort_keys=True))
    else:
        if result is not None:
            print(result)
        for item in items:
            print(item)


# -- subcommand handlers --------------------------------------------------------


def _cmd_quantify(args, session) -> int:
    value = _input(args, session)
    items = [s for s in args.items.split(",") if s.strip()]
    out = quantify(value, args.op, items)
    printed = _emit_result(out)
    if args.out:
        _write_output(args.out, out, printed)
    _print(args, "quantify", printed, [])
    return 0


def _cmd_brules(args, session) -> int:
    from . import oracle

    value = _input(args, session)
    rules = oracle.b_rules(value)
    worlds = sorted({w for w, _ in oracle.boundary_models(value)}, key=lambda w: w.bits)
    summary = f"rules: {len(rules)}, boundary models: {len(worlds)}"
    lines = [str(r) for r in rules] + [str(w) for w in worlds]
    if args.report_transition:
        lit = value.universe.literal(args.report_transition)
        report = oracle.brule_transition_report(value, lit)
        summary += f", transition on {lit}: {'pass' if report.passed else 'FAIL'}"
        lines = report.to_lines()
    _print(args, "brules", summary, lines)
    return 0


def _load_classifier(args, session) -> Classifier:
    if args.classifier is None:
        classifier = session.get("classifier")
        if classifier is None:
            raise QlitError("no classifier: pass --classifier BUNDLE or load one")
    else:
        classifier = _read_classifier(args.classifier)
    if getattr(args, "protected", None):
        from .xai import Classifier

        classifier = Classifier(
            classifier.positive,
            classifier.negative,
            protected=tuple(args.protected),
            check=False,
        )
    return classifier


def _cmd_decide(args, session) -> int:
    from .xai import Decision, decide

    classifier = _load_classifier(args, session)
    decision = decide(classifier, classifier.population(args.term))
    _print(args, "decide", str(decision), [])
    return 1 if decision is Decision.UNDEFINED else 0


def _cmd_reasons(args, session) -> int:
    from .xai import sufficient_reasons

    classifier = _load_classifier(args, session)
    result = sufficient_reasons(classifier, classifier.population(args.term))
    items = [str(t) for t in result.sufficient]
    _print(args, "reasons", str(result.decision), items)
    return 0


def _cmd_bias(args, session) -> int:
    from .xai import biased_instances, is_decision_biased

    classifier = _load_classifier(args, session)
    if args.term:
        biased = is_decision_biased(classifier, classifier.instance(args.term))
        _print(args, "bias", "biased" if biased else "unbiased", [])
        return 0
    items = []
    for side in ("positive", "negative"):
        items.append(f"{side}: {biased_instances(classifier, side)}")
    _print(args, "bias", None if args.json else "\n".join(items), items if args.json else [])
    return 0


def _cmd_relevance(args, session) -> int:
    from .xai import relevance_report

    classifier = _load_classifier(args, session)
    report = relevance_report(classifier, classifier.population(args.term))
    _print(args, "relevance", str(report.decision), report.to_lines())
    return 0


def _cmd_check(args, session) -> int:
    from .checks import run_suite

    result = run_suite(args.property, args.vars, args.trials, args.seed)
    items = result.failures
    _print(args, "check", result.summary(), items)
    return 0 if result.ok else 1


def _cmd_repl(args, session) -> int:
    import shlex

    print("qlit repl: load/quantify/brules/decide/reasons/bias/relevance/check, quit")
    for raw in sys.stdin:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        try:
            fields = shlex.split(line)
            if fields[0] == "load":
                _repl_load(fields, session)
                continue
            code = _dispatch(fields, session)
            if code != 0:
                print(f"(exit {code})")
        except (QlitError, OSError, ValueError) as error:
            print(f"error: {error}")
        except SystemExit:  # argparse rejected the line; stay in the loop
            pass
        except Exception as error:
            print(_internal_error(error), file=sys.stderr)
    return 0


def _repl_load(fields: list[str], session) -> None:
    if len(fields) == 3 and fields[1] == "classifier":
        session["classifier"] = _read_classifier(fields[2])
        print(f"loaded {session['classifier']!r}")
    elif len(fields) == 3 and fields[1] in (*_READERS, "nnf"):
        session["loaded"] = _load_input(fields[2], {"nnf": "ddnnf"}.get(fields[1], fields[1]))
        print(f"loaded {session['loaded']!r}")
    elif len(fields) == 2:
        session["loaded"] = _load_input(fields[1], "auto")
        print(f"loaded {session['loaded']!r}")
    else:
        raise QlitError(f"usage: load [{'|'.join(('classifier', *_READERS, 'nnf'))}] FILE")


# -- argument parsing -------------------------------------------------------------


def _positive(text: str) -> int:
    """An ``argparse`` type: an integer of at least 1."""
    try:
        [value] = _ints([text])
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlit",
        description="Boolean literal/variable quantification and classifier explanation queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quantify = sub.add_parser("quantify", help="quantify literals/variables out of an input")
    quantify.add_argument("--op", choices=("forall", "exists"), required=True)
    quantify.add_argument(
        "--items",
        required=True,
        help="comma list: 'x' positive literal, '~x' negative, 'X' whole variable",
    )
    quantify.add_argument("--in", dest="input", help="input file (omit in the repl to use the loaded object)")
    quantify.add_argument(
        "--repr",
        choices=("auto", *_READERS),
        default="auto",
        help="input representation; auto sniffs the file and picks the fast routine",
    )
    quantify.add_argument("--out", help="write the result to this file")
    quantify.add_argument("--json", action="store_true")
    quantify.set_defaults(handler=_cmd_quantify)

    brules = sub.add_parser("brules", help="print boundary rules and models")
    brules.add_argument("--in", dest="input")
    brules.add_argument("--repr", choices=("auto", *_READERS), default="auto")
    brules.add_argument("--report-transition", metavar="LIT", help="also report rule changes under forall LIT")
    brules.add_argument("--json", action="store_true")
    brules.set_defaults(handler=_cmd_brules)

    for name, handler, takes_term in (
        ("decide", _cmd_decide, True),
        ("reasons", _cmd_reasons, True),
        ("bias", _cmd_bias, False),
        ("relevance", _cmd_relevance, True),
    ):
        command = sub.add_parser(name, help=f"{name} query against a classifier bundle")
        command.add_argument("--classifier", help="bundle file (omit in the repl to use the loaded one)")
        command.add_argument(
            "--term",
            required=takes_term,
            help="comma list of characteristics, e.g. 'e,~f,g'",
        )
        command.add_argument("--protected", nargs="*", help="override the protected features")
        command.add_argument("--json", action="store_true")
        command.set_defaults(handler=handler)

    check = sub.add_parser("check", help="run a seeded property suite")
    check.add_argument("--property", choices=SUITE_NAMES, required=True)
    check.add_argument("--vars", type=_positive, default=6)
    check.add_argument("--trials", type=_positive, default=1000)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--json", action="store_true")
    check.set_defaults(handler=_cmd_check)

    repl = sub.add_parser("repl", help="interactive session")
    repl.set_defaults(handler=_cmd_repl)
    return parser


def _dispatch(argv: Sequence[str], session) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    return args.handler(args, session)


def run(argv: Sequence[str]) -> int:
    """Parse and execute one command line; returns the exit code."""
    try:
        return _dispatch(argv, {})
    except (ParseError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except QlitError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception as error:
        print(_internal_error(error), file=sys.stderr)
        return 3


def _internal_error(error: Exception) -> str:
    """One line for a failure that is not a typed refusal: a defect in qlit."""
    message = " ".join(str(error).splitlines())
    return f"qlit: internal error: {type(error).__name__}: {message}"


def main(argv: Sequence[str] | None = None) -> int:
    """Run ``argv``, else ``sys.argv`` and freeze what the process made out of the last
    garbage collection at exit (nothing qlit holds has a finalizer; ``with`` closes files)."""
    if argv is not None:
        return run(argv)
    code = run(sys.argv[1:])
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())

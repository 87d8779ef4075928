"""Spans and counts recorded from the benchmark's side of each call into qlit.

``instrument()`` wraps public qlit functions wherever a qlit module has
bound them, so nested calls (a verifier inside a parser, the shift inside a
forall, the truth tables inside an entailment) get spans of their own.  A
span is ``[name, start_ns, end_ns, parent, op_id]`` on the process CPU
clock; spans stay in memory and are summarised when the run ends.  Nothing is recorded unless a
``Recorder`` is active.
"""

from __future__ import annotations

import statistics
import sys
import time

ACTIVE: "Recorder | None" = None
REFUSALS = ("NoDecisionError", "PreconditionError")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.op_id = -1

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.process_time_ns(), 0, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.process_time_ns()
        self.stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each call's duration minus its children's, in ms."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[float]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append((end - start - child_ns[k]) / 1e6)
        return out


class span:
    """``with span(name):`` records a span when a recorder is active."""

    __slots__ = ("name", "index")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.index = ACTIVE.open(self.name) if ACTIVE is not None else -1
        return self

    def __exit__(self, kind, error, tb):
        if self.index >= 0:
            if error is not None:
                _note_error(self.name, error)
            ACTIVE.close(self.index)
        return False


def _note_error(name: str, error: BaseException) -> None:
    """Count an exception once, at the innermost span it passed through.
    qlit's logical refusals (an undecided population, a failed
    precondition) are expected by the reference and are not errors."""
    if type(error).__name__ in REFUSALS or getattr(error, "_perfbench_seen", False):
        return
    try:
        error._perfbench_seen = True
    except AttributeError:
        pass
    module = name.split(".", 1)[0]
    ACTIVE.errors[module] = ACTIVE.errors.get(module, 0) + 1


def _wrap(fn, name, namer=None, counter=None):
    def wrapper(*args, **kwargs):
        rec = ACTIVE
        if rec is None:
            return fn(*args, **kwargs)
        index = rec.open(namer(args) if namer else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            _note_error(rec.spans[index][0], error)
            raise
        finally:
            rec.close(index)
        if counter is not None:
            counter(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _circuit_counts(rec, args, result) -> None:
    rec.count("tractable.nodes_in", len(args[0].nodes))
    rec.count("tractable.nodes_out", len(result.nodes))
    rec.count("tractable.edges_out", sum(len(n.children) for n in result.nodes))
    rec.count("tractable.circuit_calls", 1)


def _shift_counts(rec, args, result) -> None:
    rec.count("tractable.shift_in", len(args[0].nodes))
    rec.count("tractable.shift_out", len(result.nodes))


def _close_counts(rec, args, result) -> None:
    form, var = args[0], args[1]
    pos = 2 * var.index + 1
    with_pos = sum(1 for e in form.elements if pos in e.codes)
    with_neg = sum(1 for e in form.elements if pos ^ 1 in e.codes)
    rec.count("tractable.close_under.pairs", with_pos * with_neg)
    rec.count("tractable.close_under.resolvents", len(result.elements) - len(form.elements))
    rec.count("tractable.close_under.calls", 1)


def _mask_name(args) -> str:
    value = args[0]
    universe = args[1] if len(args) > 1 and args[1] is not None else value.universe
    bits = 1 << len(universe)
    if ACTIVE is not None:
        ACTIVE.counts["oracle.table_bits"] = max(ACTIVE.counts.get("oracle.table_bits", 0), bits)
    # the oracle keeps per-node tables only up to 16 variables
    return "oracle.models_mask.cached" if len(universe) <= 16 else "oracle.models_mask.uncached"


def _len_counter(metric: str):
    def counter(rec, args, result) -> None:
        rec.count(metric, len(result))
        rec.count(metric + ".calls", 1)

    return counter


def _primes_counts(rec, args, result) -> None:
    rec.count("tractable.prime_forms.primes", len(result.elements))
    rec.count("tractable.prime_forms.calls", 1)


def _reason_counts(rec, args, result) -> None:
    rec.count("xai.reasons", len(result.sufficient))
    rec.count("xai.reasons.calls", 1)


def _literal_counts(rec, args, result) -> None:
    rec.count("io.parse_dimacs.literals", result.literal_count())


def _node_counts(rec, args, result) -> None:
    rec.count("io.parse_nnf.nodes", len(result.nodes))


# the text ``qlit quantify`` prints to standard output
SPAN_NAMES = {"_emit_result": "io.print"}


def instrument() -> None:
    """Wrap qlit's public functions, and the CLI's printed text, in every qlit
    module that binds them."""
    from qlit import cli, core, io, oracle, quantify, tractable, xai

    targets = [
        (cli, "_emit_result", None),
        (io, "parse_dimacs", _literal_counts),
        (io, "emit_dimacs", None),
        (io, "parse_nnf", _node_counts),
        (io, "emit_nnf", None),
        (io, "parse_sdd", None),
        (io, "parse_formula", None),
        (io, "parse_classifier_bundle", None),
        (tractable, "cnf_forall_literal", None),
        (tractable, "cnf_exists_literal", None),
        (tractable, "close_under", _close_counts),
        (tractable, "verify_decision_dnnf", None),
        (tractable, "verify_sdd", None),
        (tractable, "ddnnf_shift", _shift_counts),
        (tractable, "sdd_shift", _shift_counts),
        (tractable, "ddnnf_forall", _circuit_counts),
        (tractable, "ddnnf_exists", _circuit_counts),
        (tractable, "sdd_forall", _circuit_counts),
        (tractable, "sdd_exists", _circuit_counts),
        (tractable, "prime_forms", _primes_counts),
        (core, "negate", None),
        (quantify, "quantify_set", None),
        (oracle, "models_mask", None),
        (oracle, "equivalent", None),
        (oracle, "entails", None),
        (oracle, "literal_independent", None),
        (oracle, "b_rules", _len_counter("oracle.rules")),
        (oracle, "boundary_models", None),
        (oracle, "reconstruct_models", None),
        (oracle, "brule_transition_report", None),
        (xai, "decide", None),
        (xai, "complete_reason", None),
        (xai, "sufficient_reasons", _reason_counts),
        (xai, "relevance_report", None),
        (xai, "is_decision_biased", None),
        (xai, "instances_independent_of_characteristics", None),
    ]
    modules = [m for name, m in sys.modules.items() if name.startswith("qlit") and m is not None]
    for module, attr, counter in targets:
        fn = getattr(module, attr)
        name = SPAN_NAMES.get(attr, f"{module.__name__.split('.')[-1]}.{attr}")
        namer = _mask_name if attr == "models_mask" else None
        wrapped = _wrap(fn, name, namer, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


def median(values) -> float:
    return statistics.median(values) if values else 0.0

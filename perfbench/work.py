"""The qlit side of the benchmark: one process that imports qlit, sets up a
workload's long-lived inputs and runs its ops in a closed loop.

Usage: ``python3 perfbench/work.py SPEC.json``.  The spec (written by
``run.py``) names the workload, the mode (``setup``, ``run`` or ``trace``),
the seconds to measure, the input files and the op schedule.  The last line
of standard output is one JSON object with the set-up time, per-op
latencies and outputs, and in ``trace`` mode the per-layer figures.

Outputs are reduced to plain JSON (clause lists, reason codes, formula
DAGs) after each op's timer stops; the first output of each distinct op is
sent in full for the reference checker and later ones as a digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import sys
import time
import warnings

import trace
from trace import span

# -- output reduction --------------------------------------------------------------


def formula_dag(formula) -> list:
    """A qlit formula as ``[(kind, payload)]`` in topological order."""
    index: dict[int, int] = {}
    nodes: list = []
    stack = [(formula, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in index:
            continue
        kind = node.kind
        kids = node.key[1] if kind in ("and", "or") else (node.key[1],) if kind == "not" else ()
        if not expanded and any(id(k) not in index for k in kids):
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in index)
            continue
        if kind in ("true", "false"):
            entry = ("const", kind == "true")
        elif kind == "lit":
            entry = ("lit", node.key[1])
        elif kind == "not":
            entry = ("not", index[id(kids[0])])
        else:
            entry = (kind, [index[id(k)] for k in kids])
        index[id(node)] = len(nodes)
        nodes.append(entry)
    return nodes


def flat_or_dag(value) -> dict:
    if hasattr(value, "elements"):
        return {"cnf": sorted(list(e.codes) for e in value.elements)}
    return {"dag": formula_dag(value)}


def world_bits(codes) -> int:
    return sum(1 << (c >> 1) for c in codes if c & 1)


# -- CLI replay (cnf_cli, circuit_cli) ------------------------------------------------------


class CliReplay:
    """Runs ``cli._cmd_quantify`` in-process on the op's arguments, with its
    standard output thrown away."""

    def __init__(self, spec):
        from qlit import cli

        self.cli = cli
        self.workdir = spec["workdir"]
        self.out = os.path.join(self.workdir, "replay.out")
        self.sink = open(os.devnull, "w")

    def op(self, op):
        args = argparse.Namespace(
            op=op["op"], items=op["items"], input=os.path.join(self.workdir, op["path"]),
            repr="auto", out=self.out, json=False,
        )
        with contextlib.redirect_stdout(self.sink):
            code = self.cli._cmd_quantify(args, {})
        if code != 0:
            raise RuntimeError(f"_cmd_quantify returned {code}")
        with open(self.out, "rb") as handle:
            return {"digest": hashlib.blake2b(handle.read(), digest_size=16).hexdigest()}

    def universes(self):
        return []


# -- explain ---------------------------------------------------------------------------


class Explain:
    def __init__(self, spec):
        from qlit import core, io, xai
        from qlit.errors import NoDecisionError

        self.xai, self.refusal = xai, NoDecisionError
        self.classifiers = {}
        for c in spec["classifiers"]:
            with open(os.path.join(spec["workdir"], c["path"]), "r", encoding="ascii") as handle:
                text = handle.read()
            if c["kind"] == "bundle":
                bundle = io.parse_classifier_bundle(text)
                # a check above 12 features is sampled (and warns) instead of exact
                name = "xai.Classifier.sampled" if len(bundle.universe) > 12 else "xai.Classifier.exact"
                with span(name), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    classifier = xai.Classifier(
                        bundle.positive, bundle.negative, protected=bundle.protected
                    )
            else:
                universe = core.Universe(c["names"])
                formula = io.parse_formula(text, universe)
                with span("xai.Classifier.derived"):
                    classifier = xai.Classifier(formula, protected=c["protected"])
            self.classifiers[c["name"]] = classifier

    def op(self, op):
        xai = self.xai
        c = self.classifiers[op["cls"]]
        q = op["q"]
        try:
            if q == "decide":
                return {"decision": str(xai.decide(c, op["term"]))}
            if q == "sufficient_reasons":
                r = xai.sufficient_reasons(c, op["term"])
                return {"decision": str(r.decision), "reasons": [list(t.codes) for t in r.sufficient]}
            if q == "complete_reason":
                return flat_or_dag(xai.complete_reason(c, op["term"]))
            if q == "relevance_report":
                r = xai.relevance_report(c, op["term"])
                rows = [
                    [row.feature.index, row.characteristic.code, row.feature_irrelevant, row.characteristic_irrelevant]
                    for row in r.rows
                ]
                return {"decision": str(r.decision), "rows": sorted(rows)}
            if q == "is_decision_biased":
                return {"biased": xai.is_decision_biased(c, op["term"])}
            out = xai.instances_independent_of_characteristics(c, op["side"], op["chars"])
            return flat_or_dag(out)
        except self.refusal:
            return {"refused": "NoDecisionError"}

    def universes(self):
        return [c.features for c in self.classifiers.values()]


# -- oracle ------------------------------------------------------------------------------


class Oracle:
    def __init__(self, spec):
        from qlit import core, io, oracle, quantify
        from qlit.errors import PreconditionError

        self.oracle, self.quantify, self.refusal = oracle, quantify, PreconditionError
        self.formulas = []
        self.groups = {}
        for f in spec["formulas"]:
            key = len(f["names"])
            if key not in self.groups:
                self.groups[key] = core.Universe(f["names"])
            with open(os.path.join(spec["workdir"], f["path"]), "r", encoding="ascii") as handle:
                self.formulas.append(io.parse_formula(handle.read(), self.groups[key]))

    def op(self, op):
        oracle = self.oracle
        f = self.formulas[op["f"]]
        u = f.universe
        q = op["q"]
        if q in ("equivalent", "entails", "literal_independent"):
            g = self.quantify.quantify_set(f, op["qop"], op["items"])
            if q == "equivalent":
                answer = oracle.equivalent(f, g)
            elif q == "entails":
                answer = oracle.entails(g, f)
            else:
                answer = oracle.literal_independent(g, u.literal(op["lit"]))
            return {"answer": answer, "dag": formula_dag(g)}
        if q == "b_rules":
            rules = oracle.b_rules(f)
            pairs = [
                [world_bits(r.antecedent.codes) | (r.consequent.code & 1) << r.consequent.variable.index,
                 r.consequent.variable.index]
                for r in rules
            ]
            return {"pairs": sorted(pairs)}
        if q == "boundary_models":
            got = oracle.boundary_models(f)
            return {"pairs": sorted([w.bits, lit.code] for w, lit in got)}
        if q == "reconstruct_models":
            rules = oracle.b_rules(f)
            worlds = oracle.ModelSet(u, {w for w, _ in oracle.boundary_models(f)})
            try:
                models = oracle.reconstruct_models(rules, worlds)
            except self.refusal:
                return {"refused": "PreconditionError"}
            return {"models": sorted(w.bits for w in models)}
        report = oracle.brule_transition_report(f, u.literal(op["lit"]))
        return {
            "before": len(report.rules_before),
            "after": len(report.rules_after),
            "preserved": len(report.preserved),
            "deleted": len(report.deleted),
            "introduced": len(report.introduced),
            "passed": report.passed,
        }

    def universes(self):
        return list(self.groups.values())


KINDS = {"cnf_cli": CliReplay, "circuit_cli": CliReplay, "explain": Explain, "oracle": Oracle}


# -- loops ---------------------------------------------------------------------------------


def _encode(result) -> tuple[str, str]:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return text, hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _run_op(state, op, log, seen) -> None:
    """Run one op; log ``[op id, CPU seconds, wall seconds, output digest]``."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = state.op(op)
    except Exception as error:  # noqa: BLE001 - an op that raises is a failed op
        result = {"error": f"{type(error).__name__}: {error}"}
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    text, digest = _encode(result)
    if op["id"] not in seen:
        seen[op["id"]] = json.loads(text)
    log.append([op["id"], cpu, wall, digest])


# The clock's reference speed: the kernel's median CPU time on the machine
# the benchmark was built on (a shared 2-CPU Linux box, Python 3.11.7).
KERNEL_REF_MS = 14.0
KERNEL_EVERY_S = 0.25


def kernel_ms() -> float:
    """CPU milliseconds of a fixed pure-Python kernel of dict stores and
    big-int shifts.  Its time tracks the speed the machine gives this
    process at the moment, which on a shared machine drifts by a quarter
    over tens of seconds; a run puts its times at the reference speed
    ``KERNEL_REF_MS`` with kernel samples taken next to them."""
    start = time.process_time()
    table, acc = {}, 0
    for i in range(60_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFF
    mask = (1 << 300_000) - 1
    x = mask - 12_345
    for _ in range(40):
        x = (x ^ (x >> 7)) & mask
    return (time.process_time() - start) * 1e3


def loop_done(done: int, cycle: int, used: float, seconds: float, min_ops: int) -> bool:
    """A closed loop stops after the whole number of op cycles whose CPU
    time comes nearest to ``seconds``, and after at least ``min_ops`` ops;
    whole cycles run every op equally often."""
    if done == 0 or done % cycle or done < min_ops:
        return False
    return used + used / (done // cycle) / 2 >= seconds


def closed_loop(state, ops, seconds: float, log, seen, min_ops: int = 0, limit: int | None = None,
                kernel: list | None = None) -> None:
    """One client: issue the next op when the previous one completed, until
    ``loop_done`` (or until ``limit`` ops ran).  With ``kernel``, it also
    times the kernel at the start and after every ``KERNEL_EVERY_S`` of op
    CPU time, logging ``[ops done, kernel ms]``."""
    used = since = 0.0
    if kernel is not None:
        kernel.append([0, kernel_ms()])
    while not loop_done(len(log), len(ops), used, seconds, min_ops):
        if limit is not None and len(log) >= limit:
            break
        _run_op(state, ops[len(log) % len(ops)], log, seen)
        used += log[-1][1]
        since += log[-1][1]
        if kernel is not None and since >= KERNEL_EVERY_S:
            kernel.append([len(log), kernel_ms()])
            since = 0.0


def layer_metrics(rec: trace.Recorder, state) -> dict:
    selfs = rec.self_times()
    out = {f"{name}.ms": trace.median(times) for name, times in selfs.items()}
    counts = rec.counts

    def per_call(total: str, calls: str) -> float:
        return counts.get(total, 0) / counts[calls] if counts.get(calls) else 0.0

    parse_ms = sum(selfs.get("io.parse_dimacs", []))
    out["io.parse_dimacs.literals_per_s"] = counts.get("io.parse_dimacs.literals", 0) / (parse_ms / 1e3) if parse_ms else 0.0
    parse_ms = sum(selfs.get("io.parse_nnf", []))
    out["io.parse_nnf.nodes_per_s"] = counts.get("io.parse_nnf.nodes", 0) / (parse_ms / 1e3) if parse_ms else 0.0
    out["tractable.close_under.resolvents"] = per_call("tractable.close_under.resolvents", "tractable.close_under.calls")
    pairs = counts.get("tractable.close_under.pairs", 0)
    out["tractable.close_under.useful_ratio"] = counts.get("tractable.close_under.resolvents", 0) / pairs if pairs else 0.0
    for name in ("nodes_in", "nodes_out", "edges_out"):
        out[f"tractable.{name}"] = per_call(f"tractable.{name}", "tractable.circuit_calls")
    shift_in = counts.get("tractable.shift_in", 0)
    out["tractable.shift_growth"] = counts.get("tractable.shift_out", 0) / shift_in if shift_in else 0.0
    out["tractable.prime_forms.primes"] = per_call("tractable.prime_forms.primes", "tractable.prime_forms.calls")
    out["oracle.rules"] = per_call("oracle.rules", "oracle.rules.calls")
    out["xai.reasons"] = per_call("xai.reasons", "xai.reasons.calls")
    out["oracle.table_bits"] = counts.get("oracle.table_bits", 0)
    universes = state.universes()
    out["core.node_cache.entries"] = sum(len(u._node_cache) for u in universes)
    out["oracle.mask_cache.entries"] = sum(len(getattr(u, "_oracle_mask_cache", {})) for u in universes)
    for module in ("cli", "io", "tractable", "core", "quantify", "oracle", "xai"):
        out[f"{module}.errors"] = rec.errors.get(module, 0)
    return out


def main(path: str) -> None:
    with open(path, "r", encoding="ascii") as handle:
        spec = json.load(handle)
    mode = spec["mode"]
    ops = spec["ops"]
    if mode == "trace":
        trace.ACTIVE = trace.Recorder()
    start = time.process_time()
    import qlit.cli  # noqa: F401 - the import is part of set-up

    if mode == "trace":
        trace.instrument()
    state = KINDS[spec["workload"]](spec)
    seen = {}
    for op in spec["warm"]:
        _run_op(state, op, [], {})
    setup_s = time.process_time() - start
    result = {"setup_s": setup_s, "setup_kernel_ms": statistics.median(kernel_ms() for _ in range(3)),
              "log": [], "seen": seen, "kernel_ms": []}
    if mode == "run":
        closed_loop(state, ops, spec["seconds"], result["log"], seen, spec["min_ops"], kernel=result["kernel_ms"])
    elif mode == "trace":
        # pass A warms caches; then each op of A runs once traced and once
        # untraced, alternating which goes first, so that the two sums
        # differ by the cost of tracing
        rec, trace.ACTIVE = trace.ACTIVE, None
        warm_log: list = []
        closed_loop(state, ops, spec["seconds"] / 3, warm_log, seen, limit=spec.get("limit"))
        traced_log: list = []
        plain_log: list = []
        for k in range(len(warm_log)):
            for traced in ((True, False) if k % 2 == 0 else (False, True)):
                trace.ACTIVE, rec.op_id = (rec, k) if traced else (None, -1)
                _run_op(state, ops[k % len(ops)], traced_log if traced else plain_log, seen)
        trace.ACTIVE = None
        traced = sum(entry[1] for entry in traced_log)
        plain = sum(entry[1] for entry in plain_log)  # CPU seconds
        result["log"] = warm_log + traced_log + plain_log
        result["plain_ms"] = [entry[1] * 1e3 for entry in plain_log]
        result["layers"] = layer_metrics(rec, state)
        result["layers"]["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        with open(os.path.join(spec["workdir"], "spans.json"), "w", encoding="ascii") as handle:
            json.dump(rec.spans, handle)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main(sys.argv[1])

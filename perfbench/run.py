"""Seeded benchmark for qlit.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cnf_cli``, ``circuit_cli``, ``explain`` and ``oracle``.  The
last line of standard output is one JSON object with the end-to-end metrics
of ``BENCHMARK.json`` (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  ``perfbench/workloads.json`` records each workload,
how a run works and what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import ref  # noqa: E402
import work  # noqa: E402

SETUP_SAMPLES = 3
CLI_SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5
OP_TIMEOUT_S = 120
KERNEL_WINDOW = 5


# -- workloads ---------------------------------------------------------------------------
#
# Each builder writes its inputs under the work directory and returns a plan:
# the op schedule (a closed loop cycles through it), the warm-up ops, what
# the in-process worker needs, and a checker that raises ValueError on a
# wrong output and otherwise returns the output's size.


class Plan:
    def __init__(self, name, ops, warm, check, cli, spec=None):
        self.name = name
        self.ops = ops
        self.warm = warm
        self.check = check
        self.cli = cli
        self.spec = spec or {}


def _signed_name(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


def build_cnf_cli(rng: random.Random, workdir: str) -> Plan:
    """Eight files of 10k to 45k literals; per file a forall on a literal, a
    forall on a variable and an exists on the hub literal."""
    files = {}
    ops = []
    for k, literals in enumerate(range(10_000, 50_000, 5_000)):
        nclauses = literals // 3
        nvars = nclauses // 5
        text, clauses = gen.random_cnf(rng, nvars, nclauses, hub_occ=40 + nclauses // 250)
        path = f"in/f{k}.cnf"
        _write(workdir, path, text)
        files[path] = (nvars, clauses)
        lit = rng.randrange(2, nvars + 1) * rng.choice((1, -1))
        var = rng.randrange(2, nvars + 1)
        hub = rng.choice((1, -1))
        for op, items, lits in (("forall", _signed_name(lit), [lit]), ("forall", f"X{var}", [var, -var]),
                                ("exists", _signed_name(hub), [hub])):
            ops.append({"kind": "cnf", "path": path, "op": op, "items": items, "lits": lits})
    ops = _number(rng, ops)
    # set-up runs one op on the smallest file, the same op on every seed
    warm = next(op for op in ops if op["path"] == "in/f0.cnf" and len(op["lits"]) == 1 and op["op"] == "forall")

    def check(op, text):
        nvars, clauses = files[op["path"]]
        want = ref.cnf_quantify(clauses, op["op"], op["lits"])
        return ref.check_cnf_output(text, nvars, want)

    return Plan("cnf_cli", ops, [warm], check, cli=True)


def build_circuit_cli(rng: random.Random, workdir: str) -> Plan:
    """Parity chains (1200, 1800 and 2400 variables), Shannon expansions (13,
    14, 14 and 15 variables) and right-linear SDD chains (600, 900 and 1200
    variables); per input a forall and an exists on one to three literals or
    variables."""
    # the item counts and kinds, which set an op's work, come from the shape
    # seed; the run seed picks the variables and signs
    shape = random.Random(gen.SHAPE_SEED)
    inputs = []
    for nvars in (1200, 1800, 2400):
        inputs.append(("nnf", nvars) + gen.parity_nnf(rng, nvars))
    for nvars in (13, 14, 14, 15):
        inputs.append(("nnf", nvars) + gen.shannon_nnf(rng, nvars))
    for nvars in (600, 900, 1200):
        inputs.append(("sdd", nvars) + gen.sdd_chain(rng, nvars, width=3))
    files = {}
    ops = []
    for k, (kind, nvars, text, rows) in enumerate(inputs):
        path = f"in/c{k}.{kind}"
        _write(workdir, path, text)
        worlds = ref.Worlds(nvars, rng.getrandbits(32))
        files[path] = (kind, nvars, rows, worlds)
        for op in ("forall", "exists"):
            items, lits = [], []
            for var in rng.sample(range(1, nvars + 1), shape.randint(1, 3)):
                roll = shape.random()
                if roll < 0.3:
                    items.append(f"X{var}")
                    lits += [var, -var]
                else:
                    lit = var * rng.choice((1, -1))
                    items.append(_signed_name(lit))
                    lits.append(lit)
            ops.append({"kind": kind, "path": path, "op": op, "items": ",".join(items), "lits": lits})
    ops = _number(rng, ops)
    # set-up runs the exists on the first Shannon expansion on every seed
    warm = next(op for op in ops if op["path"] == "in/c3.nnf" and op["op"] == "exists")

    def check(op, text):
        kind, nvars, rows, worlds = files[op["path"]]
        evaluate = worlds.nnf if kind == "nnf" else worlds.sdd
        want = ref.quantified_columns(lambda forced: evaluate(rows, forced), worlds, op["op"], op["lits"])
        return ref.check_circuit_output(text, nvars, want, worlds)

    return Plan("circuit_cli", ops, [warm], check, cli=True)


def _instance(rng, n):
    return [2 * v + rng.randrange(2) for v in range(n)]


def _term(names, codes) -> str:
    return ",".join(names[c >> 1] if c & 1 else "~" + names[c >> 1] for c in sorted(codes))


def build_explain(rng: random.Random, workdir: str) -> Plan:
    """Two CNF-pair classifiers from decision trees (12 features with 200
    leaves, exact check; 14 features with 16 leaves, sampled check) and 20
    formula classifiers over 6 features.  One op in 42 is a formula
    classifier's sufficient reasons, which sets the tail."""
    shape = random.Random(gen.SHAPE_SEED)
    classifiers, refs, others, reasons = [], {}, [], []
    for name, n, leaves in (("tree12", 12, 200), ("tree14", 14, 16)):
        perm, flips = gen.relabelling(rng, n)
        names = [f"f{i + 1}" for i in range(n)]
        protected = sorted(perm[v] for v in shape.sample(range(n), 2))
        tree = [
            (tuple(gen.relabel_signed(x, perm, flips) for x in path), label)
            for path, label in gen.decision_tree(shape, n, leaves)
        ]
        text, pos, neg = gen.tree_bundle(tree, names, [names[v] for v in protected])
        _write(workdir, f"in/{name}.bundle", text)
        classifiers.append({"name": name, "kind": "bundle", "path": f"in/{name}.bundle"})
        to_codes = lambda cl: [tuple(sorted(2 * (abs(x) - 1) + (x > 0) for x in c)) for c in cl]  # noqa: E731
        refs[name] = (ref.ClassifierRef(n, to_codes(pos), to_codes(neg)), names, protected)
        for _ in range(12):
            inst = [gen.relabel_code(c, perm, flips) for c in _instance(shape, n)]
            term = _term(names, inst)
            chars = shape.sample(sorted(inst), 2)
            side = shape.choice(("positive", "negative"))
            part = _term(names, [c for c in sorted(inst) if shape.random() < 0.6])
            for q in ("decide", "sufficient_reasons", "complete_reason", "relevance_report", "is_decision_biased"):
                others.append({"cls": name, "q": q, "term": term})
            others.append({"cls": name, "q": "instances_independent_of_characteristics", "term": term,
                           "side": side, "chars": [_term(names, [c]) for c in chars]})
            for q in ("sufficient_reasons", "relevance_report"):
                others.append({"cls": name, "q": q, "term": part})
    n = 6
    names = [f"g{i + 1}" for i in range(n)]
    tables = ref.Tables(n)
    for k, (ast, inst) in enumerate(_formula_shapes(shape, tables, count=20)):
        name = f"form{k}"
        perm, flips = gen.relabelling(rng, n)
        ast = gen.relabel_ast(ast, perm, flips)
        _write(workdir, f"in/{name}.formula", gen.formula_text(ast, names) + "\n")
        classifiers.append({"name": name, "kind": "formula", "path": f"in/{name}.formula",
                            "names": names, "protected": [names[perm[0]]]})
        refs[name] = (ref.ClassifierRef(n, tables.ast(ast), tables=tables), names, [perm[0]])
        term = _term(names, [gen.relabel_code(c, perm, flips) for c in inst])
        reasons.append({"cls": name, "q": "sufficient_reasons", "term": term})
        for q in ("decide", "complete_reason", "relevance_report", "is_decision_biased"):
            others.append({"cls": name, "q": q, "term": term})
    shape.shuffle(others)
    shape.shuffle(reasons)
    ops = _cycle(others, reasons, common_times=3, rare_times=1)

    def check(op, out):
        cref, names, protected = refs[op["cls"]]
        codes = _codes(names, op["term"])
        decision = cref.decide(codes)
        q = op["q"]
        if q == "decide":
            ref.expect(out.get("decision") == decision, "decision")
            return 1
        if q == "instances_independent_of_characteristics":
            chars = [_codes(names, c)[0] for c in op["chars"]]
            side = cref.sides[op["side"]]
            if cref.tables is None:
                want = {tuple(c) for c in side}
                for c in chars:
                    want = ref.drop_literal(want, c)
                return _check_clauses(out, want)
            want = cref.tables.quantify(side, "forall", [("lit", c ^ 1) for c in chars])
            return _check_table(out, cref.tables, want)
        if decision == "undefined" and q != "is_decision_biased":
            ref.expect(out.get("refused") == "NoDecisionError", "expected refusal")
            return 1
        if q == "sufficient_reasons":
            ref.expect(out.get("decision") == decision, "decision")
            cref.check_reasons(codes, decision, out["reasons"])
            return sum(len(r) for r in out["reasons"])
        if q == "complete_reason":
            side = cref.sides[decision]
            if cref.tables is None:
                keep = set(codes)
                return _check_clauses(out, {tuple(c for c in clause if c in keep) for clause in side})
            mentioned = {c >> 1 for c in codes}
            items = [("lit", c) for c in sorted(codes)] + [("var", v) for v in range(cref.n) if v not in mentioned]
            return _check_table(out, cref.tables, cref.tables.quantify(side, "forall", items))
        if q == "relevance_report":
            ref.expect(out.get("decision") == decision, "decision")
            ref.expect(out["rows"] == cref.relevance_rows(codes, decision), "relevance rows")
            return len(out["rows"])
        ref.expect(out.get("biased") == cref.biased(codes, protected), "bias")
        return 1

    spec = {"classifiers": classifiers}
    warm = [next(op for op in ops if op["cls"] == c["name"]) for c in classifiers]
    return Plan("explain", ops, warm, check, cli=False, spec=spec)


def _formula_shapes(shape: random.Random, tables, count: int):
    """Formula classifiers over 6 features, each with an instance whose
    complete reason has 48 models: the Quine closure then starts from that
    many minterms, so every reason query does about the same work."""
    out = []
    while len(out) < count:
        ast = gen.random_formula(shape, tables.n, 14)
        cref = ref.ClassifierRef(tables.n, tables.ast(ast), tables=tables)
        for _ in range(8):
            inst = _instance(shape, tables.n)
            side = cref.sides[cref.decide(inst)]
            complete = tables.quantify(side, "forall", [("lit", c) for c in inst])
            if bin(complete).count("1") == 48:
                out.append((ast, inst))
                break
    return out


def _codes(names, term: str):
    index = {name: i for i, name in enumerate(names)}
    out = []
    for part in term.split(","):
        if part:
            neg = part.startswith("~")
            out.append(2 * index[part.lstrip("~")] + (0 if neg else 1))
    return out


def _check_clauses(out, want) -> int:
    got = {tuple(c) for c in out["cnf"]}
    if got != want or len(out["cnf"]) != len(got):
        raise ValueError("clause set differs from the reference")
    return sum(len(c) for c in got)


def _check_table(out, tables, want) -> int:
    if tables.dag(out["dag"]) != want:
        raise ValueError("formula differs from the reference on some world")
    return len(out["dag"])


def build_oracle(rng: random.Random, workdir: str) -> Plan:
    """Formulas at 17, 18 (four of them) and 19 variables for truth-table
    queries against their quantify_set result; two at 10 variables for
    b_rules, boundary_models and reconstruct_models; two at 11 variables for
    the transition report.  The 18-variable queries are more than half the
    ops, so the median lands inside them; one op in 22 is a transition
    report, which sets the tail."""
    shape = random.Random(gen.SHAPE_SEED)
    formulas, refs, common, rare = [], [], [], []
    for n, count in ((17, 1), (18, 4), (19, 1), (10, 2), (11, 2)):
        names = [f"v{i + 1}" for i in range(n)]
        tables = ref.Tables(n)

        def name_of(code, perm, flips):
            return _term(names, [gen.relabel_code(code, perm, flips)])

        for _ in range(count):
            perm, flips = gen.relabelling(rng, n)
            ast = gen.relabel_ast(gen.random_formula(shape, n, 2 * n + 8), perm, flips)
            k = len(formulas)
            _write(workdir, f"in/o{k}.formula", gen.formula_text(ast, names) + "\n")
            formulas.append({"path": f"in/o{k}.formula", "names": names})
            refs.append((tables, tables.ast(ast), names))
            lit = name_of(shape.randrange(2 * n), perm, flips)
            if n >= 17:
                for q in ("equivalent", "entails", "literal_independent"):
                    for qop in ("forall", "exists"):
                        items = []
                        for v in shape.sample(range(n), shape.randint(1, 2)):
                            roll = shape.random()
                            if roll < 0.3:
                                items.append(names[perm[v]].upper())
                            else:
                                items.append(name_of(2 * v + (roll < 0.65), perm, flips))
                        common.append({"f": k, "q": q, "qop": qop, "items": items, "lit": lit})
            elif n == 10:
                for q in ("b_rules", "boundary_models", "reconstruct_models"):
                    common.append({"f": k, "q": q, "lit": lit})
            else:
                rare.append({"f": k, "q": "brule_transition_report", "lit": lit})
    shape.shuffle(common)
    ops = _cycle(common, rare, common_times=1, rare_times=1)

    def items_of(names, items):
        index = {name: i for i, name in enumerate(names)}
        out = []
        for item in items:
            if item[0].isupper():
                out.append(("var", index[item.lower()]))
            else:
                out.append(("lit", _codes(names, item)[0]))
        return out

    def check(op, out):
        tables, table, names = refs[op["f"]]
        q = op["q"]
        lit = _codes(names, op["lit"])[0]
        if q in ("equivalent", "entails", "literal_independent"):
            g = tables.quantify(table, op["qop"], items_of(names, op["items"]))
            if q == "equivalent":
                want = g == table
            elif q == "entails":
                want = g & ~table == 0
            else:
                crossing = g & ~tables.flip(g, lit >> 1)
                want = crossing & tables.literal(lit >> 1, bool(lit & 1)) == 0
            ref.expect(out["answer"] == want, q)
            return _check_table(out, tables, g)
        pairs = tables.boundary_pairs(table)
        if q == "b_rules":
            ref.check_count(len(out["pairs"]), len(pairs), "rule count")
            ref.expect({tuple(p) for p in out["pairs"]} == pairs, "rules")
            return len(pairs)
        if q == "boundary_models":
            want = {(bits, 2 * i + (bits >> i & 1)) for bits, i in pairs}
            ref.expect({tuple(p) for p in out["pairs"]} == want, "boundary models")
            return len(want)
        if q == "reconstruct_models":
            if not pairs:
                ref.expect(out.get("refused") == "PreconditionError", "expected refusal")
                return 1
            ref.expect(set(out["models"]) == tables.models(table), "reconstructed models")
            return len(out["models"])
        after = tables.boundary_pairs(tables.quantify(table, "forall", [("lit", lit)]))
        want = {
            "before": len(pairs), "after": len(after), "preserved": len(pairs & after),
            "deleted": len(pairs - after), "introduced": len(after - pairs), "passed": True,
        }
        ref.expect(out == want, "transition report")
        return len(pairs) + len(after)

    spec = {"formulas": formulas}
    warm = [next(op for op in ops if op["f"] == k) for k in range(len(formulas))]
    return Plan("oracle", ops, warm, check, cli=False, spec=spec)


BUILDERS = {
    "cnf_cli": build_cnf_cli,
    "circuit_cli": build_circuit_cli,
    "explain": build_explain,
    "oracle": build_oracle,
}


def _number(rng, ops):
    """Shuffle the ops into a seeded order and give each its id."""
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        op["id"] = k
    return ops


def _cycle(common, rare, common_times: int, rare_times: int):
    """One op cycle: the common ops ``common_times`` over in order, with the
    rare ops, ``rare_times`` over, spread evenly among them.  Every op of a
    class runs equally often, so each class keeps its share of the ops and
    the slow class stays clear of the median."""
    commons = [dict(op) for _ in range(common_times) for op in common]
    rares = [dict(op) for _ in range(rare_times) for op in rare]
    step = (len(commons) + len(rares)) / len(rares)
    slots = {int((j + 0.5) * step) for j in range(len(rares))}
    out = []
    for k in range(len(commons) + len(rares)):
        out.append(rares.pop(0) if k in slots else commons.pop(0))
        out[-1]["id"] = k
    return out


def _write(workdir: str, path: str, text: str) -> None:
    full = os.path.join(workdir, path)
    os.makedirs(os.path.dirname(full), exist_ok=True)
    with open(full, "w", encoding="ascii") as handle:
        handle.write(text)


# -- running ops ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_child(cmd, **kwargs):
    """Run one child to completion; returns (CPU seconds, wall seconds, the
    CompletedProcess or None on timeout).  Only one child runs at a time,
    so the change in the reaped children's usage is this child's."""
    cpu, wall = _children_cpu(), time.perf_counter()
    try:
        done = subprocess.run(cmd, env=_env(), timeout=OP_TIMEOUT_S, **kwargs)
    except subprocess.TimeoutExpired:
        done = None
    return _children_cpu() - cpu, time.perf_counter() - wall, done


def cli_op(op, workdir: str):
    """One ``qlit quantify`` subprocess; returns (CPU seconds, wall seconds,
    output text or None, error message or None)."""
    out_path = os.path.join(workdir, "out.txt")
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [sys.executable, "-m", "qlit.cli", "quantify", "--op", op["op"], "--items", op["items"],
           "--in", os.path.join(workdir, op["path"]), "--out", out_path]
    cpu, wall, done = timed_child(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if done is None:
        return cpu, wall, None, "timed out"
    if done.returncode != 0:
        return cpu, wall, None, f"exit {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}"
    with open(out_path, "r", encoding="ascii") as handle:
        return cpu, wall, handle.read(), None


def worker(plan: Plan, workdir: str, mode: str, seconds: float, limit=None) -> dict:
    spec = dict(plan.spec, workload=plan.name, mode=mode, seconds=seconds, ops=plan.ops,
                warm=plan.warm, workdir=workdir, limit=limit, min_ops=plan.min_ops)
    path = os.path.join(workdir, f"spec-{mode}.json")
    with open(path, "w", encoding="ascii") as handle:
        json.dump(spec, handle)
    done = subprocess.run([sys.executable, os.path.join(HERE, "work.py"), path], env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=seconds + 150)
    if done.returncode != 0:
        raise RuntimeError("worker failed: " + done.stderr.decode(errors="replace")[-2000:])
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class Checker:
    """Checks outputs against the reference, op by op.  An op's verdicts
    are keyed by its query (the op without its id, so the copies of a query
    in an op cycle share them) and the output's digest: the first output of
    each query is checked against that query's reference, and a later output
    passes only if it is one that was checked for the same query."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.by_id = {op["id"]: op for op in plan.ops}
        self.queries = {
            op["id"]: json.dumps({k: v for k, v in op.items() if k != "id"}, sort_keys=True, separators=(",", ":"))
            for op in plan.ops
        }
        self.verdicts: dict[tuple[str, str], bool] = {}
        self.sizes: dict[str, int] = {}
        self.problems: list[str] = []

    def check_first(self, op_id: int, output) -> None:
        """``output`` is CLI text or a decoded worker result."""
        if isinstance(output, str):
            digest = _digest(output)
        else:
            digest = _digest(json.dumps(output, sort_keys=True, separators=(",", ":")))
        key = (self.queries[op_id], digest)
        if key in self.verdicts:
            return
        try:
            if isinstance(output, dict) and "error" in output:
                raise ValueError(output["error"])
            self.sizes[key[0]] = self.plan.check(self.by_id[op_id], output)
            self.verdicts[key] = True
        except (ValueError, KeyError, TypeError) as error:
            self.verdicts[key] = False
            op = self.by_id[op_id]
            self.problems.append(f"op {op_id} ({op.get('q', op.get('op'))}): {error}")

    def ok(self, op_id: int, digest) -> bool:
        return self.verdicts.get((self.queries[op_id], digest), False)


def checker_self_test() -> None:
    """Two queries that share an output must each be checked against their
    own reference; raises AssertionError otherwise."""

    def check(op, out):
        ref.expect(out == op["want"], "output")
        return 1

    ops = [{"id": 0, "want": "a"}, {"id": 1, "want": "b"}, {"id": 2, "want": "b"}, {"id": 3, "want": "c"}]
    checker = Checker(Plan("self-test", ops, [], check, cli=False))
    for op_id in range(4):
        checker.check_first(op_id, "a")
    verdicts = [checker.ok(op_id, _digest("a")) for op_id in range(4)]
    if verdicts != [True, False, False, False]:
        raise AssertionError(f"checker accepted an output shared with another query: {verdicts}")
    checker.check_first(2, "b")
    if not checker.ok(1, _digest("b")) or checker.ok(1, _digest("x")):
        raise AssertionError("checker lost a query's checked output")


# -- metrics --------------------------------------------------------------------------------


def tail_floor(percentile: float) -> int:
    """The fewest samples that leave at least ten beyond ``percentile``."""
    n = 1
    while n - math.ceil(percentile / 100 * n) < 10:
        n += 1
    return n


def tail(latencies_ms, failed_flags, percentile: float) -> float:
    """The latency at ``percentile`` (nearest rank); failed ops sort as +inf."""
    values = sorted(float("inf") if bad else v for v, bad in zip(latencies_ms, failed_flags))
    return values[max(math.ceil(percentile / 100 * len(values)) - 1, 0)]


def stamp(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join("src", "qlit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
    }


def workload_record(name: str) -> dict:
    with open(os.path.join(HERE, "workloads.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)["workloads"][name]


def _metric_names(kind: str):
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def op_scales(kernel, count: int) -> list[float]:
    """Per op, ``KERNEL_REF_MS`` over the median of the ``KERNEL_WINDOW``
    kernel samples taken nearest to it; ``kernel`` holds ``[ops done, ms]``."""
    at = [k[0] for k in kernel]
    width = min(KERNEL_WINDOW, len(kernel))
    out = []
    for i in range(count):
        lo = max(0, min(bisect.bisect_right(at, i) - (width + 1) // 2, len(kernel) - width))
        out.append(work.KERNEL_REF_MS / statistics.median(k[1] for k in kernel[lo:lo + width]))
    return out


def run_untraced(plan: Plan, workdir: str, seconds: float, checker: Checker):
    """Returns (metrics, extra figures to print, attempted, failed).  Each
    log entry is (op id, CPU seconds, wall seconds, digest, error)."""
    if plan.cli:
        setups = []
        for _ in range(CLI_SETUP_SAMPLES):
            cpu, _, text, error = cli_op(plan.warm[0], workdir)
            setups.append(cpu * work.KERNEL_REF_MS / statistics.median(work.kernel_ms() for _ in range(3)))
            if text is None:
                checker.problems.append(f"warm-up op failed: {error}")
            else:
                checker.check_first(plan.warm[0]["id"], text)
                if not checker.ok(plan.warm[0]["id"], _digest(text)):
                    checker.problems.append("warm-up output rejected")
        # the kernel runs in this process between the children, as the
        # worker runs it between its ops
        log, kernel, used, since = [], [[0, work.kernel_ms()]], 0.0, 0.0
        while not work.loop_done(len(log), len(plan.ops), used, seconds, plan.min_ops):
            op = plan.ops[len(log) % len(plan.ops)]
            cpu, wall, text, error = cli_op(op, workdir)
            if text is not None:
                checker.check_first(op["id"], text)
            log.append((op["id"], cpu, wall, _digest(text) if text is not None else None, error))
            used += cpu
            since += cpu
            if since >= work.KERNEL_EVERY_S:
                kernel.append([len(log), work.kernel_ms()])
                since = 0.0
    else:
        results = [worker(plan, workdir, "setup", seconds) for _ in range(SETUP_SAMPLES - 1)]
        result = worker(plan, workdir, "run", seconds)
        results.append(result)
        setups = [r["setup_s"] * work.KERNEL_REF_MS / r["setup_kernel_ms"] for r in results]
        kernel = result["kernel_ms"]
        for op_id, output in result["seen"].items():
            checker.check_first(int(op_id), output)
        log = [(op_id, cpu, wall, digest, None) for op_id, cpu, wall, digest in result["log"]]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    bad = [entry[4] is not None or not checker.ok(entry[0], entry[3]) for entry in log]
    for entry in log:
        if entry[4] is not None:
            checker.problems.append(f"op {entry[0]}: {entry[4]}")
    raw_ms = [entry[1] * 1e3 for entry in log]
    cpu_ms = [ms * scale for ms, scale in zip(raw_ms, op_scales(kernel, len(log)))] if kernel else raw_ms
    wall_ms = [entry[2] * 1e3 for entry in log]
    if len(log) < plan.min_ops:
        checker.problems.append(f"{len(log)} ops, too few for p{plan.tail_p:g}; needs {plan.min_ops}")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(log) / (sum(cpu_ms) / 1e3),
        "latency_p50_ms": statistics.median(float("inf") if b else v for v, b in zip(cpu_ms, bad)),
        "latency_tail_ms": tail(cpu_ms, bad, plan.tail_p),
        "peak_rss_mb": rss_kb / 1024,
        "out_size": sum(checker.sizes.values()),
    }
    extra = {
        "raw": {
            "ops_per_s": len(log) / (sum(raw_ms) / 1e3),
            "latency_p50_ms": statistics.median(float("inf") if b else v for v, b in zip(raw_ms, bad)),
            "latency_tail_ms": tail(raw_ms, bad, plan.tail_p),
        },
        "kernel": (statistics.median(k[1] for k in kernel), len(kernel)) if kernel else None,
        "samples": len(log),
        "failed_ratio": sum(bad) / len(log),
        "setup_samples_s": [round(s, 4) for s in setups],
        "wall_p50_ms": statistics.median(wall_ms),
        "wall_tail_ms": tail(wall_ms, bad, plan.tail_p),
    }
    return metrics, extra, len(log), sum(bad)


def run_traced(plan: Plan, workdir: str, seconds: float, checker: Checker):
    layers = {}
    if plan.cli:
        startup = [timed_child([sys.executable, "-c", "import qlit.cli"])[0] * 1e3
                   for _ in range(STARTUP_SAMPLES)]
        layers["cli.startup.ms"] = statistics.median(startup)
        cpus, digests = [], []
        while not cpus or sum(cpus) < seconds / 3 * 1e3:
            op = plan.ops[len(cpus) % len(plan.ops)]
            cpu, _, text, error = cli_op(op, workdir)
            cpus.append(cpu * 1e3)
            if text is None:
                checker.problems.append(f"op {op['id']}: {error}")
                digests.append(None)
            else:
                checker.check_first(op["id"], text)
                digests.append(_digest(text))
        result = worker(plan, workdir, "trace", seconds, limit=len(cpus))
        # what the subprocess spends beyond interpreter start-up and the
        # same op replayed in-process
        layers["cli.self.ms"] = statistics.median(
            cpu - layers["cli.startup.ms"] - replay for cpu, replay in zip(cpus, result["plain_ms"])
        )
        layers["cli.errors"] = sum(1 for d in digests if d is None)
        attempted = len(cpus)
        failed = sum(1 for k, d in enumerate(digests)
                     if d is None or not checker.ok(plan.ops[k % len(plan.ops)]["id"], d))
        # the in-process replay must write exactly what the CLI wrote
        cli_digest = {plan.ops[k % len(plan.ops)]["id"]: d for k, d in enumerate(digests)}
        for op_id, out in result["seen"].items():
            if out.get("digest") != cli_digest.get(int(op_id)):
                checker.problems.append(f"op {op_id}: in-process replay wrote other output than the CLI")
    else:
        result = worker(plan, workdir, "trace", seconds)
        for op_id, output in result["seen"].items():
            checker.check_first(int(op_id), output)
        attempted = len(result["log"])
        failed = sum(1 for entry in result["log"] if not checker.ok(entry[0], entry[3]))
    layers.update(result["layers"])
    return layers, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qlit", "__init__.py")):
        print("error: run from the repository root; src/qlit is missing", file=sys.stderr)
        return 2
    ref.self_test()
    checker_self_test()
    info = stamp(args.seed)
    workdir = os.path.abspath(os.path.join(".perfbench_work", f"{args.workload}-{os.getpid()}"))
    os.makedirs(workdir)
    try:
        plan = BUILDERS[args.workload](random.Random(args.seed), workdir)
        plan.tail_p = workload_record(args.workload)["tail_percentile"]
        plan.min_ops = tail_floor(plan.tail_p)
        checker = Checker(plan)
        if args.trace:
            values, attempted, failed = run_traced(plan, workdir, args.seconds, checker)
            extra = {}
            names = _metric_names("per_layer")
        else:
            values, extra, attempted, failed = run_untraced(plan, workdir, args.seconds, checker)
            names = _metric_names("end_to_end")
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):
            os.makedirs(".perfbench_out", exist_ok=True)
            shutil.move(spans, os.path.join(".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    info["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]

    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in names}
    print(f"workload {args.workload}: closed loop, one client, trace {args.trace}")
    print("stamp " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{plan.tail_p:g} of {extra['samples']} samples)"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    if extra:
        print(f"  {'failed_ratio':40s} {extra['failed_ratio']:.6g} ratio  ({failed} of {attempted} ops)")
        print(f"  setup samples {extra['setup_samples_s']} s")
        print(f"  wall clock: p50 {extra['wall_p50_ms']:.6g} ms, p{plan.tail_p:g} {extra['wall_tail_ms']:.6g} ms")
    if extra.get("kernel"):
        print(f"  kernel median {extra['kernel'][0]:.4g} ms of {extra['kernel'][1]} samples; unscaled: "
              + ", ".join(f"{name} {value:.6g}" for name, value in extra["raw"].items()))
    for problem in checker.problems[:20]:
        print(f"  FAILED {problem}")
    correct = failed == 0 and not checker.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

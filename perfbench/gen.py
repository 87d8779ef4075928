"""Seeded input generators.

Every generator takes a ``random.Random`` and returns the text qlit reads
plus the plain structure the reference checker evaluates.  Nothing here
imports qlit: the program under test only ever sees the generated text.

Formula ASTs are nested tuples: ``("lit", var, positive)``, ``("const",
bool)``, ``("not", a)``, ``("and", a, b)``, ``("or", a, b)``, ``("imp", a,
b)`` and ``("iff", a, b)``.  Variables are 0-based indexes.
"""

from __future__ import annotations

import random

# Shapes that set how much work an op does (formula templates, decision
# trees, chosen instances, op order) come from this fixed seed; a run's own
# seed relabels them (variable order and polarity), so runs on different
# seeds do about the same amount of work on different inputs.
SHAPE_SEED = 2108_09876

# -- DIMACS CNF ----------------------------------------------------------------


def random_cnf(rng: random.Random, nvars: int, nclauses: int, hub_occ: int):
    """A 3-CNF whose variable 1 (the hub) occurs ``hub_occ`` times with each
    sign, so that an exists on it adds about ``hub_occ**2`` resolvents.

    Returns ``(dimacs_text, clauses)`` with clauses as tuples of signed
    1-based DIMACS integers.
    """
    clauses = []
    for k in range(nclauses):
        if k < 2 * hub_occ:
            others = rng.sample(range(2, nvars + 1), 2)
            hub = 1 if k < hub_occ else -1
            clause = [hub] + [v if rng.random() < 0.5 else -v for v in others]
        else:
            chosen = rng.sample(range(2, nvars + 1), 3)
            clause = [v if rng.random() < 0.5 else -v for v in chosen]
        rng.shuffle(clause)
        clauses.append(tuple(clause))
    rng.shuffle(clauses)
    lines = [f"p cnf {nvars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n", clauses


# -- compiled NNF circuits ---------------------------------------------------------


class _Nnf:
    """Writes ``.nnf`` lines; node ids are line positions."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.rows: list[tuple] = []  # ("L", lit) | ("A", kids) | ("O", var, kids)
        self._lits: dict[int, int] = {}
        self._consts: dict[bool, int] = {}

    def _push(self, row: tuple) -> int:
        self.rows.append(row)
        return len(self.rows) - 1

    def lit(self, signed: int) -> int:
        if signed not in self._lits:
            self._lits[signed] = self._push(("L", signed))
        return self._lits[signed]

    def const(self, value: bool) -> int:
        if value not in self._consts:
            self._consts[value] = self._push(("A", ()) if value else ("O", 0, ()))
        return self._consts[value]

    def and_(self, kids) -> int:
        return self._push(("A", tuple(kids)))

    def decision(self, var: int, low: int, high: int) -> int:
        """``(~x & low) | (x & high)`` on the 1-based variable ``var``."""
        left = self.and_([self.lit(-var), low])
        right = self.and_([self.lit(var), high])
        return self._push(("O", var, (left, right)))

    def text(self) -> str:
        edges = 0
        body = []
        for row in self.rows:
            if row[0] == "L":
                body.append(f"L {row[1]}")
            elif row[0] == "A":
                edges += len(row[1])
                body.append(" ".join(map(str, ("A", len(row[1]), *row[1]))))
            else:
                edges += len(row[2])
                body.append(" ".join(map(str, ("O", row[1], len(row[2]), *row[2]))))
        return "\n".join([f"nnf {len(self.rows)} {edges} {self.nvars}", *body]) + "\n"


def parity_nnf(rng: random.Random, nvars: int):
    """A deep, barely shared Decision-DNNF: the parity of all variables,
    decided in a seeded variable order.  About 8 nodes per variable."""
    out = _Nnf(nvars)
    order = list(range(1, nvars + 1))
    rng.shuffle(order)
    even, odd = out.const(True), out.const(False)
    for var in order:
        even, odd = out.decision(var, even, odd), out.decision(var, odd, even)
    # the last row is the root; wrap the even parity when it is chosen
    if rng.random() < 0.5:
        out.and_([even])
    return out.text(), out.rows


def shannon_nnf(rng: random.Random, nvars: int):
    """A wide, heavily shared Decision-DNNF: the Shannon expansion of a
    random truth table over ``nvars`` variables, in a seeded order."""
    out = _Nnf(nvars)
    order = list(range(1, nvars + 1))
    rng.shuffle(order)
    memo: dict[tuple[int, int], int] = {}

    def expand(pos: int, table: int) -> int:
        remaining = nvars - pos
        if remaining == 0:
            return out.const(bool(table & 1))
        key = (pos, table)
        if key not in memo:
            half = 1 << (remaining - 1)
            low, high = table & ((1 << half) - 1), table >> half
            lo, hi = expand(pos + 1, low), expand(pos + 1, high)
            memo[key] = lo if lo == hi else out.decision(order[pos], lo, hi)
        return memo[key]

    root = expand(0, rng.getrandbits(1 << nvars))
    if root != len(out.rows) - 1:
        root = out.and_([root])
    return out.text(), out.rows


# -- SDD circuits --------------------------------------------------------------------


def sdd_chain(rng: random.Random, nvars: int, width: int):
    """An SDD over a right-linear vtree: level ``i`` holds ``width``
    partitions ``(x_i, s) | (~x_i, s')`` whose subs come from level ``i+1``.

    Returns ``(text, rows)`` with rows ``("T"|"F",)``, ``("L", signed)`` or
    ``("D", ((prime, sub), ...))`` indexed by SDD node id.
    """
    rows: list[tuple] = []
    lines = []

    def push(row: tuple, line: str) -> int:
        rows.append(row)
        lines.append(line.format(id=len(rows) - 1))
        return len(rows) - 1

    t = push(("T",), "T {id}")
    f = push(("F",), "F {id}")
    order = list(range(1, nvars + 1))
    rng.shuffle(order)
    below = [t, f]
    for level, var in enumerate(reversed(order)):
        pos, neg = push(("L", var), f"L {{id}} {var}"), push(("L", -var), f"L {{id}} {-var}")
        count = 1 if level == nvars - 1 else width
        current = []
        for _ in range(count):
            a, b = rng.choice(below), rng.choice(below)
            while a == b:
                b = rng.choice(below)
            current.append(push(("D", ((pos, a), (neg, b))), f"D {{id}} 2 {pos} {a} {neg} {b}"))
        below = current
    return "\n".join(lines) + "\n", rows


# -- formulas -----------------------------------------------------------------------


def random_formula(rng: random.Random, nvars: int, size: int):
    """A random formula with about ``size`` leaves mentioning every variable."""
    leaves = [("lit", v, rng.random() < 0.5) for v in range(nvars)]
    while len(leaves) < size:
        leaves.append(("lit", rng.randrange(nvars), rng.random() < 0.5))
    rng.shuffle(leaves)
    nodes = leaves
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        a, b = nodes[i], nodes[i + 1]
        roll = rng.random()
        if roll < 0.4:
            node = ("and", a, b)
        elif roll < 0.8:
            node = ("or", a, b)
        elif roll < 0.9:
            node = ("imp", a, b)
        else:
            node = ("iff", a, b)
        if rng.random() < 0.15:
            node = ("not", node)
        nodes[i : i + 2] = [node]
    return nodes[0]


def formula_text(node, names) -> str:
    kind = node[0]
    if kind == "lit":
        return names[node[1]] if node[2] else "~" + names[node[1]]
    if kind == "const":
        return "true" if node[1] else "false"
    if kind == "not":
        return "~(" + formula_text(node[1], names) + ")"
    op = {"and": "&", "or": "|", "imp": "=>", "iff": "<=>"}[kind]
    return f"({formula_text(node[1], names)} {op} {formula_text(node[2], names)})"


# -- classifiers ------------------------------------------------------------------------


def decision_tree(rng: random.Random, nvars: int, nleaves: int):
    """A random decision tree with exactly ``nleaves`` leaves, as its leaf
    paths: ``[(path, label)]`` with paths as tuples of signed 1-based
    literals.  Leaves are split at random; half of them are positive."""
    paths = [()]
    while len(paths) < nleaves:
        open_ = [k for k, p in enumerate(paths) if len(p) < nvars]
        path = paths.pop(rng.choice(open_))
        used = {abs(x) for x in path}
        var = rng.choice([v for v in range(1, nvars + 1) if v not in used])
        paths += [path + (var,), path + (-var,)]
    labels = [k % 2 == 0 for k in range(len(paths))]
    rng.shuffle(labels)
    return list(zip(paths, labels))


def tree_bundle(leaves, names, protected) -> tuple[str, list, list]:
    """The classifier bundle of a decision tree: the positive side has one
    clause per negative leaf (its path negated), and vice versa."""
    positive = [tuple(-x for x in path) for path, label in leaves if not label]
    negative = [tuple(-x for x in path) for path, label in leaves if label]
    lines = [f"var {i + 1} {name}" for i, name in enumerate(names)]
    lines.append("protected " + " ".join(protected))
    for tag, clauses in (("delta", positive), ("negdelta", negative)):
        lines.append(f"section {tag}")
        lines.append(f"p cnf {len(names)} {len(clauses)}")
        lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n", positive, negative


# -- relabelling ---------------------------------------------------------------------------


def relabelling(rng: random.Random, nvars: int):
    """A random variable permutation and polarity flip: ``(perm, flips)``."""
    perm = list(range(nvars))
    rng.shuffle(perm)
    return perm, [rng.random() < 0.5 for _ in range(nvars)]


def relabel_ast(node, perm, flips):
    kind = node[0]
    if kind == "lit":
        return ("lit", perm[node[1]], node[2] != flips[node[1]])
    if kind == "const":
        return node
    return (kind,) + tuple(relabel_ast(child, perm, flips) for child in node[1:])


def relabel_code(code: int, perm, flips) -> int:
    """A literal code ``2*var + positive`` under the relabelling."""
    var = code >> 1
    return 2 * perm[var] + ((code & 1) ^ flips[var])


def relabel_signed(lit: int, perm, flips) -> int:
    """A signed 1-based DIMACS literal under the relabelling."""
    var = abs(lit) - 1
    out = perm[var] + 1
    return -out if (lit < 0) != flips[var] else out

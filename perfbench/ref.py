"""Independent reference checker.

Its own DIMACS, NNF, SDD and formula evaluators decide whether an output of
qlit is right.  It never calls into qlit, and ``qlit.oracle`` in particular
is never the judge.

Conventions: DIMACS literals are signed 1-based integers; formula variables
are 0-based indexes; a truth table is an int whose bit ``w`` is the value at
the world where variable ``i`` is true iff bit ``i`` of ``w`` is set (the
same world numbering as ``qlit.core.World.bits``).  Formula outputs arrive
as DAG lists ``[(kind, payload), ...]`` in topological order, the root
last: ``("const", bool)``, ``("lit", code)`` with code ``2*var + positive``,
``("not", child)``, ``("and"|"or", children)``.
"""

from __future__ import annotations

import random
from itertools import combinations

# -- CNF -----------------------------------------------------------------------------


def parse_dimacs(text: str):
    """``(nvars, clauses)`` with clauses as sorted tuples; raises ValueError
    on a malformed file or a repeated clause."""
    lines = text.split("\n")
    fields = lines[0].split()
    if len(fields) != 4 or fields[:2] != ["p", "cnf"]:
        raise ValueError("bad DIMACS header")
    nvars, count = int(fields[2]), int(fields[3])
    clauses = [tuple(sorted(map(int, line.split()[:-1]))) for line in lines[1:] if line]
    if len(clauses) != count or len(set(clauses)) != count:
        raise ValueError("clause count mismatch or repeated clause")
    return nvars, clauses


def drop_literal(clauses, drop):
    """Remove ``drop`` from every clause; an emptied clause makes the CNF
    ``false``, the set holding only the empty clause."""
    out = set()
    for clause in clauses:
        slim = tuple(x for x in clause if x != drop)
        if not slim:
            return {()}
        out.add(slim)
    return out


def cnf_forall(clauses, lit: int):
    """Forall ``lit`` on a CNF drops ``-lit`` from every clause."""
    return drop_literal(clauses, -lit)


def cnf_exists(clauses, lit: int):
    """Add every resolvent on ``lit``'s variable, then drop the clauses that
    contain ``lit``."""
    var = abs(lit)
    present = set(clauses)
    pos = [c for c in present if var in c]
    neg = [c for c in present if -var in c]
    for a in pos:
        for b in neg:
            merged = (set(a) | set(b)) - {var, -var}
            if not any(-x in merged for x in merged):
                present.add(tuple(sorted(merged)))
    return {c for c in present if lit not in c}


def cnf_quantify(clauses, op: str, lits):
    out = {tuple(sorted(c)) for c in clauses}
    for lit in lits:
        out = cnf_forall(out, lit) if op == "forall" else cnf_exists(out, lit)
    return out


def check_cnf_output(text: str, nvars: int, expected: set) -> int:
    """Raise ValueError unless ``text`` is exactly ``expected``; returns the
    literal count of the output."""
    got_vars, clauses = parse_dimacs(text)
    if got_vars != nvars:
        raise ValueError("variable count changed")
    if set(clauses) != expected:
        missing = len(expected - set(clauses))
        extra = len(set(clauses) - expected)
        raise ValueError(f"clause sets differ: {missing} missing, {extra} extra")
    return sum(len(c) for c in clauses)


# -- circuits ---------------------------------------------------------------------------


def parse_nnf(text: str):
    """``(nvars, rows, edges)`` from ``.nnf`` text, rows as in ``gen._Nnf``."""
    lines = text.split("\n")
    head = lines[0].split()
    if head[0] != "nnf":
        raise ValueError("bad NNF header")
    nodes, edges, nvars = map(int, head[1:])
    rows = []
    counted = 0
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split()
        numbers = list(map(int, fields[1:]))
        if fields[0] == "L":
            rows.append(("L", numbers[0]))
        elif fields[0] == "A":
            rows.append(("A", tuple(numbers[1:])))
            counted += numbers[0]
        else:
            rows.append(("O", numbers[0], tuple(numbers[2:])))
            counted += numbers[1]
        kids = rows[-1][-1] if rows[-1][0] != "L" else ()
        if any(not 0 <= k < len(rows) - 1 for k in kids):
            raise ValueError("child reference is not backwards")
    if len(rows) != nodes or counted != edges:
        raise ValueError("NNF header counts disagree with the body")
    return nvars, rows, edges


class Worlds:
    """``count`` seeded random worlds, one bit each, evaluated in parallel:
    the column of variable ``v`` is an int whose bit ``j`` is its value in
    world ``j``."""

    def __init__(self, nvars: int, seed: int, count: int = 64):
        rng = random.Random(seed)
        self.full = (1 << count) - 1
        self.columns = [0] + [rng.getrandbits(count) for _ in range(nvars)]

    def literal(self, signed: int, forced: dict) -> int:
        var = abs(signed)
        value = forced[var] * self.full if var in forced else self.columns[var]
        return value if signed > 0 else self.full & ~value

    def nnf(self, rows, forced: dict) -> int:
        values = []
        for row in rows:
            if row[0] == "L":
                values.append(self.literal(row[1], forced))
            elif row[0] == "A":
                acc = self.full
                for k in row[1]:
                    acc &= values[k]
                values.append(acc)
            else:
                acc = 0
                for k in row[2]:
                    acc |= values[k]
                values.append(acc)
        return values[-1]

    def sdd(self, rows, forced: dict) -> int:
        values = []
        for row in rows:
            if row[0] in ("T", "F"):
                values.append(self.full if row[0] == "T" else 0)
            elif row[0] == "L":
                values.append(self.literal(row[1], forced))
            else:
                acc = 0
                for prime, sub in row[1]:
                    acc |= values[prime] & values[sub]
                values.append(acc)
        return values[-1]


def quantified_columns(evaluate, worlds: Worlds, op: str, lits) -> int:
    """The quantified function on the sample worlds, applying ``lits`` in
    order: forall ``l`` is ``(l | f|~l) & f|l`` and exists ``l`` is
    ``f|l | (~l & f|~l)``, each evaluated on the input by forcing
    variables."""
    memo: dict = {}

    def value(depth: int, forced: dict) -> int:
        key = (depth, tuple(sorted(forced.items())))
        if key in memo:
            return memo[key]
        if depth == 0:
            out = evaluate(forced)
        else:
            lit = lits[depth - 1]
            var = abs(lit)
            here = worlds.literal(lit, forced)
            when_true = value(depth - 1, {**forced, var: lit > 0})
            when_false = value(depth - 1, {**forced, var: lit < 0})
            if op == "forall":
                out = (here | when_false) & when_true
            else:
                out = when_true | (worlds.full & ~here & when_false)
        memo[key] = out
        return out

    return value(len(lits), {})


def check_circuit_output(text: str, nvars: int, expected: int, worlds: Worlds) -> int:
    """Raise ValueError unless the output circuit matches ``expected`` on
    every sample world; returns its nodes plus edges."""
    got_vars, rows, edges = parse_nnf(text)
    if got_vars != nvars:
        raise ValueError("variable count changed")
    if worlds.nnf(rows, {}) != expected:
        raise ValueError("output disagrees with the quantified input on a sample world")
    return len(rows) + edges


# -- formulas and truth tables -----------------------------------------------------------


class Tables:
    """Bit-parallel truth tables over ``n`` variables."""

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << (1 << n)) - 1
        self.var = []
        for i in range(n):
            width = 1 << (i + 1)
            block = ((1 << (1 << i)) - 1) << (1 << i)
            while width < (1 << n):
                block |= block << width
                width *= 2
            self.var.append(block & self.full)

    def literal(self, var: int, positive: bool) -> int:
        return self.var[var] if positive else self.full & ~self.var[var]

    def ast(self, node) -> int:
        kind = node[0]
        if kind == "lit":
            return self.literal(node[1], node[2])
        if kind == "const":
            return self.full if node[1] else 0
        if kind == "not":
            return self.full & ~self.ast(node[1])
        a, b = self.ast(node[1]), self.ast(node[2])
        if kind == "and":
            return a & b
        if kind == "or":
            return a | b
        if kind == "imp":
            return (self.full & ~a) | b
        return self.full & ~(a ^ b)

    def dag(self, nodes) -> int:
        values = []
        for kind, payload in nodes:
            if kind == "const":
                values.append(self.full if payload else 0)
            elif kind == "lit":
                values.append(self.literal(payload >> 1, bool(payload & 1)))
            elif kind == "not":
                values.append(self.full & ~values[payload])
            elif kind == "and":
                acc = self.full
                for k in payload:
                    acc &= values[k]
                values.append(acc)
            else:
                acc = 0
                for k in payload:
                    acc |= values[k]
                values.append(acc)
        return values[-1]

    def term(self, codes) -> int:
        out = self.full
        for code in codes:
            out &= self.literal(code >> 1, bool(code & 1))
        return out

    def condition(self, table: int, var: int, value: bool) -> int:
        """``f`` with ``var`` fixed, as a table over all worlds."""
        ones = self.var[var]
        shift = 1 << var
        if value:
            kept = table & ones
            return kept | (kept >> shift)
        kept = table & (self.full & ~ones)
        return kept | (kept << shift)

    def quantify(self, table: int, op: str, items) -> int:
        """Items are ``("lit", code)`` or ``("var", index)``, applied in order."""
        for kind, x in items:
            if kind == "var":
                a, b = self.condition(table, x, True), self.condition(table, x, False)
                table = a & b if op == "forall" else a | b
                continue
            var, positive = x >> 1, bool(x & 1)
            lit = self.literal(var, positive)
            when_true = self.condition(table, var, positive)
            when_false = self.condition(table, var, not positive)
            if op == "forall":
                table = (lit | when_false) & when_true
            else:
                table = when_true | (self.full & ~lit & when_false)
        return table

    def flip(self, table: int, var: int) -> int:
        """The table with ``var`` negated in every world."""
        ones = self.var[var]
        shift = 1 << var
        return ((table & ones) >> shift) | ((table & self.full & ~ones) << shift)

    def boundary_pairs(self, table: int) -> set:
        """``(world, var)`` pairs where the world is a model and flipping the
        variable leaves the model set."""
        pairs = set()
        for i in range(self.n):
            crossing = table & ~self.flip(table, i)
            while crossing:
                low = crossing & -crossing
                pairs.add((low.bit_length() - 1, i))
                crossing ^= low
        return pairs

    def models(self, table: int) -> set:
        out = set()
        while table:
            low = table & -table
            out.add(low.bit_length() - 1)
            table ^= low
        return out


# -- classifiers ----------------------------------------------------------------------------


class ClassifierRef:
    """A classifier side as something that decides term entailment: either
    CNF clauses over codes (a term entails a CNF iff it hits every clause)
    or a truth table."""

    def __init__(self, n: int, positive, negative=None, tables: Tables | None = None):
        self.n = n
        self.tables = tables
        self.sides = {"positive": positive, "negative": negative}
        if tables is not None:
            self.sides["negative"] = tables.full & ~positive

    def entails(self, codes, side: str) -> bool:
        value = self.sides[side]
        if self.tables is None:
            chosen = set(codes)
            return all(any(c in chosen for c in clause) for clause in value)
        return self.tables.term(codes) & ~value == 0

    def decide(self, codes) -> str:
        for side in ("positive", "negative"):
            if self.entails(codes, side):
                return side
        return "undefined"

    def check_reasons(self, population, decision: str, reasons, brute_limit: int = 12) -> None:
        """Soundness and minimality of every reason, and completeness by
        brute force over sub-terms when the population is small."""
        pop = set(population)
        got = {tuple(sorted(r)) for r in reasons}
        if len(got) != len(reasons):
            raise ValueError("repeated reason")
        for reason in got:
            if not set(reason) <= pop:
                raise ValueError("reason is not a sub-term of the population")
            if not self.entails(reason, decision):
                raise ValueError("reason does not entail the decision")
            for drop in reason:
                if self.entails([c for c in reason if c != drop], decision):
                    raise ValueError("reason is not minimal")
        if len(pop) <= brute_limit:
            want = set()
            for size in range(len(pop) + 1):
                for sub in combinations(sorted(pop), size):
                    if any(set(w) <= set(sub) for w in want):
                        continue
                    if self.entails(sub, decision):
                        want.add(sub)
            if want != got:
                raise ValueError(
                    f"reason set incomplete: {len(want - got)} missing, {len(got - want)} extra"
                )

    def relevance_rows(self, population, decision: str):
        rows = []
        for code in sorted(population):
            erased = [c for c in population if c >> 1 != code >> 1]
            dropped = [c for c in population if c != code]
            feature_ok = self.decide(erased) == decision
            characteristic_ok = self.decide(dropped) == decision
            rows.append([code >> 1, code, feature_ok, characteristic_ok or feature_ok])
        return rows

    def biased(self, instance, protected) -> bool:
        """Some reassignment of the protected features flips the decision."""
        decision = self.decide(instance)
        base = [c for c in instance if c >> 1 not in protected]
        for bits in range(1 << len(protected)):
            world = base + [2 * v + (bits >> k & 1) for k, v in enumerate(protected)]
            if self.decide(world) != decision:
                return True
        return False


# -- self-test ----------------------------------------------------------------------------


def self_test() -> None:
    """The checker must reject a dropped clause, a flipped literal, a missing
    reason and a wrong rule count; raises AssertionError otherwise."""

    def rejects(check) -> bool:
        try:
            check()
        except ValueError:
            return True
        return False

    clauses = [(1, 2, -3), (-1, 3, 4), (2, -4, 5), (-2, 3, -5)]
    want = cnf_quantify(clauses, "forall", [3])
    good = sorted(want)
    text = "\n".join([f"p cnf 5 {len(good)}"] + [" ".join(map(str, c)) + " 0" for c in good]) + "\n"
    check_cnf_output(text, 5, want)
    dropped = "\n".join([f"p cnf 5 {len(good) - 1}"] + [" ".join(map(str, c)) + " 0" for c in good[1:]]) + "\n"
    flipped_rows = [tuple(-x if k == 0 else x for k, x in enumerate(c)) if i == 0 else c for i, c in enumerate(good)]
    flipped = "\n".join([f"p cnf 5 {len(good)}"] + [" ".join(map(str, c)) + " 0" for c in flipped_rows]) + "\n"
    if not rejects(lambda: check_cnf_output(dropped, 5, want)):
        raise AssertionError("checker accepted a dropped clause")
    if not rejects(lambda: check_cnf_output(flipped, 5, want)):
        raise AssertionError("checker accepted a flipped literal")

    # x1 | x2 as a decision circuit; forall ~x1 leaves x2
    rows = [("L", -1), ("L", 1), ("L", 2), ("A", ()), ("A", (0, 2)), ("A", (1, 3)), ("O", 1, (4, 5))]
    worlds = Worlds(2, 0)
    want_vec = quantified_columns(lambda forced: worlds.nnf(rows, forced), worlds, "forall", [-1])
    check_circuit_output("nnf 1 0 2\nL 2\n", 2, want_vec, worlds)
    if not rejects(lambda: check_circuit_output("nnf 1 0 2\nL -2\n", 2, want_vec, worlds)):
        raise AssertionError("checker accepted a flipped circuit literal")

    # the admission-style CNF classifier: reasons of a full instance
    ref = ClassifierRef(3, [(1, 3), (3, 5)], [(0, 2), (2, 4)])
    instance = [1, 3, 5]
    ref.check_reasons(instance, "positive", [[3], [1, 5]])
    ref = ClassifierRef(3, [(1, 3), (1, 5)], [(0,), (2, 4)])
    ref.check_reasons(instance, "positive", [[1], [3, 5]])
    if not rejects(lambda: ref.check_reasons(instance, "positive", [[1]])):
        raise AssertionError("checker accepted a missing reason")

    tables = Tables(3)
    table = tables.ast(("or", ("lit", 0, True), ("and", ("lit", 1, True), ("lit", 2, False))))
    count = len(tables.boundary_pairs(table))
    if count != 5:
        raise AssertionError(f"boundary rule count {count}, expected 5")
    if not rejects(lambda: check_count(count + 1, count, "rules")):
        raise AssertionError("checker accepted a wrong rule count")


def check_count(got: int, want: int, what: str) -> None:
    if got != want:
        raise ValueError(f"{what}: got {got}, expected {want}")


def expect(holds: bool, what: str) -> None:
    if not holds:
        raise ValueError(f"{what} differs from the reference")


if __name__ == "__main__":
    self_test()
    print("reference checker self-test passed")

"""Compiled circuits: the ``.nnf`` and SDD formats, structure verification
and the linear quantification routines on Decision-DNNF and SDD.

* ``.nnf``, one node per line after a ``nnf <V> <E> <n>`` header: ``L
  <lit>`` for literals, ``A <c> <ids...>`` for conjunctions, ``O <j> <c>
  <ids...>`` for disjunctions where ``j`` names the decision variable (0
  when there is none).  ``A 0`` is true, ``O 0 0`` is false.  Node ids are
  line positions (0-based) and must point backwards.  Header counts are
  validated, not trusted.

* SDD: ``T <id>`` / ``F <id>`` constants, ``L <id> <lit>`` literals and ``D
  <id> <k> <p1> <s1> ... <pk> <sk>`` partition nodes.  Ids are explicit,
  defined once, used after definition; the last defined node is the root.

A Decision-DNNF or SDD gets its class only from a verifier here (the
readers and the generators call them); a verifier's memory follows its
walk's frontier.
The quantification routines are single traversals that replace literals by
constants; for the universal case the same traversal also makes the
equivalence-preserving reshaping (the shift), one rule on the or-node
partitions that the Decision-DNNF and SDD verifiers record.  Every routine
here is oracle-checked against its definitional counterpart by the test
suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .core import Annotation, Circuit, CircuitBuilder, Universe, _var_patterns, rebuild, truth_table
from .errors import ParseError, StructureError
from .io import _check_variables, _code, _ints, _note_name, _universe_names
from .tractable import _codes


# -- circuit structure verification -----------------------------------------------


def _var_bitmasks(circuit: Circuit) -> tuple[list[int], dict[str, int]]:
    """The reachable node ids in order, and by kind the first gate whose
    children share a variable.  The variables under a node are a bitmask,
    dropped once the node's last reader has read it, so memory follows the
    walk's frontier."""
    kinds, args = circuit.kinds, circuit.args
    order = circuit.order()
    last = {child: i for i in order if type(args[i]) is tuple for child in args[i]}
    masks = [0] * len(kinds)
    shared: dict[str, int] = {}
    for i in order:
        arg = args[i]
        if type(arg) is tuple:
            acc = 0
            for child in arg:
                if acc & masks[child]:
                    shared.setdefault(kinds[i], i)
                acc |= masks[child]
            masks[i] = acc
            for child in arg:  # after the reads: a gate may read a child twice
                if last[child] == i:
                    masks[child] = 0
        elif kinds[i] == "lit":
            masks[i] = 1 << (arg >> 1)
    return order, shared


def _decomposable(circuit: Circuit) -> list[int]:
    """The reachable node ids in order, after checking that no and-node's
    children share a variable."""
    order, shared = _var_bitmasks(circuit)
    if "and" in shared:
        raise StructureError("and-node children share variables", shared["and"])
    return order


def verify_dnnf(circuit: Circuit) -> Circuit:
    """Check decomposability: no and-node's children share a variable.

    Returns a DNNF sharing the nodes; the argument is unchanged.  A circuit
    that already has a proved class, DNNF or stronger, is returned as it
    is, without a walk.
    """
    if circuit.annotation != Annotation.NNF:
        return circuit
    _decomposable(circuit)
    return circuit.with_annotation(Annotation.DNNF)


def _decision_table(circuit: Circuit, order) -> dict[int, tuple]:
    """Map each or-node among ``order`` to the partition ``((l, alpha),
    (~l, beta))`` of its ``(l & alpha) | (~l & beta)``: the ids of the
    decision literals, and of each branch's other children, literals last
    in code order.  Raises at the first node without the decision shape."""
    kinds, args, decisions = circuit.kinds, circuit.args, circuit.decisions
    table = {}
    for i in order:
        if kinds[i] != "or":
            continue
        children = args[i]
        if len(children) != 2:
            raise StructureError("decision node needs exactly two branches", i)
        branches = []
        for child in children:
            while kinds[child] == "and" and len(args[child]) == 1:
                child = args[child][0]
            if kinds[child] == "and":
                branches.append(args[child])
            elif kinds[child] == "lit":
                branches.append((child,))
            else:
                raise StructureError("decision branch is not a literal conjunction", i)
        first, second = branches
        flipped = {args[n] ^ 1: n for n in second if kinds[n] == "lit"}
        decided = sorted([(args[n], n) for n in first if kinds[n] == "lit" and args[n] in flipped])
        if not decided:
            raise StructureError("branches do not decide a common variable", i)
        code, lit = decided[0]
        if decisions[i] >= 0 and decisions[i] != code >> 1:
            raise StructureError("declared decision variable does not match shape", i)
        negation = flipped[code]
        alpha = [n for n in first if kinds[n] != "lit"]
        beta = [n for n in second if kinds[n] != "lit"]
        if len(alpha) + 1 < len(first):
            alpha += [n for _, n in sorted(
                (args[n], n) for n in first if kinds[n] == "lit" and n != lit)]
        if len(beta) + 1 < len(second):
            beta += [n for _, n in sorted(
                (args[n], n) for n in second if kinds[n] == "lit" and n != negation)]
        table[i] = ((lit, tuple(alpha)), (negation, tuple(beta)))
    return table


def verify_decision_dnnf(circuit: Circuit) -> Circuit:
    """Check decomposability plus the decision shape of every or-node; the
    verified circuit keeps each node's partition, for the shift."""
    return circuit.with_annotation(Annotation.DECISION_DNNF, _decision_table(circuit, _decomposable(circuit)))


SDD_SEMANTIC_CHECK_CAP = 10  # prime variables; syntactic rules used above this


def _sdd_elements(circuit: Circuit, or_id: int) -> list[tuple[int, int]]:
    """The (prime, sub) pairs of an SDD or-node: its children's children."""
    kinds, args = circuit.kinds, circuit.args
    elements = []
    for child in args[or_id]:
        pair = args[child]
        if kinds[child] != "and" or len(pair) != 2:
            raise StructureError("or-node child is not a prime/sub pair", or_id)
        elements.append(pair)
    return elements


def _term_shape_codes(circuit: Circuit, root: int) -> list[int] | None:
    """Literal codes when ``root`` is a literal, a conjunction of literals, or
    the partition ``(l & t) | (~l & false)`` that :func:`emit_sdd` writes for
    the term ``l & t``."""
    kinds, args = circuit.kinds, circuit.args
    codes = []
    while kinds[root] == "or" and len(args[root]) == 2:
        (head, rest), (other, sub) = _sdd_elements(circuit, root)
        if kinds[head] != "lit" or kinds[other] != "lit" or args[head] ^ 1 != args[other] or kinds[sub] != "false":
            return None
        codes.append(args[head])
        root = rest
    if kinds[root] == "lit":
        return [*codes, args[root]]
    if kinds[root] != "and" or any(kinds[child] != "lit" for child in args[root]):
        return None
    return codes + [args[child] for child in args[root]]


def verify_sdd(circuit: Circuit) -> Circuit:
    """Check decomposability plus the prime/sub partition of every or-node.

    Partitions are verified semantically (exhaustively over the prime
    variables, read from one walk of the primes) up to 10 prime variables.
    Above that every prime must be term shaped (see
    :func:`_term_shape_codes`) and the terms must pass
    :func:`partition_fault`: they clash pairwise and their shares 2**-|t|
    sum to 1.  The verified circuit keeps each node's partition
    ``((p1, (s1,)), ...)``, for the shift.
    """
    order = _decomposable(circuit)
    kinds, args = circuit.kinds, circuit.args
    partitions = {}
    for i in order:
        if kinds[i] != "or":
            continue
        elements = _sdd_elements(circuit, i)
        primes = tuple(prime for prime, _ in elements)
        prime_vars = sorted({args[n] >> 1 for n in circuit.order(primes) if kinds[n] == "lit"})
        if len(prime_vars) <= SDD_SEMANTIC_CHECK_CAP:
            _check_partition_semantic(circuit, i, primes, prime_vars)
        else:
            _check_partition_syntactic(circuit, i, elements)
        partitions[i] = tuple((prime, (sub,)) for prime, sub in elements)
    return circuit.with_annotation(Annotation.SDD, partitions)


def _check_partition_semantic(circuit: Circuit, or_id: int, primes: tuple, prime_vars: list[int]) -> None:
    """Truth tables of the primes over their variables, made in one walk,
    must partition all rows."""
    masks = dict(zip(prime_vars, _var_patterns(len(prime_vars))))
    full = (1 << (1 << len(prime_vars))) - 1
    union = 0
    for vector in truth_table(circuit, masks, full, root=primes):
        if vector == 0:
            raise StructureError("inconsistent prime", or_id)
        if union & vector:
            raise StructureError("primes are not pairwise inconsistent", or_id)
        union |= vector
    if union != full:
        raise StructureError("primes do not cover all assignments", or_id)


def _check_partition_syntactic(circuit: Circuit, or_id: int, elements) -> None:
    terms = [_term_shape_codes(circuit, prime) for prime, _ in elements]
    if None in terms:
        raise StructureError("prime too large for semantic check and not term shaped", or_id)
    fault = partition_fault([sum(map((1).__lshift__, codes)) for codes in terms])
    if fault:
        raise StructureError("primes are not pairwise inconsistent" if fault == "overlap"
                             else "primes do not cover all assignments", or_id)


def partition_fault(masks: Sequence[int]) -> str | None:
    """``None`` when the consistent terms with literal-code masks ``masks``
    (bit ``c`` for code ``c``) partition the worlds, ``"overlap"`` when two of
    them do not clash (neither holds the complement of a literal of the
    other), else ``"gap"``: their shares 2**-|t| do not sum to 1.  Masks of
    non-valid clauses ask the same of the negated clauses.

    A group of masks that all hold one variable, in both signs, splits on it
    as a decision tree's leaves do; only a group with no such variable is
    compared pair by pair.
    """
    low = 4 ** (max(masks, default=0).bit_length() // 2 + 1) // 3  # bit 2v: the literal ~v
    groups = [masks]
    while groups:
        group = groups.pop()
        held, union = -1, 0
        for mask in group:
            held &= mask | mask >> 1
            union |= mask
        split = held & union & union >> 1 & low  # in every mask, in both signs
        if split:
            bit = split & -split
            groups += [mask for mask in group if mask & bit], [mask for mask in group if not mask & bit]
            continue
        flipped = [(mask & low) << 1 | mask >> 1 & low for mask in group]
        for k in range(1, len(group)):
            if not all(map(group[k].__and__, flipped[:k])):
                return "overlap"
    depth = max(map(int.bit_count, masks), default=0)
    return None if sum(1 << depth - mask.bit_count() for mask in masks) == 1 << depth else "gap"


# -- circuit quantification --------------------------------------------------------


def _require(circuit: Circuit, annotation: str) -> Circuit:
    """The circuit, after checking that a verifier proved it ``annotation``."""
    if circuit.annotation != annotation:
        raise TypeError(f"operation needs a verified {annotation} circuit, got {circuit.annotation}")
    return circuit


def _quantify_circuit(circuit: Circuit, lits: Iterable, annotation: str, forall: bool) -> Circuit:
    """Both routines on a Decision-DNNF or SDD: existential replaces each
    quantified literal by ``true`` (a DNNF results); universal replaces the
    negation of each by ``false`` within the shift."""
    circuit = _require(circuit, annotation)
    codes = set(_codes(circuit.universe, lits))
    if forall:
        return _shift(circuit, {code ^ 1: False for code in codes})
    builder = CircuitBuilder(circuit.universe)
    root = rebuild(circuit, builder, dict.fromkeys(codes, True))[circuit.root]
    return builder.finish(root, prune=True).with_annotation(Annotation.DNNF)


def _shift(circuit: Circuit, replace: dict[int, bool]) -> Circuit:
    """The shift of a verified Decision-DNNF or SDD, with the literal codes
    of ``replace`` replaced by constants: each or-node with the partition
    ``((p1, subs1), ..., (pn, subsn))`` becomes ``(~p1 | and(subs1)) & ...
    & (~pn | and(subsn))``.  The prime complements come from one dual
    rebuild, which reads the replacement through the dual, and the rest
    from one rebuild that makes no node the shifted or-nodes do not read."""
    builder = CircuitBuilder(circuit.universe)
    fold = builder.fold
    partitions = circuit.partitions
    negated = rebuild(
        circuit, builder, {code ^ 1: not value for code, value in replace.items()},
        dual=True, roots=[prime for elements in partitions.values() for prime, _ in elements],
    )
    reads = {i: tuple(s for _, subs in elements for s in subs) for i, elements in partitions.items()}

    def make(i: int, image: dict) -> int:
        return fold("and", [fold("or", [negated[prime], fold("and", [image[s] for s in subs])])
                            for prime, subs in partitions[i]])

    root = rebuild(circuit, builder, replace, shift=(reads, make))[circuit.root]
    return builder.finish(root, prune=True)


def ddnnf_exists(circuit: Circuit, lits: Iterable) -> Circuit:
    """Existential quantification on a Decision-DNNF: replace each quantified
    literal by ``true``.  Single pass; the result is a DNNF."""
    return _quantify_circuit(circuit, lits, Annotation.DECISION_DNNF, forall=False)


def ddnnf_shift(circuit: Circuit) -> Circuit:
    """Rewrite every decision ``(l & a) | (~l & b)``, the partition with the
    primes ``l`` and ``~l``, into the equivalent ``(~l | a) & (l | b)``,
    after which no disjunction shares variables across its disjuncts.  One
    linear pass, which never makes the branch conjunctions."""
    return _shift(_require(circuit, Annotation.DECISION_DNNF), {})


def ddnnf_forall(circuit: Circuit, lits: Iterable) -> Circuit:
    """Universal quantification on a Decision-DNNF: the shift, with the
    negation of each quantified literal replaced by ``false``.  One linear
    pass, which builds only the nodes the shift reads."""
    return _quantify_circuit(circuit, lits, Annotation.DECISION_DNNF, forall=True)


def sdd_exists(circuit: Circuit, lits: Iterable) -> Circuit:
    """Existential quantification on an SDD: replace each quantified literal
    by ``true``.  Single pass; the result is a DNNF."""
    return _quantify_circuit(circuit, lits, Annotation.SDD, forall=False)


def sdd_shift(circuit: Circuit) -> Circuit:
    """Rewrite every ``(p1 & s1) | ... | (pn & sn)`` into the equivalent
    ``(~p1 | s1) & ... & (~pn | sn)``.

    Prime negations come from one dual rebuild of all primes, so the output
    has at most twice the nodes of the input; disjuncts never share
    variables.  One pass, which never makes the element conjunctions.
    """
    return _shift(_require(circuit, Annotation.SDD), {})


def sdd_forall(circuit: Circuit, lits: Iterable) -> Circuit:
    """Universal quantification on an SDD: the shift, with the negation of
    each quantified literal replaced by ``false``.  One linear pass, which
    builds only the nodes the shift reads."""
    return _quantify_circuit(circuit, lits, Annotation.SDD, forall=True)


# -- compiled NNF circuits -----------------------------------------------------------


def parse_nnf(text: str, universe: Universe | None = None) -> Circuit:
    """Parse a compiled circuit, with the strongest class that a verifier
    proves: Decision-DNNF, DNNF, else plain NNF.  The universe is built once
    every line has been read and checked (a builder reads its universe only
    in ``finish``)."""
    lines = text.splitlines()
    header = None
    builder = CircuitBuilder(universe)
    ids: list[int] = []
    add, push, at = builder._add, ids.append, ids.__getitem__
    declared_edges = 0
    edges = 0
    decisions_declared = True  # every or-node names its decision variable
    names: dict[int, tuple[str, int]] = {}

    for number, line in enumerate(lines, 1):
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        if kind[0] == "c":
            _note_name(line, names, number)
            continue
        if header is None:
            if kind != "nnf" or len(fields) != 4:
                raise ParseError("expected header 'nnf <nodes> <edges> <vars>'", number)
            try:
                header = _ints(fields[1:])
            except ValueError:
                raise ParseError("non-numeric header counts", number) from None
            nvars = header[2]
            _check_variables(nvars, number)
            if universe is None:
                spec = _universe_names(names, nvars)
                nvars = max(nvars, 0)  # a negative count declares no variable
            elif len(universe) != nvars:
                raise ParseError(
                    f"header declares {nvars} variables, universe has {len(universe)}",
                    number,
                )
            declared_edges = header[1]
            continue

        try:
            numbers = _ints(fields[1:])
        except ValueError:
            raise ParseError("non-numeric node fields", number) from None

        if kind == "L":
            if len(numbers) != 1 or numbers[0] == 0:
                raise ParseError("literal node needs one nonzero integer", number)
            value = numbers[0]
            if abs(value) > nvars:
                raise ParseError(f"literal {value} out of range", number)
            push(add("lit", _code(value)))
            continue
        if kind == "A":
            if not numbers or numbers[0] != len(numbers) - 1:
                raise ParseError("and-node child count mismatch", number)
            gate, decision_var = "and", 0
        elif kind == "O":
            if len(numbers) < 2 or numbers[1] != len(numbers) - 2:
                raise ParseError("or-node child count mismatch", number)
            gate, decision_var = "or", numbers[0]
            if decision_var < 0 or decision_var > nvars:
                raise ParseError(f"decision variable {decision_var} out of range", number)
            del numbers[0]
        else:
            raise ParseError(f"unknown node kind {kind!r}", number)
        # the children are the builder ids of the earlier lines named
        del numbers[0]
        if not numbers:
            push(builder.const(gate == "and"))
            continue
        if min(numbers) < 0 or max(numbers) >= len(ids):
            bad = next(ref for ref in numbers if not 0 <= ref < len(ids))
            raise ParseError(f"forward or invalid reference {bad}", number)
        edges += len(numbers)
        push(add(gate, tuple(map(at, numbers)), decision_var - 1))
        decisions_declared = decisions_declared and (decision_var != 0 or gate == "and")

    if header is None:
        raise ParseError("missing 'nnf' header", max(len(lines), 1))
    if not ids:
        raise ParseError("circuit has no nodes", len(lines))
    if header[0] != len(ids):
        raise ParseError(
            f"header declares {header[0]} nodes, found {len(ids)}", len(lines)
        )
    if declared_edges != edges:
        raise ParseError(
            f"header declares {declared_edges} edges, found {edges}", len(lines)
        )

    builder.universe = Universe(spec) if universe is None else universe
    circuit = builder.finish(ids[-1])
    if decisions_declared:
        try:
            return verify_decision_dnnf(circuit)
        except StructureError:
            pass
    try:
        return verify_dnnf(circuit)
    except StructureError:
        return circuit


def emit_nnf(circuit: Circuit) -> str:
    universe = circuit.universe
    dimacs = universe._dimacs
    body: list[str] = []
    edges = 0
    for kind, arg, decision in zip(circuit.kinds, circuit.args, circuit.decisions):
        if kind == "lit":
            body.append("L " + dimacs[arg])
        elif kind == "and":
            edges += len(arg)
            body.append("A " + " ".join(map(str, (len(arg), *arg))))
        elif kind == "or":
            edges += len(arg)
            body.append(f"O {decision + 1} " + " ".join(map(str, (len(arg), *arg))))
        else:
            body.append("A 0" if kind == "true" else "O 0 0")
    header = f"nnf {len(body)} {edges} {len(universe)}"
    return "\n".join([header, *body]) + "\n"


# -- SDD circuits ----------------------------------------------------------------------


def parse_sdd(text: str, universe: Universe | None = None) -> Circuit:
    """Parse an SDD description and verify its partition invariants."""
    lines = text.splitlines()
    entries: list[tuple[int, str, list[int], int]] = []  # (id, kind, payload, line)
    max_var = 0
    names: dict[int, tuple[str, int]] = {}
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            _note_name(line, names, number)
            continue
        fields = line.split()
        kind = fields[0]
        try:
            numbers = _ints(fields[1:])
        except ValueError:
            raise ParseError("non-numeric fields", number) from None
        if kind in ("T", "F"):
            if len(numbers) != 1:
                raise ParseError("constant node needs exactly an id", number)
        elif kind == "L":
            if len(numbers) != 2 or numbers[1] == 0:
                raise ParseError("literal node needs an id and a nonzero literal", number)
            max_var = max(max_var, abs(numbers[1]))
            _check_variables(max_var, number)
        elif kind == "D":
            if len(numbers) < 2:
                raise ParseError("decomposition node needs an id and a count", number)
            count = numbers[1]
            if count < 1 or len(numbers) != 2 + 2 * count:
                raise ParseError(
                    f"decomposition declares {count} elements, fields disagree", number
                )
        else:
            raise ParseError(f"unknown node kind {kind!r}", number)
        entries.append((numbers[0], kind, numbers[1:], number))

    if not entries:
        raise ParseError("empty SDD description", max(len(lines), 1))
    # the universe is built once every line has been checked (see parse_nnf)
    spec = _universe_names(names, max_var) if universe is None else None
    nvars = max_var if universe is None else len(universe)
    builder = CircuitBuilder(universe)
    by_id: dict[int, int] = {}
    root = -1
    for node_id, kind, payload, number in entries:
        if node_id in by_id:
            raise ParseError(f"node id {node_id} defined twice", number)
        if kind == "T":
            root = builder.const(True)
        elif kind == "F":
            root = builder.const(False)
        elif kind == "L":
            value = payload[0]
            if abs(value) > nvars:
                raise ParseError(f"literal {value} out of range", number)
            root = builder.lit(_code(value))
        else:
            count = payload[0]
            children = []
            for k in range(count):
                p_id, s_id = payload[1 + 2 * k], payload[2 + 2 * k]
                for ref in (p_id, s_id):
                    if ref not in by_id:
                        raise ParseError(f"reference to undefined node {ref}", number)
                children.append(builder.add_and((by_id[p_id], by_id[s_id])))
            root = builder.add_or(children)
        by_id[node_id] = root

    builder.universe = Universe(spec) if universe is None else universe
    return verify_sdd(builder.finish(root))


def emit_sdd(circuit: Circuit) -> str:
    """Serialize an SDD-annotated circuit; prime/sub pair nodes are implicit.

    A prime that is a plain conjunction of literals has no node kind of its
    own in the format, so it is rewritten as nested two-element partitions
    ``(l & rest) | (~l & false)``.  Nodes are written in circuit order, which
    puts every definition before its uses; each line defines the node whose
    id is its line number.
    """
    kinds, args = circuit.kinds, circuit.args
    lines: list[str] = []
    leaves: dict[tuple, int] = {}  # ("lit", code) or (constant kind,) -> id
    ids: dict[int, int] = {}  # circuit node -> id

    def define(line: str) -> int:
        lines.append(line.format(len(lines)))
        return len(lines) - 1

    def leaf(key: tuple, line: str) -> int:
        if key not in leaves:
            leaves[key] = define(line)
        return leaves[key]

    def literal(code: int) -> int:
        return leaf(("lit", code), "L {} " + circuit.universe._dimacs[code])

    order = circuit.order()
    # the root, primes and subs; pair nodes and the literals of terms are implicit
    written = {circuit.root}
    for i in order:
        if kinds[i] == "or":
            written.update(j for pair in _sdd_elements(circuit, i) for j in pair)
    for i in order:
        if i not in written:
            continue
        kind = kinds[i]
        if kind == "true" or kind == "false":
            ids[i] = leaf((kind,), "T {}" if kind == "true" else "F {}")
        elif kind == "lit":
            ids[i] = literal(args[i])
        elif kind == "and":
            codes = _term_shape_codes(circuit, i)
            if not codes:
                raise StructureError("only literal-conjunction primes can be serialized", i)
            term = literal(codes[-1])
            for head in reversed(codes[:-1]):
                parts = (literal(head), term, literal(head ^ 1), leaf(("false",), "F {}"))
                term = define("D {{}} 2 {} {} {} {}".format(*parts))
            ids[i] = term
        else:
            refs = [f"{ids[p]} {ids[s]}" for p, s in _sdd_elements(circuit, i)]
            ids[i] = define(f"D {{}} {len(refs)} {' '.join(refs)}")
    return "\n".join(lines) + "\n"


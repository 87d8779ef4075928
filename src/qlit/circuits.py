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

Both readers make one pass over the lines, split one at a time, with no
function call per node: ``int`` reads the fields of an ASCII text with no
``_`` (else :func:`~qlit.io._ints`), and each node is interned straight
into the builder's cache.  An error's line is worked out only when there
is an error, by counting the lines that are neither blank nor comments.
A Decision-DNNF or SDD gets its class only from a verifier here (the
readers and the generators call them); a verifier's memory follows its
walk's frontier.  The quantification routines are single traversals that
replace literals by constants; for the universal case the same traversal
also makes the equivalence-preserving reshaping (the shift), one rule on
the or-node partitions that the Decision-DNNF and SDD verifiers record.
Every routine here is oracle-checked against its definitional counterpart
by the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, compress, islice
from operator import itemgetter

from .core import Annotation, Circuit, CircuitBuilder, Universe, _last_readers, _var_patterns, rebuild, truth_table
from .errors import ParseError, StructureError
from .io import MAX_VARIABLES, _check_variables, _ints, _note_name, _universe_names
from .tractable import _codes


# -- circuit structure verification -----------------------------------------------


def _var_bitmasks(circuit: Circuit) -> tuple[list[int], dict[str, int]]:
    """The reachable node ids in order, and by kind the first gate whose
    children share a variable.  The variables under a node are a bitmask,
    dropped once the node's last reader has read it, so memory follows the
    walk's frontier.  The walk runs only when a node other than the root
    has no parent; else every node is reachable (children come first)."""
    kinds, args = circuit.kinds, circuit.args
    orphans = len(set(chain.from_iterable(arg for arg in args if type(arg) is tuple))) != len(kinds) - 1
    order = circuit.order() if orphans or circuit.root != len(kinds) - 1 else list(range(len(kinds)))
    last = _last_readers(args, order)
    masks = [0] * len(kinds)
    shared: dict[str, int] = {}
    for i in order:
        arg = args[i]
        if type(arg) is not tuple:
            if kinds[i] == "lit":
                masks[i] = 1 << (arg >> 1)
        elif len(arg) == 2:  # the usual gate, without the loops
            a, b = arg
            if masks[a] & masks[b]:
                shared.setdefault(kinds[i], i)
            masks[i] = masks[a] | masks[b]
            if last[a] == i:
                masks[a] = 0
            if last[b] == i:
                masks[b] = 0
        else:
            acc = 0
            for child in arg:
                if acc & masks[child]:
                    shared.setdefault(kinds[i], i)
                acc |= masks[child]
            masks[i] = acc
            for child in arg:  # after the reads: a gate may read a child twice
                if last[child] == i:
                    masks[child] = 0
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
    Returns a DNNF sharing the nodes, the argument unchanged; a circuit with
    a proved class, DNNF or stronger, is returned as it is, without a walk."""
    if circuit.annotation != Annotation.NNF:
        return circuit
    _decomposable(circuit)
    return circuit.with_annotation(Annotation.DNNF)


def _decision_table(circuit: Circuit, order) -> dict[int, tuple]:
    """Map each or-node among ``order`` to the partition ``((l, alpha),
    (~l, beta))`` of its ``(l & alpha) | (~l & beta)``: the ids of the
    decision literals, and of each branch's other children, literals last
    in code order (one literal per branch needs no sort).  Raises at the
    first node without the decision shape."""
    kinds, args, decisions = circuit.kinds, circuit.args, circuit.decisions
    table = {}
    for i in compress(order, map("or".__eq__, map(kinds.__getitem__, order))):
        if len(args[i]) != 2:
            raise StructureError("decision node needs exactly two branches", i)
        sides = []
        for child in args[i]:
            while kinds[child] == "and" and len(args[child]) == 1:
                child = args[child][0]
            if kinds[child] not in ("and", "lit"):
                raise StructureError("decision branch is not a literal conjunction", i)
            lits, rest = [], []
            for n in args[child] if kinds[child] == "and" else (child,):
                (lits if kinds[n] == "lit" else rest).append(n)
            sides += lits, rest
        lits, alpha, negs, beta = sides
        if len(lits) == len(negs) == 1 and args[lits[0]] ^ 1 == args[negs[0]]:
            lit, negation = lits[0], negs[0]
        else:
            flipped = {args[n] ^ 1: n for n in negs}
            decided = sorted([(args[n], n) for n in lits if args[n] in flipped])
            if not decided:
                raise StructureError("branches do not decide a common variable", i)
            lit, negation = decided[0][1], flipped[decided[0][0]]
            alpha += [n for _, n in sorted((args[n], n) for n in lits if n != lit)]
            beta += [n for _, n in sorted((args[n], n) for n in negs if n != negation)]
        if decisions[i] >= 0 and decisions[i] != args[lit] >> 1:
            raise StructureError("declared decision variable does not match shape", i)
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

    Two complementary literal primes partition the worlds.  Other partitions
    are verified semantically (exhaustively over the prime variables, read
    from one walk of the primes) up to 10 prime variables; above that every
    prime must be term shaped (see :func:`_term_shape_codes`) and the terms
    must pass :func:`partition_fault`: they clash pairwise and their shares
    2**-|t| sum to 1.  The verified circuit keeps each node's partition
    ``((p1, (s1,)), ...)``, for the shift.
    """
    order = _decomposable(circuit)
    kinds, args = circuit.kinds, circuit.args
    partitions = {}
    for i in compress(order, map("or".__eq__, map(kinds.__getitem__, order))):
        elements = _sdd_elements(circuit, i)
        primes = tuple(map(itemgetter(0), elements))
        p, q = primes[0], primes[-1]
        if not (len(primes) == 2 and kinds[p] == kinds[q] == "lit" and args[p] ^ 1 == args[q]):
            prime_vars = sorted({args[n] >> 1 for n in circuit.order(primes) if kinds[n] == "lit"})
            if len(prime_vars) <= SDD_SEMANTIC_CHECK_CAP:
                _check_partition_semantic(circuit, i, primes, prime_vars)
            else:
                _check_partition_syntactic(circuit, i, elements)
        partitions[i] = tuple(zip(primes, zip(map(itemgetter(1), elements))))  # ((p1, (s1,)), ...)
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
    ``(~p1 | s1) & ... & (~pn | sn)``.  Prime negations come from one dual
    rebuild of all primes, so the output has at most twice the nodes of the
    input; disjuncts never share variables.  One pass, which never makes the
    element conjunctions."""
    return _shift(_require(circuit, Annotation.SDD), {})


def sdd_forall(circuit: Circuit, lits: Iterable) -> Circuit:
    """Universal quantification on an SDD: the shift, with the negation of
    each quantified literal replaced by ``false``.  One linear pass, which
    builds only the nodes the shift reads."""
    return _quantify_circuit(circuit, lits, Annotation.SDD, forall=True)


# -- compiled NNF circuits -----------------------------------------------------------


class _Fault(Exception):
    """A reader's error on the line it reads; the line is counted after."""


def _rows(text: str):
    """The lines; the fields of each line that is neither blank nor a comment,
    split as read; the names of all ``c var`` comments; and whether ``int``
    may read the fields (ASCII with no ``_``; else :func:`_ints` does)."""
    lines = text.splitlines()
    names: dict[int, tuple[str, int]] = {}
    comments = [k for k, line in enumerate(lines) if line.lstrip()[:1] == "c"] if "c" in text else ()
    for k in comments:
        _note_name(lines[k], names, k + 1)
    body = [line for line in lines if line.lstrip()[:1] != "c"] if comments else lines
    return lines, filter(None, map(str.split, body)), names, text.isascii() and "_" not in text


def _line_of(lines: list[str], row: int) -> int:
    """The line of row ``row`` (from 0) of those neither blank nor comments."""
    return next(islice((k for k, line in enumerate(lines, 1) if line.lstrip()[:1] not in ("", "c")), row, None))


def parse_nnf(text: str, universe: Universe | None = None) -> Circuit:
    """Parse a compiled circuit, with the strongest class that a verifier
    proves: Decision-DNNF, DNNF, else plain NNF.  The universe is built once
    every line has been read and checked (a builder reads its universe only
    in ``finish``)."""
    lines, rows, names, plain = _rows(text)
    header = next(rows, None)
    if header is None:
        raise ParseError("missing 'nnf' header", max(len(lines), 1))
    number = _line_of(lines, 0)
    if header[0] != "nnf" or len(header) != 4:
        raise ParseError("expected header 'nnf <nodes> <edges> <vars>'", number)
    try:
        nodes, declared_edges, nvars = _ints(header[1:])
    except ValueError:
        raise ParseError("non-numeric header counts", number) from None
    _check_variables(nvars, number)
    if universe is None:
        spec = _universe_names(names, nvars)
        nvars = max(nvars, 0)  # a negative count declares no variable
    elif len(universe) != nvars:
        raise ParseError(f"header declares {nvars} variables, universe has {len(universe)}", number)

    builder = CircuitBuilder(universe)
    cache, intern = builder._cache, builder._cache.setdefault  # a new node's id is the cache's size
    ids: list[int] = []  # the builder id of each node line
    push, at = ids.append, ids.__getitem__
    edges, decided = 0, True
    try:
        for fields in rows:
            kind = fields[0]
            try:
                numbers = list(map(int, fields[1:])) if plain else _ints(fields[1:])
            except ValueError:
                raise _Fault("non-numeric node fields") from None
            if kind == "A":
                if not numbers or numbers.pop(0) != len(numbers):  # the count, then the children left
                    raise _Fault("and-node child count mismatch")
                gate, decision = "and", -1
            elif kind == "L":
                value = numbers[0] if len(numbers) == 1 else 0
                if not value or not -nvars <= value <= nvars:
                    raise _Fault(f"literal {value} out of range" if value else "literal node needs one nonzero integer")
                push(intern(("lit", 2 * value - 1 if value > 0 else -2 * value - 2, -1), len(cache)))
                continue
            elif kind == "O":
                if len(numbers) < 2 or numbers[1] != len(numbers) - 2:
                    raise _Fault("or-node child count mismatch")
                if not 0 <= numbers[0] <= nvars:
                    raise _Fault(f"decision variable {numbers[0]} out of range")
                gate, decision = "or", numbers[0] - 1
                del numbers[:2]
                decided = decided and (decision >= 0 or not numbers)
            else:
                raise _Fault(f"unknown node kind {kind!r}")
            if not numbers:
                push(intern(("true" if gate == "and" else "false", None, -1), len(cache)))
            elif min(numbers) < 0 or max(numbers) >= len(ids):
                raise _Fault(f"forward or invalid reference {next(n for n in numbers if not 0 <= n < len(ids))}")
            else:  # the children are the builder ids of the earlier lines named
                edges += len(numbers)
                push(intern((gate, tuple(map(at, numbers)), decision), len(cache)))
    except _Fault as fault:
        raise ParseError(str(fault), _line_of(lines, len(ids) + 1)) from None
    if not ids:
        raise ParseError("circuit has no nodes", len(lines))
    if nodes != len(ids):
        raise ParseError(f"header declares {nodes} nodes, found {len(ids)}", len(lines))
    if declared_edges != edges:
        raise ParseError(f"header declares {declared_edges} edges, found {edges}", len(lines))

    builder.kinds, builder.args, builder.decisions = [k[0] for k in cache], [k[1] for k in cache], [k[2] for k in cache]
    builder.universe = Universe(spec) if universe is None else universe
    circuit = builder.finish(ids[-1])
    for verify in (verify_decision_dnnf, verify_dnnf)[not decided:]:  # when every or-node names its variable
        try:
            return verify(circuit)
        except StructureError:
            pass
    return circuit


def emit_nnf(circuit: Circuit) -> str:
    """The ``.nnf`` text: each line joins the texts of its node's ids, made
    once per id, and literals and decision variables print from the
    universe's DIMACS texts."""
    kinds, args, dimacs = circuit.kinds, circuit.args, circuit.universe._dimacs
    gates = [arg for arg in args if type(arg) is tuple]
    texts = list(map(str, range(max(len(kinds), *map(len, gates), 0) + 1)))
    at = texts.__getitem__
    body = [f"nnf {len(kinds)} {sum(map(len, gates))} {len(circuit.universe)}"]
    push = body.append
    for kind, arg, decision in zip(kinds, args, circuit.decisions):
        if kind == "and" or kind == "or":
            head = "A " if kind == "and" else "O " + str(decision + 1) + " "
            push(head + texts[len(arg)] + " " + " ".join(map(at, arg)) if arg else head + "0")
        elif kind == "lit":
            push("L " + dimacs[arg])
        else:
            push("A 0" if kind == "true" else "O 0 0")
    push("")
    return "\n".join(body)


# -- SDD circuits ----------------------------------------------------------------------


def parse_sdd(text: str, universe: Universe | None = None) -> Circuit:
    """Parse an SDD description and verify its partition invariants.  One
    pass checks each line's fields and builds its node; a node id defined
    twice, a reference to an undefined node or a literal outside the given
    universe waits until every line's fields are checked."""
    lines, rows, names, plain = _rows(text)
    builder = CircuitBuilder(universe)
    cache, intern = builder._cache, builder._cache.setdefault  # a new node's id is the cache's size
    by_id: dict[int, int] = {}
    nvars = MAX_VARIABLES if universe is None else len(universe)
    max_var, root, row, later = 0, -1, -1, None
    try:
        for row, fields in enumerate(rows):
            kind = fields[0]
            try:
                numbers = list(map(int, fields[1:])) if plain else _ints(fields[1:])
            except ValueError:
                raise _Fault("non-numeric fields") from None
            if kind == "D":
                if len(numbers) < 2:
                    raise _Fault("decomposition node needs an id and a count")
                if numbers[1] < 1 or len(numbers) != 2 + 2 * numbers[1]:
                    raise _Fault(f"decomposition declares {numbers[1]} elements, fields disagree")
            elif kind == "L":
                if len(numbers) != 2 or not numbers[1]:
                    raise _Fault("literal node needs an id and a nonzero literal")
                value = numbers[1]
                max_var = max(max_var, value, -value)
                if max_var > MAX_VARIABLES:
                    raise _Fault("")  # the limit's own error, below
            elif kind != "T" and kind != "F":
                raise _Fault(f"unknown node kind {kind!r}")
            elif len(numbers) != 1:
                raise _Fault("constant node needs exactly an id")
            if later is not None or numbers[0] in by_id:
                later = later or (f"node id {numbers[0]} defined twice", row)
                continue
            if kind == "D":
                refs = list(map(by_id.get, numbers[2:]))
                if None in refs:
                    later = f"reference to undefined node {numbers[2 + refs.index(None)]}", row
                    continue
                elements = []
                for k in range(0, len(refs), 2):
                    elements.append(intern(("and", (refs[k], refs[k + 1]), -1), len(cache)))
                key = ("or", tuple(elements), -1)
            elif kind == "L":
                if not -nvars <= value <= nvars:
                    later = f"literal {value} out of range", row
                    continue
                key = ("lit", 2 * value - 1 if value > 0 else -2 * value - 2, -1)
            else:
                key = ("true" if kind == "T" else "false", None, -1)
            root = by_id[numbers[0]] = intern(key, len(cache))
    except _Fault as fault:
        number = _line_of(lines, row)
        _check_variables(max_var, number)
        raise ParseError(str(fault), number) from None
    if row < 0:
        raise ParseError("empty SDD description", max(len(lines), 1))
    # the universe is built once every line has been checked (see parse_nnf)
    spec = _universe_names(names, max_var) if universe is None else None
    if later is not None:
        raise ParseError(later[0], _line_of(lines, later[1]))
    builder.kinds, builder.args, builder.decisions = [k[0] for k in cache], [k[1] for k in cache], [k[2] for k in cache]
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
        return leaves[key] if key in leaves else leaves.setdefault(key, define(line))

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


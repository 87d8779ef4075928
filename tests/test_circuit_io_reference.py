"""The circuit readers and the ``.nnf`` writer against the line loops they
replaced.

The references are the earlier implementations, kept verbatim: a loop over
the lines that split each line, read its integers through ``_ints`` and
added each node through ``CircuitBuilder._add``; the SDD reader checked
every line in a first pass and built the nodes in a second.  The ``.nnf``
reference takes one change, the reading of ``c var`` names from the whole
text.  Each reader must give the same lists, root, class and partitions, or
the same error message and line, on seeded generator texts dressed with
comments, blank lines, CRLF line ends, ``c var`` lines and other spellings
of the integers, and with planted faults.  The writer must give the same
bytes.
"""

import random

import pytest

from qlit.circuits import (
    ddnnf_exists,
    ddnnf_forall,
    emit_nnf,
    emit_sdd,
    parse_nnf,
    parse_sdd,
    sdd_exists,
    sdd_forall,
    verify_decision_dnnf,
    verify_dnnf,
    verify_sdd,
)
from qlit.core import Circuit, CircuitBuilder, Universe
from qlit.errors import ParseError, StructureError
from qlit.generators import parity_decision_dnnf, random_decision_dnnf, random_sdd
from qlit.io import _check_variables, _code, _ints, _note_name, _universe_names

from conftest import LOAN_DECISION_NNF
from test_verify_reference import _random_nnf


def ref_parse_nnf(text: str, universe: Universe | None = None) -> Circuit:
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
    for number, line in enumerate(lines, 1):  # the name fix: names from the whole text
        fields = line.split()
        if fields and fields[0][0] == "c":
            _note_name(line, names, number)

    for number, line in enumerate(lines, 1):
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        if kind[0] == "c":
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


def ref_emit_nnf(circuit: Circuit) -> str:
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


def ref_parse_sdd(text: str, universe: Universe | None = None) -> Circuit:
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


def _outcome(parse, text, universe=None):
    """The circuit's lists, root, class, partitions and variable names, or
    the error's kind, message and line."""
    try:
        circuit = parse(text, universe)
    except ParseError as error:
        return "ParseError", str(error), error.line
    except StructureError as error:
        return "StructureError", str(error)
    names = [v.name for v in circuit.universe]
    return circuit.kinds, circuit.args, circuit.decisions, circuit.root, circuit.annotation, circuit.partitions, names


def _nnf_texts(rng):
    """Seeded ``.nnf`` texts: Decision-DNNFs, plain NNFs with shared gates,
    a parity chain and the loan circuit, some with or-nodes that declare no
    decision variable (``O 0 k``)."""
    texts = [LOAN_DECISION_NNF, emit_nnf(parity_decision_dnnf(Universe(rng.randint(2, 30))))]
    for _ in range(6):
        texts.append(emit_nnf(random_decision_dnnf(Universe(rng.randint(1, 8)), rng)))
        texts.append(emit_nnf(_random_nnf(rng)))
    undecided = []
    for text in texts:
        lines = [f"O 0 {line.split(None, 2)[2]}" if line.startswith("O ") and rng.random() < 0.3 else line
                 for line in text.splitlines()]
        undecided.append("\n".join(lines) + "\n")
    return texts + undecided


def _sdd_texts(rng):
    return [emit_sdd(random_sdd(Universe(rng.randint(1, 9)), rng)) for _ in range(12)]


def _respell(field, rng):
    """Another spelling of an integer field: read alike (``+k``, ``0k``), or
    refused by both readers (``_`` and digits of other scripts)."""
    roll = rng.random()
    if roll < 0.4:
        return "+" + field if field[0] != "-" else field
    if roll < 0.8:
        return field.replace(field.lstrip("-"), "0" + field.lstrip("-"))
    if roll < 0.9:
        return field + "_0"
    return field[:-1] + "\u0661"  # ARABIC-INDIC DIGIT ONE


def _dress(text, rng):
    """The text with comments (some not ASCII or with a ``_``, so that
    ``_ints`` reads every field), blank lines, ``c var`` names, respelled
    integers, extra blanks and CRLF or CR line ends put in at random."""
    lines = text.splitlines()
    out = []
    for line in lines:
        fields = line.split()
        if rng.random() < 0.05:
            comments = ["c", "c a note", "\tc indented", "c caf\u00e9", "c a_b",
                        f"c var {rng.randint(1, 9)} v{rng.randint(1, 4)}"]
            out.append(rng.choice(["", "   ", *comments]))
        if fields and rng.random() < 0.05:
            k = rng.randrange(1, len(fields)) if len(fields) > 1 else 0
            if k and fields[k].lstrip("-").isdigit():
                fields[k] = _respell(fields[k], rng)
            line = rng.choice([" ", "  ", "\t"]).join(fields)
        out.append(line)
    if rng.random() < 0.3:  # names for every variable, at random places
        for v in range(1, 10):
            out.insert(rng.randrange(len(out) + 1), f"c var {v} n{v}")
    end = rng.choice(["\n", "\n", "\r\n", "\r"])
    return end.join(out) + (end if rng.random() < 0.8 else "")


def _fault_nnf(text, rng):
    """The text with one fault planted on a random line: a count or
    reference out of step, a literal or decision variable out of range, a
    header that disagrees, or a line that is not a node."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    fields = lines[k].split()
    if not fields or fields[0] in ("c", "nnf"):
        at = next(n for n, line in enumerate(lines) if line.startswith("nnf"))
        header = lines[at].split()
        spot = rng.randrange(1, 4)
        header[spot] = str(int(header[spot]) + rng.choice([-1, 1]))
        lines[at] = " ".join(header) if rng.random() < 0.9 else "nnf 1 x 2"
        return "\n".join(lines) + "\n"
    roll = rng.random()
    if fields[0] == "L":
        fields[1] = rng.choice(["0", str(int(fields[1]) * 50 + 1), fields[1] + " 3"])
    elif roll < 0.3:  # a count out of step
        at = 1 if fields[0] == "A" else 2
        fields[at] = str(int(fields[at]) + rng.choice([-1, 1]))
    elif roll < 0.6 and len(fields) > 3:  # a forward or negative reference
        fields[-1] = rng.choice([str(k - 1), str(k + rng.randint(0, 5)), "-1"])
    elif roll < 0.75 and fields[0] == "O":
        fields[1] = rng.choice(["-1", "99"])
    else:
        fields[0] = rng.choice(["X", "a", "o", "Lx"])
    lines[k] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _fault_sdd(text, rng):
    """The text with one fault planted: an id defined twice, a reference to
    an undefined node, a prime that breaks its partition, an element count
    out of step, a zero literal, a constant with a stray field or a line
    that is not a node; sometimes a
    second, field fault on a later line as well, which must outrank a
    first fault that waits for the build."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    fields = lines[k].split()
    roll = rng.random()
    if roll < 0.2 and k:
        fields[1] = lines[rng.randrange(k)].split()[1]  # an id defined before
    elif roll < 0.45 and fields[0] == "D":
        fields[rng.randrange(3, len(fields))] = str(rng.choice([len(lines) + 5, -3]))
    elif roll < 0.55 and fields[0] == "D":
        fields[3] = lines[rng.randrange(k)].split()[1]  # another node defined before
    elif roll < 0.6 and fields[0] == "D":
        fields[2] = str(int(fields[2]) + 1)
    elif roll < 0.7 and fields[0] == "L":
        fields[2] = "0"
    elif roll < 0.8 and fields[0] in ("T", "F"):
        fields.append("7")
    else:
        fields[0] = rng.choice(["X", "d", "t"])
    lines[k] = " ".join(fields)
    if rng.random() < 0.3 and k + 1 < len(lines):  # a field fault on a later line
        later = rng.randrange(k + 1, len(lines))
        lines[later] = lines[later] + " x"
    return "\n".join(lines) + "\n"


def _universe(text, rng):
    """For the SDD text ``text``: no universe, or one of the size the text
    needs, or one too small."""
    roll = rng.random()
    if roll < 0.6:
        return None
    variables = max([abs(int(f)) for line in text.splitlines() if line[:1] == "L" for f in line.split()[-1:]] or [0])
    return Universe(max(variables - (roll > 0.9), 0))


class TestReadersAgainstReference:
    @pytest.mark.parametrize("fmt", ["nnf", "sdd"])
    def test_dressed_and_faulty_texts_read_alike(self, fmt):
        rng = random.Random(28001 if fmt == "nnf" else 28002)
        parse, ref, fault = {
            "nnf": (parse_nnf, ref_parse_nnf, _fault_nnf),
            "sdd": (parse_sdd, ref_parse_sdd, _fault_sdd),
        }[fmt]
        corpus = _nnf_texts(rng) if fmt == "nnf" else _sdd_texts(rng)
        seen: dict[str, int] = {}
        for k in range(1500):
            text = rng.choice(corpus)
            universe = _universe(text, rng) if fmt == "sdd" else None
            if rng.random() < 0.5:
                text = fault(text, rng)
            if rng.random() < 0.7:
                text = _dress(text, rng)
            want = _outcome(ref, text, universe)
            assert _outcome(parse, text, universe) == want, (k, text)
            key = want[0] if isinstance(want[0], str) else want[4]
            key = f"{key}: {want[1].split(': ', 1)[1].split(' ')[0]}" if key == "ParseError" else key
            seen[key] = seen.get(key, 0) + 1
        # valid texts of every class, and errors of many kinds
        assert sum(not key.startswith("ParseError") for key in seen) >= 2, seen
        assert len([key for key in seen if key.startswith("ParseError")]) >= 6, seen

    def test_header_universes_and_names(self):
        cases = [
            ("nnf 3 2 2\nL 1\nL 2\nA 2 0 1\nc var 1 a\nc var 2 b\n", None),
            ("c var 1 a\nnnf 3 2 2\nL 1\nL 2\nA 2 0 1\nc var 2 a\n", None),
            ("c var 1 a\nc var 2 a\nnnf 3 9 2\nL 1\nL 2\nA 2 0 1\n", None),
            ("nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n", Universe(3)),
            ("nnf 3 2 -1\nA 0\n", None),
            ("nnf 1 0 2000000\nA 0\n", None),
            ("c only\n\n", None),
            ("", None),
            ("nnf 0 0 0\n", None),
            ("nnf 1 0 0\nO 0 0\nX\n", None),
            ("nnf 2 1 1\nL 1\nO 1 1 0\n", None),
            ("nnf 2 1 1\nL \u0661\nO 1 1 0\n", None),
        ]
        for text, universe in cases:
            assert _outcome(parse_nnf, text, universe) == _outcome(ref_parse_nnf, text, universe), text
        sdd_cases = [
            ("L 1 1\nD 2 1 1 9\nL 3 x\n", None),  # a field error outranks an earlier undefined reference
            ("L 1 1\nL 1 2\nD 3 1 1 1\nT\n", None),
            ("L 1 1\nL 2 -1\nD 3 2 1 1 2 1\nc var 1 a\nc var 1 b\n", None),
            ("L 1 1\nL 2 -1\nT 3\nD 4 2 1 3 2 3\nc var 1 a\nc var 1 b\n", None),
            ("L 0 5\nL 1 -5\nT 2\nD 3 2 0 2 1 2\n", Universe(4)),
            ("L 0 2000001\n", None),
            ("c\n\n", None),
            ("D 1\n", None),
            ("T 1\nF 1\nD 2 1 9 9\n", None),
        ]
        for text, universe in sdd_cases:
            assert _outcome(parse_sdd, text, universe) == _outcome(ref_parse_sdd, text, universe), text


def _quantified(circuit, rng):
    """A seeded quantification of a verified circuit: forall or exists on
    one to three of its literals."""
    u = circuit.universe
    lits = [u.literal_by_code(rng.randrange(2 * len(u))) for _ in range(rng.randint(1, 3))]
    if circuit.annotation == "sdd":
        return rng.choice([sdd_forall, sdd_exists])(circuit, lits)
    return rng.choice([ddnnf_forall, ddnnf_exists])(circuit, lits)


class TestEmitNnfAgainstReference:
    def test_seeded_circuits_write_alike(self):
        rng = random.Random(28003)
        for k in range(300):
            u = Universe(rng.randint(1, 8))
            roll = k % 4
            if roll == 0:
                circuit = random_decision_dnnf(u, rng)
            elif roll == 1:
                circuit = random_sdd(u, rng)
            else:
                circuit = _random_nnf(rng)  # constants, shared gates, ``O 0 k``
            assert emit_nnf(circuit) == ref_emit_nnf(circuit), k
            if roll < 2:
                quantified = _quantified(circuit, rng)
                assert emit_nnf(quantified) == ref_emit_nnf(quantified), k
        builder = CircuitBuilder(Universe(2))
        gates = [builder.add_and([]), builder.add_or([]), builder.const(False)]
        empty = builder.finish(builder.add_or(gates, decision=1))  # gates without children
        assert emit_nnf(empty) == ref_emit_nnf(empty)

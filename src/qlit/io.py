"""Parsers and serializers for the package's text formats.

Four formats, all ASCII with LF line endings:

* DIMACS CNF: optional ``c`` comment lines, one ``p cnf <nvars> <nclauses>``
  header, then clauses as nonzero integers terminated by ``0`` (clauses may
  span lines).  Variable ``i`` maps to index ``i-1`` of the universe.

* Compiled NNF circuits, one node per line after a ``nnf <V> <E> <n>``
  header: ``L <lit>`` for literals, ``A <c> <ids...>`` for conjunctions,
  ``O <j> <c> <ids...>`` for disjunctions where ``j`` names the decision
  variable (0 when there is none).  ``A 0`` is true, ``O 0 0`` is false.
  Node ids are line positions (0-based) and must point backwards.  Header
  counts are validated, not trusted.

* SDD circuits: ``T <id>`` / ``F <id>`` constants, ``L <id> <lit>`` literals
  and ``D <id> <k> <p1> <s1> ... <pk> <sk>`` partition nodes.  Ids are
  explicit, defined once, used after definition; the last defined node is the
  root.

* A formula mini-language: identifiers, ``~`` negation, ``&``, ``|``, ``=>``
  and ``<=>`` with precedence ``~ > & > | > => > <=>`` (the arrows associate
  to the right), parentheses and the constants ``true`` / ``false``.  An
  identifier is a letter or ``_``, then letters, digits and ``_``, as
  ``str.isalpha`` and ``str.isalnum`` decide.  Any white space separates
  tokens; only ``\n`` starts a new line in error positions.

A classifier bundle is a small header (``var <index> <name>`` lines and an
optional ``protected <name>...`` line) followed by one or two DIMACS
sections tagged ``section delta`` and ``section negdelta``.

Outside formulas, a line whose first non-blank character is ``c`` is a
comment, and an integer field is an optional sign and ASCII digits
(:func:`_ints`; ``int`` alone also reads ``1_0`` and other scripts' digits).
Literal codes and signed DIMACS integers (in DIMACS, ``.nnf`` and SDD text)
are converted in one place: ``Universe._dimacs`` holds each code's integer
as text, so emitting joins strings from it and reading DIMACS looks its
fields up in bulk there, and :func:`~qlit.core.dimacs_codes` is its inverse.
Clauses, terms, CNFs and DNFs print from the display texts the universe
holds next to it, ``Universe._texts``.

Parse errors always carry a 1-based line (and column for formulas); no
partial results escape.
"""

from __future__ import annotations

import re
from itertools import chain, compress, count, repeat
from operator import add, is_, itemgetter, rshift
from collections import namedtuple
from collections.abc import Iterator

from .core import (
    Annotation,
    Circuit,
    CircuitBuilder,
    Formula,
    Universe,
    dimacs_codes,
)
from .errors import ParseError, StructureError
from .tractable import (
    Cnf,
    _sdd_elements,
    _term_shape_codes,
    verify_decision_dnnf,
    verify_dnnf,
    verify_sdd,
)

__all__ = [
    "parse_dimacs",
    "emit_dimacs",
    "parse_nnf",
    "emit_nnf",
    "parse_sdd",
    "emit_sdd",
    "parse_formula",
    "emit_formula",
    "parse_classifier_bundle",
    "emit_classifier_bundle",
    "ClassifierBundle",
]


def _note_name(comment: str, names: dict[int, tuple[str, int]], number: int) -> None:
    """Record a ``c var <index> <name>`` comment on line ``number``; an index
    that is not ASCII digits, or is past ``int``'s digit limit, makes it an
    ordinary comment."""
    fields = comment.split()
    if (
        len(fields) == 4
        and fields[:2] == ["c", "var"]
        and fields[2].isdigit()
        and _all_ints(fields[2:3])
    ):
        names[int(fields[2])] = (fields[3], number)


def _named_universe(names: dict[int, tuple[str, int]], nvars: int) -> Universe:
    """The universe of ``nvars`` variables, named by the ``c var`` comments
    (or a bundle's ``var`` lines) when they name every variable exactly once.
    Two variables named alike are a parse error on the later line."""
    if sorted(names) != list(range(1, nvars + 1)):
        return Universe(nvars)
    taken: set[str] = set()
    for name, number in sorted(names.values(), key=itemgetter(1)):
        if name in taken:
            raise ParseError(f"duplicate variable name {name!r}", number)
        taken.add(name)
    return Universe([names[i][0] for i in range(1, nvars + 1)])


# -- DIMACS CNF -------------------------------------------------------------------


def parse_dimacs(
    text: str, universe: Universe | None = None, first_line: int = 1
) -> Cnf:
    """Parse a DIMACS CNF.  ``first_line`` offsets reported line numbers when
    the text is embedded in a larger file.

    Comment lines of the shape ``c var <index> <name>`` assign display names;
    when they cover every variable exactly once the universe uses them (see
    :func:`_named_universe`).

    One scan finds the lines that start with ``c`` or ``p``; each run of
    clause lines between two of them is split at once into one list of
    fields.  One ``map`` looks the fields up among the universe's DIMACS
    texts (any other spelling, such as ``+2`` or ``01``, goes through
    :func:`_ints`), and the clauses are cut, sorted and checked over the
    resulting codes.  A line that is not integers outranks an error in the
    clauses (a literal out of range, a tautology) on an earlier line, so the
    first clause error waits until the last line is read.  An error's line is
    found only when there is one, by counting the fields of its run's lines.
    """
    lines = text.splitlines()
    # a line break before each line, and a last ``c`` line that ends the scan
    body = "\n".join(["", *lines, "c"])
    header: list[int] | None = None
    names: dict[int, tuple[str, int]] = {}
    fields: list[str] = []  # the fields of the clause lines, in text order
    runs: list[tuple[int, int, int]] = []  # per run: its first field, first and end line
    at = line = 0  # the line break before the run, and the run's first line

    def line_of(k: int) -> int:
        """The line of ``fields[k]``, by counting the fields of its run's lines."""
        seen, start, stop = next(run for run in reversed(runs) if run[0] <= k)
        for number in range(start, stop):
            seen += len(lines[number].split())
            if seen > k:
                return first_line + number

    def integers() -> list[int]:
        """The fields as integers, else the error that names the first that is not one."""
        try:
            return _ints(fields)
        except ValueError:
            k = next(k for k, field in enumerate(fields) if not _all_ints([field]))
            raise ParseError(f"expected an integer, got {fields[k]!r}", line_of(k)) from None

    for match in re.finditer(r"\n[^\S\n]*[cp].*", body):
        stop = line + body.count("\n", at, match.start())  # the matched line
        run = body[at : match.start()].split()
        if run:
            if header is None:
                number = next(k for k in range(line, stop) if lines[k].split())
                raise ParseError("clause before the problem line", first_line + number)
            runs.append((len(fields), line, stop))
            fields += run
        if stop == len(lines):
            break
        at, line, number = match.end(), stop + 1, first_line + stop
        words = lines[stop].split()
        if words[0][0] == "c":
            _note_name(lines[stop], names, number)
        elif header is not None:
            integers()  # raises on an earlier line
            raise ParseError("second problem line", number)
        elif len(words) != 4 or words[1] != "cnf":
            raise ParseError("malformed header, expected 'p cnf <vars> <clauses>'", number)
        else:
            try:
                header = _ints(words[2:])
            except ValueError:
                raise ParseError("non-numeric header counts", number) from None
            if min(header) < 0:
                raise ParseError("negative header counts", number)

    if header is None:
        raise ParseError("missing 'p cnf' header", max(first_line + len(lines) - 1, first_line))
    nvars, nclauses = header
    try:
        if universe is None:
            universe = _named_universe(names, nvars)
        elif len(universe) != nvars:
            raise ParseError(
                f"header declares {nvars} variables, universe has {len(universe)}",
                first_line,
            )
    except ParseError:
        integers()  # a clause line's error comes first
        raise
    error = None  # the first error in the clauses
    try:
        text_codes = dict(zip(universe._dimacs, count()), **{"0": None})
        codes = list(map(text_codes.__getitem__, fields))
    except KeyError:
        values = integers()
        code_of = dimacs_codes(nvars)
        try:
            codes = list(map(code_of.__getitem__, values))
        except KeyError as missing:
            bad = values.index(missing.args[0])
            codes = list(map(code_of.__getitem__, values[:bad]))
            error = ParseError(f"literal {values[bad]} out of range", line_of(bad))

    # a clause ends at the code of each zero; what follows the last is open
    ends = list(compress(count(), map(is_, codes, repeat(None))))
    starts = [0, *map(add, ends, repeat(1))]
    # each clause becomes a tuple at once: ten thousand lists kept alive
    # would each be walked by several garbage collections
    clauses = [tuple(sorted(codes[start:end])) for start, end in zip(starts, ends)]
    variable = list(map(rshift, range(2 * nvars), repeat(1))).__getitem__  # of a code
    if sum(map(len, map(set, map(map, repeat(variable), clauses)))) < sum(map(len, clauses)):
        # two literals over one variable: drop the repeats; a pair of
        # neighbours left over is a tautology
        for k, clause in enumerate(clauses):
            clause = tuple(sorted(set(clause)))
            if any(a ^ 1 == b for a, b in zip(clause, clause[1:])):
                error = _tautology(codes[starts[k] : ends[k]], line_of(ends[k]))
                break
            clauses[k] = clause
    if error is not None:
        raise error
    if starts[-1] < len(codes) or len(clauses) != nclauses:
        last_line = line_of(len(fields) - 1) if fields else first_line
        if starts[-1] < len(codes):
            raise ParseError("unterminated clause", last_line)
        raise ParseError(f"header declares {nclauses} clauses, found {len(clauses)}", last_line)
    return Cnf._of(universe, clauses)


def _ints(fields: list[str]) -> list[int]:
    """The integers that ``fields`` spell, each an optional sign and ASCII
    digits; ``ValueError`` on any other field (``int`` alone also reads ``1_0``
    and the digits of other scripts)."""
    joined = "".join(fields)
    if "_" in joined or not joined.isascii():
        raise ValueError(f"not integers: {fields!r}")
    return list(map(int, fields))


def _all_ints(fields: list[str]) -> bool:
    try:
        _ints(fields)
        return True
    except ValueError:
        return False


def _tautology(items: list[int], number: int) -> ParseError:
    """The error for a clause with both literals of a variable, named by the
    first literal whose complement came before it."""
    seen: set[int] = set()
    for code in items:
        if code ^ 1 in seen:
            return ParseError(f"tautological clause over variable {(code >> 1) + 1}", number)
        seen.add(code)
    raise AssertionError("no complementary pair")


def emit_dimacs(cnf: Cnf) -> str:
    """The DIMACS text, one line per clause in canonical order: one join over
    the codes of the sorted clauses, each followed by an end mark that reads
    ``0`` and a line break."""
    u = cnf.universe
    words = [number + " " for number in u._dimacs]
    words.append("0\n")
    end = (len(words) - 1,)
    codes = chain.from_iterable(chain.from_iterable(zip(sorted(cnf.codes), repeat(end))))
    return f"p cnf {len(u)} {len(cnf.codes)}\n" + "".join(map(words.__getitem__, codes))


# -- compiled NNF circuits -----------------------------------------------------------


def parse_nnf(text: str, universe: Universe | None = None) -> Circuit:
    """Parse a compiled circuit and infer its strongest annotation."""
    lines = text.splitlines()
    header = None
    builder: CircuitBuilder | None = None
    ids: list[int] = []
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
            if universe is None:
                universe = _named_universe(names, nvars)
            elif len(universe) != nvars:
                raise ParseError(
                    f"header declares {nvars} variables, universe has {len(universe)}",
                    number,
                )
            declared_edges = header[1]
            builder = CircuitBuilder(universe)
            add, push, at = builder._add, ids.append, ids.__getitem__
            code_of = dimacs_codes(nvars)
            continue

        try:
            numbers = _ints(fields[1:])
        except ValueError:
            raise ParseError("non-numeric node fields", number) from None

        if kind == "L":
            if len(numbers) != 1 or numbers[0] == 0:
                raise ParseError("literal node needs one nonzero integer", number)
            if numbers[0] not in code_of:
                raise ParseError(f"literal {numbers[0]} out of range", number)
            push(add("lit", code_of[numbers[0]]))
            continue
        if kind == "A":
            if not numbers or numbers[0] != len(numbers) - 1:
                raise ParseError("and-node child count mismatch", number)
            gate, decision_var = "and", 0
        elif kind == "O":
            if len(numbers) < 2 or numbers[1] != len(numbers) - 2:
                raise ParseError("or-node child count mismatch", number)
            gate, decision_var = "or", numbers[0]
            if decision_var < 0 or decision_var > len(universe):
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

    circuit = builder.finish(ids[-1], Annotation.NNF)
    if decisions_declared:
        try:
            return verify_decision_dnnf(circuit)
        except StructureError:
            pass
    try:
        return verify_dnnf(circuit)
    except StructureError:
        return circuit.with_annotation(Annotation.NNF)


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
    if universe is None:
        universe = _named_universe(names, max_var)

    builder = CircuitBuilder(universe)
    code_of = dimacs_codes(len(universe))
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
            if value not in code_of:
                raise ParseError(f"literal {value} out of range", number)
            root = builder.lit(code_of[value])
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

    circuit = builder.finish(root, Annotation.SDD)
    return verify_sdd(circuit)


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


# -- formula mini-language ---------------------------------------------------------------


_Token = namedtuple("_Token", "kind text line column")  # kind: ident, punct or end

# a line break, other white space, a connective (longest first), an identifier
# or any other character; ``re.finditer`` compiles it on first use, not at import
_LEXEME = r"(?P<newline>\n)|[^\S\n]+|(?P<punct><=>|=>|[~&|()])|(?P<ident>\w+)|(?P<other>.)"


def _tokenize(text: str) -> Iterator[_Token]:
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in re.finditer(_LEXEME, text):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind is not None:  # not white space
            lexeme = match.group()
            column = match.start() - line_start + 1
            # ``\w`` also admits digits and numerics such as ``²``, which may
            # follow an identifier's first character but not be it
            if kind == "other" or kind == "ident" and not (lexeme[0].isalpha() or lexeme[0] == "_"):
                raise ParseError(f"unexpected character {lexeme[0]!r}", line, column)
            yield _Token(kind, lexeme, line, column)
    yield _Token("end", "", line, len(text) - line_start + 1)


# binary connectives by binding strength; the arrows, 1 and 2, group to the right
_BINARY = {"<=>": 1, "=>": 2, "|": 3, "&": 4}
_APPLY = {"<=>": Formula.iff, "=>": Formula.implies, "|": Formula.__or__, "&": Formula.__and__}


def parse_formula(text: str, universe: Universe | None = None) -> Formula:
    """Parse the formula mini-language.

    Without a declared universe, the universe is the set of mentioned
    identifiers in lexicographic order.

    Precedence climbing with explicit operand and operator stacks, so nesting
    depth is limited by memory alone.  Nodes are built in the order a
    recursive descent would build them.
    """
    tokens = list(_tokenize(text))  # a bad character outranks a syntax error
    if universe is None:
        names = {t.text for t in tokens if t.kind == "ident"} - {"true", "false"}
        universe = Universe(sorted(names))
    operands: list[Formula] = []
    pending: list[str] = []  # binary operators, "~" and "("
    want_operand = True
    for token in tokens:
        if want_operand:  # prefix "~" and "(", then an atom
            if token.text in ("~", "("):
                pending.append(token.text)
            else:
                operands.append(_atom(token, universe))
                want_operand = False
            continue
        # apply the pending operators that bind more tightly, or as tightly and
        # group to the left; any other token applies all back to the open "("
        strength = _BINARY.get(token.text, 0)
        while pending and pending[-1] != "(":
            top = _BINARY.get(pending[-1], 5)  # "~" binds tightest
            if top < strength or top == strength <= 2:
                break
            op = pending.pop()
            right = operands.pop()
            operands.append(~right if op == "~" else _APPLY[op](operands.pop(), right))
        if strength:
            pending.append(token.text)
            want_operand = True
        elif not pending:
            if token.kind != "end":
                raise ParseError(f"unexpected {token.text!r}", token.line, token.column)
            return operands[0]
        elif token.text == ")":
            pending.pop()
        else:
            raise ParseError(
                f"expected ')', got {token.text or 'end of input'!r}", token.line, token.column
            )


def _atom(token: _Token, universe: Universe) -> Formula:
    if token.kind != "ident":
        raise ParseError(
            f"expected a formula, got {token.text or 'end of input'!r}", token.line, token.column
        )
    if token.text in ("true", "false"):
        return universe.true if token.text == "true" else universe.false
    if token.text not in universe:
        raise ParseError(f"unknown identifier {token.text!r}", token.line, token.column)
    return universe.lit(token.text)


def emit_formula(formula: Formula) -> str:
    return str(formula)


# -- classifier bundles ---------------------------------------------------------------------


# a parsed bundle: its universe, the tuple of protected names, and the CNFs
# of the positive and (or ``None``) the negative side
ClassifierBundle = namedtuple("ClassifierBundle", "universe protected positive negative")


def parse_classifier_bundle(text: str) -> ClassifierBundle:
    """Parse a classifier bundle: variable map, protected set, CNF sections."""
    lines = text.splitlines()
    names: dict[int, tuple[str, int]] = {}
    protected: list[tuple[str, int]] = []  # (name, line)
    sections: dict[str, tuple[int, list[str]]] = {}
    current: list[str] | None = None

    for offset, raw in enumerate(lines):
        number = offset + 1
        line = raw.strip()
        if current is not None and not line.startswith("section"):
            current.append(raw)
            continue
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "var":
            if len(fields) != 3:
                raise ParseError("expected 'var <index> <name>'", number)
            try:
                [index] = _ints(fields[1:2])
            except ValueError:
                raise ParseError("non-numeric variable index", number) from None
            if index in names:
                raise ParseError(f"variable index {index} declared twice", number)
            names[index] = (fields[2], number)
        elif fields[0] == "protected":
            protected += [(name, number) for name in fields[1:]]
        elif fields[0] == "section":
            if len(fields) != 2 or fields[1] not in ("delta", "negdelta"):
                raise ParseError(
                    "expected 'section delta' or 'section negdelta'", number
                )
            if fields[1] in sections:
                raise ParseError(f"section {fields[1]} appears twice", number)
            current = []
            sections[fields[1]] = (number + 1, current)
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", number)

    if not names:
        raise ParseError("bundle declares no variables", 1)
    # indexes are distinct, so they are 1..n unless one lies outside it; the
    # first such ``var`` line in the file is the one reported
    for index, (_, number) in names.items():
        if not 1 <= index <= len(names):
            raise ParseError("variable indexes must be 1..n contiguous", number)
    universe = _named_universe(names, len(names))
    for name, number in protected:
        if name not in universe:
            raise ParseError(f"protected variable {name!r} is not declared", number)
    if "delta" not in sections:
        raise ParseError("bundle has no 'section delta'", len(lines) or 1)

    start, body = sections["delta"]
    positive = parse_dimacs("\n".join(body), universe, first_line=start)
    negative = None
    if "negdelta" in sections:
        start, body = sections["negdelta"]
        negative = parse_dimacs("\n".join(body), universe, first_line=start)
    return ClassifierBundle(universe, tuple(name for name, _ in protected), positive, negative)


def emit_classifier_bundle(bundle: ClassifierBundle) -> str:
    lines = [
        f"var {v.index + 1} {v.name}" for v in bundle.universe.variables
    ]
    if bundle.protected:
        lines.append("protected " + " ".join(bundle.protected))
    lines.append("section delta")
    lines.append(emit_dimacs(bundle.positive).rstrip("\n"))
    if bundle.negative is not None:
        lines.append("section negdelta")
        lines.append(emit_dimacs(bundle.negative).rstrip("\n"))
    return "\n".join(lines) + "\n"

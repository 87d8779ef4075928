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
  to the right), parentheses and the constants ``true`` / ``false``.

A classifier bundle is a small header (``var <index> <name>`` lines and an
optional ``protected <name>...`` line) followed by one or two DIMACS
sections tagged ``section delta`` and ``section negdelta``.

Outside formulas, a line whose first non-blank character is ``c`` is a
comment.  Literal codes and signed DIMACS integers (in DIMACS, ``.nnf`` and
SDD text) are converted in one place: ``Universe._dimacs`` holds each code's
integer as text, so emitting joins strings from it, and
:func:`~qlit.core.dimacs_codes` is its inverse.  Clauses, terms, CNFs and
DNFs print from the display texts the universe holds next to it,
``Universe._texts``.

Parse errors always carry a 1-based line (and column for formulas); no
partial results escape.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .core import (
    Annotation,
    Circuit,
    CircuitBuilder,
    Clause,
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
    that is not ASCII digits makes it an ordinary comment."""
    fields = comment.split()
    if (
        len(fields) == 4
        and fields[:2] == ["c", "var"]
        and fields[2].isascii()
        and fields[2].isdigit()
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

    One pass over the lines turns each clause line into literal codes through
    :func:`dimacs_codes` and checks a clause when its ``0`` is read.  A line
    that is not integers outranks an error in the clauses (a literal out of
    range, a tautology) on an earlier line, so the first clause error waits
    until the last line is read.
    """
    lines = text.splitlines()
    header: tuple[int, int] | None = None
    names: dict[int, tuple[str, int]] = {}
    code_of: dict[int, int | None] = {}
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []  # codes of the open clause, in text order
    last_line = first_line  # the line of the last integer
    error: ParseError | None = None  # the first error in the clauses
    for number, line in enumerate(lines, first_line):
        fields = line.split()
        if not fields:
            continue
        head = fields[0][0]
        if head == "c":
            _note_name(line, names, number)
            continue
        if head == "p":
            if header is not None:
                raise ParseError("second problem line", number)
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError("malformed header, expected 'p cnf <vars> <clauses>'", number)
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError("non-numeric header counts", number) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError("negative header counts", number)
            code_of = dimacs_codes(header[0])
            continue
        if header is None:
            raise ParseError("clause before the problem line", number)
        out_of_range = None
        try:
            codes = list(map(code_of.__getitem__, map(int, fields)))
        except (ValueError, KeyError):
            codes, out_of_range = _codes_before_error(fields, code_of, number)
        last_line = number
        if error is not None:
            continue
        start = 0
        for _ in range(codes.count(None)):
            end = codes.index(None, start)
            current += codes[start:end]
            start = end + 1
            clause = sorted(current)
            previous = -1
            for code in clause:
                if code | 1 == previous:
                    # two literals over one variable: drop the repeats; a
                    # pair of neighbours left over is a tautology
                    clause = sorted(set(clause))
                    if any(a ^ 1 == b for a, b in zip(clause, clause[1:])):
                        error = _tautology(current, number)
                    break
                previous = code | 1
            if error is not None:
                break
            clauses.append(tuple(clause))
            current = []
        else:
            current += codes[start:]
            error = out_of_range

    if header is None:
        line = first_line + len(lines)
        raise ParseError("missing 'p cnf' header", max(line - 1, first_line))
    nvars, nclauses = header
    if universe is None:
        universe = _named_universe(names, nvars)
    elif len(universe) != nvars:
        raise ParseError(
            f"header declares {nvars} variables, universe has {len(universe)}",
            first_line,
        )
    if error is not None:
        raise error
    if current:
        raise ParseError("unterminated clause", last_line)
    if len(clauses) != nclauses:
        raise ParseError(
            f"header declares {nclauses} clauses, found {len(clauses)}", last_line
        )
    return Cnf(universe, [Clause(universe, clause) for clause in clauses])


def _codes_before_error(
    fields: list[str], code_of: dict[int, int | None], number: int
) -> tuple[list, ParseError]:
    """For a clause line that is not all literals in range: raise on the
    first field that is not an integer, else return the codes before the
    first integer out of range and the error that names it."""
    values = []
    for field in fields:
        try:
            values.append(int(field))
        except ValueError:
            raise ParseError(f"expected an integer, got {field!r}", number) from None
    bad = next(k for k, value in enumerate(values) if value not in code_of)
    codes = [code_of[value] for value in values[:bad]]
    return codes, ParseError(f"literal {values[bad]} out of range", number)


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
    dimacs = cnf.universe._dimacs.__getitem__
    lines = [f"p cnf {len(cnf.universe)} {len(cnf.elements)}"]
    lines.extend(
        " ".join([*map(dimacs, clause.codes), "0"]) for clause in cnf.sorted_elements()
    )
    return "\n".join(lines) + "\n"


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
        if fields[0][0] == "c":
            _note_name(line, names, number)
            continue
        if header is None:
            if fields[0] != "nnf" or len(fields) != 4:
                raise ParseError("expected header 'nnf <nodes> <edges> <vars>'", number)
            try:
                header = (int(fields[1]), int(fields[2]), int(fields[3]))
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
            code_of = dimacs_codes(nvars)
            continue

        kind = fields[0]
        try:
            numbers = list(map(int, fields[1:]))
        except ValueError:
            raise ParseError("non-numeric node fields", number) from None

        if kind == "L":
            if len(numbers) != 1 or numbers[0] == 0:
                raise ParseError("literal node needs one nonzero integer", number)
            if numbers[0] not in code_of:
                raise ParseError(f"literal {numbers[0]} out of range", number)
            ids.append(builder.lit(code_of[numbers[0]]))
        elif kind == "A":
            if not numbers or numbers[0] != len(numbers) - 1:
                raise ParseError("and-node child count mismatch", number)
            children = _children(numbers, 1, ids, number)
            edges += len(children)
            ids.append(builder.gate("and", children) if children else builder.const(True))
        elif kind == "O":
            if len(numbers) < 2 or numbers[1] != len(numbers) - 2:
                raise ParseError("or-node child count mismatch", number)
            decision_var = numbers[0]
            if decision_var < 0 or decision_var > len(universe):
                raise ParseError(f"decision variable {decision_var} out of range", number)
            children = _children(numbers, 2, ids, number)
            edges += len(children)
            if not children:
                ids.append(builder.const(False))
            else:
                ids.append(builder.add_or(children, decision=decision_var - 1))
                decisions_declared = decisions_declared and decision_var != 0
        else:
            raise ParseError(f"unknown node kind {kind!r}", number)

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


def _children(numbers: list[int], start: int, ids: list[int], number: int) -> tuple[int, ...]:
    """The builder ids of the line positions ``numbers[start:]``, which must
    name earlier lines."""
    refs = numbers[start:]
    if refs and (min(refs) < 0 or max(refs) >= len(ids)):
        bad = next(ref for ref in refs if not 0 <= ref < len(ids))
        raise ParseError(f"forward or invalid reference {bad}", number)
    return tuple(map(ids.__getitem__, refs))


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
            numbers = [int(f) for f in fields[1:]]
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


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | punct | end
    text: str
    line: int
    column: int


_PUNCT = ("<=>", "=>", "~", "&", "|", "(", ")")


def _tokenize(text: str) -> Iterator[_Token]:
    line = 1
    column = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        matched = None
        for punct in _PUNCT:
            if text.startswith(punct, i):
                matched = punct
                break
        if matched:
            yield _Token("punct", matched, line, column)
            column += len(matched)
            i += len(matched)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            yield _Token("ident", text[start:i], line, column)
            column += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    yield _Token("end", "", line, column)


# binary connectives by binding strength; ``=>`` and ``<=>`` group to the right
_BINARY = {"<=>": 1, "=>": 2, "|": 3, "&": 4}
_RIGHT = ("<=>", "=>")
_APPLY = {
    "<=>": Formula.iff,
    "=>": Formula.implies,
    "|": Formula.__or__,
    "&": Formula.__and__,
}


class _FormulaParser:
    """Precedence climbing with explicit operand and operator stacks, so
    nesting depth is limited by memory alone.  Nodes are built in the order a
    recursive descent would build them."""

    def __init__(self, tokens: list[_Token], universe: Universe):
        self.tokens = tokens
        self.universe = universe

    def parse(self) -> Formula:
        tokens = iter(self.tokens)
        operands: list[Formula] = []
        pending: list[str] = []  # binary operators, "~" and "("
        token = next(tokens)
        while True:
            # operand position: prefix "~" and "(", then an atom
            if token.text in ("~", "("):
                pending.append(token.text)
                token = next(tokens)
                continue
            operand = self.atom(token)
            token = next(tokens)
            while True:
                while pending and pending[-1] == "~":
                    pending.pop()
                    operand = ~operand
                operands.append(operand)
                # operator position
                if token.text in _BINARY:
                    strength = _BINARY[token.text]
                    while pending and pending[-1] in _BINARY and (
                        _BINARY[pending[-1]] > strength
                        or (_BINARY[pending[-1]] == strength and token.text not in _RIGHT)
                    ):
                        self.reduce(operands, pending.pop())
                    pending.append(token.text)
                    token = next(tokens)
                    break
                while pending and pending[-1] != "(":
                    self.reduce(operands, pending.pop())
                if not pending:
                    if token.kind != "end":
                        raise ParseError(
                            f"unexpected {token.text!r}", token.line, token.column
                        )
                    return operands[0]
                if token.text != ")":
                    raise ParseError(
                        f"expected ')', got {token.text or 'end of input'!r}",
                        token.line,
                        token.column,
                    )
                pending.pop()
                operand = operands.pop()
                token = next(tokens)

    @staticmethod
    def reduce(operands: list[Formula], op: str) -> None:
        right = operands.pop()
        operands.append(_APPLY[op](operands.pop(), right))

    def atom(self, token: _Token) -> Formula:
        if token.kind == "ident":
            if token.text == "true":
                return self.universe.true
            if token.text == "false":
                return self.universe.false
            if token.text not in self.universe:
                raise ParseError(
                    f"unknown identifier {token.text!r}", token.line, token.column
                )
            return self.universe.lit(token.text)
        raise ParseError(
            f"expected a formula, got {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )


def parse_formula(text: str, universe: Universe | None = None) -> Formula:
    """Parse the formula mini-language.

    Without a declared universe, the universe is the set of mentioned
    identifiers in lexicographic order.
    """
    tokens = list(_tokenize(text))
    if universe is None:
        names = sorted(
            {t.text for t in tokens if t.kind == "ident" and t.text not in ("true", "false")}
        )
        universe = Universe(names)
    return _FormulaParser(tokens, universe).parse()


def emit_formula(formula: Formula) -> str:
    return str(formula)


# -- classifier bundles ---------------------------------------------------------------------


@dataclass
class ClassifierBundle:
    universe: Universe
    protected: tuple[str, ...]
    positive: Cnf
    negative: Cnf | None


def parse_classifier_bundle(text: str) -> ClassifierBundle:
    """Parse a classifier bundle: variable map, protected set, CNF sections."""
    lines = text.splitlines()
    names: dict[int, tuple[str, int]] = {}
    protected: list[str] = []
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
                index = int(fields[1])
            except ValueError:
                raise ParseError("non-numeric variable index", number) from None
            if index in names:
                raise ParseError(f"variable index {index} declared twice", number)
            names[index] = (fields[2], number)
        elif fields[0] == "protected":
            protected.extend(fields[1:])
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
    if sorted(names) != list(range(1, len(names) + 1)):
        raise ParseError("variable indexes must be 1..n contiguous", 1)
    universe = _named_universe(names, len(names))
    for name in protected:
        if name not in universe:
            raise ParseError(f"protected variable {name!r} is not declared", 1)
    if "delta" not in sections:
        raise ParseError("bundle has no 'section delta'", len(lines) or 1)

    start, body = sections["delta"]
    positive = parse_dimacs("\n".join(body), universe, first_line=start)
    negative = None
    if "negdelta" in sections:
        start, body = sections["negdelta"]
        negative = parse_dimacs("\n".join(body), universe, first_line=start)
    return ClassifierBundle(universe, tuple(protected), positive, negative)


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

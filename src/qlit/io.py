"""Parsers and serializers for the package's text formats.

All formats are ASCII with LF line endings.  This module reads and writes
DIMACS CNF: optional ``c`` comment lines, one ``p cnf <nvars> <nclauses>``
header, then clauses as nonzero integers terminated by ``0`` (clauses may
span lines).  Variable ``i`` maps to index ``i-1`` of the universe.  The
``.nnf`` and SDD formats are in :mod:`qlit.circuits`, the formula language
and classifier bundles in :mod:`qlit.formulas`; their names here (such as
``parse_nnf``) import them on first use, so reading DIMACS loads neither.

Outside formulas, a line whose first non-blank character is ``c`` is a
comment, and an integer field is an optional sign and ASCII digits
(:func:`_ints`; ``int`` alone also reads ``1_0`` and other scripts' digits).
The readers convert each DIMACS integer with :func:`_code`, and emitting
joins the texts that ``Universe._dimacs`` holds per code.  Clauses, terms,
CNFs and DNFs print from the display texts the universe holds next to it,
``Universe._texts``.  A DIMACS, ``.nnf`` or SDD text declares or names at most
:data:`MAX_VARIABLES` variables, and no reader builds a universe larger than
its text before every line is checked.

Parse errors always carry a 1-based line (and column for formulas); no
partial results escape.
"""

from __future__ import annotations

import re
from importlib import import_module
from itertools import chain, compress, count, repeat
from operator import add, is_, itemgetter, rshift

from .core import Universe
from .errors import ParseError
from .tractable import Cnf

__all__ = [
    "parse_dimacs",
    "emit_dimacs",
    "parse_nnf",
    "emit_nnf",
    "parse_sdd",
    "emit_sdd",
    "parse_formula",
    "parse_dnf",
    "emit_formula",
    "parse_classifier_bundle",
    "emit_classifier_bundle",
    "ClassifierBundle",
]

# the names that moved, by their module now
_MOVED = dict.fromkeys("parse_nnf emit_nnf parse_sdd emit_sdd".split(), "circuits") | dict.fromkeys(
    """_Token _tokenize parse_formula parse_dnf emit_formula ClassifierBundle parse_classifier_bundle
    emit_classifier_bundle""".split(),
    "formulas",
)


def __getattr__(name: str):
    """A moved name, read on first use and kept here (PEP 562), so no caller pays this twice."""
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module("." + _MOVED[name], __package__), name)
    return value


MAX_VARIABLES = 1_000_000  # per universe a reader builds; far above any desk-scale input


def _code(value: int) -> int:
    """The literal code of a nonzero DIMACS integer: ``2v - 1`` for ``v``, ``2v - 2`` for ``-v``."""
    return 2 * value - 1 if value > 0 else -2 * value - 2


def _check_variables(nvars: int, number: int) -> None:
    """Refuse, on line ``number``, a universe of ``nvars`` variables past the limit."""
    if nvars > MAX_VARIABLES:
        raise ParseError(f"{nvars} variables, more than the limit of {MAX_VARIABLES}", number)


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


def _universe_names(names: dict[int, tuple[str, int]], nvars: int) -> list[str] | int:
    """What the universe of ``nvars`` variables is built from: the names of
    the ``c var`` comments (or a bundle's ``var`` lines) when they name every
    variable exactly once, else ``nvars``.  Two variables named alike are a
    parse error on the later line."""
    if len(names) != nvars or sorted(names) != list(range(1, nvars + 1)):
        return nvars
    taken: set[str] = set()
    for name, number in sorted(names.values(), key=itemgetter(1)):
        if name in taken:
            raise ParseError(f"duplicate variable name {name!r}", number)
        taken.add(name)
    return [names[i][0] for i in range(1, nvars + 1)]


def _named_universe(names: dict[int, tuple[str, int]], nvars: int) -> Universe:
    return Universe(_universe_names(names, nvars))


# -- DIMACS CNF -------------------------------------------------------------------


def parse_dimacs(
    text: str, universe: Universe | None = None, first_line: int = 1
) -> Cnf:
    """Parse a DIMACS CNF.  ``first_line`` offsets reported line numbers when
    the text is embedded in a larger file.

    Comment lines of the shape ``c var <index> <name>`` assign display names;
    when they cover every variable exactly once the universe uses them (see
    :func:`_universe_names`).

    One scan finds the lines that start with ``c`` or ``p``; each run of
    clause lines between two of them is split at once into one list of
    fields.  One ``map`` looks the fields up among the universe's DIMACS
    texts (any other spelling, such as ``+2`` or ``01``, goes through
    :func:`_ints`), and the clauses are cut, sorted and checked over the
    resulting codes.  A line that is not integers outranks an error in the
    clauses (a literal out of range, a tautology) on an earlier line, so the
    first clause error waits until the last line is read.  An error's line is
    found only when there is one, by counting the fields of its run's lines.
    A universe larger than the text is built only once every line is checked.
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
            _check_variables(header[0], number)

    if header is None:
        raise ParseError("missing 'p cnf' header", max(first_line + len(lines) - 1, first_line))
    nvars, nclauses = header
    try:
        if universe is None:
            spec = _universe_names(names, nvars)
        elif len(universe) != nvars:
            raise ParseError(
                f"header declares {nvars} variables, universe has {len(universe)}",
                first_line,
            )
    except ParseError:
        integers()  # a clause line's error comes first
        raise
    error = None  # the first error in the clauses
    codes = None
    if universe is not None or 2 * nvars <= len(fields):
        # a universe no larger than the text is built now and its DIMACS texts
        # key the fields; a larger one waits until every line is checked
        universe = Universe(spec) if universe is None else universe
        text_codes = dict(zip(universe._dimacs, count()), **{"0": None})
        try:
            codes = list(map(text_codes.__getitem__, fields))
        except KeyError:  # another spelling, such as ``+2`` or ``01``, or no integer
            pass
    if codes is None:
        values = integers()
        bad = next((k for k, value in enumerate(values) if abs(value) > nvars), len(values))
        codes = [_code(value) if value else None for value in values[:bad]]
        if bad < len(values):
            error = ParseError(f"literal {values[bad]} out of range", line_of(bad))

    # a clause ends at the code of each zero; what follows the last is open
    ends = list(compress(count(), map(is_, codes, repeat(None))))
    starts = [0, *map(add, ends, repeat(1))]
    # each clause becomes a tuple at once: ten thousand lists kept alive
    # would each be walked by several garbage collections
    clauses = [tuple(sorted(codes[start:end])) for start, end in zip(starts, ends)]
    # the variables of each clause (``code >> 1``), with no table as large as the header
    variables = map(map, repeat(rshift), clauses, repeat(repeat(1)))
    if sum(map(len, map(set, variables))) < sum(map(len, clauses)):
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
    return Cnf._of(Universe(spec) if universe is None else universe, clauses)


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


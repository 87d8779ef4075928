"""The formula language, classifier bundles and prime forms: what the
classifier queries read, and what quantifying DIMACS or circuit text never
runs.

* The formula language: identifiers, ``~`` negation, ``&``, ``|``, ``=>``
  and ``<=>`` with precedence ``~ > & > | > => > <=>`` (the arrows associate
  to the right), parentheses and the constants ``true`` / ``false``.  An
  identifier is a letter or ``_``, then letters, digits and ``_``, as
  ``str.isalpha`` and ``str.isalnum`` decide.  Any white space separates
  tokens; only ``\\n`` starts a new line in error positions.
  :func:`parse_dnf` reads a formula that is a disjunction of terms as a DNF.

* A classifier bundle is a small header (``var <index> <name>`` lines and an
  optional ``protected <name>...`` line) followed by one or two DIMACS
  sections tagged ``section delta`` and ``section negdelta``.

Prime implicants and implicates are one construction, seeded from models or
counter-models.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .core import Formula, Universe, _iter_bits
from .errors import CapacityError, ParseError
from .io import _ints, _named_universe, emit_dimacs, parse_dimacs
from .tractable import Cnf, Dnf


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
    return _parse(text, universe)[0]


def _parse(text: str, universe: Universe | None) -> tuple[Formula, tuple]:
    """The formula of ``text`` and the mark of its root.  An operand's mark is
    ``(first, split)``: its first token (a group's ``(``) and, for an or-node
    that ``|`` or ``=>`` built, the marks of its two operands, ``None`` for
    the ``~left`` of ``=>``, which starts where the implication does."""
    tokens = list(_tokenize(text))  # a bad character outranks a syntax error
    if universe is None:
        names = {t.text for t in tokens if t.kind == "ident"} - {"true", "false"}
        universe = Universe(sorted(names))
    operands: list[Formula] = []
    marks: list[tuple] = []  # one per operand
    pending: list[_Token] = []  # binary operators, "~" and "("
    want_operand = True
    for token in tokens:
        if want_operand:  # prefix "~" and "(", then an atom
            if token.text in ("~", "("):
                pending.append(token)
            else:
                operands.append(_atom(token, universe))
                marks.append((token, None))
                want_operand = False
            continue
        # apply the pending operators that bind more tightly, or as tightly and
        # group to the left; any other token applies all back to the open "("
        strength = _BINARY.get(token.text, 0)
        while pending and pending[-1].text != "(":
            top = _BINARY.get(pending[-1].text, 5)  # "~" binds tightest
            if top < strength or top == strength <= 2:
                break
            op = pending.pop()
            right = operands.pop()
            if op.text == "~":
                operands.append(~right)
                marks[-1] = (op, None)
                continue
            operands.append(_APPLY[op.text](operands.pop(), right))
            right_mark = marks.pop()
            left_mark = marks[-1]
            if op.text in ("|", "=>"):  # an or-node
                marks[-1] = (left_mark[0], (left_mark if op.text == "|" else None, right_mark))
            else:
                marks[-1] = (left_mark[0], None)
        if strength:
            pending.append(token)
            want_operand = True
        elif not pending:
            if token.kind != "end":
                raise ParseError(f"unexpected {token.text!r}", token.line, token.column)
            return operands[0], marks[0]
        elif token.text == ")":
            marks[-1] = (pending.pop(), marks[-1][1])
        else:
            raise ParseError(
                f"expected ')', got {token.text or 'end of input'!r}", token.line, token.column
            )


def parse_dnf(text: str) -> Dnf:
    """Parse formula ``text`` that is a disjunction of terms into a DNF.

    The universe is the mentioned identifiers, as for :func:`parse_formula`.
    A disjunct ``true`` is the empty term and ``false`` adds no term; inside
    a term ``true`` adds nothing, and ``false`` or a complementary pair makes
    the term false, so it is dropped.  Any other disjunct is a parse error at
    its first token; the ``~x`` of ``x => y`` starts where the implication
    does, at the bracket around it if there is one.
    """
    formula, mark = _parse(text, None)
    u = formula.universe
    kinds, args = u._store.kinds, u._store.args
    terms = []
    disjuncts = [(formula.id, mark)]
    while disjuncts:
        ref, (first, split) = disjuncts.pop()
        if split is not None:  # an or-node: its operands, the left one next
            left, right = args[ref]
            disjuncts.append((right, split[1]))
            disjuncts.append((left, split[0] or (first, None)))
            continue
        codes = set()
        parts = [ref]
        while parts:
            part = parts.pop()
            kind = kinds[part]
            if kind == "and":
                parts += reversed(args[part])
            elif kind == "lit":
                codes.add(args[part])
            elif kind == "not" and kinds[args[part][0]] == "lit":
                codes.add(args[args[part][0]] ^ 1)
            elif kind == "false":
                break
            elif kind != "true":
                raise ParseError("input is not a disjunction of terms", first.line, first.column)
        else:
            if len({code >> 1 for code in codes}) == len(codes):  # no complementary pair
                terms.append(tuple(sorted(codes)))
    return Dnf._of(u, terms)


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

# -- prime implicants and implicates ---------------------------------------------


PRIME_FORM_CAP = 16  # desk scale: prime enumeration is exponential past this


def _consensus_sets(a: frozenset[int], b: frozenset[int]) -> frozenset[int] | None:
    """Combination of two literal-code sets clashing on exactly one variable.
    With a single clash the merge cannot contain a complementary pair."""
    clash = -1
    for code in a:
        if code ^ 1 in b:
            if clash >= 0:
                return None
            clash = code >> 1
    if clash < 0:
        return None
    return frozenset(c for c in a | b if c >> 1 != clash)


def _absorb(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """Keep only the subset-minimal sets (absorption)."""
    ordered = sorted(set(sets), key=len)
    kept: list[frozenset[int]] = []
    for candidate in ordered:
        if not any(other <= candidate for other in kept):
            kept.append(candidate)
    return kept


def _closure_primes(seeds: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Close literal-code sets under pairwise combination with absorption
    after every round.  Quine's classic construction: applied to any DNF of a
    function it yields all prime implicants, and to any CNF all prime
    implicates; interleaving absorption keeps the working set small without
    changing the result."""
    current = _absorb(frozenset(s) for s in seeds)
    while True:
        additions: list[frozenset[int]] = []
        for i, a in enumerate(current):
            for b in current[i + 1 :]:
                merged = _consensus_sets(a, b)
                if merged is None:
                    continue
                if any(k <= merged for k in current):
                    continue
                if any(k <= merged for k in additions):
                    continue
                additions.append(merged)
        if not additions:
            break
        current = _absorb(current + additions)
    return sorted(tuple(sorted(s)) for s in current)


def prime_forms(value, mode: str) -> Dnf | Cnf:
    """All prime implicants (as a DNF) or prime implicates (as a CNF).

    Accepts a formula, circuit, CNF or DNF.  Seeds come from the matching
    flat form when one is given, else from the models (one term each) or the
    counter-models (one clause each, every literal negated); the seeds are
    then closed under consensus/resolution and pruned by subsumption.  Capped
    at 16 variables.
    """
    from . import oracle  # imported where used: the linear routines never need it

    u = value.universe
    if len(u) > PRIME_FORM_CAP:
        raise CapacityError(
            f"universe has {len(u)} variables, prime-form cap is {PRIME_FORM_CAP}"
        )
    if mode not in ("implicants", "implicates"):
        raise ValueError(f"unknown mode {mode!r}")
    form = Dnf if mode == "implicants" else Cnf
    if isinstance(value, form):
        seeds = set(value.codes)
    else:
        flip = form is Cnf
        mask = oracle.models_mask(value)
        if flip:
            mask ^= (1 << (1 << len(u))) - 1
        seeds = {
            tuple(2 * i + ((bits >> i & 1) ^ flip) for i in range(len(u)))
            for bits in _iter_bits(mask)
        }
    return form._of(u, _closure_primes(seeds))


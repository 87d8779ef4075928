"""The DNF reader against the command line's earlier copy of the grammar.

``qlit quantify --repr dnf`` once parsed the text as a formula, flattened its
top-level disjunction, and, to name the disjunct that is not a term, re-split
the tokens by the parser's precedence rules.  The references below are those
three functions.  :func:`qlit.formulas.parse_dnf` now reads the positions
from the parser itself; on seeded texts both must give the same DNF codes and
universe, or the same error type, message, line and column.  The one intended
difference is pinned: a term with a complementary pair is false, so the
reader drops it, where the reference refused the text.
"""

import random
from functools import partial

from qlit import io
from qlit.errors import InvalidLiteralSetError, ParseError, QlitError
from qlit.formulas import _tokenize, parse_dnf
from qlit.tractable import Dnf


# -- references ------------------------------------------------------------------


def ref_operands(store, root: int, kind: str) -> list[int]:
    """The ids of the operands of a nested chain of ``kind`` gates, left to right."""
    out = []
    stack = [root]
    while stack:
        ref = stack.pop()
        if store.kinds[ref] == kind:
            stack.extend(reversed(store.args[ref]))
        else:
            out.append(ref)
    return out


def ref_disjunct_starts(text: str) -> list[tuple[int, int]]:
    """The line and column of each operand of the top-level disjunction of
    formula ``text``, which parses, in the order ``ref_operands`` lists them.

    Mirrors how the parser builds or-nodes: the lowest connective outside
    parentheses splits a span.  ``<=>`` builds an and-node, so the span is
    one operand; the first ``=>`` builds ``~left | right``, whose operands
    are ``~left`` and those of ``right``; ``|`` splits it into disjuncts.  A
    group around a whole span is looked through."""
    tokens = list(_tokenize(text))[:-1]  # without the end token
    closing, opened = {}, []
    for k, token in enumerate(tokens):
        if token.text == "(":
            opened.append(k)
        elif token.text == ")":
            closing[opened.pop()] = k
    out = []
    spans = [(0, len(tokens))]
    while spans:
        start, end = spans.pop()
        first = tokens[start]
        while tokens[start].text == "(" and closing[start] == end - 1:
            start, end = start + 1, end - 1
        outside: dict[str, list[int]] = {"<=>": [], "=>": [], "|": []}
        k = start
        while k < end:
            if tokens[k].text == "(":
                k = closing[k]
            elif tokens[k].text in outside:
                outside[tokens[k].text].append(k)
            k += 1
        if outside["=>"] and not outside["<=>"]:
            cut = outside["=>"][0]
            out.append((first.line, first.column))
            spans.append((cut + 1, end))
        elif outside["|"] and not outside["<=>"]:
            bounds = [start - 1, *outside["|"], end]
            spans.extend((bounds[j] + 1, bounds[j + 1]) for j in reversed(range(len(bounds) - 1)))
        else:
            out.append((first.line, first.column))
    return out


def ref_formula_to_dnf(text: str, drop_inconsistent: bool = False) -> Dnf:
    """The earlier reader; ``drop_inconsistent`` applies the pinned fix."""
    formula = io.parse_formula(text)
    u = formula.universe
    kinds, args = u._store.kinds, u._store.args
    terms = []
    for k, part in enumerate(ref_operands(u._store, formula.id, "or")):
        codes = []
        for ref in ref_operands(u._store, part, "and"):
            if kinds[ref] == "not" and kinds[args[ref][0]] == "lit":
                codes.append(args[args[ref][0]] ^ 1)
            elif kinds[ref] == "lit":
                codes.append(args[ref])
            elif kinds[ref] == "false":  # the term is false: the DNF drops it
                break
            elif kinds[ref] != "true":
                line, column = ref_disjunct_starts(text)[k]
                raise ParseError("input is not a disjunction of terms", line, column)
        else:
            if drop_inconsistent and any(c ^ 1 in codes for c in codes):
                continue
            terms.append(u.term([u.literal_by_code(c) for c in codes]))
    return Dnf(u, terms)


# -- seeded texts ----------------------------------------------------------------


LITERALS = ["a", "b", "c", "~a", "~b", "~c", "~~a", "true", "false"]
BINARY = [" | ", " | ", "\n| ", " & ", " & ", " => ", " <=> "]


def _text(rng: random.Random, depth: int, seen: list[str]) -> str:
    """A formula over three variables, mostly near a disjunction of terms;
    a subtext already made comes back now and then, so the parser shares its
    nodes."""
    if seen and rng.random() < 0.1:
        return rng.choice(seen)
    if depth == 0 or rng.random() < 0.25:
        out = " & ".join(rng.choice(LITERALS) for _ in range(rng.randint(1, 3)))
    elif rng.random() < 0.1:
        out = "~(" + _text(rng, depth - 1, seen) + ")"
    else:
        out = _text(rng, depth - 1, seen) + rng.choice(BINARY) + _text(rng, depth - 1, seen)
    if rng.random() < 0.3:
        out = "(" + out + ")"
    seen.append(out)
    return out


def _outcome(read, text: str):
    try:
        dnf = read(text)
    except QlitError as error:
        return type(error), str(error), getattr(error, "line", None), getattr(error, "column", None)
    return dnf.codes, [v.name for v in dnf.universe.variables]


class TestDnfReaderAgainstReference:
    def test_seeded_texts_read_alike(self):
        rng = random.Random(2117)
        counts = {"dnf": 0, "not a term": 0, "syntax": 0, "pinned": 0}
        for _ in range(5000):
            text = _text(rng, rng.randint(1, 5), [])
            if rng.random() < 0.05:  # a syntax error somewhere
                cut = rng.randrange(len(text))
                text = text[:cut] + rng.choice(["", "(", ")", "|", "?"]) + text[cut + 1 :]
            got = _outcome(parse_dnf, text)
            want = _outcome(partial(ref_formula_to_dnf, drop_inconsistent=True), text)
            assert got == want, text
            before = _outcome(ref_formula_to_dnf, text)
            if before != want:  # only the pinned fix tells the two apart
                assert before[0] is InvalidLiteralSetError
                assert before[1].startswith("inconsistent term: complementary pair over ")
                counts["pinned"] += 1
            elif want[0] is ParseError:
                counts["not a term" if "disjunction" in want[1] else "syntax"] += 1
            else:
                counts["dnf"] += 1
        assert min(counts.values()) >= 50, counts

    def test_a_shared_disjunction_is_placed_where_it_is_read(self):
        # the first copy of the disjunction sits in a term that ``false``
        # drops, so the error names the second copy
        shared = "(a | ((b | c) => a))"
        text = f"false & {shared} | {shared}"
        assert _outcome(parse_dnf, text) == _outcome(ref_formula_to_dnf, text)
        assert _outcome(parse_dnf, text)[2:] == (1, 37)

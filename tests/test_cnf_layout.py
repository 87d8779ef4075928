"""CNFs and DNFs stored as code tuples: the text of every flat-form routine's
output, pinned by digest."""

import hashlib
import random

from qlit.core import Universe
from qlit.io import emit_dimacs, parse_dimacs
from qlit.tractable import (
    Cnf,
    Dnf,
    close_under,
    cnf_exists_literal,
    cnf_forall_literal,
    dnf_exists_literal,
    dnf_forall_literal,
)

# SHA-256 of the texts of the corpus forms and of each routine's outputs over
# them, in corpus order, recorded from the per-clause object layout that the
# code tuples replaced
DIGESTS = {
    "close_under": "371e5fa8ab9f614b73d599476e09d2badce6947fb8fba882ae333ba4a2d76f51",
    "cnf_exists_literal": "fe2f6bcce67668ba0a1921e4dba70a23c20b38a7d024fd7055ef5b722cd14d55",
    "cnf_forall_literal": "5ef77b7d045d04f6b0af9bc0ee3e5db2f3bdbe9ec31ae9e55b57c57289e17c7b",
    "corpus": "f0e18410b96a1d5a68f9e7fed48c3f85bfd4ec3396b0e78fae13c7632b95bc6d",
    "dnf_exists_literal": "4a9f13468b6ccc5bbf7bfb0826f3cef543cfab8a227560095da22bd268a243c5",
    "dnf_forall_literal": "08a536568303dbbeae1bff0ee0a754051377e601b6c4181b53d9eb80a417e482",
}

ROUTINES = {
    Cnf: (("cnf_forall_literal", cnf_forall_literal), ("cnf_exists_literal", cnf_exists_literal)),
    Dnf: (("dnf_exists_literal", dnf_exists_literal), ("dnf_forall_literal", dnf_forall_literal)),
}


def _elements(u, rng, empty: bool) -> list:
    """Random elements of 0-3 literals over distinct variables, some
    repeated; each is a literal-spec list or a ``Clause``/``Term`` object."""
    out = []
    for _ in range(rng.randint(1, 2 * len(u))):
        width = rng.randint(0 if empty else 1, min(3, len(u)))
        picks = [
            u.literal_by_code(2 * v + rng.randrange(2))
            for v in rng.sample(range(len(u)), width)
        ]
        out.append(picks if rng.random() < 0.5 else [str(lit) for lit in picks])
    out += rng.sample(out, rng.randint(0, len(out)))  # duplicates
    return out


def _named(cnf: Cnf, rng) -> Cnf:
    """``cnf`` re-parsed from DIMACS text with ``c var`` names."""
    u = cnf.universe
    names = [f"n{rng.randrange(100)}_{i}" for i in range(len(u))]
    comments = "".join(f"c var {i + 1} {name}\n" for i, name in enumerate(names))
    return parse_dimacs(comments + emit_dimacs(cnf))


def _corpus():
    """``(form, literals, variable)``: the true and false forms and random
    CNFs and DNFs over 1-8 variables, with duplicate and empty elements,
    some re-parsed with ``c var`` names."""
    rng = random.Random(9109)
    for n in range(1, 9):
        u = Universe([f"v{i}" for i in range(n)] if n % 2 else n)
        forms = [Cnf(u), Cnf(u, [u.clause()]), Dnf(u), Dnf(u, [u.term()])]
        for _ in range(6):
            forms.append(Cnf(u, [u.clause(e) for e in _elements(u, rng, rng.random() < 0.2)]))
            forms.append(Dnf(u, [u.term(e) for e in _elements(u, rng, rng.random() < 0.2)]))
        forms.append(_named(forms[-2], rng))
        forms.append(_named(Cnf(u, _elements(u, rng, False)), rng))
        for form in forms:
            lits = [
                form.universe.literal_by_code(rng.randrange(2 * n))
                for _ in range(rng.randint(1, 3))
            ]
            yield form, lits, form.universe.variables[rng.randrange(n)]


def _text(form) -> str:
    """The display text, the DIMACS text of a CNF, and the element codes in
    construction order."""
    parts = [type(form).__name__, str(form), repr([e.codes for e in form.elements])]
    if isinstance(form, Cnf):
        parts.append(emit_dimacs(form))
    return "\n".join(parts)


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


def digests() -> dict[str, str]:
    texts: dict[str, list[str]] = {"corpus": [], "close_under": []}
    for form, lits, var in _corpus():
        texts["corpus"].append(_text(form))
        texts["close_under"].append(_text(close_under(form, var)))
        for name, routine in ROUTINES[type(form)]:
            texts.setdefault(name, []).append(_text(routine(form, lits)))
    return {name: _digest(items) for name, items in sorted(texts.items())}


class TestOutputDigests:
    def test_corpus_size(self):
        assert sum(1 for _ in _corpus()) == 8 * 18

    def test_texts_are_unchanged(self):
        assert digests() == DIGESTS

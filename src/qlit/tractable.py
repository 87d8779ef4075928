"""Efficient quantification on CNF and DNF inputs.

Every quantifier here takes a value and a collection of literals, ``(value,
lits)``.  A CNF or DNF is stored as one tuple of sorted literal-code tuples,
and the flat-form routines read and write those tuples; :class:`Clause` and
:class:`Term` objects are made only when a caller reads ``elements``.  The
flat-form routines come in dual pairs, as in the source paper, and each pair
is one rule on literal codes.  Universal quantification on a
CNF and existential quantification on a DNF drop the negated literals (CNF)
or the literals (DNF) from every element, in one linear pass for the whole
set.  Existential quantification on a CNF and universal quantification on a
DNF delete, literal by literal, every element holding ``l`` (CNF) or ``~l``
(DNF), once the form is closed under resolution or consensus on its
variable; the missing resolvents and consensus terms come from one
generator.  Every routine here is oracle-checked against its definitional
counterpart by the test suite.

Closure preconditions are never assumed silently: callers either ask for the
closure to be computed first or assert it and get an error when the check
fails.

The circuit verifiers and routines are in :mod:`qlit.circuits` and ``prime_forms`` in
:mod:`qlit.formulas`; their names here import those on first use, so CNFs load neither.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from importlib import import_module
from itertools import repeat

from .core import Clause, Formula, Literal, Term, Universe, Variable
from .errors import InvalidLiteralSetError, PreconditionError

__all__ = [
    "Cnf",
    "Dnf",
    "cnf_forall_literal",
    "cnf_exists_literal",
    "dnf_exists_literal",
    "dnf_forall_literal",
    "close_under",
    "is_closed_under",
    "prime_forms",
    "verify_dnnf",
    "verify_decision_dnnf",
    "verify_sdd",
    "ddnnf_exists",
    "ddnnf_shift",
    "ddnnf_forall",
    "sdd_exists",
    "sdd_shift",
    "sdd_forall",
]

# the names that moved, by their module now
_MOVED = dict.fromkeys("PRIME_FORM_CAP _closure_primes prime_forms".split(), "formulas") | dict.fromkeys(
    """_var_bitmasks verify_dnnf verify_decision_dnnf SDD_SEMANTIC_CHECK_CAP verify_sdd ddnnf_exists
    ddnnf_shift ddnnf_forall sdd_exists sdd_shift sdd_forall""".split(),
    "circuits",
)


def __getattr__(name: str):
    """A moved name, read on first use and kept here (PEP 562), so no caller pays this twice."""
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module("." + _MOVED[name], __package__), name)
    return value


class _FlatForm:
    """Shared behaviour of CNFs and DNFs.

    A form stores ``codes``, one tuple of sorted literal codes per element,
    deduplicated and in construction order; nothing else is kept and nothing
    is filled in later.  The constructor checks each element: a clause or
    term, or a literal collection as for :meth:`Universe.clause`.
    ``elements`` (``clauses``, ``terms``) makes a :class:`Clause` or
    :class:`Term` per element on each access, and display and iteration sort
    the tuples on each call."""

    __slots__ = ("universe", "codes")
    _element_type: type
    _what: str

    def __init__(self, universe: Universe, elements: Iterable = ()):
        codes = []
        for element in elements:
            if isinstance(element, self._element_type):
                if element.universe is not universe:
                    raise InvalidLiteralSetError("element from a different universe")
                codes.append(element.codes)
            else:
                codes.append(universe._codes(element, self._what))
        self.universe = universe
        self.codes: tuple[tuple[int, ...], ...] = tuple(dict.fromkeys(codes))

    @classmethod
    def _of(cls, universe: Universe, codes: Iterable[tuple[int, ...]]):
        """The form of code tuples known to be valid elements, deduplicated."""
        form = object.__new__(cls)
        form.universe = universe
        form.codes = tuple(dict.fromkeys(codes))
        return form

    @property
    def elements(self) -> tuple:
        view, u = self._element_type._view, self.universe
        return tuple([view(u, codes) for codes in self.codes])

    def sorted_elements(self) -> tuple:
        return tuple(sorted(self.elements))

    @property
    def _key(self) -> frozenset:
        return frozenset(self.codes)

    def to_formula(self) -> Formula:
        """The conjunction (CNF) or disjunction (DNF) of the elements'
        formulas, in canonical order."""
        u, join = self.universe, self._element_type._join
        return self._join(u, [join(u, map(u.lit, codes)) for codes in sorted(self.codes)])

    def literal_count(self) -> int:
        return sum(map(len, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator:
        return iter(self.sorted_elements())

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.universe is self.universe
            and other._key == self._key
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, id(self.universe), self._key))

    def __str__(self) -> str:
        """The elements in canonical order; a CNF parenthesizes its clauses
        of two literals or more.  Each element's literals are joined in bulk,
        and when every element has two or more, so are the elements."""
        codes = sorted(self.codes)
        parts = map(self._inner.join, map(map, repeat(self.universe._texts.__getitem__), codes))
        left, right = self._wrap
        if min(map(len, codes), default=0) > 1:
            return left + (right + self._outer + left).join(parts) + right
        empty = self._element_type._empty
        return self._outer.join([
            left + part + right if len(element) > 1 else part or empty
            for element, part in zip(codes, parts)
        ]) or self._empty

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Cnf(_FlatForm):
    """A conjunction of non-valid clauses.  Empty means ``true``; containing
    the empty clause means ``false``."""

    __slots__ = ()
    _element_type, _what, _join = Clause, "clause", staticmethod(Universe.all_conj)
    _name, _rule = "CNF", "resolution"
    _outer, _inner, _wrap, _empty = " & ", " | ", ("(", ")"), "true"

    clauses = _FlatForm.elements

    def is_true(self) -> bool:
        return not self.codes

    def is_false(self) -> bool:
        return () in self.codes


class Dnf(_FlatForm):
    """A disjunction of consistent terms.  Empty means ``false``; containing
    the empty term means ``true``."""

    __slots__ = ()
    _element_type, _what, _join = Term, "term", staticmethod(Universe.all_disj)
    _name, _rule = "DNF", "consensus"
    _outer, _inner, _wrap, _empty = " | ", " & ", ("", ""), "false"

    terms = _FlatForm.elements

    def is_false(self) -> bool:
        return not self.codes

    def is_true(self) -> bool:
        return () in self.codes


# -- flat-form quantification ---------------------------------------------------


def _codes(universe: Universe, lits: Iterable) -> list[int]:
    """The codes of ``lits``, in order.  A bare literal or string is refused
    rather than read as one literal or as its characters."""
    if isinstance(lits, (str, Literal)):
        raise TypeError(f"expected a collection of literals, got {lits!r}")
    return [universe.literal(lit).code for lit in lits]


def _drop(form, codes: set[int]):
    """Remove ``codes`` from every element, in one pass.  An empty element,
    there already or left so, absorbs the form: ``false`` for a CNF, ``true``
    for a DNF.  No codes leave the form as it is."""
    if not codes:
        return form
    out = []
    for element in form.codes:
        if not codes.isdisjoint(element):
            element = tuple([c for c in element if c not in codes])
        if not element:
            return form._of(form.universe, [()])
        out.append(element)
    return form._of(form.universe, out)


def _remove(form, codes: list[int], assume_closed: bool):
    """Delete every element holding each code, in the given order.  Sound only
    once the form is closed on the code's variable: with ``assume_closed`` the
    closure is verified (error on failure), otherwise it is computed first."""
    for code in codes:
        var = form.universe.variables[code >> 1]
        if assume_closed:
            if not is_closed_under(form, var):
                raise PreconditionError(
                    f"{form._name} is not closed under {form._rule} on {var.name}"
                )
        else:
            form = close_under(form, var)
        form = form._of(form.universe, [e for e in form.codes if code not in e])
    return form


def cnf_forall_literal(cnf: Cnf, lits: Iterable) -> Cnf:
    """Drop the negation of every literal in ``lits`` from every clause; an
    empty clause collapses the result to ``false``.  Linear in literal count."""
    return _drop(cnf, {code ^ 1 for code in _codes(cnf.universe, lits)})


def cnf_exists_literal(cnf: Cnf, lits: Iterable, assume_closed: bool = False) -> Cnf:
    """Remove every clause containing a literal of ``lits``, on the closure
    under resolution on its variable, one literal at a time."""
    return _remove(cnf, _codes(cnf.universe, lits), assume_closed)


def dnf_exists_literal(dnf: Dnf, lits: Iterable) -> Dnf:
    """Drop every literal in ``lits`` from every term; an empty term collapses
    the result to ``true``.  Linear in literal count."""
    return _drop(dnf, set(_codes(dnf.universe, lits)))


def dnf_forall_literal(dnf: Dnf, lits: Iterable, assume_closed: bool = False) -> Dnf:
    """Remove every term containing the negation of a literal of ``lits``, on
    the closure under consensus on its variable, one literal at a time."""
    return _remove(dnf, [code ^ 1 for code in _codes(dnf.universe, lits)], assume_closed)


def _missing(form, var: Variable) -> Iterator[tuple[int, ...]]:
    """The resolvents (CNF) or consensus terms (DNF) on ``var`` that the form
    lacks, as code tuples, each once: the union of an element holding the
    positive literal and one holding the negative, less both, unless the rest
    clashes on some other variable."""
    form.universe.check(var)
    pos = 2 * var.index + 1
    seen = set(form.codes)
    with_pos = [e for e in form.codes if pos in e]
    with_neg = [e for e in form.codes if pos ^ 1 in e]
    for a in with_pos:
        for b in with_neg:
            merged = set(a) | set(b)
            merged.discard(pos)
            merged.discard(pos ^ 1)
            for code in merged:
                if code ^ 1 in merged:
                    break
            else:
                codes = tuple(sorted(merged))
                if codes not in seen:
                    seen.add(codes)
                    yield codes


def close_under(form: Cnf | Dnf, var: Variable) -> Cnf | Dnf:
    """Add every resolvent (CNF) or consensus term (DNF) on ``var``.

    Results never mention ``var``, so one pass reaches the fixpoint.  Models
    are unchanged.
    """
    return form._of(form.universe, [*form.codes, *_missing(form, var)])


def is_closed_under(form: Cnf | Dnf, var: Variable) -> bool:
    """Whether every resolvent or consensus term on ``var`` is already
    present."""
    return next(_missing(form, var), None) is None


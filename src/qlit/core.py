"""Canonical Boolean values: variables, literals, worlds, terms, clauses,
formulas and NNF circuits, plus conditioning, evaluation and negation.

Every value is immutable after construction and carries an explicit variable
universe.  Mixing universes in one operation is an error, never an implicit
union: downstream notions (boundary rules in particular) change meaning when
the universe changes.

Literals are encoded internally as dense integer codes ``2*index + polarity``
so that the canonical order (variable index ascending, negative before
positive) is plain integer order.  A term or clause is a sorted tuple of
codes; CNFs and DNFs store only such tuples and make :class:`Clause` and
:class:`Term` objects when their elements are read.

Formulas and circuits are DAGs in one layout: parallel per-node lists of
kinds (``true``, ``false``, ``lit``, ``not``, ``and``, ``or``), arguments (a
literal code, a tuple of child ids, or ``None``) and declared decision
variables (-1 if none), which a :class:`CircuitBuilder` makes, interning
each node on ``(kind, argument, decision)``.  Ids index the lists and every
child is older than its parents.  Each universe owns one such builder, its
store, which only grows and holds every formula node of the universe; a
:class:`Formula` is a handle ``(universe, id)``, made once per id, and only
formulas use ``not``, whose argument is the one-child tuple.  A
:class:`Circuit` owns its lists, numbered from 0.

Every pass is written once, on the ids of the store and root that a value
gives.  :func:`walk` lists the ids under some roots, children first.
:func:`truth_table` evaluates one or several roots of a DAG in one walk on
bit-parallel variable masks, one world per bit.  It keeps every node's
table when the tables are at most ``2**16`` bits wide and fit in 8 MiB;
otherwise it frees each table after its last reader and makes a literal's
table at each reader.  ``_var_patterns`` builds the masks by doubling, once
per number of variables.
:func:`rebuild` copies a DAG into a builder: it replaces literals by
constants, builds the De Morgan dual on request and folds every gate by
:meth:`CircuitBuilder.fold`.  Conditioning stays in the store and rebuilds
only the :func:`cone` of its variable, the nodes whose image can differ
from themselves; interning hands every other node back as its own image, so
the result is the one a whole-DAG rebuild gives, node for node and in the
same creation order.  None recurses, so only memory bounds the depth of a
DAG.
"""

from __future__ import annotations

import threading
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache, reduce
from itertools import chain, count, cycle, repeat
from operator import and_, or_

from .errors import (
    ArityError,
    InvalidLiteralSetError,
    UniverseMismatchError,
)

__all__ = [
    "Variable",
    "Literal",
    "Universe",
    "World",
    "Term",
    "Clause",
    "Formula",
    "Circuit",
    "CircuitBuilder",
    "Annotation",
    "flip",
    "condition",
    "evaluate",
    "negate",
]


def _refuse_assignment(self, name: str, value=None) -> None:
    """Variables, literals, formulas and circuits are immutable: the
    constructor sets each field once."""
    raise AttributeError(f"cannot assign to field {name!r}")


class Variable:
    """A Boolean variable: a dense index plus a display name."""

    __slots__ = ("index", "name")
    __setattr__ = __delattr__ = _refuse_assignment

    def __init__(self, index: int, name: str):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Variable:
            return self.index == other.index and self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        # equal variables share an index; no tuple and no nested call
        return self.index

    def __reduce__(self) -> tuple:
        return Variable, (self.index, self.name)

    def __repr__(self) -> str:
        return f"Variable({self.index}, {self.name!r})"


class Literal:
    """A variable together with a polarity."""

    __slots__ = ("variable", "positive")
    __setattr__ = __delattr__ = _refuse_assignment

    def __init__(self, variable: Variable, positive: bool):
        if variable.__class__ is not Variable:
            raise TypeError(f"a literal's variable must be a Variable, got {variable!r}")
        if positive.__class__ is not bool:
            raise TypeError(f"a literal's polarity must be a bool, got {positive!r}")
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "positive", positive)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Literal:
            return self.variable == other.variable and self.positive == other.positive
        return NotImplemented

    def __hash__(self) -> int:
        # the literal's code, read without calling the variable's hash
        return self.variable.index * 2 + self.positive

    def __reduce__(self) -> tuple:
        return Literal, (self.variable, self.positive)

    @property
    def code(self) -> int:
        return self.variable.index * 2 + (1 if self.positive else 0)

    def __invert__(self) -> "Literal":
        return Literal(self.variable, not self.positive)

    def __str__(self) -> str:
        return self.variable.name if self.positive else "~" + self.variable.name

    def __repr__(self) -> str:
        return f"Literal({self})"

    def __lt__(self, other: "Literal") -> bool:
        return self.code < other.code


LiteralLike = Literal | str
ItemLike = Literal | Variable | str


class Universe:
    """An ordered, fixed set of Boolean variables.

    All worlds, terms, clauses, formulas and circuits reference exactly one
    universe.  The universe also owns the store of its formula nodes:
    :meth:`lit`, :meth:`gate`, :meth:`fold` and the :class:`Formula`
    operators intern their node there, so constructing the same expression
    twice yields the identical formula.
    """

    def __init__(self, names: Iterable[str] | int):
        if isinstance(names, int):
            names = [f"x{i + 1}" for i in range(names)]
        names = list(names)
        # each slot is set through its descriptor: no ``__init__`` runs per object
        variables = list(map(object.__new__, repeat(Variable, len(names))))
        self._by_name: dict[str, Variable] = dict(zip(names, variables))
        if len(self._by_name) < len(names):
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise InvalidLiteralSetError(f"duplicate variable name {name!r}")
                seen.add(name)
        deque(map(Variable.index.__set__, variables, count()), 0)
        deque(map(Variable.name.__set__, variables, names), 0)
        literals = list(map(object.__new__, repeat(Literal, 2 * len(names))))
        deque(map(Literal.variable.__set__, literals, _by_code(variables, variables)), 0)
        deque(map(Literal.positive.__set__, literals, cycle((False, True))), 0)
        self._variables: tuple[Variable, ...] = tuple(variables)
        self._literals = tuple(literals)
        # by literal code, like ``_literals``: the display text, and the
        # signed DIMACS integer as a string (variable ``i`` is ``i + 1``)
        numbers = [str(i) for i in range(1, len(variables) + 1)]
        self._texts = _by_code(["~" + name for name in names], names)
        self._dimacs = _by_code(["-" + number for number in numbers], numbers)
        self._store = _Store(self)
        self._node_cache: dict[tuple, int] = self._store._cache
        # the oracle's truth tables of the roots it was asked for, by id
        # (small universes); the oracle replaces it with an empty one when
        # it is full
        self._oracle_mask_cache: dict[int, int] = {}
        self.true = self._store.finish(self._store.true)
        self.false = self._store.finish(self._store.false)

    # -- basic access ------------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self._variables

    def __len__(self) -> int:
        return len(self._variables)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._variables)

    def __repr__(self) -> str:
        return f"Universe([{', '.join(v.name for v in self._variables)}])"

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise UniverseMismatchError(f"unknown variable {name!r}") from None

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Variable):
            return (
                0 <= item.index < len(self._variables)
                and self._variables[item.index] == item
            )
        if isinstance(item, Literal):
            return item.variable in self
        if isinstance(item, str):
            return item in self._by_name
        return False

    def check(self, item: Variable | Literal) -> None:
        """Refuse anything but a variable or literal of this universe (names
        are resolved by :meth:`variable` and :meth:`item`, not here).  The
        universe's own variables, and literals over them, pass by identity."""
        var = item.variable if item.__class__ is Literal else item
        own = self._variables
        if var.__class__ is Variable and 0 <= var.index < len(own) and own[var.index] is var:
            return
        if not isinstance(item, (Variable, Literal)) or item not in self:
            raise UniverseMismatchError(f"expected a variable or literal of {self}, got {item!r}")

    # -- literal construction ---------------------------------------------

    def literal(self, spec: LiteralLike) -> Literal:
        """Resolve ``"x"`` / ``"~x"`` / an existing literal to a literal."""
        if isinstance(spec, Literal):
            self.check(spec)
            return spec
        if not isinstance(spec, str):
            raise TypeError(f"expected a literal or its name, got {spec!r}")
        return self._literals[self._code(spec)]

    def _code(self, text: str) -> int:
        """The code of ``"x"`` or ``"~x"``, blanks around the ``~`` and the
        name ignored."""
        name = text.strip()
        positive = not name.startswith("~")
        if not positive:
            name = name[1:].lstrip()
        try:
            return self._by_name[name].index * 2 + positive
        except KeyError:
            raise UniverseMismatchError(f"unknown variable {name!r}") from None

    def literal_by_code(self, code: int) -> Literal:
        return self._literals[code]

    def pos(self, name: str) -> Literal:
        return self.literal(name)

    def neg(self, name: str) -> Literal:
        return self.literal("~" + name)

    def item(self, spec: ItemLike) -> Literal | Variable:
        """Resolve a quantification item: a literal or a whole variable.

        A string that matches a declared name (or ``~name``) is a literal; a
        string that equals a declared name with its first character upper-cased
        denotes the variable itself (both literals), mirroring the convention
        used on the command line.
        """
        if isinstance(spec, (Literal, Variable)):
            self.check(spec)
            return spec
        if not isinstance(spec, str):
            raise TypeError(f"expected a literal, a variable or a name, got {spec!r}")
        name = spec.strip()
        if name.startswith("~") or name in self._by_name:
            return self.literal(name)
        lowered = name[:1].lower() + name[1:]
        if name[:1].isupper() and lowered in self._by_name:
            return self._by_name[lowered]
        raise UniverseMismatchError(f"unknown variable or literal {spec!r}")

    # -- worlds ------------------------------------------------------------

    def world(self, literals: Iterable[LiteralLike] | int) -> "World":
        if isinstance(literals, int):
            if not 0 <= literals < (1 << len(self)):
                raise ArityError(f"world index {literals} out of range")
            return World(self, literals)
        bits = 0
        seen = 0
        for spec in literals:
            lit = self.literal(spec)
            mark = 1 << lit.variable.index
            if seen & mark:
                raise ArityError(f"two literals over variable {lit.variable.name}")
            seen |= mark
            if lit.positive:
                bits |= mark
        if seen != (1 << len(self)) - 1:
            missing = [v.name for v in self if not seen & (1 << v.index)]
            raise ArityError(f"world misses variables: {', '.join(missing)}")
        return World(self, bits)

    def worlds(self) -> Iterator["World"]:
        for bits in range(1 << len(self)):
            yield World(self, bits)

    # -- terms and clauses ---------------------------------------------------

    def term(self, literals: Iterable[LiteralLike] | str = ()) -> "Term":
        return Term(self, self._codes(literals, "term"))

    def clause(self, literals: Iterable[LiteralLike] | str = ()) -> "Clause":
        return Clause(self, self._codes(literals, "clause"))

    def _codes(self, literals: Iterable[LiteralLike] | str, what: str) -> tuple[int, ...]:
        """The sorted codes of ``literals``, or of the comma-separated names
        of a string (blank parts skipped), read without literal objects."""
        if isinstance(literals, str):
            found = map(self._code, filter(str.strip, literals.split(",")))
        else:
            found = (self.literal(spec).code for spec in literals)
        codes: set[int] = set()
        for code in found:
            if code ^ 1 in codes:
                kind = "inconsistent" if what == "term" else "valid"
                raise InvalidLiteralSetError(
                    f"{kind} {what}: complementary pair over {self._variables[code >> 1].name}"
                )
            codes.add(code)
        return tuple(sorted(codes))

    # -- formula constructors ----------------------------------------------

    def lit(self, spec: LiteralLike | int) -> "Formula":
        """The literal node of ``spec``: a literal, its string form or its
        integer code."""
        store = self._store
        return store.finish(store.lit(spec if isinstance(spec, int) else self.literal(spec)))

    def gate(self, kind: str, parts: Iterable["Formula"]) -> "Formula":
        """The ``kind`` gate over ``parts``, unfolded: ``and`` or ``or`` of
        any arity, or ``not`` of one part."""
        ids = tuple([part.id for part in parts])
        if kind not in ("and", "or") and (kind != "not" or len(ids) != 1):
            raise ValueError(f"no {kind!r} gate of {len(ids)} parts")
        store = self._store
        return store.finish(store._add(kind, ids))

    def fold(self, kind: str, parts: Iterable["Formula"]) -> "Formula":
        """The ``kind`` gate over ``parts``, folded by :meth:`CircuitBuilder.fold`."""
        store = self._store
        return store.finish(store.fold(kind, [part.id for part in parts]))

    def all_conj(self, parts: Iterable["Formula"]) -> "Formula":
        parts = tuple(parts)
        return reduce(and_, parts) if parts else self.true

    def all_disj(self, parts: Iterable["Formula"]) -> "Formula":
        parts = tuple(parts)
        return reduce(or_, parts) if parts else self.false


def _by_code(negative: list, positive: list) -> tuple:
    """One entry per literal code from the entries of the negative and the
    positive literal of each variable."""
    return tuple(chain.from_iterable(zip(negative, positive)))


class World:
    """A total truth assignment, stored as a bit per variable."""

    __slots__ = ("universe", "bits")

    def __init__(self, universe: Universe, bits: int):
        self.universe = universe
        self.bits = bits

    def literals(self) -> tuple[Literal, ...]:
        return tuple(
            self.universe.literal_by_code(2 * v.index + bool(self.bits >> v.index & 1))
            for v in self.universe
        )

    def value(self, var: Variable) -> bool:
        self.universe.check(var)
        return bool(self.bits >> var.index & 1)

    def __contains__(self, lit: Literal) -> bool:
        if lit.variable not in self.universe:
            return False
        return self.value(lit.variable) == lit.positive

    def flip(self, lit: LiteralLike) -> "World":
        """Replace the literal of ``lit``'s variable by ``lit``; the world is
        returned unchanged when the literal already holds."""
        lit = self.universe.literal(lit)
        if lit in self:
            return self
        return World(self.universe, self.bits ^ (1 << lit.variable.index))

    def to_term(self) -> "Term":
        return Term(self.universe, tuple(lit.code for lit in self.literals()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, World)
            and other.universe is self.universe
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash(self.bits)

    def __lt__(self, other: "World") -> bool:
        return self.bits < other.bits

    def __str__(self) -> str:
        return " ".join(str(lit) for lit in self.literals())

    def __repr__(self) -> str:
        return f"World({self})"


class _LiteralSet:
    """Shared behaviour of terms and clauses (sets of literals over distinct
    variables, kept in canonical code order).  CNFs and DNFs make them on
    access through :meth:`_view`, which skips the constructor's check."""

    __slots__ = ("universe", "codes")

    def __init__(self, universe: Universe, codes: tuple[int, ...]):
        self.universe = universe
        self.codes = codes
        vars_seen = {c >> 1 for c in codes}
        if len(vars_seen) != len(codes):
            raise InvalidLiteralSetError("two literals over one variable")

    @classmethod
    def _view(cls, universe: Universe, codes: tuple[int, ...]):
        """The element of ``codes``, known to be over distinct variables."""
        element = object.__new__(cls)
        element.universe = universe
        element.codes = codes
        return element

    def literals(self) -> tuple[Literal, ...]:
        return tuple(self.universe.literal_by_code(c) for c in self.codes)

    def variables(self) -> tuple[Variable, ...]:
        return tuple(self.universe.variables[c >> 1] for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals())

    def __contains__(self, lit: Literal) -> bool:
        return lit.variable in self.universe and lit.code in self.codes

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.universe is self.universe  # type: ignore[attr-defined]
            and other.codes == self.codes  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, id(self.universe), self.codes))

    def __lt__(self, other: "_LiteralSet") -> bool:
        return self.codes < other.codes

    def to_formula(self) -> "Formula":
        """The conjunction (term) or disjunction (clause) of the literals."""
        u = self.universe
        return self._join(u, map(u.lit, self.codes))

    def __str__(self) -> str:
        return self._sep.join(map(self.universe._texts.__getitem__, self.codes)) or self._empty

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Term(_LiteralSet):
    """A consistent set of literals; the empty term is ``true``."""

    _join, _sep, _empty = staticmethod(Universe.all_conj), ",", "true"

    def is_total(self) -> bool:
        return len(self.codes) == len(self.universe)

    def to_world(self) -> World:
        if not self.is_total():
            raise ArityError("term does not cover the universe")
        bits = 0
        for code in self.codes:
            if code & 1:
                bits |= 1 << (code >> 1)
        return World(self.universe, bits)

    def issubset(self, other: "Term") -> bool:
        return set(self.codes) <= set(other.codes)

    def difference(self, literals: Iterable[Literal]) -> "Term":
        drop = {self.universe.literal(l).code for l in literals}
        return Term(self.universe, tuple(c for c in self.codes if c not in drop))

    def without_variables(self, variables: Iterable[Variable]) -> "Term":
        drop = {v.index for v in variables}
        return Term(self.universe, tuple(c for c in self.codes if c >> 1 not in drop))

    def add(self, lit: Literal) -> "Term":
        return Term(self.universe, tuple(sorted(set(self.codes) | {lit.code})))


class Clause(_LiteralSet):
    """A non-valid set of literals; the empty clause is ``false``."""

    _join, _sep, _empty = staticmethod(Universe.all_disj), " | ", "false"


class Formula:
    """Node ``id`` of its universe's store, over ``true/false/lit/not/and/or``.

    Nodes are interned per universe, with one handle per id: building the
    same expression twice gives the same object, so identity comparison
    doubles as structural equality and shared subtrees form a DAG for free.
    """

    __slots__ = ("universe", "id")
    __setattr__ = __delattr__ = _refuse_assignment

    def __init__(self, universe: Universe, id: int):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "id", id)

    def _dag(self) -> tuple:
        return self.universe._store, self.id

    def _builder(self) -> "_Store":
        return self.universe._store

    def to_formula(self) -> "Formula":
        return self

    # -- structure ----------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.universe._store.kinds[self.id]

    @property
    def children(self) -> tuple["Formula", ...]:
        store = self.universe._store
        arg = store.args[self.id]
        return tuple(map(store.finish, arg)) if type(arg) is tuple else ()

    @property
    def literal(self) -> Literal:
        assert self.kind == "lit"
        return self.universe.literal_by_code(self.universe._store.args[self.id])

    @property
    def key(self) -> tuple:
        """``(kind,)``, ``("lit", code)``, ``("not", child)`` or ``(kind, children)``."""
        store = self.universe._store
        kind, arg = store.kinds[self.id], store.args[self.id]
        if type(arg) is not tuple:
            return (kind,) if arg is None else (kind, arg)
        children = tuple(map(store.finish, arg))
        return kind, children[0] if kind == "not" else children

    def _same(self, other: "Formula") -> None:
        if not isinstance(other, Formula):
            raise TypeError(f"expected a formula, got {other!r}")
        if other.universe is not self.universe:
            raise UniverseMismatchError("operands live in different universes")

    # -- connective builders (folding is applied by condition(), not here) ---

    def __and__(self, other: "Formula") -> "Formula":
        self._same(other)
        store = self.universe._store
        return store.finish(store._add("and", (self.id, other.id)))

    def __or__(self, other: "Formula") -> "Formula":
        self._same(other)
        store = self.universe._store
        return store.finish(store._add("or", (self.id, other.id)))

    def __invert__(self) -> "Formula":
        store = self.universe._store
        return store.finish(store._add("not", (self.id,)))

    def implies(self, other: "Formula") -> "Formula":
        return ~self | other

    def iff(self, other: "Formula") -> "Formula":
        return self.implies(other) & other.implies(self)

    # -- queries -------------------------------------------------------------

    def literal_codes(self) -> set[int]:
        """Codes of literal nodes reachable from the root."""
        store, root = self._dag()
        kinds, args = store.kinds, store.args
        return {args[ref] for ref in walk(args, (root,)) if kinds[ref] == "lit"}

    def mentioned_variables(self) -> frozenset[Variable]:
        variables = self.universe.variables
        return frozenset(variables[code >> 1] for code in self.literal_codes())

    def __str__(self) -> str:
        return _format(*self._dag())

    def __repr__(self) -> str:
        return f"Formula({self})"


_PRECEDENCE = {"or": 1, "and": 2, "not": 3}


def _format(store: "_Store", root: int) -> str:
    """Infix text of node ``root``, parenthesized by precedence; an explicit
    stack of pending nodes and text pieces replaces recursion."""
    kinds, args, texts = store.kinds, store.args, store.universe._texts
    pieces: list[str] = []
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        ref, parent_level = item
        kind = kinds[ref]
        if kind in ("true", "false"):
            pieces.append(kind)
        elif kind == "lit":
            pieces.append(texts[args[ref]])
        elif kind == "not":
            pieces.append("~")
            stack.append((args[ref][0], _PRECEDENCE["not"]))
        else:
            level = _PRECEDENCE[kind]
            wrap = level < parent_level or parent_level == _PRECEDENCE["not"]
            if wrap:
                pieces.append("(")
                stack.append(")")
            sep = " & " if kind == "and" else " | "
            children = args[ref]
            for k in range(len(children) - 1, -1, -1):
                stack.append((children[k], level))
                if k:
                    stack.append(sep)
    return "".join(pieces)


# -- the shared DAG walk and its two loops ---------------------------------------


def walk(args: Sequence, roots: Iterable[int]) -> list[int]:
    """The ids of the nodes under ``roots``, roots included, children first.

    A node's children are its tuple argument in ``args``.  A search collects
    the nodes under the roots and sorts their ids: every child is older than
    its parents, so that order is topological.  The cost follows the nodes
    reached, never the store's size.
    """
    stack = list(roots)
    seen = set(stack)
    while stack:
        arg = args[stack.pop()]
        if type(arg) is tuple:
            for child in arg:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
    return sorted(seen)


def _last_readers(args: Sequence, order: Iterable[int]) -> dict[int, int]:
    """Each child of a node in ``order`` mapped to its last reader there: a
    later reader overwrites an earlier one."""
    return {child: ref for ref in order if type(args[ref]) is tuple for child in args[ref]}


# up to this many variables (tables of 2**16 bits) the oracle caches root
# tables, and a walk whose tables fit in the bound below keeps them all: on
# narrow tables, finding the last readers costs more than freeing them saves
_MASK_CACHE_VAR_LIMIT = 16
# the tables kept at once, by a walk or by a universe's cache of root tables,
# take at most this many bits (8 MiB); a table counts as at least 2**10 bits,
# about what its dict entry costs
_TABLE_BITS = 1 << 26


def _tables_fit(count: int, width: int) -> bool:
    """Whether ``count`` tables of ``width`` bits may all be kept: each at
    most ``2**16`` bits wide, and together within the bound."""
    return width <= 1 << _MASK_CACHE_VAR_LIMIT and count * max(width, 1 << 10) <= _TABLE_BITS


def truth_table(value, masks: Sequence[int] | Mapping[int, int], full: int,
                root: int | tuple[int, ...] | None = None) -> int | tuple[int, ...]:
    """Bit-parallel evaluation of a formula or circuit: bit ``w`` of the
    result is the value in world ``w``.

    ``masks[i]`` holds the bits of the worlds where variable ``i`` is true
    and ``full`` the bits of all worlds.  ``root`` picks a node other than
    the value's root, or a tuple of nodes of the value's store: then one
    walk over the union of their nodes evaluates each shared node once, and
    the tables come back as a tuple in the order of ``root``.

    Every node's table is kept until the call returns when the tables are
    at most ``2**16`` bits wide and all of them fit in 8 MiB.  Otherwise a
    table lives only until its last reader in the walk has used it, a root's
    until the call returns, and a literal's table is made at each reader and
    never kept, so memory follows the walk's frontier, not its size.
    """
    store, top = value._dag()
    roots = (top,) if root is None else root if type(root) is tuple else (root,)
    kinds, args = store.kinds, store.args
    order = walk(args, roots)
    release = not _tables_fit(len(order), full.bit_length())
    if release:
        tables = _LiteralsOnRead(masks, full, args)
        order = [ref for ref in order if kinds[ref] != "lit"]
        last = _last_readers(args, order)
        last.update(dict.fromkeys(roots, -1))  # a root is never freed
    else:
        tables = {}
    for ref in order:
        kind, arg = kinds[ref], args[ref]
        if kind == "lit":
            out = masks[arg >> 1] if arg & 1 else full ^ masks[arg >> 1]
        elif kind == "and":
            out = tables[arg[0]] if arg else full
            for child in arg[1:]:
                out &= tables[child]
        elif kind == "or":
            out = tables[arg[0]] if arg else 0
            for child in arg[1:]:
                out |= tables[child]
        elif kind == "not":
            out = full ^ tables[arg[0]]
        else:
            out = full if kind == "true" else 0
        tables[ref] = out
        if release and type(arg) is tuple:
            for child in arg:
                if last[child] == ref:
                    tables.pop(child, None)  # a literal's table was never stored
    if type(root) is tuple:
        return tuple([tables[ref] for ref in roots])
    return tables[roots[0]]


class _LiteralsOnRead(dict):
    """Tables by id for a walk that frees them.  A literal's table is made
    at each read and never stored: a positive literal's is its variable's
    mask, held anyway, and a negative literal's is made for its one reader."""

    __slots__ = ("masks", "full", "args")

    def __init__(self, masks: Sequence[int] | Mapping[int, int], full: int, args: Sequence):
        self.masks, self.full, self.args = masks, full, args

    def __missing__(self, ref: int) -> int:
        code = self.args[ref]
        mask = self.masks[code >> 1]
        return mask if code & 1 else self.full ^ mask


@lru_cache(maxsize=16)
def _var_patterns(n: int) -> tuple[int, ...]:
    """Bit ``w`` of pattern ``i`` is set iff bit ``i`` of ``w`` is, over
    ``2**n`` rows: a period of ``2**i`` zeros then ``2**i`` ones, repeated.

    Knuth's magic masks (TAOCP 4A, 7.1.3), built by doubling: the patterns
    over ``2**(k+1)`` rows are those over ``2**k`` rows written twice, plus
    a new top pattern, so the whole build is linear in ``n * 2**n``.  The
    patterns of the last 16 sizes are kept.
    """
    masks: tuple[int, ...] = ()
    for k in range(n):
        rows = 1 << k
        masks = tuple(mask | mask << rows for mask in masks) + (((1 << rows) - 1) << rows,)
    return masks


_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


def _iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first: one pass
    over the mask's bytes, each nonzero byte expanded from a table."""
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    for base, byte in zip(range(0, len(data) << 3, 8), data):
        if byte:
            for bit in _BYTE_BITS[byte]:
                yield base + bit


_POS, _NEG = 1, 2
_SIDES = {_POS: (0,), _NEG: (1,), _POS | _NEG: (0, 1)}  # 1 builds the complement
_DUAL = {"and": "or", "or": "and"}


def rebuild(value, builder, replace: Mapping[int, bool] | None = None, dual: bool = False,
            roots: Sequence[int] | None = None, shift=None) -> dict:
    """Copy the DAG under ``roots`` (default: the root of ``value``) into
    ``builder`` bottom-up, folding every gate; returns the images by id.

    ``replace`` maps literal codes to the constants that take their place.
    With ``dual`` the images are of the complements, built by De Morgan:
    ``and`` and ``or`` swap, literals and constants flip, and a ``not`` node
    passes on the opposite image of its child.  Only the polarities that the
    roots need are built, and the result has no ``not`` node.  ``shift``, for
    a circuit, is a pair ``(reads, make)``: each ``or`` node's image is
    ``make(ref, images)``, made from the images of the children ``reads``
    maps it to, and only the nodes the roots reach through those are built.
    """
    store, root = value._dag()
    kinds, args = store.kinds, store.args
    if roots is None:
        roots = (root,)
    if shift is not None:
        reads, shift = shift
        args = args.copy()
        for ref, children in reads.items():
            args[ref] = children
    order = walk(args, roots)
    need = None
    if dual and any(kinds[ref] == "not" for ref in order):
        # a not node flips the polarity its child is needed in
        need = dict.fromkeys(roots, _NEG)
        for ref in reversed(order):
            bits = need[ref]
            kind, arg = kinds[ref], args[ref]
            if kind == "not":
                need[arg[0]] = need.get(arg[0], 0) | (bits & _POS) << 1 | (bits & _NEG) >> 1
            elif kind == "and" or kind == "or":
                for child in arg:
                    need[child] = need.get(child, 0) | bits
    images: tuple[dict, dict] = ({}, {})  # of the nodes, of their complements
    sides = (int(dual),)
    for ref in order:
        kind, arg = kinds[ref], args[ref]
        for negated in _SIDES[need[ref]] if need else sides:
            own = images[negated]
            if kind == "lit":
                if replace and arg in replace:
                    out = builder.true if replace[arg] != negated else builder.false
                else:
                    out = builder.lit(arg ^ negated)
            elif kind == "and" or kind == "or":
                if shift is not None and kind == "or":
                    out = shift(ref, own)
                else:
                    gate = _DUAL[kind] if negated else kind
                    out = builder.fold(gate, [own[child] for child in arg])
            elif kind == "not":
                out = images[1 - negated][arg[0]] if dual else builder.negation(own[arg[0]])
            else:
                out = builder.true if (kind == "true") != negated else builder.false
            own[ref] = out
    return images[dual]


# -- core operations ---------------------------------------------------------


flip = World.flip  # ``flip(world, lit)``


def cone(formula: Formula, index: int) -> list[int]:
    """The nodes under ``formula`` that conditioning on variable ``index``
    rebuilds, children first: the variable's literal nodes, every gate with a
    child among them, and the gates that folding changes on their own (one
    with a constant child, a ``not`` over a constant, an ``and`` or ``or``
    with fewer than two children).  Every other node is its own image.
    """
    store = formula.universe._store
    kinds, args = store.kinds, store.args
    inside = {store.true, store.false}  # a constant child folds its gate
    disjoint = inside.isdisjoint
    nodes = []
    for ref in walk(args, (formula.id,)):
        arg = args[ref]
        if type(arg) is tuple:
            if not disjoint(arg) or len(arg) < 2 and kinds[ref] != "not":
                inside.add(ref)
                nodes.append(ref)
        elif kinds[ref] == "lit" and arg >> 1 == index:
            inside.add(ref)
            nodes.append(ref)
    return nodes


def condition(formula: Formula, lit: LiteralLike, nodes: list[int] | None = None) -> Formula:
    """Substitute ``lit``'s variable by the matching constant and fold.

    The result never mentions the variable again; folding is deterministic
    (constant absorption plus single-child collapse) and nothing else is
    simplified — equivalence, not syntax, is the contract.  Only the
    :func:`cone` of the variable is rebuilt, children first, each node from
    its children's images; a node outside it is its own image, the id that
    interning would hand back, so the result and the nodes it adds to the
    store are those of a whole-DAG :func:`rebuild`.  ``nodes`` is that cone,
    when the caller has it.
    """
    u = formula.universe
    store = u._store
    code = u.literal(lit).code
    if nodes is None:
        nodes = cone(formula, code >> 1)
    kinds, args = store.kinds, store.args
    images: dict[int, int] = {}
    image = images.get
    for ref in nodes:
        kind, arg = kinds[ref], args[ref]
        if kind == "lit":
            out = store.true if arg == code else store.false
        elif kind == "not":
            out = store.negation(image(arg[0], arg[0]))
        else:
            out = store.fold(kind, [image(child, child) for child in arg])
        images[ref] = out
    return store.finish(image(formula.id, formula.id))


def evaluate(formula: Formula, world: World) -> bool:
    """Standard Boolean evaluation of ``formula`` under the total ``world``."""
    if world.universe is not formula.universe:
        raise UniverseMismatchError("world evaluates formulas of its own universe")
    masks = [world.bits >> i & 1 for i in range(len(world.universe))]
    return bool(truth_table(formula, masks, 1))


def negate(value):
    """Negation normal form of the complement of a formula or circuit.

    Works bottom-up through the De Morgan dual, so the result is an NNF and,
    for circuits, at most doubles the node count.
    """
    builder = value._builder()
    return builder.finish(rebuild(value, builder, dual=True)[value._dag()[1]], prune=True)


def to_nnf(formula: Formula) -> Formula:
    """Push all negations down to literals and constants."""
    return negate(negate(formula))


# -- circuits -----------------------------------------------------------------


class Annotation:
    """Structural classes a circuit may be proved to be in."""

    NNF = "nnf"
    DNNF = "dnnf"
    DECISION_DNNF = "decision-dnnf"
    SDD = "sdd"


class Circuit:
    """A shared-subgraph NNF DAG stored as parallel per-node lists in
    topological order.

    Node ``i`` has the kind ``kinds[i]`` (``true``, ``false``, ``lit``,
    ``and`` or ``or``), the argument ``args[i]`` (the literal code, the tuple
    of child ids, which index earlier nodes only, or ``None`` for a
    constant) and the declared decision variable ``decisions[i]`` (-1 if
    none).  An SDD or-node's (prime, sub) pairs are its children's two
    children.  A constructed circuit is plain NNF: ``annotation``, its
    class, is set only by :meth:`with_annotation`, which a verifier calls
    once it has proved the class, or an existential pass, whose
    construction proves its result a DNNF.
    For Decision-DNNF and SDD, ``partitions`` maps each reachable or-node
    to ``((prime, subs), ...)``: primes that partition the worlds, each
    conjoined with its subs; a decision ``(l & alpha) | (~l & beta)`` has
    the primes ``l`` and ``~l``.  Nothing changes after construction.
    """

    __slots__ = ("universe", "kinds", "args", "decisions", "root", "annotation", "partitions")
    __setattr__ = __delattr__ = _refuse_assignment

    def __init__(self, universe: Universe, kinds: list[str], args: list,
                 decisions: list[int], root: int):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "decisions", decisions)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "annotation", Annotation.NNF)
        object.__setattr__(self, "partitions", None)

    @property
    def nodes(self) -> "_NodeView":
        """A read-only sequence of :class:`Node` records over the lists,
        built on each access."""
        return _NodeView(self)

    def __len__(self) -> int:
        return len(self.kinds)

    def size(self) -> int:
        """Node count plus edge count — the usual circuit size measure."""
        return len(self.kinds) + sum(len(arg) for arg in self.args if type(arg) is tuple)

    literal_codes = Formula.literal_codes

    def order(self, roots: Iterable[int] | None = None) -> list[int]:
        """Ids of the nodes under ``roots`` (default: the root), roots
        included, in list order: :func:`walk` on the lists."""
        return walk(self.args, (self.root,) if roots is None else roots)

    def reachable(self, roots: Iterable[int] | None = None) -> set[int]:
        """Ids of the nodes under ``roots`` (default: the root), roots included."""
        return set(self.order(roots))

    def with_annotation(self, annotation: str, partitions: dict | None = None) -> "Circuit":
        """The same lists under the proved class ``annotation``, with the
        partition of each or-node for Decision-DNNF and SDD."""
        circuit = Circuit(self.universe, self.kinds, self.args, self.decisions, self.root)
        object.__setattr__(circuit, "annotation", annotation)
        object.__setattr__(circuit, "partitions", partitions)
        return circuit

    def to_formula(self) -> Formula:
        store = self.universe._store
        return store.finish(rebuild(self, store)[self.root])

    def _dag(self) -> tuple["Circuit", int]:
        return self, self.root

    def _builder(self) -> "CircuitBuilder":
        return CircuitBuilder(self.universe)

    def __repr__(self) -> str:
        return f"Circuit({len(self.kinds)} nodes, root {self.root}, {self.annotation})"


class Node(namedtuple("Node", "kind arg decision")):
    """One node of :attr:`Circuit.nodes`, read from the lists: the kind, the
    argument (literal code, tuple of child ids or ``None``) and the declared
    decision variable (-1 if none)."""

    __slots__ = ()

    @property
    def children(self) -> tuple[int, ...]:
        return self.arg if type(self.arg) is tuple else ()

    @property
    def lit(self) -> int:
        """The literal code of a ``lit`` node, -1 for other kinds."""
        return self.arg if self.kind == "lit" else -1


class _NodeView:
    """:attr:`Circuit.nodes`: the nodes as :class:`Node` records, each made
    when it is read."""

    __slots__ = ("_circuit",)

    def __init__(self, circuit: Circuit):
        self._circuit = circuit

    def __len__(self) -> int:
        return len(self._circuit.kinds)

    def __getitem__(self, index: int) -> Node:
        c = self._circuit
        return Node(c.kinds[index], c.args[index], c.decisions[index])

    def __iter__(self) -> Iterator[Node]:
        c = self._circuit
        return map(Node, c.kinds, c.args, c.decisions)


class CircuitBuilder:
    """Incremental construction of DAGs in the circuit layout, with node
    interning on ``(kind, arg, decision)``.

    ``add_*`` methods and :meth:`const` are structure-preserving (used by
    parsers and generators); :meth:`fold` absorbs constants and collapses
    single-child gates (used by transformation passes).  A circuit builder
    reads the constants as ``true`` and ``false``, no node ids: a pass makes
    a constant node only for a constant result, in :meth:`finish`.  A
    builder belongs to the one call that makes it and takes no lock.
    """

    true, false = -1, -2

    def __init__(self, universe: Universe):
        self.universe = universe
        self.kinds: list[str] = []
        self.args: list = []
        self.decisions: list[int] = []
        self._cache: dict[tuple, int] = {}

    def _add(self, kind: str, arg, decision: int = -1) -> int:
        key = (kind, arg, decision)
        index = self._cache.get(key)
        if index is None:
            # the node is in the lists before its id is in the cache
            index = len(self.kinds)
            self.kinds.append(kind)
            self.args.append(arg)
            self.decisions.append(decision)
            self._cache[key] = index
        return index

    def const(self, value: bool) -> int:
        return self._add("true" if value else "false", None)

    def lit(self, lit: Literal | int) -> int:
        return self._add("lit", lit if isinstance(lit, int) else lit.code)

    def add_and(self, children: Sequence[int]) -> int:
        return self._add("and", tuple(children))

    def add_or(self, children: Sequence[int], decision: int = -1) -> int:
        return self._add("or", tuple(children), decision)

    def fold(self, kind: str, parts: Sequence[int]) -> int:
        """An ``and``/``or`` gate over ``parts`` with constants absorbed; a
        single remaining part stands for the whole gate."""
        if kind == "and":
            unit, zero = self.true, self.false
        else:
            unit, zero = self.false, self.true
        if zero in parts:
            return zero
        if unit in parts:
            parts = [part for part in parts if part != unit]
        if not parts:
            return unit
        if len(parts) == 1:
            return parts[0]
        return self._add(kind, tuple(parts))

    def finish(self, root: int, prune: bool = False) -> Circuit:
        """Wrap the lists into a plain NNF circuit; ``prune`` drops nodes
        unreachable from the root (transformation passes leave such orphans
        behind) and renumbers the rest, keeping their order.  Children
        precede their parents, so some node is unreachable exactly when a
        node other than the root has no parent; only then does the walk
        run."""
        if root < 0:
            root = self.const(root == self.true)
        kinds, args, decisions = self.kinds, self.args, self.decisions
        if prune:
            children = set(chain.from_iterable(arg for arg in args if type(arg) is tuple))
            if len(children | {root}) < len(kinds):
                kept = walk(args, (root,))
                remap = dict(zip(kept, range(len(kept))))
                new_id = remap.__getitem__
                kinds = [kinds[i] for i in kept]
                decisions = [decisions[i] for i in kept]
                args = [
                    tuple(map(new_id, arg)) if type(arg) is tuple else arg
                    for arg in map(args.__getitem__, kept)
                ]
                root = remap[root]
        return Circuit(self.universe, kinds, args, decisions, root)


class _Store(CircuitBuilder):
    """A universe's formula nodes, with its constants at ids 0 and 1.  Threads
    share a store: a miss takes the lock, so that two keys never get one id,
    and a hit reads without it.  Each id gets one :class:`Formula`, kept by
    one atomic ``dict.setdefault``."""

    def __init__(self, universe: Universe):
        super().__init__(universe)
        self._lock = threading.Lock()
        self._handles: dict[int, Formula] = {}
        self.true, self.false = self.const(True), self.const(False)

    def _add(self, kind: str, arg, decision: int = -1) -> int:
        index = self._cache.get((kind, arg, decision))
        if index is None:
            with self._lock:
                index = super()._add(kind, arg, decision)
        return index

    def negation(self, part: int) -> int:
        """``~part``, folded on constants."""
        if part == self.true:
            return self.false
        if part == self.false:
            return self.true
        return self._add("not", (part,))

    def finish(self, root: int, prune: bool = False) -> Formula:
        """The formula of node ``root``; a store keeps every node, so nothing is pruned."""
        node = self._handles.get(root)
        if node is None:
            node = self._handles.setdefault(root, Formula(self.universe, root))
        return node


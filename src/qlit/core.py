"""Canonical Boolean values: variables, literals, worlds, terms, clauses,
formulas and NNF circuits, plus conditioning, evaluation and negation.

Every value is immutable after construction and carries an explicit variable
universe.  Mixing universes in one operation is an error, never an implicit
union: downstream notions (boundary rules in particular) change meaning when
the universe changes.

Literals are encoded internally as dense integer codes ``2*index + polarity``
so that the canonical order (variable index ascending, negative before
positive) is plain integer order.

Formulas and circuits are both DAGs, and every pass over them is written
once, on one walk.  :func:`walk` lists the nodes under a root children first
as ``(ref, kind, arg)`` triples.  For a formula these are the nodes an
iterative search finds, sorted by creation serial: interning makes every
child older than its parents, so that order is topological.  For a circuit
they are the reachable node ids in list order, which is topological too.
Two loops run on the walk.  :func:`truth_table` evaluates a DAG on
bit-parallel variable masks, one world per bit.  :func:`rebuild` copies a
DAG into a builder (a universe for formulas, a :class:`CircuitBuilder` for
circuits): it replaces literals by constants, builds the De Morgan dual on
request and folds every gate by the one rule of :meth:`_Folding.fold`.
Neither recurses, so only memory bounds the depth of a DAG.

A circuit is stored as three parallel per-node lists, the kinds, the
arguments (literal code, tuple of child ids, or ``None``) and the declared
decision variables, so no pass makes an object per node.
:attr:`Circuit.nodes` is a read-only view over the lists, built on each
access.  An SDD or-node's (prime, sub) pairs are its children's two
children.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

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


@dataclass(frozen=True, slots=True)
class Variable:
    """A Boolean variable: a dense index plus a display name."""

    index: int
    name: str

    def __repr__(self) -> str:
        return f"Variable({self.index}, {self.name!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    """A variable together with a polarity."""

    variable: Variable
    positive: bool

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


LiteralLike = Union[Literal, str]
ItemLike = Union[Literal, Variable, str]


class _Folding:
    """The folding rule of every rebuild, shared by the two builders: a
    universe builds formulas, a :class:`CircuitBuilder` builds circuits.

    A builder keeps the refs of its two constants in ``true`` and ``false``
    (``None`` until a circuit builder has made one), makes a constant with
    ``const`` and an unfolded gate over a tuple of parts with ``gate``.
    """

    __slots__ = ()

    def fold(self, kind: str, parts: Sequence):
        """An ``and``/``or`` gate over ``parts`` with constants absorbed; a
        single remaining part stands for the whole gate."""
        if kind == "and":
            unit, zero = self.true, self.false
        else:
            unit, zero = self.false, self.true
        if zero is not None and zero in parts:
            return zero
        if unit is not None and unit in parts:
            parts = [part for part in parts if part != unit]
        if not parts:
            return self.const(kind == "and")
        if len(parts) == 1:
            return parts[0]
        return self.gate(kind, tuple(parts))


class Universe(_Folding):
    """An ordered, fixed set of Boolean variables.

    All worlds, terms, clauses, formulas and circuits reference exactly one
    universe.  The universe also interns formula nodes, so constructing the
    same expression twice yields the identical node object; it is the builder
    that :func:`rebuild` makes formulas with.
    """

    def __init__(self, names: Iterable[str] | int):
        if isinstance(names, int):
            names = [f"x{i + 1}" for i in range(names)]
        variables = []
        by_name: dict[str, Variable] = {}
        for index, name in enumerate(names):
            if name in by_name:
                raise InvalidLiteralSetError(f"duplicate variable name {name!r}")
            var = Variable(index, name)
            variables.append(var)
            by_name[name] = var
        self._variables: tuple[Variable, ...] = tuple(variables)
        self._by_name = by_name
        self._literals = tuple(
            Literal(v, bool(polarity)) for v in variables for polarity in (0, 1)
        )
        # by literal code, like ``_literals``: the display text, and the
        # signed DIMACS integer as a string (variable ``i`` is ``i + 1``)
        names = [v.name for v in variables]
        numbers = [str(i) for i in range(1, len(variables) + 1)]
        self._texts = _by_code(["~" + name for name in names], names)
        self._dimacs = _by_code(["-" + number for number in numbers], numbers)
        self._node_cache: dict[tuple, Formula] = {}
        self._serials = count()
        self._var_masks: list[int] | None = None
        self._last_walk: tuple = (None, [])
        self.true = self._intern(("true",))
        self.false = self._intern(("false",))

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
                item.index < len(self._variables)
                and self._variables[item.index] == item
            )
        if isinstance(item, Literal):
            return item.variable in self
        if isinstance(item, str):
            return item in self._by_name
        return False

    def check(self, item: Variable | Literal) -> None:
        if item not in self:
            raise UniverseMismatchError(f"{item} does not belong to {self}")

    # -- literal construction ---------------------------------------------

    def literal(self, spec: LiteralLike) -> Literal:
        """Resolve ``"x"`` / ``"~x"`` / an existing literal to a literal."""
        if isinstance(spec, Literal):
            self.check(spec)
            return spec
        name = spec.strip()
        positive = True
        if name.startswith("~"):
            positive = False
            name = name[1:].strip()
        return self._literals[self.variable(name).index * 2 + positive]

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
        if isinstance(literals, str):
            literals = [s for s in literals.split(",") if s.strip()]
        codes: set[int] = set()
        for spec in literals:
            lit = self.literal(spec)
            if lit.code ^ 1 in codes:
                kind = "inconsistent" if what == "term" else "valid"
                raise InvalidLiteralSetError(
                    f"{kind} {what}: complementary pair over {lit.variable.name}"
                )
            codes.add(lit.code)
        return tuple(sorted(codes))

    # -- formula constructors ----------------------------------------------

    def _intern(self, key: tuple) -> "Formula":
        node = self._node_cache.get(key)
        if node is None:
            # one atomic store: a thread that loses a race for the key adopts
            # the winner's node, and its own serial is left unused
            node = self._node_cache.setdefault(key, Formula(self, key, next(self._serials)))
        return node

    def lit(self, spec: LiteralLike | int) -> "Formula":
        """The literal node of ``spec``: a literal, its string form or its
        integer code."""
        code = spec if isinstance(spec, int) else self.literal(spec).code
        return self._intern(("lit", code))

    def constant(self, value: bool) -> "Formula":
        return self.true if value else self.false

    const = constant

    def gate(self, kind: str, parts: tuple["Formula", ...]) -> "Formula":
        return self._intern((kind, parts))

    def negation(self, part: "Formula") -> "Formula":
        """``~part``, folded on constants."""
        if part is self.true:
            return self.false
        if part is self.false:
            return self.true
        return self._intern(("not", part))

    def all_conj(self, parts: Iterable["Formula"]) -> "Formula":
        parts = tuple(parts)
        if not parts:
            return self.true
        out = parts[0]
        for part in parts[1:]:
            out = out & part
        return out

    def all_disj(self, parts: Iterable["Formula"]) -> "Formula":
        parts = tuple(parts)
        if not parts:
            return self.false
        out = parts[0]
        for part in parts[1:]:
            out = out | part
        return out


def _by_code(negative: list, positive: list) -> tuple:
    """One entry per literal code from the entries of the negative and the
    positive literal of each variable."""
    return tuple(chain.from_iterable(zip(negative, positive)))


def dimacs_codes(nvars: int) -> dict[int, int | None]:
    """The inverse of ``Universe._dimacs``: the literal code of each DIMACS
    integer in ``-nvars..nvars``.  ``0``, which names no literal, maps to
    ``None``; an integer out of range is not a key."""
    return dict(
        zip(
            range(-nvars, nvars + 1),
            [*range(2 * nvars - 2, -1, -2), None, *range(1, 2 * nvars, 2)],
        )
    )


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
        return hash((id(self.universe), self.bits))

    def __lt__(self, other: "World") -> bool:
        return self.bits < other.bits

    def __str__(self) -> str:
        return " ".join(str(lit) for lit in self.literals())

    def __repr__(self) -> str:
        return f"World({self})"


class _LiteralSet:
    """Shared behaviour of terms and clauses (sets of literals over distinct
    variables, kept in canonical code order)."""

    __slots__ = ("universe", "codes")

    def __init__(self, universe: Universe, codes: tuple[int, ...]):
        self.universe = universe
        self.codes = codes
        vars_seen = {c >> 1 for c in codes}
        if len(vars_seen) != len(codes):
            raise InvalidLiteralSetError("two literals over one variable")

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


class Term(_LiteralSet):
    """A consistent set of literals; the empty term is ``true``."""

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

    def to_formula(self) -> "Formula":
        u = self.universe
        return u.all_conj(u.lit(lit) for lit in self.literals())

    def __str__(self) -> str:
        if not self.codes:
            return "true"
        return ",".join(map(self.universe._texts.__getitem__, self.codes))

    def __repr__(self) -> str:
        return f"Term({self})"


class Clause(_LiteralSet):
    """A non-valid set of literals; the empty clause is ``false``."""

    def to_formula(self) -> "Formula":
        u = self.universe
        return u.all_disj(u.lit(lit) for lit in self.literals())

    def __str__(self) -> str:
        if not self.codes:
            return "false"
        return " | ".join(map(self.universe._texts.__getitem__, self.codes))

    def __repr__(self) -> str:
        return f"Clause({self})"


class Formula:
    """A node of an expression tree over ``true/false/lit/not/and/or``.

    Nodes are interned per universe: building the same expression twice gives
    the same object, so identity comparison doubles as structural equality and
    shared subtrees form a DAG for free.
    """

    __slots__ = ("universe", "key", "serial")

    def __init__(self, universe: Universe, key: tuple, serial: int):
        self.universe = universe
        self.key = key
        self.serial = serial  # creation rank in the universe

    # -- structure ----------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.key[0]

    @property
    def children(self) -> tuple["Formula", ...]:
        if self.kind in ("and", "or"):
            return self.key[1]
        if self.kind == "not":
            return (self.key[1],)
        return ()

    @property
    def literal(self) -> Literal:
        assert self.kind == "lit"
        return self.universe.literal_by_code(self.key[1])

    def _same(self, other: "Formula") -> None:
        if not isinstance(other, Formula):
            raise TypeError(f"expected a formula, got {other!r}")
        if other.universe is not self.universe:
            raise UniverseMismatchError("operands live in different universes")

    # -- connective builders (folding is applied by condition(), not here) ---

    def __and__(self, other: "Formula") -> "Formula":
        self._same(other)
        return self.universe._intern(("and", (self, other)))

    def __or__(self, other: "Formula") -> "Formula":
        self._same(other)
        return self.universe._intern(("or", (self, other)))

    def __invert__(self) -> "Formula":
        return self.universe._intern(("not", self))

    def implies(self, other: "Formula") -> "Formula":
        return ~self | other

    def iff(self, other: "Formula") -> "Formula":
        return self.implies(other) & other.implies(self)

    # -- queries -------------------------------------------------------------

    def mentioned_variables(self) -> frozenset[Variable]:
        variables = self.universe.variables
        return frozenset(
            variables[arg >> 1] for _, kind, arg in walk(self) if kind == "lit"
        )

    def __str__(self) -> str:
        return _format(self)

    def __repr__(self) -> str:
        return f"Formula({self})"


_serial = attrgetter("serial")

_PRECEDENCE = {"iff": 1, "implies": 2, "or": 3, "and": 4, "not": 5, "atom": 6}


def _format(root: Formula) -> str:
    """Infix text, parenthesized by precedence; an explicit stack of pending
    nodes and text pieces replaces recursion."""
    pieces: list[str] = []
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, parent_level = item
        kind = node.kind
        if kind in ("true", "false"):
            pieces.append(kind)
        elif kind == "lit":
            pieces.append(str(node.literal))
        elif kind == "not":
            pieces.append("~")
            stack.append((node.key[1], _PRECEDENCE["not"]))
        else:
            level = _PRECEDENCE[kind]
            wrap = level < parent_level or parent_level == _PRECEDENCE["not"]
            if wrap:
                pieces.append("(")
                stack.append(")")
            sep = " & " if kind == "and" else " | "
            children = node.key[1]
            for k in range(len(children) - 1, -1, -1):
                stack.append((children[k], level))
                if k:
                    stack.append(sep)
    return "".join(pieces)


# -- the shared DAG walk and its two loops ---------------------------------------


def walk(value, roots: Sequence | None = None, done=()) -> list[tuple]:
    """``(ref, kind, arg)`` for every node under ``roots``, children first,
    each node once.

    ``value`` is a formula or a circuit; ``roots`` defaults to its root.  A
    formula's ref is the node and ``arg`` the last field of its key (the
    literal code, the negated child or the tuple of children); a circuit's
    ref is the node id and ``arg`` the literal code or the child ids.  Both
    constant kinds read ``true`` and ``false``.  Children are interned before
    their parents, so creation order is a topological order: the formula
    walk collects the nodes under the roots, without entering those in the
    mapping ``done``, and sorts them by serial.  Circuit node lists are in
    topological order already.  The list returned may be shared with other
    passes and is never changed.
    """
    if isinstance(value, Circuit):
        kinds, args = value.kinds, value.args
        return [(i, kinds[i], args[i]) for i in value.order(roots)]
    if roots is None:
        roots = (value,)
    # passes often run twice over one formula (both conditionings of a
    # quantifier), so the universe keeps the last single-root walk
    universe = value.universe
    repeat = not done and len(roots) == 1
    last_root, last = universe._last_walk
    if repeat and roots[0] is last_root:
        return last
    stack = [r for r in roots if r not in done]
    seen = set(stack)
    while stack:
        key = stack.pop().key
        kind = key[0]
        if kind == "and" or kind == "or":
            children = key[1]
        elif kind == "not":
            children = (key[1],)
        else:
            continue
        for child in children:
            if child not in seen and child not in done:
                seen.add(child)
                stack.append(child)
    out = [(node, node.key[0], node.key[-1]) for node in sorted(seen, key=_serial)]
    if repeat:
        universe._last_walk = (roots[0], out)
    return out


def truth_table(value, masks: Sequence[int] | Mapping[int, int], full: int,
                root=None, memo: dict | None = None) -> int:
    """Bit-parallel evaluation of a formula or circuit: bit ``w`` of the
    result is the value in world ``w``.

    ``masks[i]`` holds the bits of the worlds where variable ``i`` is true
    and ``full`` the bits of all worlds.  ``root`` picks a circuit node other
    than the root.  ``memo`` maps refs to their tables; formula nodes are
    interned and immutable, so a memo may be kept across calls, and the walk
    stops at the nodes it already holds.
    """
    if root is None:
        root = value if isinstance(value, Formula) else value.root
    if memo is None:
        memo = {}
    elif root in memo:
        return memo[root]
    for ref, kind, arg in walk(value, (root,), memo):
        if kind == "lit":
            out = masks[arg >> 1] if arg & 1 else full ^ masks[arg >> 1]
        elif kind == "and":
            out = full
            for child in arg:
                out &= memo[child]
        elif kind == "or":
            out = 0
            for child in arg:
                out |= memo[child]
        elif kind == "not":
            out = full ^ memo[arg]
        else:
            out = full if kind == "true" else 0
        memo[ref] = out
    return memo[root]


_POS, _NEG = 1, 2
_SIDES = {_POS: (0,), _NEG: (1,), _POS | _NEG: (0, 1)}  # 1 builds the complement
_DUAL = {"and": "or", "or": "and"}


def rebuild(value, builder: _Folding, replace: Mapping[int, bool] | None = None,
            dual: bool = False, roots: Sequence | None = None, shift=None) -> dict:
    """Copy the DAG under ``roots`` (default: the root of ``value``) into
    ``builder`` bottom-up, folding every gate; returns the images by ref.

    ``replace`` maps literal codes to the constants that take their place.
    With ``dual`` the images are of the complements, built by De Morgan:
    ``and`` and ``or`` swap, literals and constants flip, and a ``not`` node
    passes on the opposite image of its child.  Only the polarities that the
    roots need are built, and the result has no ``not`` node.  ``shift``, when
    given, makes the image of each ``or`` node instead, as
    ``shift(ref, images)`` with the images built so far.
    """
    if roots is None:
        roots = (value if isinstance(value, Formula) else value.root,)
    entries = walk(value, roots)
    need = None
    if dual and any(kind == "not" for _, kind, _ in entries):
        # a not node flips the polarity its child is needed in
        need = dict.fromkeys(roots, _NEG)
        for ref, kind, arg in reversed(entries):
            bits = need[ref]
            if kind == "not":
                need[arg] = need.get(arg, 0) | (bits & _POS) << 1 | (bits & _NEG) >> 1
            elif kind == "and" or kind == "or":
                for child in arg:
                    need[child] = need.get(child, 0) | bits
    images: tuple[dict, dict] = ({}, {})  # of the nodes, of their complements
    sides = (int(dual),)
    for ref, kind, arg in entries:
        for negated in _SIDES[need[ref]] if need else sides:
            own = images[negated]
            if kind == "lit":
                if replace and arg in replace:
                    out = builder.const(replace[arg] != negated)
                else:
                    out = builder.lit(arg ^ negated)
            elif kind == "and" or kind == "or":
                if shift is not None and kind == "or":
                    out = shift(ref, own)
                else:
                    gate = _DUAL[kind] if negated else kind
                    out = builder.fold(gate, [own[child] for child in arg])
            elif kind == "not":
                out = images[1 - negated][arg] if dual else builder.negation(own[arg])
            else:
                out = builder.const((kind == "true") != negated)
            own[ref] = out
    return images[dual]


# -- core operations ---------------------------------------------------------


def flip(world: World, lit: LiteralLike) -> World:
    """Replace the literal of ``lit``'s variable in ``world`` by ``lit``.

    The world is returned unchanged when the literal already holds.
    """
    return world.flip(lit)


def condition(formula: Formula, lit: LiteralLike) -> Formula:
    """Substitute ``lit``'s variable by the matching constant and fold.

    The result never mentions the variable again; folding is deterministic
    (constant absorption plus single-child collapse) and nothing else is
    simplified — equivalence, not syntax, is the contract.
    """
    u = formula.universe
    code = u.literal(lit).code
    return rebuild(formula, u, {code: True, code ^ 1: False})[formula]


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
    if isinstance(value, Formula):
        return rebuild(value, value.universe, dual=True)[value]
    if isinstance(value, Circuit):
        builder = CircuitBuilder(value.universe)
        return builder.finish(rebuild(value, builder, dual=True)[value.root], prune=True)
    raise TypeError(f"cannot negate {value!r}")


def to_nnf(formula: Formula) -> Formula:
    """Push all negations down to literals and constants."""
    return negate(negate(formula))


# -- circuits -----------------------------------------------------------------


class Annotation:
    """Structural classes a circuit may claim (strongest known annotation)."""

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
    children.  ``annotation`` records the strongest structural class the
    circuit is known to be in; ``verified`` says whether that class has
    actually been checked.  Nothing changes after construction: parsers and
    verifiers return a new circuit sharing the lists, and transformation
    passes build new circuits carrying what they can prove.
    """

    __slots__ = ("universe", "kinds", "args", "decisions", "root", "annotation", "verified")

    def __init__(
        self,
        universe: Universe,
        kinds: list[str],
        args: list,
        decisions: list[int],
        root: int,
        annotation: str = Annotation.NNF,
        verified: bool = False,
    ):
        self.universe = universe
        self.kinds = kinds
        self.args = args
        self.decisions = decisions
        self.root = root
        self.annotation = annotation
        self.verified = verified

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

    def literal_codes(self) -> set[int]:
        """Codes of literal nodes reachable from the root."""
        return {arg for _, kind, arg in walk(self) if kind == "lit"}

    def order(self, roots: Iterable[int] | None = None) -> list[int]:
        """Ids of the nodes under ``roots`` (default: the root), roots
        included, in list order.

        One mark pass runs down the ids from the highest root: children come
        before their parents, so a node is marked before the pass reaches
        it, and the pass stops below the lowest mark.
        """
        roots = [self.root] if roots is None else list(roots)
        if not roots:
            return []
        args = self.args
        top, low = max(roots), min(roots)
        marks = bytearray(top + 1)
        for root in roots:
            marks[root] = 1
        for i in range(top, -1, -1):
            if marks[i]:
                arg = args[i]
                if type(arg) is tuple:
                    for child in arg:
                        marks[child] = 1
                        if child < low:
                            low = child
            elif i < low:
                break
        return list(compress(range(low, top + 1), memoryview(marks)[low:]))

    def reachable(self, roots: Iterable[int] | None = None) -> set[int]:
        """Ids of the nodes under ``roots`` (default: the root), roots included."""
        return set(self.order(roots))

    def with_annotation(self, annotation: str) -> "Circuit":
        """The same lists under ``annotation``, marked verified."""
        return Circuit(
            self.universe, self.kinds, self.args, self.decisions, self.root,
            annotation, verified=True,
        )

    def to_formula(self) -> Formula:
        return rebuild(self, self.universe)[self.root]

    def __repr__(self) -> str:
        return (
            f"Circuit({len(self.kinds)} nodes, root {self.root}, "
            f"{self.annotation}{' verified' if self.verified else ''})"
        )


class Node(NamedTuple):
    """One node of :attr:`Circuit.nodes`, read from the lists."""

    kind: str
    arg: int | tuple[int, ...] | None
    decision: int

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


class CircuitBuilder(_Folding):
    """Incremental construction of circuits with node interning.

    ``add_*`` methods are structure-preserving (used by parsers and
    generators); :meth:`fold` absorbs constants and collapses single-child
    gates (used by transformation passes).
    """

    def __init__(self, universe: Universe):
        self.universe = universe
        self.kinds: list[str] = []
        self.args: list = []
        self.decisions: list[int] = []
        self._cache: dict[tuple, int] = {}
        self.true: int | None = None
        self.false: int | None = None

    def _add(self, kind: str, arg, decision: int = -1) -> int:
        count = len(self.kinds)
        index = self._cache.setdefault((kind, arg, decision), count)
        if index == count:
            self.kinds.append(kind)
            self.args.append(arg)
            self.decisions.append(decision)
        return index

    def const(self, value: bool) -> int:
        if value:
            self.true = self._add("true", None)
            return self.true
        self.false = self._add("false", None)
        return self.false

    def lit(self, lit: Literal | int) -> int:
        return self._add("lit", lit if isinstance(lit, int) else lit.code)

    def add_and(self, children: Sequence[int]) -> int:
        return self._add("and", tuple(children))

    def add_or(self, children: Sequence[int], decision: int = -1) -> int:
        return self._add("or", tuple(children), decision)

    gate = _add  # ``gate(kind, children)`` with a tuple of children

    def finish(
        self,
        root: int,
        annotation: str = Annotation.NNF,
        verified: bool = False,
        prune: bool = False,
    ) -> Circuit:
        """Wrap the lists into a circuit; ``prune`` drops nodes unreachable
        from the root (transformation passes leave such orphans behind) and
        renumbers the rest, keeping their order."""
        kinds, args, decisions = self.kinds, self.args, self.decisions
        if prune:
            kept = Circuit(self.universe, kinds, args, decisions, root).order()
            if len(kept) < len(kinds):
                remap = dict(zip(kept, range(len(kept))))
                new_id = remap.__getitem__
                kinds = [kinds[i] for i in kept]
                decisions = [decisions[i] for i in kept]
                args = [
                    tuple(map(new_id, arg)) if type(arg) is tuple else arg
                    for arg in map(args.__getitem__, kept)
                ]
                root = remap[root]
        return Circuit(self.universe, kinds, args, decisions, root, annotation, verified)

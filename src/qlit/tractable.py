"""Efficient quantification on CNF, DNF, Decision-DNNF and SDD inputs.

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
generator.  Prime implicants and implicates are likewise one construction,
seeded from models or counter-models.

The circuit routines are single traversals that replace literals by
constants; for the universal case the same traversal also makes the
equivalence-preserving reshaping (the shift).  Every routine here is oracle-checked against its definitional
counterpart by the test suite.

Closure preconditions are never assumed silently: callers either ask for the
closure to be computed first or assert it and get an error when the check
fails.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations, repeat

from .core import (
    Annotation,
    Circuit,
    CircuitBuilder,
    Clause,
    Formula,
    Literal,
    Term,
    Universe,
    Variable,
    _iter_bits,
    _var_patterns,
    rebuild,
    truth_table,
)
from .errors import (
    CapacityError,
    InvalidLiteralSetError,
    PreconditionError,
    StructureError,
)

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

PRIME_FORM_CAP = 16  # desk scale: prime enumeration is exponential past this


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


# -- prime implicants and implicates ---------------------------------------------


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


# -- circuit structure verification -----------------------------------------------


def _var_bitmasks(circuit: Circuit) -> tuple[list[int], list[int], dict[str, int]]:
    """The reachable node ids in order, the variables under each node as a
    bitmask, by node id, and by kind the first gate whose children share a
    variable."""
    kinds, args = circuit.kinds, circuit.args
    order = circuit.order()
    masks = [0] * len(kinds)
    shared: dict[str, int] = {}
    for i in order:
        arg = args[i]
        if type(arg) is tuple:
            acc = 0
            for child in arg:
                if acc & masks[child]:
                    shared.setdefault(kinds[i], i)
                acc |= masks[child]
            masks[i] = acc
        elif kinds[i] == "lit":
            masks[i] = 1 << (arg >> 1)
    return order, masks, shared


def _decomposable(circuit: Circuit) -> tuple[list[int], list[int]]:
    """:func:`_var_bitmasks`, after checking that no and-node's children
    share a variable."""
    order, masks, shared = _var_bitmasks(circuit)
    if "and" in shared:
        raise StructureError("and-node children share variables", shared["and"])
    return order, masks


def verify_dnnf(circuit: Circuit) -> Circuit:
    """Check decomposability: no and-node's children share a variable.

    Returns a verified circuit sharing the nodes; the argument is unchanged.
    A stronger annotation, such as SDD, is kept only when it was verified:
    decomposability alone does not show it.
    """
    _decomposable(circuit)
    keep = circuit.verified and circuit.annotation != Annotation.NNF
    return circuit.with_annotation(circuit.annotation if keep else Annotation.DNNF)


def _decision_table(circuit: Circuit, order) -> dict[int, tuple]:
    """Map each or-node among ``order`` to the ids of ``l``, ``~l``,
    ``alpha`` and ``beta`` in its ``(l & alpha) | (~l & beta)``; a
    remainder lists a branch's other children, literals last in code
    order.  Raises at the first node without the decision shape."""
    kinds, args, decisions = circuit.kinds, circuit.args, circuit.decisions
    table = {}
    for i in order:
        if kinds[i] != "or":
            continue
        children = args[i]
        if len(children) != 2:
            raise StructureError("decision node needs exactly two branches", i)
        branches = []
        for child in children:
            while kinds[child] == "and" and len(args[child]) == 1:
                child = args[child][0]
            if kinds[child] == "and":
                branches.append(args[child])
            elif kinds[child] == "lit":
                branches.append((child,))
            else:
                raise StructureError("decision branch is not a literal conjunction", i)
        first, second = branches
        flipped = {args[n] ^ 1: n for n in second if kinds[n] == "lit"}
        decided = sorted([(args[n], n) for n in first if kinds[n] == "lit" and args[n] in flipped])
        if not decided:
            raise StructureError("branches do not decide a common variable", i)
        code, lit = decided[0]
        if decisions[i] >= 0 and decisions[i] != code >> 1:
            raise StructureError("declared decision variable does not match shape", i)
        negation = flipped[code]
        alpha = [n for n in first if kinds[n] != "lit"]
        beta = [n for n in second if kinds[n] != "lit"]
        if len(alpha) + 1 < len(first):
            alpha += [n for _, n in sorted(
                (args[n], n) for n in first if kinds[n] == "lit" and n != lit)]
        if len(beta) + 1 < len(second):
            beta += [n for _, n in sorted(
                (args[n], n) for n in second if kinds[n] == "lit" and n != negation)]
        table[i] = (lit, negation, tuple(alpha), tuple(beta))
    return table


def verify_decision_dnnf(circuit: Circuit) -> Circuit:
    """Check decomposability plus the decision shape of every or-node; the
    verified circuit keeps each split, for universal quantification."""
    order, _ = _decomposable(circuit)
    return circuit.with_annotation(Annotation.DECISION_DNNF, _decision_table(circuit, order))


SDD_SEMANTIC_CHECK_CAP = 10  # prime variables; syntactic rules used above this


def _sdd_elements(circuit: Circuit, or_id: int) -> list[tuple[int, int]]:
    """The (prime, sub) pairs of an SDD or-node: its children's children."""
    kinds, args = circuit.kinds, circuit.args
    elements = []
    for child in args[or_id]:
        pair = args[child]
        if kinds[child] != "and" or len(pair) != 2:
            raise StructureError("or-node child is not a prime/sub pair", or_id)
        elements.append(pair)
    return elements


def _term_shape_codes(circuit: Circuit, root: int) -> list[int] | None:
    """Literal codes when ``root`` is a literal or a conjunction of literals."""
    kinds, args = circuit.kinds, circuit.args
    kind = kinds[root]
    if kind == "lit":
        return [args[root]]
    if kind != "and":
        return None
    codes = []
    for child in args[root]:
        if kinds[child] != "lit":
            return None
        codes.append(args[child])
    return codes


def verify_sdd(circuit: Circuit) -> Circuit:
    """Check decomposability plus the prime/sub partition of every or-node.

    Partitions are verified semantically (exhaustively over the prime
    variables) up to 10 prime variables; above that, primes must be literal
    or term shaped and are checked by mutual exclusion plus exact coverage
    measure.
    """
    order, masks = _decomposable(circuit)
    kinds = circuit.kinds
    for i in order:
        if kinds[i] != "or":
            continue
        elements = _sdd_elements(circuit, i)
        prime_vars = 0
        for prime, sub in elements:
            if masks[prime] & masks[sub]:
                raise StructureError("prime and sub share variables", i)
            prime_vars |= masks[prime]
        if prime_vars.bit_count() <= SDD_SEMANTIC_CHECK_CAP:
            _check_partition_semantic(circuit, i, elements, prime_vars)
        else:
            _check_partition_syntactic(circuit, i, elements)
    return circuit.with_annotation(Annotation.SDD)


def _check_partition_semantic(circuit: Circuit, or_id: int, elements, prime_vars: int) -> None:
    """Truth tables of the primes over their variables (the bitmask
    ``prime_vars``) must partition all rows."""
    var_list = list(_iter_bits(prime_vars))
    masks = dict(zip(var_list, _var_patterns(len(var_list))))
    full = (1 << (1 << len(var_list))) - 1
    union = 0
    for prime, _ in elements:
        vector = truth_table(circuit, masks, full, root=prime)
        if vector == 0:
            raise StructureError("inconsistent prime", or_id)
        if union & vector:
            raise StructureError("primes are not pairwise inconsistent", or_id)
        union |= vector
    if union != full:
        raise StructureError("primes do not cover all assignments", or_id)


def _check_partition_syntactic(circuit: Circuit, or_id: int, elements) -> None:
    terms = []
    for prime, _ in elements:
        codes = _term_shape_codes(circuit, prime)
        if codes is None:
            raise StructureError(
                "prime too large for semantic check and not term shaped", or_id
            )
        terms.append(set(codes))
    for a, b in combinations(terms, 2):
        if not any(code ^ 1 in b for code in a):
            raise StructureError("primes are not pairwise inconsistent", or_id)
    # the terms cover every assignment when their shares 2**-len sum to 1
    depth = max(map(len, terms), default=0)
    if sum(1 << (depth - len(t)) for t in terms) != 1 << depth:
        raise StructureError("primes do not cover all assignments", or_id)


# -- circuit quantification --------------------------------------------------------


def _require(circuit: Circuit, annotation: str) -> Circuit:
    """The circuit, verified as ``annotation`` (a verified copy if it was not)."""
    if circuit.annotation != annotation:
        raise TypeError(f"operation needs a {annotation} circuit, got {circuit.annotation}")
    verify = verify_sdd if annotation == Annotation.SDD else verify_decision_dnnf
    return circuit if circuit.verified else verify(circuit)


def _quantify_circuit(circuit: Circuit, lits: Iterable, annotation: str, forall: bool) -> Circuit:
    """Both routines on a Decision-DNNF or SDD: existential replaces each
    quantified literal by ``true`` (a DNNF results); universal replaces the
    negation of each by ``false`` within the shift."""
    circuit = _require(circuit, annotation)
    codes = set(_codes(circuit.universe, lits))
    if forall:
        return _shift(circuit, {code ^ 1: False for code in codes})
    builder = CircuitBuilder(circuit.universe)
    root = rebuild(circuit, builder, dict.fromkeys(codes, True))[circuit.root]
    return builder.finish(root, Annotation.DNNF, verified=True, prune=True)


def _shift(circuit: Circuit, replace: dict[int, bool]) -> Circuit:
    """The shift of a verified Decision-DNNF or SDD, with the literal codes
    of ``replace`` replaced by constants, in one rebuild that makes no node
    the shifted or-nodes do not read."""
    builder = CircuitBuilder(circuit.universe)
    fold = builder.fold
    if circuit.annotation == Annotation.DECISION_DNNF:
        # l, ~l, alpha and beta of each (l & alpha) | (~l & beta), from the verifier
        parts = circuit.decision_parts or _decision_table(circuit, circuit.order())
        reads = {i: (l, nl, *alpha, *beta) for i, (l, nl, alpha, beta) in parts.items()}

        def make(i: int, image: dict) -> int:
            lit, negation, alpha, beta = parts[i]
            left = fold("or", [image[lit], fold("and", [image[c] for c in beta])])
            right = fold("or", [image[negation], fold("and", [image[c] for c in alpha])])
            return fold("and", [left, right])
    else:
        kinds, args = circuit.kinds, circuit.args
        pairs = {i: [args[c] for c in args[i]] for i in circuit.order() if kinds[i] == "or"}
        reads = {i: tuple(sub for _, sub in elements) for i, elements in pairs.items()}
        # the prime complements, with the replacement read through the dual
        negated = rebuild(
            circuit, builder, {code ^ 1: not value for code, value in replace.items()},
            dual=True, roots=[prime for elements in pairs.values() for prime, _ in elements],
        )

        def make(i: int, image: dict) -> int:
            return fold("and", [fold("or", [negated[p], image[s]]) for p, s in pairs[i]])

    root = rebuild(circuit, builder, replace, shift=(reads, make))[circuit.root]
    return builder.finish(root, Annotation.NNF, verified=True, prune=True)


def ddnnf_exists(circuit: Circuit, lits: Iterable) -> Circuit:
    """Existential quantification on a Decision-DNNF: replace each quantified
    literal by ``true``.  Single pass; the result is a DNNF."""
    return _quantify_circuit(circuit, lits, Annotation.DECISION_DNNF, forall=False)


def ddnnf_shift(circuit: Circuit) -> Circuit:
    """Rewrite every decision ``(l & a) | (~l & b)`` into the equivalent
    ``(l | b) & (~l | a)``, after which no disjunction shares variables
    across its disjuncts.  One linear pass, which never makes the branch
    conjunctions."""
    return _shift(_require(circuit, Annotation.DECISION_DNNF), {})


def ddnnf_forall(circuit: Circuit, lits: Iterable) -> Circuit:
    """Universal quantification on a Decision-DNNF: the shift, with the
    negation of each quantified literal replaced by ``false``.  One linear
    pass, which builds only the nodes the shift reads."""
    return _quantify_circuit(circuit, lits, Annotation.DECISION_DNNF, forall=True)


def sdd_exists(circuit: Circuit, lits: Iterable) -> Circuit:
    """Existential quantification on an SDD: replace each quantified literal
    by ``true``.  Single pass; the result is a DNNF."""
    return _quantify_circuit(circuit, lits, Annotation.SDD, forall=False)


def sdd_shift(circuit: Circuit) -> Circuit:
    """Rewrite every ``(p1 & s1) | ... | (pn & sn)`` into the equivalent
    ``(~p1 | s1) & ... & (~pn | sn)``.

    Prime negations come from one dual rebuild of all primes, so the output
    has at most twice the nodes of the input; disjuncts never share
    variables.  One pass, which never makes the element conjunctions.
    """
    return _shift(_require(circuit, Annotation.SDD), {})


def sdd_forall(circuit: Circuit, lits: Iterable) -> Circuit:
    """Universal quantification on an SDD: the shift, with the negation of
    each quantified literal replaced by ``false``.  One linear pass, which
    builds only the nodes the shift reads."""
    return _quantify_circuit(circuit, lits, Annotation.SDD, forall=True)

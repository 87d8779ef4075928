"""Efficient quantification on CNF, DNF, Decision-DNNF and SDD inputs.

The flat-form routines drop literals or whole clauses/terms in one linear
pass; the circuit routines are single traversals that replace literals by
constants, after an equivalence-preserving reshaping pass for the universal
case.  Every routine here is oracle-checked against its definitional
counterpart by the test suite.

Closure preconditions are never assumed silently: callers either ask for the
closure to be computed first or assert it and get an error when the check
fails.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator

from .core import (
    Annotation,
    Circuit,
    CircuitBuilder,
    Clause,
    Formula,
    Term,
    Universe,
    Variable,
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
    """Shared behaviour of CNFs and DNFs: deduplicated element sets kept in
    construction order, displayed and iterated in canonical order."""

    __slots__ = ("universe", "elements", "_key", "_sorted")
    _element_type: type

    def __init__(self, universe: Universe, elements: Iterable = ()):
        self.universe = universe
        kept = []
        seen = set()
        for element in elements:
            if not isinstance(element, self._element_type):
                element = self._make_element(universe, element)
            if element.universe is not universe:
                raise InvalidLiteralSetError("element from a different universe")
            if element.codes not in seen:
                seen.add(element.codes)
                kept.append(element)
        self.elements: tuple = tuple(kept)
        self._key = frozenset(seen)
        self._sorted: tuple | None = None

    @classmethod
    def _make_element(cls, universe: Universe, spec):
        raise NotImplementedError

    def sorted_elements(self) -> tuple:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements, key=attrgetter("codes")))
        return self._sorted

    def literal_count(self) -> int:
        return sum(len(e) for e in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

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


class Cnf(_FlatForm):
    """A conjunction of non-valid clauses.  Empty means ``true``; containing
    the empty clause means ``false``."""

    _element_type = Clause

    @classmethod
    def _make_element(cls, universe: Universe, spec) -> Clause:
        return universe.clause(spec)

    @property
    def clauses(self) -> tuple[Clause, ...]:
        return self.elements

    def is_true(self) -> bool:
        return not self.elements

    def is_false(self) -> bool:
        return any(not c.codes for c in self.elements)

    def to_formula(self) -> Formula:
        u = self.universe
        return u.all_conj(c.to_formula() for c in self.sorted_elements())

    def __str__(self) -> str:
        if self.is_true():
            return "true"
        text = self.universe._texts.__getitem__
        parts = []
        for clause in self.sorted_elements():
            part = " | ".join(map(text, clause.codes)) or "false"
            parts.append(f"({part})" if len(clause.codes) > 1 else part)
        return " & ".join(parts)

    def __repr__(self) -> str:
        return f"Cnf({self})"


class Dnf(_FlatForm):
    """A disjunction of consistent terms.  Empty means ``false``; containing
    the empty term means ``true``."""

    _element_type = Term

    @classmethod
    def _make_element(cls, universe: Universe, spec) -> Term:
        return universe.term(spec)

    @property
    def terms(self) -> tuple[Term, ...]:
        return self.elements

    def is_false(self) -> bool:
        return not self.elements

    def is_true(self) -> bool:
        return any(not t.codes for t in self.elements)

    def to_formula(self) -> Formula:
        u = self.universe
        return u.all_disj(t.to_formula() for t in self.sorted_elements())

    def __str__(self) -> str:
        if self.is_false():
            return "false"
        text = self.universe._texts.__getitem__
        return " | ".join(
            " & ".join(map(text, t.codes)) if t.codes else "true"
            for t in self.sorted_elements()
        )

    def __repr__(self) -> str:
        return f"Dnf({self})"


# -- flat-form quantification ---------------------------------------------------


def cnf_forall_literal(cnf: Cnf, lit) -> Cnf:
    """Drop the negation of ``lit`` from every clause; a clause reduced to
    nothing collapses the result to ``false``.  Linear in literal count."""
    u = cnf.universe
    drop = u.literal(lit).code ^ 1
    out = []
    for clause in cnf.elements:
        if drop in clause.codes:
            slim = clause.without(u.literal_by_code(drop))
            if not slim.codes:
                return Cnf(u, [slim])
            out.append(slim)
        else:
            out.append(clause)
    return Cnf(u, out)


def cnf_exists_literal(cnf: Cnf, lit, assume_closed: bool = False) -> Cnf:
    """Remove every clause containing ``lit``.

    Sound only on CNFs closed under resolution on the literal's variable:
    with ``assume_closed`` the closure is verified (error on failure),
    otherwise it is computed first.
    """
    u = cnf.universe
    lit = u.literal(lit)
    if assume_closed:
        if not is_closed_under(cnf, lit.variable):
            raise PreconditionError(
                f"CNF is not closed under resolution on {lit.variable.name}"
            )
    else:
        cnf = close_under(cnf, lit.variable, "resolution")
    return Cnf(u, [c for c in cnf.elements if lit.code not in c.codes])


def dnf_exists_literal(dnf: Dnf, lit) -> Dnf:
    """Drop ``lit`` from every term.  Linear in literal count."""
    u = dnf.universe
    drop = u.literal(lit).code
    out = []
    for term in dnf.elements:
        if drop in term.codes:
            out.append(term.difference([u.literal_by_code(drop)]))
        else:
            out.append(term)
    result = Dnf(u, out)
    if result.is_true():
        return Dnf(u, [u.term()])
    return result


def dnf_forall_literal(dnf: Dnf, lit, assume_closed: bool = False) -> Dnf:
    """Remove every term containing the negation of ``lit``.

    Sound only on DNFs closed under consensus on the literal's variable;
    closure handling mirrors :func:`cnf_exists_literal`.
    """
    u = dnf.universe
    lit = u.literal(lit)
    if assume_closed:
        if not is_closed_under(dnf, lit.variable):
            raise PreconditionError(
                f"DNF is not closed under consensus on {lit.variable.name}"
            )
    else:
        dnf = close_under(dnf, lit.variable, "consensus")
    drop = lit.code ^ 1
    return Dnf(u, [t for t in dnf.elements if drop not in t.codes])


def _combine(a: tuple[int, ...], b: tuple[int, ...], var_index: int) -> tuple[int, ...] | None:
    """Resolution/consensus of two literal-code sets on one variable; ``None``
    when the rest of the sets clash on some other variable."""
    pos = 2 * var_index + 1
    merged = set(a) | set(b)
    merged.discard(pos)
    merged.discard(pos ^ 1)
    for code in merged:
        if code ^ 1 in merged:
            return None
    return tuple(sorted(merged))


def close_under(form: Cnf | Dnf, var: Variable, mode: str) -> Cnf | Dnf:
    """Add every resolvent (CNF) or consensus (DNF) on ``var``.

    Results never mention ``var``, so one pass reaches the fixpoint.  Models
    are unchanged.
    """
    if isinstance(form, Cnf) and mode != "resolution":
        raise ValueError("CNFs close under resolution")
    if isinstance(form, Dnf) and mode != "consensus":
        raise ValueError("DNFs close under consensus")
    u = form.universe
    u.check(var)
    pos_code = 2 * var.index + 1
    with_pos = [e for e in form.elements if pos_code in e.codes]
    with_neg = [e for e in form.elements if pos_code ^ 1 in e.codes]
    new_codes = []
    seen = {e.codes for e in form.elements}
    for a in with_pos:
        for b in with_neg:
            merged = _combine(a.codes, b.codes, var.index)
            if merged is not None and merged not in seen:
                seen.add(merged)
                new_codes.append(merged)
    if isinstance(form, Cnf):
        return Cnf(u, list(form.elements) + [Clause(u, c) for c in new_codes])
    return Dnf(u, list(form.elements) + [Term(u, c) for c in new_codes])


def is_closed_under(form: Cnf | Dnf, var: Variable) -> bool:
    """Whether every resolution/consensus on ``var`` is already present."""
    u = form.universe
    u.check(var)
    pos_code = 2 * var.index + 1
    present = {e.codes for e in form.elements}
    with_pos = [e.codes for e in form.elements if pos_code in e.codes]
    with_neg = [e.codes for e in form.elements if pos_code ^ 1 in e.codes]
    for a in with_pos:
        for b in with_neg:
            merged = _combine(a, b, var.index)
            if merged is not None and merged not in present:
                return False
    return True


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


def _closure_primes(universe: Universe, seeds: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
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
    flat form when one is given, else from the models / counter-models; the
    seeds are then closed under consensus/resolution and pruned by
    subsumption.  Capped at 16 variables.
    """
    from . import oracle  # imported where used: the linear routines never need it

    u = value.universe
    if len(u) > PRIME_FORM_CAP:
        raise CapacityError(
            f"universe has {len(u)} variables, prime-form cap is {PRIME_FORM_CAP}"
        )
    if mode not in ("implicants", "implicates"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "implicants":
        if isinstance(value, Dnf):
            seeds = {t.codes for t in value.elements}
        else:
            mask = oracle.models_mask(value, u)
            seeds = {_world_term_codes(u, bits) for bits in oracle._iter_bits(mask)}
        primes = _closure_primes(u, seeds)
        return Dnf(u, [Term(u, codes) for codes in primes])

    if isinstance(value, Cnf):
        seeds = {c.codes for c in value.elements}
    else:
        full = (1 << (1 << len(u))) - 1
        mask = oracle.models_mask(value, u)
        seeds = {
            _world_clause_codes(u, bits) for bits in oracle._iter_bits(full & ~mask)
        }
    primes = _closure_primes(u, seeds)
    return Cnf(u, [Clause(u, codes) for codes in primes])


def _world_term_codes(universe: Universe, bits: int) -> tuple[int, ...]:
    return tuple(2 * i + (bits >> i & 1) for i in range(len(universe)))


def _world_clause_codes(universe: Universe, bits: int) -> tuple[int, ...]:
    # the clause falsified exactly at this world: each literal negated
    return tuple(2 * i + (1 - (bits >> i & 1)) for i in range(len(universe)))


# -- circuit structure verification -----------------------------------------------


def _var_bitmasks(circuit: Circuit) -> tuple[list[int], list[int]]:
    """The reachable node ids in order, and the variables under each node as
    a bitmask, by node id."""
    kinds, args = circuit.kinds, circuit.args
    order = circuit.order()
    masks = [0] * len(kinds)
    for i in order:
        arg = args[i]
        if type(arg) is tuple:
            acc = 0
            for child in arg:
                acc |= masks[child]
            masks[i] = acc
        elif kinds[i] == "lit":
            masks[i] = 1 << (arg >> 1)
    return order, masks


def _sharing_node(circuit: Circuit, order, masks, kind: str) -> int:
    """The first node of ``kind`` whose children share a variable, or -1."""
    kinds, args = circuit.kinds, circuit.args
    for i in order:
        if kinds[i] != kind:
            continue
        acc = 0
        for child in args[i]:
            if acc & masks[child]:
                return i
            acc |= masks[child]
    return -1


def _decomposable(circuit: Circuit) -> tuple[list[int], list[int]]:
    """:func:`_var_bitmasks`, after checking that no and-node's children
    share a variable."""
    order, masks = _var_bitmasks(circuit)
    shared = _sharing_node(circuit, order, masks, "and")
    if shared >= 0:
        raise StructureError("and-node children share variables", shared)
    return order, masks


def verify_dnnf(circuit: Circuit) -> Circuit:
    """Check decomposability: no and-node's children share a variable.

    Returns a verified circuit sharing the nodes; the argument is unchanged.
    """
    _decomposable(circuit)
    if circuit.annotation == Annotation.NNF:
        return circuit.with_annotation(Annotation.DNNF)
    return circuit.with_annotation(circuit.annotation)


def _decision_parts(circuit: Circuit, or_id: int) -> tuple[int, int, list[int], list[int]]:
    """Split a decision or-node into (literal code, complement child index,
    remainder node ids of the literal side, remainder ids of the other side).

    Returns the decision literal code ``l`` such that the node reads
    ``(l & alpha) | (~l & beta)``, plus the non-literal remainders of the two
    branches.  Raises when the node does not have the decision shape.
    """
    kinds, args = circuit.kinds, circuit.args
    children = args[or_id]
    if len(children) != 2:
        raise StructureError("decision node needs exactly two branches", or_id)
    branches = []
    for child in children:
        while kinds[child] == "and" and len(args[child]) == 1:
            child = args[child][0]
        kind = kinds[child]
        if kind == "lit":
            branches.append(({args[child]: child}, []))
            continue
        if kind != "and":
            raise StructureError("decision branch is not a literal conjunction", or_id)
        lits: dict[int, int] = {}
        rest: list[int] = []
        for sub in args[child]:
            if kinds[sub] == "lit":
                lits[args[sub]] = sub
            else:
                rest.append(sub)
        branches.append((lits, rest))
    (first_lits, first_rest), (second_lits, second_rest) = branches
    split = sorted(code for code in first_lits if code ^ 1 in second_lits)
    if not split:
        raise StructureError("branches do not decide a common variable", or_id)
    code = split[0]
    declared = circuit.decisions[or_id]
    if declared >= 0 and declared != code >> 1:
        raise StructureError("declared decision variable does not match shape", or_id)
    alpha = first_rest + [i for c, i in sorted(first_lits.items()) if c != code]
    beta = second_rest + [i for c, i in sorted(second_lits.items()) if c != code ^ 1]
    return code, children[1], alpha, beta


def verify_decision_dnnf(circuit: Circuit) -> Circuit:
    """Check decomposability plus the decision shape of every or-node."""
    order, _ = _decomposable(circuit)
    kinds = circuit.kinds
    for i in order:
        if kinds[i] == "or":
            _decision_parts(circuit, i)
    return circuit.with_annotation(Annotation.DECISION_DNNF)


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
    from .oracle import _iter_bits, _var_patterns

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


def _require(circuit: Circuit, annotation: str, verifier) -> Circuit:
    """The circuit, verified as ``annotation`` (a verified copy when the
    argument was not verified)."""
    if circuit.annotation != annotation:
        raise TypeError(
            f"operation needs a {annotation} circuit, got {circuit.annotation}"
        )
    return circuit if circuit.verified else verifier(circuit)


def _substitute(
    circuit: Circuit, replaced: dict[int, bool], annotation: str
) -> Circuit:
    """Replace literal codes by constants, folding along the way."""
    builder = CircuitBuilder(circuit.universe)
    root = rebuild(circuit, builder, replaced)[circuit.root]
    return builder.finish(root, annotation, verified=True, prune=True)


def _quantify_circuit(circuit: Circuit, lits: Iterable, annotation: str, forall: bool) -> Circuit:
    """Both routines on a Decision-DNNF or SDD: existential replaces each
    quantified literal by ``true`` (a DNNF results); universal shifts, then
    replaces each negation by ``false``."""
    decision = annotation == Annotation.DECISION_DNNF
    circuit = _require(circuit, annotation, verify_decision_dnnf if decision else verify_sdd)
    codes = {circuit.universe.literal(lit).code for lit in lits}
    if not forall:
        return _substitute(circuit, dict.fromkeys(codes, True), Annotation.DNNF)
    shifted = ddnnf_shift(circuit) if decision else sdd_shift(circuit)
    return _substitute(shifted, {code ^ 1: False for code in codes}, Annotation.NNF)


def ddnnf_exists(circuit: Circuit, lits: Iterable) -> Circuit:
    """Existential quantification on a Decision-DNNF: replace each quantified
    literal by ``true``.  Single pass; the result is a DNNF."""
    return _quantify_circuit(circuit, lits, Annotation.DECISION_DNNF, forall=False)


def ddnnf_shift(circuit: Circuit) -> Circuit:
    """Rewrite every decision ``(l & a) | (~l & b)`` into the equivalent
    ``(l | b) & (~l | a)``, after which no disjunction shares variables
    across its disjuncts.  Linear time and size."""
    circuit = _require(circuit, Annotation.DECISION_DNNF, verify_decision_dnnf)
    builder = CircuitBuilder(circuit.universe)

    def decision(i: int, image: dict) -> int:
        code, _, alpha_ids, beta_ids = _decision_parts(circuit, i)
        alpha = builder.fold("and", [image[c] for c in alpha_ids])
        beta = builder.fold("and", [image[c] for c in beta_ids])
        left = builder.fold("or", [builder.lit(code), beta])
        right = builder.fold("or", [builder.lit(code ^ 1), alpha])
        return builder.fold("and", [left, right])

    root = rebuild(circuit, builder, shift=decision)[circuit.root]
    return builder.finish(root, Annotation.NNF, verified=True, prune=True)


def ddnnf_forall(circuit: Circuit, lits: Iterable) -> Circuit:
    """Universal quantification on a Decision-DNNF: shift, then replace the
    negation of each quantified literal by ``false``.  Linear time."""
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
    variables.
    """
    circuit = _require(circuit, Annotation.SDD, verify_sdd)
    builder = CircuitBuilder(circuit.universe)
    kinds = circuit.kinds
    primes = [
        prime
        for i in circuit.order()
        if kinds[i] == "or"
        for prime, _ in _sdd_elements(circuit, i)
    ]
    negated = rebuild(circuit, builder, dual=True, roots=primes)

    def partition(i: int, image: dict) -> int:
        return builder.fold(
            "and",
            [builder.fold("or", [negated[p], image[s]]) for p, s in _sdd_elements(circuit, i)],
        )

    root = rebuild(circuit, builder, shift=partition)[circuit.root]
    return builder.finish(root, Annotation.NNF, verified=True, prune=True)


def sdd_forall(circuit: Circuit, lits: Iterable) -> Circuit:
    """Universal quantification on an SDD: shift, then replace the negation
    of each quantified literal by ``false``.  Linear time."""
    return _quantify_circuit(circuit, lits, Annotation.SDD, forall=True)

"""Universal quantification on circuits in one pass, against the two passes
it replaced.

The reference below is the earlier implementation: shift the whole circuit
(building every node, the branch and element conjunctions included), prune
it, then replace the negation of each quantified literal by ``false`` in a
second rebuild and prune again.  On seeded Decision-DNNF and SDD circuits
over 2-8 variables, with literals of both signs, decision literals and whole
variables, the one-pass output must be equivalent to the reference's by the
oracle and have no more nodes and no more edges.
"""

import random

import pytest

from qlit import oracle
from qlit.core import Annotation, CircuitBuilder, Universe, rebuild
from qlit.generators import parity_decision_dnnf, random_decision_dnnf, random_sdd
from qlit.io import parse_sdd
from qlit.quantify import quantify_set
from qlit.tractable import ddnnf_forall, ddnnf_shift, sdd_forall, sdd_shift


# -- references ------------------------------------------------------------------


def ref_decision_parts(circuit, or_id):
    """(decision literal code, remainder ids of its branch, of the other)."""
    kinds, args = circuit.kinds, circuit.args
    branches = []
    for child in args[or_id]:
        while kinds[child] == "and" and len(args[child]) == 1:
            child = args[child][0]
        if kinds[child] == "lit":
            branches.append(({args[child]: child}, []))
            continue
        lits, rest = {}, []
        for sub in args[child]:
            if kinds[sub] == "lit":
                lits[args[sub]] = sub
            else:
                rest.append(sub)
        branches.append((lits, rest))
    (first_lits, first_rest), (second_lits, second_rest) = branches
    code = sorted(c for c in first_lits if c ^ 1 in second_lits)[0]
    alpha = first_rest + [i for c, i in sorted(first_lits.items()) if c != code]
    beta = second_rest + [i for c, i in sorted(second_lits.items()) if c != code ^ 1]
    return code, alpha, beta


def ref_every_or_node(circuit):
    """The hook's reads that make ``rebuild`` build every node, as the
    two-pass shift did."""
    return {i: circuit.args[i] for i in circuit.order() if circuit.kinds[i] == "or"}


def ref_ddnnf_shift(circuit):
    builder = CircuitBuilder(circuit.universe)

    def decision(i, image):
        code, alpha_ids, beta_ids = ref_decision_parts(circuit, i)
        alpha = builder.fold("and", [image[c] for c in alpha_ids])
        beta = builder.fold("and", [image[c] for c in beta_ids])
        left = builder.fold("or", [builder.lit(code), beta])
        right = builder.fold("or", [builder.lit(code ^ 1), alpha])
        return builder.fold("and", [left, right])

    root = rebuild(circuit, builder, shift=(ref_every_or_node(circuit), decision))[circuit.root]
    return builder.finish(root, prune=True)


def ref_sdd_shift(circuit):
    builder = CircuitBuilder(circuit.universe)
    kinds, args = circuit.kinds, circuit.args
    ors = [i for i in circuit.order() if kinds[i] == "or"]
    primes = [args[child][0] for i in ors for child in args[i]]
    negated = rebuild(circuit, builder, dual=True, roots=primes)

    def partition(i, image):
        pairs = [args[child] for child in args[i]]
        return builder.fold(
            "and", [builder.fold("or", [negated[p], image[s]]) for p, s in pairs]
        )

    root = rebuild(circuit, builder, shift=(ref_every_or_node(circuit), partition))[circuit.root]
    return builder.finish(root, prune=True)


def ref_forall(circuit, lits):
    shifted = ref_ddnnf_shift(circuit) if circuit.annotation == Annotation.DECISION_DNNF \
        else ref_sdd_shift(circuit)
    builder = CircuitBuilder(circuit.universe)
    replace = {lit.code ^ 1: False for lit in lits}
    root = rebuild(shifted, builder, replace)[shifted.root]
    return builder.finish(root, prune=True)


# -- cases ----------------------------------------------------------------------


def _items(circuit, rng):
    """One to three items: a literal of either sign, a literal of a decision
    or prime variable, or a whole variable (both its literals)."""
    u = circuit.universe
    present = sorted(circuit.literal_codes())
    lits = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4 and present:
            lits.append(u.literal_by_code(rng.choice(present)))
        elif roll < 0.7:
            lits.append(u.literal_by_code(rng.randrange(2 * len(u))))
        else:
            var = rng.randrange(len(u))
            lits += [u.literal_by_code(2 * var), u.literal_by_code(2 * var + 1)]
    return lits


def _cases():
    rng = random.Random(1101)
    for k in range(300):
        u = Universe(2 + k % 7)
        make = random_decision_dnnf if k % 2 == 0 else random_sdd
        circuit = make(u, rng)
        yield circuit, _items(circuit, rng)


def _edges(circuit):
    return circuit.size() - len(circuit)


# (x <-> y) & z | (x xor y) & ~z: both primes are decompositions over x and y
NESTED_PRIMES = (
    "L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nL 5 3\nL 6 -3\n"
    "D 7 2 1 3 2 4\nD 8 2 1 4 2 3\nD 9 2 7 5 8 6\n"
)


class TestOnePassForall:
    def test_equivalent_to_the_two_passes_and_no_larger(self):
        for circuit, lits in _cases():
            forall = ddnnf_forall if circuit.annotation == Annotation.DECISION_DNNF else sdd_forall
            out, ref = forall(circuit, lits), ref_forall(circuit, lits)
            assert oracle.equivalent(out, ref), (circuit, lits)
            assert len(out) <= len(ref) and _edges(out) <= _edges(ref), (circuit, lits)

    def test_shifts_match_the_full_shifts(self):
        rng = random.Random(1102)
        for k in range(60):
            u = Universe(2 + k % 7)
            for make, shift, ref in (
                (random_decision_dnnf, ddnnf_shift, ref_ddnnf_shift),
                (random_sdd, sdd_shift, ref_sdd_shift),
            ):
                circuit = make(u, rng)
                out, want = shift(circuit), ref(circuit)
                assert oracle.equivalent(out, want)
                assert len(out) <= len(want) and _edges(out) <= _edges(want)

    @pytest.mark.parametrize("item", ["x", "~x", "y", "~y", "z", "~z"])
    def test_a_quantified_literal_inside_a_prime(self, item):
        u = Universe(["x", "y", "z"])
        circuit = parse_sdd(NESTED_PRIMES, u)
        lit = u.literal(item)
        out = sdd_forall(circuit, [lit])
        assert oracle.equivalent(out, ref_forall(circuit, [lit]))
        assert oracle.equivalent(out, quantify_set(circuit.to_formula(), "forall", [lit]))

    def test_a_trusted_circuit_carries_its_partitions(self):
        u = Universe(7)
        circuit = parity_decision_dnnf(u)
        assert circuit.annotation == Annotation.DECISION_DNNF
        assert sorted(circuit.partitions) == [i for i in circuit.order() if circuit.kinds[i] == "or"]
        lits = [u.literal_by_code(3), u.literal_by_code(8)]
        assert oracle.equivalent(ddnnf_forall(circuit, lits), ref_forall(circuit, lits))

    def test_verification_keeps_the_split_of_every_or_node(self):
        rng = random.Random(1103)
        circuit = random_decision_dnnf(Universe(6), rng)
        parts = circuit.partitions
        ors = [i for i in circuit.order() if circuit.kinds[i] == "or"]
        assert sorted(parts) == ors
        for i in ors:
            (lit, alpha), (negation, beta) = parts[i]
            code, want_alpha, want_beta = ref_decision_parts(circuit, i)
            assert (circuit.args[lit], circuit.args[negation]) == (code, code ^ 1)
            assert (list(alpha), list(beta)) == (want_alpha, want_beta)

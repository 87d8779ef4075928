"""The verifiers' variable reading against the code it replaced.

The references are the earlier implementations: ``_var_bitmasks`` kept the
variable bitmask of every node until its pass ended, and ``verify_sdd`` read
each or-node's prime variables out of those masks, bit by bit, then made
one truth table per prime.  Today a mask is dropped once its last parent has
read it, and the prime variables come from one walk of the primes, whose
tables one walk makes.  Both must give the same node order, the same first
sharing gate by kind, and the same class, partitions, or error message and
node.
"""

import random
import tracemalloc

from qlit.circuits import (
    SDD_SEMANTIC_CHECK_CAP,
    _check_partition_syntactic,
    _sdd_elements,
    _var_bitmasks,
    verify_decision_dnnf,
    verify_sdd,
)
from qlit.core import Annotation, Circuit, CircuitBuilder, Universe, _var_patterns, truth_table
from qlit.errors import StructureError
from qlit.generators import _cube_split, _term_node, parity_decision_dnnf, random_decision_dnnf, random_sdd


def ref_var_bitmasks(circuit):
    """The reachable node ids in order, the variables under each node as a
    bitmask, by node id, and by kind the first gate whose children share a
    variable."""
    kinds, args = circuit.kinds, circuit.args
    order = circuit.order()
    masks = [0] * len(kinds)
    shared = {}
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


def ref_iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ref_check_partition_semantic(circuit, or_id, elements, prime_vars):
    var_list = list(ref_iter_bits(prime_vars))
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


def ref_verify_sdd(circuit):
    order, masks, shared = ref_var_bitmasks(circuit)
    if "and" in shared:
        raise StructureError("and-node children share variables", shared["and"])
    partitions = {}
    for i in order:
        if circuit.kinds[i] != "or":
            continue
        elements = _sdd_elements(circuit, i)
        prime_vars = 0
        for prime, _ in elements:
            prime_vars |= masks[prime]
        if prime_vars.bit_count() <= SDD_SEMANTIC_CHECK_CAP:
            ref_check_partition_semantic(circuit, i, elements, prime_vars)
        else:
            _check_partition_syntactic(circuit, i, elements)
        partitions[i] = tuple((prime, (sub,)) for prime, sub in elements)
    return circuit.with_annotation(Annotation.SDD, partitions)


def _outcome(verify, circuit):
    """The class and partitions of the verified circuit, or the error's
    message and node."""
    try:
        verified = verify(circuit)
    except StructureError as error:
        return str(error), error.node
    return verified.annotation, verified.partitions


def _random_nnf(rng):
    """A plain NNF with shared gates: each gate reads one to four earlier
    nodes, a node may be read by many gates and twice by one, and the root
    is any node."""
    u = Universe(rng.randint(1, 8))
    builder = CircuitBuilder(u)
    pool = [builder.const(True), builder.const(False)]
    pool += [builder.lit(code) for code in rng.sample(range(2 * len(u)), rng.randint(1, 2 * len(u)))]
    for _ in range(rng.randint(1, 30)):
        children = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            pool.append(builder.add_and(children))
        else:
            pool.append(builder.add_or(children, decision=rng.randrange(-1, len(u))))
    return builder.finish(rng.choice(pool[len(pool) // 2:]))


def _wide_sdd(rng):
    """An SDD whose root partition splits the cube over its first ``k``
    variables into terms, for ``k`` up to 14: past 10 prime variables its
    primes are checked as terms.  Each sub is a literal or a constant over
    the other variables."""
    k = rng.randint(SDD_SEMANTIC_CHECK_CAP - 2, SDD_SEMANTIC_CHECK_CAP + 4)
    u = Universe(k + 3)
    builder = CircuitBuilder(u)
    terms = _cube_split(list(range(k)), rng)
    while len(terms) < 2:
        terms = _cube_split(list(range(k)), rng)
    children = []
    for codes in terms:
        roll = rng.random()
        if roll < 0.2:
            sub = builder.const(roll < 0.1)
        else:
            sub = builder.lit(2 * rng.randrange(k, k + 3) + rng.randrange(2))
        children.append(builder.add_and([_term_node(builder, codes), sub]))
    return builder.finish(builder.add_or(children))


def _corrupt(circuit, rng):
    """The circuit's lists with one random fault: a literal's code changed,
    or a gate's child dropped, repeated or replaced by an earlier node."""
    kinds, args = list(circuit.kinds), list(circuit.args)
    n = len(circuit.universe)
    gates = [i for i, arg in enumerate(args) if type(arg) is tuple and arg]
    lits = [i for i, kind in enumerate(kinds) if kind == "lit"]
    roll = rng.random()
    if lits and (roll < 0.3 or not gates):
        args[rng.choice(lits)] = rng.randrange(2 * n)
    elif gates:
        i = rng.choice(gates)
        children = list(args[i])
        spot = rng.randrange(len(children))
        if roll < 0.5 and len(children) > 1:
            del children[spot]
        elif roll < 0.7:
            children.append(children[spot])
        else:
            children[spot] = rng.randrange(i)
        args[i] = tuple(children)
    return Circuit(circuit.universe, kinds, args, list(circuit.decisions), circuit.root)


class TestVarBitmasks:
    def test_order_and_sharing_gates_on_seeded_circuits(self):
        rng = random.Random(27001)
        kinds = {"decision": 0, "sdd": 0, "nnf": 0, "nnf-decomposable": 0}
        for k in range(1200):
            family = k % 3
            if family == 0:
                circuit = random_decision_dnnf(Universe(rng.randint(1, 8)), rng)
                kinds["decision"] += 1
            elif family == 1:
                circuit = random_sdd(Universe(rng.randint(1, 9)), rng)
                kinds["sdd"] += 1
            else:
                circuit = _random_nnf(rng)
                kinds["nnf"] += 1
            order, _, shared = ref_var_bitmasks(circuit)
            assert _var_bitmasks(circuit) == (order, shared), k
            kinds["nnf-decomposable"] += family == 2 and "and" not in shared
        # the plain circuits hold both outcomes of the decomposability check
        assert 50 < kinds["nnf-decomposable"] < kinds["nnf"] - 50, kinds

    def test_parity_chain(self):
        circuit = parity_decision_dnnf(Universe(300))
        order, _, shared = ref_var_bitmasks(circuit)
        assert _var_bitmasks(circuit) == (order, shared) and "and" not in shared


class TestVerifySdd:
    def test_valid_and_corrupted_sdds(self):
        rng = random.Random(27002)
        seen = {"valid": 0, "error": 0, "wide": 0, "wide-valid": 0, "wide-error": 0}
        for k in range(600):
            if k % 3 == 2:
                circuit = _wide_sdd(rng)
            else:
                circuit = random_sdd(Universe(rng.randint(2, 9)), rng)
            cases = [circuit, _corrupt(circuit, rng), _corrupt(circuit, rng)]
            for case in cases:
                want = _outcome(ref_verify_sdd, case)
                assert _outcome(verify_sdd, case) == want, k
                seen["valid" if want[0] == Annotation.SDD else "error"] += 1
                seen["wide-error"] += k % 3 == 2 and want[0] != Annotation.SDD
            if k % 3 == 2:
                masks = ref_var_bitmasks(circuit)[1]
                width = 0
                for prime, _ in _sdd_elements(circuit, circuit.root):
                    width |= masks[prime]
                if width.bit_count() > SDD_SEMANTIC_CHECK_CAP:
                    seen["wide"] += 1
                    seen["wide-valid"] += _outcome(verify_sdd, circuit)[0] == Annotation.SDD
        # both outcomes, and partitions checked past the cap, valid and not
        assert min(seen.values()) >= 20, seen


class TestVerifierMemory:
    def test_parity_chain_verifies_in_frontier_memory(self):
        """The 80,002-node chain verifies with a traced peak under 10 MiB:
        with every node's mask kept to the end it took about 98 MiB."""
        circuit = parity_decision_dnnf(Universe(10000))
        assert len(circuit) == 80_002
        tracemalloc.start()
        try:
            verified = verify_decision_dnnf(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verified.annotation == Annotation.DECISION_DNNF
        assert peak < 10 * 2**20, f"{peak / 2**20:.1f} MiB"

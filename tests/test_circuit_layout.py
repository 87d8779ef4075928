"""Circuits stored as per-node lists: the text of every circuit routine's
output and its node and edge counts, pinned by digest, and the shape
invariants of those outputs."""

import hashlib
import random

from qlit.core import Universe, negate
from qlit.generators import parity_decision_dnnf, random_decision_dnnf, random_sdd
from qlit.io import emit_nnf, emit_sdd, parse_nnf, parse_sdd
from qlit.tractable import (
    ddnnf_exists,
    ddnnf_forall,
    ddnnf_shift,
    sdd_exists,
    sdd_forall,
    sdd_shift,
)

from test_io import _sdd_chain_text

# routine(circuit, literals) by circuit family
ROUTINES = {
    "decision": (
        ("ddnnf_exists", ddnnf_exists),
        ("ddnnf_forall", ddnnf_forall),
        ("ddnnf_shift", lambda c, lits: ddnnf_shift(c)),
        ("negate", lambda c, lits: negate(c)),
    ),
    "sdd": (
        ("sdd_exists", sdd_exists),
        ("sdd_forall", sdd_forall),
        ("sdd_shift", lambda c, lits: sdd_shift(c)),
        ("negate", lambda c, lits: negate(c)),
    ),
}

# SHA-256 of the emitted texts of each routine over the corpus, in corpus
# order, recorded from the node-object layout that the lists replaced
DIGESTS = {
    "decision.ddnnf_exists": "fae39003e0228c0ee609ca45a0bf27b7983df0129194a5985c1a9eb22c914d68",
    "decision.ddnnf_forall": "9eb88ed42dd4135365fe9d523857a0f9b6d0e52fba96c002a97dc03ddcc230ed",
    "decision.ddnnf_shift": "9a862a5f11d53e00bd798da525c93b373ed60e55e24841a243e98f0d93937006",
    "decision.negate": "a9aa18d26c11999985aa4d81debd537d6170af1d790bb06b5a8267c7e7522b37",
    "emit_sdd": "092d439ec4307e4a4dba773a234d1036119b253f0618e6ab760eb305b65338c8",
    "parse_nnf": "da15529ecd6423214a78091a54b25e1a57b14a0ecdf8c12de3e1db83c0a940da",
    "sdd.negate": "44048d9f2825bc00fc14746f33ed77b5731c69b90dea401987b9052ce6426106",
    "sdd.sdd_exists": "0864d80788d1e338227e3e2a4744be0476a86093ba34c204459a4b9bbe62a587",
    "sdd.sdd_forall": "a04904267d30b00e7ea78ff84198b53cf21b5e9b44391baaae9315b40ef289de",
    "sdd.sdd_shift": "6f67157832228ed142c8d47cbc8b4138888799773638c5fee757c3879bcf932a",
}

# SHA-256 of the line "<nodes> <edges>" of each output, in corpus order: a
# change that only reorders a routine's nodes re-pins its DIGESTS entry and
# must leave its entry here as it is
SIZES = {
    "decision.ddnnf_exists": "60f54bf5fbd9809a32dd640b0171befc7fce40786e624faec192d9c036397709",
    "decision.ddnnf_forall": "f42e5cff49eaf7825b5f16ed9da0622e789d31b03dbf3f1ceb71a04e6ea59d29",
    "decision.ddnnf_shift": "fe05cdab7b5a0735e9e6dab3769bb1fc89d282f90871ec64ce48b81c86b6b024",
    "decision.negate": "9229a243b86800482803765894e1448521a4d14224d90185d14bf9b3b0dea5c6",
    "parse_nnf": "97d89be6dddaa8658be945574fca949ad5eac4b3da630b623ab6d921c6bc1edb",
    "sdd.negate": "a385d3d100600e6240a73317ac4b61cf6402279d338025c27e3bb66015db8186",
    "sdd.sdd_exists": "5512716903ba245d60bf7b36a88c6a7a3893680ac823283163d0c4dc68946831",
    "sdd.sdd_forall": "08922d3d50639b2b6f7513c8f1389d507cef4038c846f4c39fe7f67b17a3c165",
    "sdd.sdd_shift": "1868d1b2e4942c31e7798e0278609b3ba0acc306a6c29ad337d9f0edf3360ed0",
}


def _corpus():
    """``(family, circuit, literals)``: random decision circuits and SDDs over
    4-8 variables, the parity chains over 4-8 variables and one over 60."""
    rng = random.Random(6061)
    for n in range(4, 9):
        u = Universe(n)
        for _ in range(12):
            for family, make in (("decision", random_decision_dnnf), ("sdd", random_sdd)):
                circuit = make(u, rng)
                lits = [u.literal_by_code(rng.randrange(2 * n)) for _ in range(rng.randint(1, 3))]
                yield family, circuit, lits
        yield "decision", parity_decision_dnnf(u), [u.literal_by_code(1)]
    u = Universe(60)
    yield "decision", parity_decision_dnnf(u), [u.literal_by_code(1), u.literal_by_code(40)]


def _sdd_fixtures():
    """SDDs parsed from text: the two-variable equivalence, a 40-level chain
    and the re-parsed text of random SDDs."""
    yield parse_sdd("L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nD 5 2 1 3 2 4\n", Universe(["x", "y"]))
    yield parse_sdd(_sdd_chain_text(40), Universe(40))
    rng = random.Random(6062)
    for n in range(4, 9):
        u = Universe(n)
        for _ in range(12):
            circuit = random_sdd(u, rng)
            yield circuit
            yield parse_sdd(emit_sdd(circuit), u)


def _outputs():
    """Every routine's output over the corpus, by routine name, with the
    emitted text of the corpus circuits re-parsed under ``parse_nnf``."""
    out: dict[str, list] = {"parse_nnf": []}
    for family, circuit, lits in _corpus():
        out["parse_nnf"].append(parse_nnf(emit_nnf(circuit), circuit.universe))
        for name, routine in ROUTINES[family]:
            out.setdefault(f"{family}.{name}", []).append(routine(circuit, lits))
    return out


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


def digests() -> dict[str, str]:
    got = {name: _digest(map(emit_nnf, circuits)) for name, circuits in _outputs().items()}
    got["emit_sdd"] = _digest(map(emit_sdd, _sdd_fixtures()))
    return got


def sizes() -> dict[str, str]:
    return {
        name: _digest(f"{len(c)} {c.size() - len(c)}\n" for c in circuits)
        for name, circuits in _outputs().items()
    }


def _check_shape(circuit) -> None:
    """Every node reachable from the root, every child older than its
    parent, and the lists, the node view and ``size()`` in agreement."""
    kinds, args, decisions = circuit.kinds, circuit.args, circuit.decisions
    n = len(kinds)
    assert len(args) == len(decisions) == len(circuit) == len(circuit.nodes) == n
    assert circuit.root == n - 1
    reached = {circuit.root}
    edges = 0
    for i in range(n - 1, -1, -1):
        assert i in reached, f"node {i} is not reachable"
        if kinds[i] in ("and", "or"):
            assert all(child < i for child in args[i])
            reached.update(args[i])
            edges += len(args[i])
        elif kinds[i] == "lit":
            assert 0 <= args[i] < 2 * len(circuit.universe)
        else:
            assert kinds[i] in ("true", "false") and args[i] is None
    assert circuit.size() == n + edges
    view = list(circuit.nodes)
    assert [node.kind for node in view] == kinds
    assert [node.children for node in view] == [
        arg if kind in ("and", "or") else () for kind, arg in zip(kinds, args)
    ]
    assert [node.lit for node in view] == [
        arg if kind == "lit" else -1 for kind, arg in zip(kinds, args)
    ]
    assert [node.decision for node in view] == decisions


class TestOutputDigests:
    def test_emitted_text_is_unchanged(self):
        assert digests() == DIGESTS

    def test_node_and_edge_counts_are_unchanged(self):
        assert sizes() == SIZES

    def test_outputs_are_pruned_and_topological(self):
        outputs = _outputs()
        del outputs["parse_nnf"]  # a parsed text keeps every node it lists
        for circuits in outputs.values():
            for circuit in circuits:
                _check_shape(circuit)

"""Circuits stored as per-node lists: the text of every circuit routine's
output, pinned by digest, and the shape invariants of those outputs."""

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
    "decision.ddnnf_forall": "a3ff29020ea54795d2259353034c57098e7a2614044a75662cd740db92f87bd2",
    "decision.ddnnf_shift": "62fd6df6e5309e8c6b31defd4fd82c76295d3e607d105796fb516e741b42fa3c",
    "decision.negate": "a9aa18d26c11999985aa4d81debd537d6170af1d790bb06b5a8267c7e7522b37",
    "emit_sdd": "092d439ec4307e4a4dba773a234d1036119b253f0618e6ab760eb305b65338c8",
    "parse_nnf": "da15529ecd6423214a78091a54b25e1a57b14a0ecdf8c12de3e1db83c0a940da",
    "sdd.negate": "44048d9f2825bc00fc14746f33ed77b5731c69b90dea401987b9052ce6426106",
    "sdd.sdd_exists": "0864d80788d1e338227e3e2a4744be0476a86093ba34c204459a4b9bbe62a587",
    "sdd.sdd_forall": "a04904267d30b00e7ea78ff84198b53cf21b5e9b44391baaae9315b40ef289de",
    "sdd.sdd_shift": "6f67157832228ed142c8d47cbc8b4138888799773638c5fee757c3879bcf932a",
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

    def test_outputs_are_pruned_and_topological(self):
        outputs = _outputs()
        del outputs["parse_nnf"]  # a parsed text keeps every node it lists
        for circuits in outputs.values():
            for circuit in circuits:
                _check_shape(circuit)

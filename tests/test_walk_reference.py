"""The one walk and the byte-table bit iterator against the code they replaced.

The references are the earlier implementations: the formula walk (a search
over the nodes' children, then a sort by creation rank, which a node's id
now is), ``Circuit.order``'s mark pass down the ids from the highest root,
and ``_iter_bits``'s loop that clears the lowest set bit of the whole mask
per step.  :func:`qlit.core.walk` must return the same ids in the same
order as the first two, and ``_iter_bits`` the same positions as the third.
"""

import random

from qlit.core import Universe, _iter_bits, walk
from qlit.generators import random_formula

from test_circuit_layout import _corpus, _outputs


def ref_formula_walk(roots):
    """The ids under ``roots`` by a search over ``children``, sorted by
    creation rank."""
    stack = list(roots)
    seen = set(stack)
    while stack:
        for child in stack.pop().children:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return [node.id for node in sorted(seen, key=lambda node: node.id)]


def ref_mark_pass(args, roots):
    """The ids under ``roots`` in list order: one mark pass runs down the ids
    from the highest root and stops below the lowest mark."""
    roots = list(roots)
    if not roots:
        return []
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
                    low = min(low, child)
        elif i < low:
            break
    return [i for i in range(low, top + 1) if marks[i]]


def ref_iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _populated(rng):
    """A 10-variable universe holding 400 random formulas, and 60 more
    formulas built after them, whose ids spread over the whole store."""
    u = Universe(10)
    for _ in range(400):
        random_formula(u, rng, depth=6)
    return u, [random_formula(u, rng, depth=6) for _ in range(60)]


class TestFormulaWalk:
    def test_late_formulas_in_a_populated_universe(self):
        u, late = _populated(random.Random(7001))
        args = u._store.args
        for formula in late:
            assert walk(args, (formula.id,)) == ref_formula_walk([formula])

    def test_several_roots(self):
        rng = random.Random(7002)
        u, late = _populated(rng)
        args = u._store.args
        for _ in range(60):
            roots = rng.sample(late, rng.randint(1, 3))
            assert walk(args, [r.id for r in roots]) == ref_formula_walk(roots)


class TestCircuitOrder:
    def test_layout_circuits_from_the_root(self):
        for circuits in _outputs().values():
            for circuit in circuits:
                assert circuit.order() == ref_mark_pass(circuit.args, [circuit.root])

    def test_layout_circuits_from_sampled_roots(self):
        rng = random.Random(7003)
        for _, circuit, _ in _corpus():
            roots = rng.sample(range(len(circuit)), min(len(circuit), rng.randint(0, 4)))
            assert circuit.order(roots) == ref_mark_pass(circuit.args, roots)
            assert walk(circuit.args, roots) == ref_mark_pass(circuit.args, roots)


class TestIterBits:
    def test_same_positions_as_the_loop(self):
        rng = random.Random(7004)
        masks = [0, 1, 2, 0xFF, 0x100, 1 << (1 << 19) - 1]
        for bits in (3, 8, 9, 64, 1000, 1 << 12):
            masks += [rng.getrandbits(bits) for _ in range(5)]
        # a 2**19-bit truth table, about 2% of its worlds set
        masks.append(sum(1 << i for i in rng.sample(range(1 << 19), 10000)) | 1 << (1 << 19) - 1)
        for mask in masks:
            assert list(_iter_bits(mask)) == list(ref_iter_bits(mask))

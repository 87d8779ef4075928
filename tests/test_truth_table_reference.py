"""Truth tables and variable masks against the code they replaced.

The references are the earlier implementations: ``_var_patterns`` built
each mask by one big-integer floor division, ``full // (2**(2**(i+1)) - 1)``
times one period, which is quadratic in the table's width; and
``truth_table`` kept every node's table until the call returned and folded
each gate from ``full`` or ``0``.  :func:`qlit.core._var_patterns` must
return the same masks, and :func:`qlit.core.truth_table` the same tables,
whether it keeps every table (up to 16 variables, while they fit in 8 MiB)
or frees tables after their last reader, and for several roots of one store
at once.
"""

import random

import pytest

from qlit.core import Universe, World, _var_patterns, evaluate, truth_table, walk
from qlit.generators import random_decision_dnnf, random_formula, random_sdd


def ref_var_patterns(n):
    full = (1 << (1 << n)) - 1
    return [full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(n)]


def ref_truth_table(value, masks, full, root=None):
    store, top = value._dag()
    root = top if root is None else root
    memo = {}
    kinds, args = store.kinds, store.args
    for ref in walk(args, (root,)):
        kind, arg = kinds[ref], args[ref]
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
            out = full ^ memo[arg[0]]
        else:
            out = full if kind == "true" else 0
        memo[ref] = out
    return memo[root]


def _full(n):
    return (1 << (1 << n)) - 1


class TestMasks:
    def test_equal_to_the_division_masks(self):
        for n in range(19):
            assert list(_var_patterns(n)) == ref_var_patterns(n), n

    @pytest.mark.parametrize("n", [19, 20, 21])
    def test_spot_bits_past_the_reference(self, n):
        masks = _var_patterns(n)
        assert len(masks) == n
        rng = random.Random(8000 + n)
        for w in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(200)]:
            for i, mask in enumerate(masks):
                assert mask >> w & 1 == w >> i & 1
        assert all(mask.bit_length() <= 1 << n for mask in masks)

    def test_one_tuple_per_size(self):
        assert _var_patterns(12) is _var_patterns(12)
        assert isinstance(_var_patterns(12), tuple)


class TestFormulaTables:
    @pytest.mark.parametrize("n", [17, 18, 19])
    def test_release_path(self, n):
        rng = random.Random(8100 + n)
        u = Universe(n)
        masks, full = _var_patterns(n), _full(n)
        for _ in range(4):
            f = random_formula(u, rng, depth=7)
            assert truth_table(f, masks, full) == ref_truth_table(f, masks, full)

    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    def test_memo_path(self, n):
        # up to 16 variables a call on a small formula keeps every node's
        # table, by id, until it returns
        rng = random.Random(8200 + n)
        u = Universe(n)
        masks, full = _var_patterns(n), _full(n)
        for _ in range(20):
            f = random_formula(u, rng, depth=6)
            assert truth_table(f, masks, full) == ref_truth_table(f, masks, full)

    def test_evaluate(self):
        rng = random.Random(8400)
        u = Universe(7)
        masks, full = _var_patterns(7), _full(7)
        for _ in range(30):
            f = random_formula(u, rng, depth=6)
            table = ref_truth_table(f, masks, full)
            for bits in range(1 << 7):
                assert evaluate(f, World(u, bits)) == bool(table >> bits & 1)


class TestSeveralRoots:
    """One walk over several roots gives each root the table that its own
    walk gives, roots under other roots and repeated roots included."""

    def _roots(self, u, rng):
        f, g, h = (random_formula(u, rng, depth=6) for _ in range(3))
        return f, (f.id, (f & g).id, h.id, f.id, u.lit(3).id, (~u.lit(2)).id, u.true.id)

    @pytest.mark.parametrize("n", [9, 16, 18])
    def test_without_a_memo(self, n):
        rng = random.Random(8600 + n)
        u = Universe(n)
        masks, full = _var_patterns(n), _full(n)
        for _ in range(3):
            value, roots = self._roots(u, rng)
            expected = tuple(ref_truth_table(value, masks, full, root=ref) for ref in roots)
            assert truth_table(value, masks, full, roots) == expected
            assert truth_table(value, masks, full, roots[2:3]) == expected[2:3]

    def test_past_the_size_bound(self):
        # the roots' union holds more 2**16-bit tables than fit in 8 MiB
        rng = random.Random(8700)
        u = Universe(16)
        masks, full = _var_patterns(16), _full(16)
        big = u.all_conj([random_formula(u, rng, depth=6) for _ in range(60)])
        value, roots = self._roots(u, rng)
        roots += (big.id, u.lit(5).id)
        assert len(walk(u._store.args, roots)) << 16 > 1 << 26
        expected = tuple(ref_truth_table(value, masks, full, root=ref) for ref in roots)
        assert truth_table(value, masks, full, roots) == expected


class TestCircuitTables:
    def _check_every_root(self, circuit, masks, full):
        for ref in range(len(circuit.kinds)):
            assert truth_table(circuit, masks, full, root=ref) == ref_truth_table(
                circuit, masks, full, root=ref
            )

    def test_roots_of_decision_circuits(self):
        rng = random.Random(8500)
        for n in (5, 10):
            circuit = random_decision_dnnf(Universe(n), rng)
            self._check_every_root(circuit, _var_patterns(n), _full(n))

    def test_roots_of_a_partition_circuit_past_the_line(self):
        circuit = random_sdd(Universe(18), random.Random(8501))
        self._check_every_root(circuit, _var_patterns(18), _full(18))

    def test_a_mapping_of_masks(self):
        # the partition check's call: masks over a subset of the variables,
        # keyed by variable index
        rng = random.Random(8502)
        for n, width in ((12, 5), (19, 17)):
            circuit = random_sdd(Universe(n), rng)
            chosen = sorted(rng.sample(range(n), width))
            masks = dict(zip(chosen, _var_patterns(width)))
            # variables outside the subset read as constants
            for i in range(n):
                masks.setdefault(i, _full(width) if i % 2 else 0)
            self._check_every_root(circuit, masks, _full(width))

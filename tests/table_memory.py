"""Truth-table memory: traced peaks of the oracle's and ``truth_table``'s
walks, and the bound of a universe's cache of root tables.

This module imports no pytest, so its tests also run under ``python -I -S``
(site-packages off the path); ``test_oracle`` imports the class, and pytest
collects it there.
"""

import random
import tracemalloc

from qlit import core, oracle
from qlit.core import Universe, World, evaluate, truth_table, walk
from qlit.generators import random_formula
from qlit.quantify import quantify_set


def _formula_of_at_least(u, rng, nodes):
    while True:
        f = random_formula(u, rng, depth=9)
        if len(walk(u._store.args, (f.id,))) >= nodes:
            return f


def _traced_peak(call):
    """The result of ``call()`` and the traced peak of its allocations."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _sixteen_variable_formula():
    """60 seeded depth-6 formulas over 16 variables, 1,557 nodes: held whole,
    their tables took a traced peak of 11.9 MiB."""
    u = Universe(16)
    rng = random.Random(9400)
    f = u.all_conj([random_formula(u, rng, depth=6) for _ in range(60)])
    assert len(walk(u._store.args, (f.id,))) == 1557
    return u, rng, f


class TestTableMemory:
    def test_tables_past_16_variables_live_until_their_last_reader(self):
        u = Universe(18)
        f = _formula_of_at_least(u, random.Random(9100), 100)
        nodes = len(walk(u._store.args, (f.id,)))
        table_bytes = (1 << 18) // 8
        expected = oracle.models_mask(f)  # builds the variable masks first
        table, peak = _traced_peak(lambda: oracle.models_mask(f))
        assert table == expected
        # keeping every node's table would take about nodes * table_bytes
        assert peak < nodes * table_bytes / 3

    def test_literal_tables_are_made_at_their_readers(self):
        # the seeded 232-node formula whose traced peak was 70.4 MiB while
        # every literal's table was made first and held to its last reader
        u = Universe(24)
        f = _formula_of_at_least(u, random.Random(2400), 200)
        assert len(walk(u._store.args, (f.id,))) == 232
        expected = oracle.models_mask(f)  # builds the variable masks first
        table, peak = _traced_peak(lambda: oracle.models_mask(f))
        assert table == expected
        assert peak < 70 * 2**20
        rng = random.Random(2401)
        for bits in (rng.getrandbits(24) for _ in range(200)):
            assert bool(expected >> bits & 1) == evaluate(f, World(u, bits))

    def test_a_comparison_past_16_variables_holds_no_table_past_the_call(self):
        # one walk holds the nodes the two sides share until the second side
        # reads them, so its frontier may pass either side's own, but never
        # both together; no table is left once the call returns
        u = Universe(24)
        f = _formula_of_at_least(u, random.Random(2400), 200)
        g = quantify_set(f, "forall", [u._literals[1], u._literals[14], u._literals[40]])
        expected = oracle.models_mask(f) == oracle.models_mask(g)
        peaks = []
        for call in (lambda: oracle.models_mask(f), lambda: oracle.models_mask(g),
                     lambda: oracle.equivalent(f, g)):
            tracemalloc.start()
            try:
                answer = call()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert answer == expected
        assert current < (1 << 24) // 8  # less than one table
        assert peaks[2] < peaks[0] + peaks[1]

    def test_a_direct_call_at_16_variables_frees_its_tables(self):
        # the tables do not fit in 8 MiB, so each lives until its last reader
        u, _, f = _sixteen_variable_formula()
        masks, full = core._var_patterns(16), (1 << (1 << 16)) - 1
        expected = truth_table(f, masks, full)
        table, peak = _traced_peak(lambda: truth_table(f, masks, full))
        assert table == expected
        assert peak < core._TABLE_BITS // 8

    def test_a_call_that_would_fill_the_cache_past_its_bound_caches_nothing(self):
        u, rng, f = _sixteen_variable_formula()
        masks, full = core._var_patterns(16), (1 << (1 << 16)) - 1
        expected = truth_table(f, masks, full)
        table, peak = _traced_peak(lambda: oracle.models_mask(f))
        assert table == expected
        assert peak < core._TABLE_BITS // 8
        cache = u._oracle_mask_cache
        assert list(cache) == [f.id]  # the root's table, and no other node's
        # small formulas fill the cache to its bound; the call that finds it
        # full caches nothing, and the cache is replaced by an empty one
        while u._oracle_mask_cache is cache:
            g = random_formula(u, rng, depth=3)
            assert oracle.models_mask(g) == truth_table(g, masks, full)
        assert len(cache) << 16 == core._TABLE_BITS and g.id not in cache
        assert not u._oracle_mask_cache

"""Conditioning on the cone against the whole-DAG conditioning it replaced.

The reference is the earlier :func:`qlit.core.condition`: :func:`rebuild` of
every node under the formula into its own store, with the literal's variable
replaced by constants.  :func:`condition` rebuilds only the :func:`cone` of
the variable, so both must return the same node id and leave the store with
the same number of nodes after every call.  Each side builds its inputs in
a universe of its own from the same seed, so node creation order is compared
too.  The inputs are built with ``Universe.gate``, which does not fold, so
they hold the gates that folding changes on their own: constant children,
single-child and empty gates, and ``not`` over a constant; sub-DAGs are
shared, and some variables are never mentioned.
"""

import random

from qlit.core import Universe, condition, cone, rebuild
from qlit.io import parse_formula
from qlit.quantify import quantify_set

NAMES = ["a", "b", "c", "d", "e", "f"]
MENTIONED = 4  # e and f are never mentioned


def ref_condition(formula, lit):
    u = formula.universe
    store = u._store
    code = u.literal(lit).code
    return store.finish(rebuild(formula, store, {code: True, code ^ 1: False})[formula.id])


def gate_formula(u, rng, pool, depth):
    """A formula of unfolded gates over the mentioned variables; a built
    node goes into ``pool``, from which later draws share it."""
    roll = rng.random()
    if pool and roll < 0.15:
        return rng.choice(pool)
    if depth <= 0 or roll < 0.3:
        leaf = rng.random()
        if leaf < 0.15:
            return u.true if leaf < 0.075 else u.false
        return u.lit(u.literal_by_code(rng.randrange(2 * MENTIONED)))
    shape = rng.random()
    if shape < 0.2:
        out = u.gate("not", [gate_formula(u, rng, pool, depth - 1)])
    else:
        kind = "and" if shape < 0.6 else "or"
        arity = rng.choice([0, 1, 1, 2, 2, 2, 3])
        out = u.gate(kind, [gate_formula(u, rng, pool, depth - 1) for _ in range(arity)])
    pool.append(out)
    return out


def _sides(seed, count):
    """Two universes with the same formulas at the same ids."""
    sides = []
    for _ in range(2):
        rng = random.Random(seed)
        u = Universe(NAMES)
        pool = []
        sides.append((u, [gate_formula(u, rng, pool, 5) for _ in range(count)]))
    return sides


def _same_step(got, want):
    assert got.id == want.id
    assert len(got.universe._store.kinds) == len(want.universe._store.kinds)


class TestConeAgainstWholeDag:
    def test_single_conditionings(self):
        for seed in range(8101, 8141):
            (u, formulas), (v, references) = _sides(seed, 12)
            rng = random.Random(seed)
            for f, g in zip(formulas, references):
                for _ in range(4):
                    code = rng.randrange(2 * len(NAMES))
                    _same_step(condition(f, u.literal_by_code(code)), ref_condition(g, v.literal_by_code(code)))
            assert u._store.kinds == v._store.kinds and u._store.args == v._store.args

    def test_one_cone_serves_both_literals_and_repeated_conditioning(self):
        for seed in range(8141, 8171):
            (u, formulas), (v, references) = _sides(seed, 8)
            rng = random.Random(seed)
            for f, g in zip(formulas, references):
                for _ in range(3):
                    index = rng.randrange(len(NAMES))
                    nodes = cone(f, index)
                    pos, ref_pos = u.literal_by_code(2 * index + 1), v.literal_by_code(2 * index + 1)
                    _same_step(condition(f, ~pos, nodes), ref_condition(g, ~ref_pos))
                    got, want = condition(f, pos, nodes), ref_condition(g, ref_pos)
                    _same_step(got, want)
                    # condition the result again, on another variable
                    f, g = got, want
            assert u._store.kinds == v._store.kinds and u._store.args == v._store.args

    def test_every_node_whose_image_changes_is_in_the_cone(self):
        for seed in range(8171, 8181):
            (u, formulas), _ = _sides(seed, 10)
            store = u._store
            for f in formulas:
                for index in range(len(NAMES)):
                    code = 2 * index + 1
                    images = rebuild(f, store, {code: True, code ^ 1: False})
                    changed = [ref for ref, image in images.items() if image != ref]
                    assert set(changed) <= set(cone(f, index))


class TestUnmentionedVariable:
    def test_folded_formula_is_returned_and_no_node_is_added(self):
        u = Universe(NAMES)
        rng = random.Random(8191)
        formulas = [parse_formula("(a & ~b) | ~(c | (a & d)) | (b & ~(d & ~c))", u)]
        pool = []
        for _ in range(20):
            f = gate_formula(u, rng, pool, 5)
            # a conditioned formula holds no gate that folds on its own
            formulas.append(condition(f, u.literal(rng.choice(NAMES[:MENTIONED]))))
            formulas.append(quantify_set(f, "exists", [u.variable("a")]))
        for f in formulas:
            for name in ("e", "~e", "f", "~f"):
                size = len(u._store.kinds)
                assert condition(f, u.literal(name)) is f
                assert len(u._store.kinds) == size
                assert cone(f, u.variable(name.lstrip("~")).index) == []

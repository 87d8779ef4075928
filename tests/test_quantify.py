"""Definitional quantification: the worked single- and multi-literal
examples, the erase operator, and spot checks of the laws the seeded harness
exercises at volume."""

import random

import pytest

from qlit.core import Universe, negate
from qlit.errors import UniverseMismatchError
from qlit.generators import random_formula, random_term
from qlit.io import parse_formula
from qlit import oracle
from qlit.quantify import (
    erase,
    exists_literal,
    exists_variable,
    forall_literal,
    forall_variable,
    quantify_set,
)


def equivalent(a, b) -> bool:
    return oracle.equivalent(a, b)


@pytest.fixture()
def xy():
    return Universe(["x", "y"])


@pytest.fixture()
def equivalence(xy):
    return parse_formula("(x => y) & (y => x)", xy)


class TestForallLiteral:
    def test_equivalence_formula(self, xy, equivalence):
        assert equivalent(forall_literal(equivalence, "x"), parse_formula("x & y", xy))

    def test_equivalence_formula_negative_literal(self, xy, equivalence):
        assert equivalent(
            forall_literal(equivalence, "~x"), parse_formula("~x & ~y", xy)
        )

    def test_implication(self, xy):
        implication = parse_formula("x => y", xy)
        assert equivalent(forall_literal(implication, "x"), xy.lit("y"))
        assert equivalent(forall_literal(implication, "~x"), implication)

    def test_constants_are_fixed_points(self, xy):
        assert forall_literal(xy.true, "x") is xy.true
        assert forall_literal(xy.false, "~y") is xy.false


class TestExistsLiteral:
    def test_equivalence_formula(self, xy, equivalence):
        assert equivalent(exists_literal(equivalence, "x"), parse_formula("~x | y", xy))

    def test_equivalence_formula_negative_literal(self, xy, equivalence):
        assert equivalent(exists_literal(equivalence, "~x"), parse_formula("~y | x", xy))

    def test_false_is_fixed_point(self, xy):
        assert exists_literal(xy.false, "x") is xy.false


class TestVariableQuantification:
    def test_forall_variable_of_equivalence_is_false(self, xy, equivalence):
        assert equivalent(forall_variable(equivalence, xy.variable("x")), xy.false)

    def test_forall_variable_of_implication(self, xy):
        f = parse_formula("x => y", xy)
        assert equivalent(forall_variable(f, xy.variable("x")), xy.lit("y"))

    def test_exists_variable_chains_implications(self):
        u = Universe(["x", "y", "z"])
        f = parse_formula("(x => y) & (y => z)", u)
        assert equivalent(exists_variable(f, u.variable("y")), parse_formula("x => z", u))

    def test_exists_variable_of_equivalence_is_true(self, xy, equivalence):
        assert equivalent(exists_variable(equivalence, xy.variable("x")), xy.true)

    def test_independent_variable_is_identity(self, xy):
        f = xy.lit("y")
        assert equivalent(forall_variable(f, xy.variable("x")), f)
        assert equivalent(exists_variable(f, xy.variable("x")), f)

    @pytest.mark.parametrize("operator", [forall_variable, exists_variable])
    def test_a_name_is_refused_with_a_typed_error(self, operator):
        f = parse_formula("a & b")
        with pytest.raises(UniverseMismatchError, match="expected a variable or literal"):
            operator(f, "a")


class TestQuantifySet:
    def test_complementary_literals_collapse_equivalence(self, xy, equivalence):
        assert equivalent(quantify_set(equivalence, "forall", ["x", "~x"]), xy.false)
        assert equivalent(quantify_set(equivalence, "exists", ["x", "~x"]), xy.true)

    def test_mixed_clause_formula_positive_literals(self):
        u = Universe(["t", "x", "y", "z"])
        f = parse_formula("(x | y | z) & (~x | y | t)", u)
        got = quantify_set(f, "forall", ["x", "y", "z"])
        assert equivalent(got, parse_formula("(x | y | z) & (y | t)", u))

    def test_mixed_clause_formula_mixed_polarities(self):
        u = Universe(["t", "x", "y", "z"])
        f = parse_formula("(x | y | z) & (~x | y | t)", u)
        got = quantify_set(f, "forall", ["x", "~y", "~z"])
        assert equivalent(got, parse_formula("x & t", u))

    def test_variables_and_literals_mix(self, xy, equivalence):
        by_variable = quantify_set(equivalence, "forall", [xy.variable("x")])
        by_literals = quantify_set(equivalence, "forall", ["x", "~x"])
        assert equivalent(by_variable, by_literals)

    def test_unknown_quantifier_rejected(self, xy):
        with pytest.raises(ValueError):
            quantify_set(xy.true, "some", ["x"])


class TestErase:
    def test_drops_named_variables(self):
        u = Universe(["w", "x", "y", "z"])
        term = u.term("x,~y,~z,w")
        got = erase(term, [u.variable("z"), u.variable("w")])
        assert str(got) == "x,~y"

    def test_empty_erasure_is_identity(self):
        u = Universe(["x", "y"])
        term = u.term("x,~y")
        assert erase(term, []) == term

    def test_full_erasure_gives_empty_term(self):
        u = Universe(["x", "y"])
        term = u.term("x,~y")
        assert len(erase(term, list(u.variables))) == 0

    def test_variables_from_a_generator(self):
        u = Universe(["a", "b", "c"])
        term = u.term("a,~b,c")
        got = erase(term, (v for v in [u.variable("b")]))
        assert str(got) == "a,c"
        assert got == erase(term, [u.variable("b")])


class TestSpotInvariants:
    """Small-volume versions of the laws the seeded harness runs at volume."""

    def test_duality(self, xy):
        rng = random.Random(3)
        for _ in range(100):
            f = random_formula(xy, rng)
            lit = xy.literal_by_code(rng.randrange(4))
            assert equivalent(
                exists_literal(f, lit), negate(forall_literal(negate(f), lit))
            )

    def test_sandwich(self, xy):
        rng = random.Random(5)
        for _ in range(100):
            f = random_formula(xy, rng)
            lit = xy.literal_by_code(rng.randrange(4))
            assert oracle.entails(forall_literal(f, lit), f)
            assert oracle.entails(f, exists_literal(f, lit))

    def test_term_untouched_when_complement_absent(self):
        u = Universe(4)
        rng = random.Random(7)
        for _ in range(100):
            term = random_term(u, rng)
            lit = u.literal_by_code(rng.randrange(8))
            if (~lit).code not in term.codes:
                assert equivalent(forall_literal(term.to_formula(), lit), term.to_formula())
            else:
                assert equivalent(forall_literal(term.to_formula(), lit), u.false)

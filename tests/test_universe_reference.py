"""Population reading and universe membership, against the readers they
replaced.

``ref_literal`` and ``ref_codes`` are the earlier ``Universe.literal`` and
``Universe._codes``, which made one literal object per name.  A seeded
differential runs both on about 5,000 population texts (blanks, ``~ name``,
a bare ``~``, ``~~a``, ``a b``, repeats, empty parts, complementary pairs and
unknown names) and requires the same codes or the same error type and
message from ``Universe.term`` and ``Universe.clause``; another runs them
over universes whose own names have blanks around them or start with ``~``,
which a reader that looked names up whole would get wrong.  The membership tests
pin down ``Universe.check`` on the universe's own objects, on equal ones from
elsewhere and on foreign ones, and a literal made of fields of the wrong
type is refused when it is made.
"""

import pickle
import random
import re

import pytest

from qlit.core import Literal, Universe, Variable
from qlit.errors import InvalidLiteralSetError, UniverseMismatchError

NAMES = ["a", "b", "c", "x1", "x10", "long_name", "p q"]


# -- references ------------------------------------------------------------------


def ref_literal(u, spec):
    if isinstance(spec, Literal):
        u.check(spec)
        return spec
    name = spec.strip()
    positive = True
    if name.startswith("~"):
        positive = False
        name = name[1:].strip()
    return u.literal_by_code(u.variable(name).index * 2 + positive)


def ref_codes(u, literals, what):
    if isinstance(literals, str):
        literals = [s for s in literals.split(",") if s.strip()]
    codes = set()
    for spec in literals:
        lit = ref_literal(u, spec)
        if lit.code ^ 1 in codes:
            kind = "inconsistent" if what == "term" else "valid"
            raise InvalidLiteralSetError(
                f"{kind} {what}: complementary pair over {lit.variable.name}"
            )
        codes.add(lit.code)
    return tuple(sorted(codes))


def outcome(read, *args):
    """The codes read, or the type and message of the error raised."""
    try:
        return read(*args)
    except (InvalidLiteralSetError, UniverseMismatchError) as error:
        return type(error), str(error)


# -- population texts -----------------------------------------------------------------


def _part(rng):
    name = rng.choice(NAMES)
    pad = lambda: rng.choice(["", "", " ", "  ", "\t"])  # noqa: E731
    if rng.random() < 0.6:
        return pad() + rng.choice(["", "~", "~ "]) + name + pad()
    return rng.choice([
        lambda: pad() + "~" + pad() + name + pad(),
        lambda: "~",
        lambda: "~~" + name,
        lambda: name + " " + rng.choice(NAMES),
        lambda: name + "~",
        lambda: name.upper(),
        lambda: rng.choice(["zz", "x2", "A", "~zz"]),
        lambda: pad(),
    ])()


def populations(rng, count):
    for _ in range(count):
        parts = [_part(rng) for _ in range(rng.randint(0, 7))]
        if parts and rng.random() < 0.3:
            parts.append(rng.choice(parts))  # a repeat
        yield ",".join(parts)


@pytest.mark.parametrize("seed", range(5))
def test_population_texts_read_as_the_reference(seed):
    rng = random.Random(seed)
    u = Universe(NAMES)
    errors = 0
    for text in populations(rng, 1000):
        for what, read in (("term", u.term), ("clause", u.clause)):
            want = outcome(ref_codes, u, text, what)
            got = outcome(lambda: read(text).codes)
            assert got == want, text
            errors += bool(want) and isinstance(want[0], type)
    assert errors  # the texts reach the refusals too


@pytest.mark.parametrize("seed", range(5))
def test_literal_lists_read_as_the_reference(seed):
    rng = random.Random(seed)
    u = Universe(NAMES)
    for _ in range(200):
        specs = [
            u.literal_by_code(rng.randrange(2 * len(u))) if rng.random() < 0.5 else _part(rng)
            for _ in range(rng.randint(0, 5))
        ]
        for what, read in (("term", u.term), ("clause", u.clause)):
            assert outcome(lambda: read(specs).codes) == outcome(ref_codes, u, specs, what)


# names that ``_code`` does not read back as themselves: blanks around them, a
# leading ``~``, a bare ``~`` and the empty name
ODD_NAMES = [" a", "a", "~b", "b", "c ", "c", "~", "", "\tp q", "p q", "~~d"]


@pytest.mark.parametrize("seed", range(5))
def test_texts_over_odd_names_read_as_the_reference(seed):
    rng = random.Random(seed)
    u = Universe(ODD_NAMES)
    pads = ["", "", " ", "~", "~ ", "\t"]
    for _ in range(1000):
        parts = [
            rng.choice(pads) + rng.choice(ODD_NAMES + ["zz"]) + rng.choice(pads[:3])
            for _ in range(rng.randint(0, 5))
        ]
        text = ",".join(parts)
        for what, read in (("term", u.term), ("clause", u.clause)):
            assert outcome(lambda: read(text).codes) == outcome(ref_codes, u, text, what), text


def test_a_name_with_blanks_or_a_leading_tilde_reads_as_before():
    # a look-up of whole names would read " a" as the first variable and "~b"
    # as the variable named "~b"; the readers take the trimmed "a" and "~ b"
    u = Universe([" a", "a", "~b", "b"])
    assert u.term(" a").codes == (3,) == u.term("a").codes
    assert u.term("~b").codes == (6,) == u.term("~ b").codes
    assert u.term("~~b").codes == (4,)
    assert u.term(" a,~b, a").codes == (3, 6)


def test_blank_texts_read_as_empty_and_listed_blanks_are_refused():
    u = Universe(NAMES)
    assert u.term(" , ,\t,").codes == () == u.clause("").codes
    with pytest.raises(UniverseMismatchError, match="unknown variable ''"):
        u.term([" "])


# -- literal and item specs ----------------------------------------------------------


@pytest.mark.parametrize("spec", [3, None, b"a", 1.5, ("a",)])
def test_a_spec_that_is_no_literal_variable_or_name_is_a_type_error(spec):
    u = Universe(NAMES)
    for read in (u.literal, u.item):
        with pytest.raises(TypeError, match=re.escape(repr(spec))):
            read(spec)
    with pytest.raises(TypeError):
        u.term([spec])


def test_literal_refuses_a_variable():
    u = Universe(NAMES)
    with pytest.raises(TypeError, match="expected a literal"):
        u.literal(u.variables[0])
    assert u.item(u.variables[0]) is u.variables[0]


# -- membership ------------------------------------------------------------------


def test_own_literals_and_variables_pass():
    u = Universe(NAMES)
    for var in u.variables:
        u.check(var)
        assert var in u
    for code in range(2 * len(u)):
        lit = u.literal_by_code(code)
        u.check(lit)
        u.check(~lit)
        assert u.literal(lit) is lit and u.item(lit) is lit


def test_equal_objects_pass_as_before():
    u, twin = Universe(NAMES), Universe(NAMES)
    for var in u.variables:
        for other in (pickle.loads(pickle.dumps(var)), twin.variables[var.index]):
            assert other is not var
            u.check(other)
            assert other in u
            u.check(Literal(other, False))
            assert u.literal(Literal(other, True)).code == 2 * var.index + 1


@pytest.mark.parametrize(
    "item",
    [
        3,
        None,
        "a",
        Variable(-1, "long_name"),
        Variable(-1, "p q"),
        Variable(-100, "a"),
        Variable(7, "x7"),
        Variable(10**6, "a"),
        Variable(0, "b"),
        Variable(1, "a"),
        Literal(Variable(-100, "a"), True),
        Literal(Variable(10**6, "a"), False),
        Literal(Variable(1, "a"), True),
    ],
)
def test_foreign_objects_and_bad_indexes_are_refused(item):
    u = Universe(NAMES)
    with pytest.raises(UniverseMismatchError):
        u.check(item)
    if not isinstance(item, str):
        assert item not in u
    if isinstance(item, Literal):
        with pytest.raises(UniverseMismatchError):
            u.literal(item)
    if isinstance(item, (Literal, Variable)):
        with pytest.raises(UniverseMismatchError):
            u.item(item)


def test_objects_of_another_universe_are_refused():
    u, other = Universe(NAMES), Universe(["a", "b", "d"])
    u.check(other.variables[0])  # equal to u's own "a"
    for item in (other.variables[2], other.literal_by_code(5), Universe(3).variables[0]):
        with pytest.raises(UniverseMismatchError):
            u.check(item)


@pytest.mark.parametrize(
    "variable,positive,shown",
    [
        ("a", True, "'a'"),
        (0, False, "0"),
        (None, True, "None"),
        (Variable(0, "a"), 1, "1"),
        (Variable(0, "a"), "yes", "'yes'"),
        (Variable(0, "a"), None, "None"),
    ],
)
def test_a_literal_refuses_fields_of_the_wrong_type(variable, positive, shown):
    with pytest.raises(TypeError, match=re.escape(shown)):
        Literal(variable, positive)

"""Whole-set quantification against the one-literal-at-a-time code it replaced.

The references below are the earlier implementations: the four flat-form
routines taking one literal each, ``quantify`` walking the literals one at a
time through them, the four definitional operators written out one by one,
and ``complete_reason`` with its own CNF drop loop.  On seeded CNFs, DNFs,
formulas, Decision-DNNF and SDD circuits and classifiers over 1-6 variables,
both must give the same type, text, element codes in order and emitted bytes
(for formulas, the node ids in walk order), or the same error type and
message.  Each side builds its inputs in a universe of its own from the same
seed, so node creation order is compared too.
"""

import random

import pytest

from qlit import tractable
from qlit.core import (
    Annotation,
    Circuit,
    Formula,
    Term,
    Universe,
    Variable,
    condition,
    negate,
    walk,
)
from qlit.errors import PreconditionError
from qlit.generators import (
    random_cnf,
    random_decision_dnnf,
    random_dnf,
    random_formula,
    random_sdd,
    random_term,
)
from qlit.io import emit_dimacs, emit_nnf
from qlit.quantify import (
    exists_literal,
    exists_variable,
    forall_literal,
    forall_variable,
    quantify,
    quantify_set,
)
from qlit.tractable import Cnf, Dnf, close_under, is_closed_under, prime_forms
from qlit.xai import Classifier, Decision, complete_reason, decide


# -- references ------------------------------------------------------------------


def ref_drop(form, code):
    u = form.universe
    make = form._element_type
    if () in form._key:
        return type(form)(u, [make(u, ())])
    out = []
    for element in form.elements:
        if code in element.codes:
            element = make(u, tuple(c for c in element.codes if c != code))
            if not element.codes:
                return type(form)(u, [element])
        out.append(element)
    return type(form)(u, out)


def ref_remove(form, code, assume_closed):
    var = form.universe.variables[code >> 1]
    if assume_closed:
        if not is_closed_under(form, var):
            raise PreconditionError(
                f"{form._name} is not closed under {form._rule} on {var.name}"
            )
    else:
        form = close_under(form, var)
    return type(form)(form.universe, [e for e in form.elements if code not in e.codes])


def ref_cnf_forall_literal(cnf, lit):
    return ref_drop(cnf, cnf.universe.literal(lit).code ^ 1)


def ref_cnf_exists_literal(cnf, lit, assume_closed=False):
    return ref_remove(cnf, cnf.universe.literal(lit).code, assume_closed)


def ref_dnf_exists_literal(dnf, lit):
    return ref_drop(dnf, dnf.universe.literal(lit).code)


def ref_dnf_forall_literal(dnf, lit, assume_closed=False):
    return ref_remove(dnf, dnf.universe.literal(lit).code ^ 1, assume_closed)


def ref_forall_literal(formula, lit):
    u = formula.universe
    lit = u.literal(lit)
    return u.fold(
        "and",
        [u.fold("or", [u.lit(lit), condition(formula, ~lit)]), condition(formula, lit)],
    )


def ref_exists_literal(formula, lit):
    u = formula.universe
    lit = u.literal(lit)
    return u.fold(
        "or",
        [condition(formula, lit), u.fold("and", [u.lit(~lit), condition(formula, ~lit)])],
    )


def ref_forall_variable(formula, var):
    u = formula.universe
    u.check(var)
    pos = u.literal_by_code(2 * var.index + 1)
    return u.fold("and", [condition(formula, pos), condition(formula, ~pos)])


def ref_exists_variable(formula, var):
    u = formula.universe
    u.check(var)
    pos = u.literal_by_code(2 * var.index + 1)
    return u.fold("or", [condition(formula, pos), condition(formula, ~pos)])


def ref_quantify_set(formula, quantifier, items):
    if quantifier not in ("forall", "exists"):
        raise ValueError(f"unknown quantifier {quantifier!r}")
    u = formula.universe
    out = formula
    for spec in items:
        item = u.item(spec)
        if isinstance(item, Variable):
            op = ref_forall_variable if quantifier == "forall" else ref_exists_variable
        else:
            op = ref_forall_literal if quantifier == "forall" else ref_exists_literal
        out = op(out, item)
    return out


def ref_quantify(value, quantifier, items):
    if quantifier not in ("forall", "exists"):
        raise ValueError(f"unknown quantifier {quantifier!r}")
    u = value.universe
    resolved = [u.item(spec) for spec in items]
    if isinstance(value, Formula):
        return ref_quantify_set(value, quantifier, resolved)
    if isinstance(value, Circuit) and value.annotation not in (
        Annotation.DECISION_DNNF,
        Annotation.SDD,
    ):
        return ref_quantify_set(value.to_formula(), quantifier, resolved)
    lits = []
    for item in resolved:
        if isinstance(item, Variable):
            pos = u.literal_by_code(2 * item.index + 1)
            lits += [pos, ~pos]
        else:
            lits.append(item)
    forall = quantifier == "forall"
    if isinstance(value, Circuit):
        if value.annotation == Annotation.SDD:
            op = tractable.sdd_forall if forall else tractable.sdd_exists
        else:
            op = tractable.ddnnf_forall if forall else tractable.ddnnf_exists
        return op(value, lits)
    if isinstance(value, Cnf):
        step = ref_cnf_forall_literal if forall else ref_cnf_exists_literal
    elif isinstance(value, Dnf):
        step = ref_dnf_forall_literal if forall else ref_dnf_exists_literal
    else:
        raise TypeError(f"cannot quantify {value!r}")
    for lit in lits:
        value = step(value, lit)
    return value


def ref_complete_reason(classifier, population):
    from qlit.errors import NoDecisionError

    term = classifier.population(population)
    decision = decide(classifier, term)
    if decision is Decision.UNDEFINED:
        raise NoDecisionError("population is not decided, no reason exists")
    deciding = classifier.side(decision)
    mentioned = {v.index for v in term.variables()}
    unmentioned = [v for v in classifier.features if v.index not in mentioned]
    if isinstance(deciding, Cnf):
        u = classifier.features
        kept_codes = set(term.codes)
        clauses = []
        for clause in deciding.elements:
            clauses.append(
                u.clause([u.literal_by_code(c) for c in clause.codes if c in kept_codes])
            )
        return Cnf(u, clauses)
    return ref_quantify_set(deciding, "forall", list(term.literals()) + unmentioned)


# -- comparison ------------------------------------------------------------------


def fingerprint(value):
    """Type, text, element codes or node ids in order, and emitted bytes."""
    if isinstance(value, Circuit):
        return ("Circuit", value.annotation, emit_nnf(value))
    if isinstance(value, Formula):
        store = value.universe._store
        nodes = tuple((ref, store.kinds[ref]) for ref in walk(store.args, (value.id,)))
        return ("Formula", str(value), nodes)
    codes = tuple(e.codes for e in value.elements)
    emitted = emit_dimacs(value) if isinstance(value, Cnf) else None
    return (type(value).__name__, str(value), codes, emitted)


def outcome(fn, *args):
    try:
        return ("ok", fingerprint(fn(*args)))
    except Exception as error:  # the error's type and message are compared
        return ("error", type(error).__name__, str(error))


# -- seeded cases ----------------------------------------------------------------

KINDS = ["cnf", "dnf", "formula", "ddnnf", "sdd", "nnf", "cnf-classifier", "formula-classifier"]


def random_items(u, rng):
    """Literal and variable items as objects or strings, with repeats and
    complementary pairs mixed in."""
    items = []
    for _ in range(rng.randrange(5)):
        var = u.variables[rng.randrange(len(u))]
        roll = rng.randrange(6)
        if roll == 0:
            items.append(var)
        elif roll == 1:
            items.append(var.name[:1].upper() + var.name[1:])
        elif roll == 2:
            items.append(u.literal_by_code(2 * var.index + rng.randrange(2)))
        else:
            items.append(("~" if roll == 3 else "") + var.name)
    if items and rng.random() < 0.3:
        items.append(rng.choice(items))  # a repeat
    if rng.random() < 0.3:
        lit = u.literal_by_code(rng.randrange(2 * len(u)))
        items += [lit, ~lit]  # a complementary pair
    if rng.random() < 0.03:
        items.append("zz")  # an unknown name
    return items


def build(seed):
    """The value, items and quantifier of one case, in a fresh universe."""
    rng = random.Random(seed)
    n = 1 + seed % 6
    kind = KINDS[seed // 6 % len(KINDS)]
    u = Universe(["a", "b", "c", "d", "e", "f"][:n] if seed // 48 % 2 else n)
    if kind in ("cnf", "dnf"):
        value = random_cnf(u, rng) if kind == "cnf" else random_dnf(u, rng)
        if rng.random() < 0.15:  # an empty element among others
            value = type(value)(u, [*value.elements, value._element_type(u, ())])
    elif kind == "formula":
        value = random_formula(u, rng)
    elif kind == "ddnnf":
        value = random_decision_dnnf(u, rng)
    elif kind == "sdd":
        value = random_sdd(u, rng)
    elif kind == "nnf":
        value = negate(random_decision_dnnf(u, rng))
    else:
        positive = random_formula(u, rng)
        if kind == "cnf-classifier":
            positive = prime_forms(positive, "implicates")
            negative = prime_forms(negate(positive.to_formula()), "implicates")
            value = Classifier(positive, negative)
        else:
            value = Classifier(positive)
    quantifier = rng.choice(["forall", "exists"] if rng.random() > 0.01 else ["some"])
    return kind, value, random_items(u, rng), quantifier, rng


SEEDS = range(2400)


class TestDifferential:
    def test_kinds_are_all_reached(self):
        made = {}
        for seed in range(6 * len(KINDS)):
            kind, value, *_ = build(seed)
            made.setdefault(kind, set()).add(type(value).__name__)
        assert made == {
            "cnf": {"Cnf"},
            "dnf": {"Dnf"},
            "formula": {"Formula"},
            "ddnnf": {"Circuit"},
            "sdd": {"Circuit"},
            "nnf": {"Circuit"},
            "cnf-classifier": {"Classifier"},
            "formula-classifier": {"Classifier"},
        }
        assert negate(random_decision_dnnf(Universe(3), random.Random(1))).annotation == (
            Annotation.NNF
        )

    def test_quantify_matches_the_one_literal_reference(self):
        compared = 0
        for seed in SEEDS:
            kind, value, items, quantifier, _ = build(seed)
            if kind.endswith("classifier"):
                continue
            want = outcome(ref_quantify, value, quantifier, items)
            _, value, items, quantifier, _ = build(seed)
            assert outcome(quantify, value, quantifier, items) == want, seed
            compared += 1
        assert compared >= 1800

    def test_operators_and_quantify_set_match(self):
        operators = [
            (ref_forall_literal, forall_literal),
            (ref_exists_literal, exists_literal),
            (ref_forall_variable, forall_variable),
            (ref_exists_variable, exists_variable),
        ]
        compared = 0
        for seed in SEEDS:
            if build(seed)[0] != "formula":
                continue
            for index, pair in enumerate(operators):
                for code in range(2 * (1 + seed % 6)):
                    got = []
                    for fn in pair:
                        formula = build(seed)[1]
                        lit = formula.universe.literal_by_code(code)
                        arg = lit.variable if index >= 2 else str(lit) if code % 2 else lit
                        got.append(outcome(fn, formula, arg))
                    assert got[0] == got[1], (seed, index, code)
                    compared += 1
            got = []
            for fn in (ref_quantify_set, quantify_set):
                _, formula, items, quantifier, _ = build(seed)
                got.append(outcome(fn, formula, quantifier, items))
            assert got[0] == got[1], seed
            compared += 1
        assert compared >= 2000

    def test_complete_reason_matches_for_cnf_and_formula_classifiers(self):
        decided = 0
        for seed in SEEDS:
            kind, classifier, _, _, rng = build(seed)
            if not kind.endswith("classifier"):
                continue
            width = rng.randint(0, len(classifier.features))
            population = random_term(classifier.features, rng, width)
            codes = population.codes
            want = outcome(ref_complete_reason, classifier, population)
            classifier = build(seed)[1]
            population = Term(classifier.features, codes)
            assert outcome(complete_reason, classifier, population) == want, seed
            decided += want[0] == "ok"
        assert decided > 100


class TestFlatRoutinesTakeSets:
    def test_each_literal_alone_and_the_whole_set(self):
        single = [
            (tractable.cnf_forall_literal, ref_cnf_forall_literal, random_cnf, ()),
            (tractable.cnf_exists_literal, ref_cnf_exists_literal, random_cnf, (False,)),
            (tractable.cnf_exists_literal, ref_cnf_exists_literal, random_cnf, (True,)),
            (tractable.dnf_exists_literal, ref_dnf_exists_literal, random_dnf, ()),
            (tractable.dnf_forall_literal, ref_dnf_forall_literal, random_dnf, (False,)),
            (tractable.dnf_forall_literal, ref_dnf_forall_literal, random_dnf, (True,)),
        ]
        for seed in range(600):
            rng = random.Random(seed)
            u = Universe(1 + seed % 6)
            new, ref, make, extra = single[seed % len(single)]
            form = make(u, rng)
            if extra == (True,) and rng.random() < 0.7:
                form = close_under(form, u.variables[rng.randrange(len(u))])
            lits = [u.literal_by_code(rng.randrange(2 * len(u))) for _ in range(rng.randrange(4))]
            for lit in lits:
                assert outcome(new, form, [lit], *extra) == outcome(ref, form, lit, *extra)

            def folded(form):
                for lit in lits:
                    form = ref(form, lit, *extra)
                return form

            assert outcome(new, form, lits, *extra) == outcome(folded, form), seed


EIGHT = [
    "cnf_forall_literal",
    "cnf_exists_literal",
    "dnf_exists_literal",
    "dnf_forall_literal",
    "ddnnf_forall",
    "ddnnf_exists",
    "sdd_forall",
    "sdd_exists",
]


class TestBareLiteralsAreRefused:
    @pytest.mark.parametrize("name", EIGHT)
    def test_str_and_literal_raise_type_error(self, name):
        u = Universe(["a", "b"])
        rng = random.Random(3)
        value = {
            "cnf": random_cnf(u, rng),
            "dnf": random_dnf(u, rng),
            "ddnnf": random_decision_dnnf(u, rng),
            "sdd": random_sdd(u, rng),
        }[name.split("_")[0]]
        routine = getattr(tractable, name)
        for bare in ("ab", "a", u.pos("a")):
            with pytest.raises(TypeError, match="collection of literals"):
                routine(value, bare)
        assert routine(value, [u.pos("a")]) is not None

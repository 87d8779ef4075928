"""The flat-form rules against the routines they replaced.

The references below are the earlier implementations, one body per routine:
the four CNF/DNF quantifiers, ``close_under`` with an explicit mode,
``is_closed_under`` and prime seeding with one branch per mode.  The current
code writes each dual pair as one rule; on seeded CNFs and DNFs both must give
the same elements in the same order, or the same error type and message.  The
one intended difference is pinned: an already-empty clause now absorbs a CNF
under universal quantification, as an empty term already absorbed a DNF under
existential quantification.
"""

import random

from qlit import oracle
from qlit.core import Clause, Term, Universe
from qlit.errors import CapacityError, PreconditionError
from qlit import tractable
from qlit.tractable import (
    Cnf,
    Dnf,
    close_under,
    cnf_exists_literal,
    cnf_forall_literal,
    dnf_exists_literal,
    dnf_forall_literal,
    is_closed_under,
    prime_forms,
)


# -- references ------------------------------------------------------------------


def ref_cnf_forall_literal(cnf, lit):
    u = cnf.universe
    drop = u.literal(lit).code ^ 1
    out = []
    for clause in cnf.elements:
        if drop in clause.codes:
            slim = Clause(u, tuple(c for c in clause.codes if c != drop))
            if not slim.codes:
                return Cnf(u, [slim])
            out.append(slim)
        else:
            out.append(clause)
    return Cnf(u, out)


def ref_cnf_exists_literal(cnf, lit, assume_closed=False):
    u = cnf.universe
    lit = u.literal(lit)
    if assume_closed:
        if not ref_is_closed_under(cnf, lit.variable):
            raise PreconditionError(
                f"CNF is not closed under resolution on {lit.variable.name}"
            )
    else:
        cnf = ref_close_under(cnf, lit.variable, "resolution")
    return Cnf(u, [c for c in cnf.elements if lit.code not in c.codes])


def ref_dnf_exists_literal(dnf, lit):
    u = dnf.universe
    drop = u.literal(lit).code
    out = []
    for term in dnf.elements:
        if drop in term.codes:
            out.append(term.difference([u.literal_by_code(drop)]))
        else:
            out.append(term)
    result = Dnf(u, out)
    if result.is_true():
        return Dnf(u, [u.term()])
    return result


def ref_dnf_forall_literal(dnf, lit, assume_closed=False):
    u = dnf.universe
    lit = u.literal(lit)
    if assume_closed:
        if not ref_is_closed_under(dnf, lit.variable):
            raise PreconditionError(
                f"DNF is not closed under consensus on {lit.variable.name}"
            )
    else:
        dnf = ref_close_under(dnf, lit.variable, "consensus")
    drop = lit.code ^ 1
    return Dnf(u, [t for t in dnf.elements if drop not in t.codes])


def ref_combine(a, b, var_index):
    pos = 2 * var_index + 1
    merged = set(a) | set(b)
    merged.discard(pos)
    merged.discard(pos ^ 1)
    for code in merged:
        if code ^ 1 in merged:
            return None
    return tuple(sorted(merged))


def ref_close_under(form, var, mode):
    if isinstance(form, Cnf) and mode != "resolution":
        raise ValueError("CNFs close under resolution")
    if isinstance(form, Dnf) and mode != "consensus":
        raise ValueError("DNFs close under consensus")
    u = form.universe
    u.check(var)
    pos_code = 2 * var.index + 1
    with_pos = [e for e in form.elements if pos_code in e.codes]
    with_neg = [e for e in form.elements if pos_code ^ 1 in e.codes]
    new_codes = []
    seen = {e.codes for e in form.elements}
    for a in with_pos:
        for b in with_neg:
            merged = ref_combine(a.codes, b.codes, var.index)
            if merged is not None and merged not in seen:
                seen.add(merged)
                new_codes.append(merged)
    if isinstance(form, Cnf):
        return Cnf(u, list(form.elements) + [Clause(u, c) for c in new_codes])
    return Dnf(u, list(form.elements) + [Term(u, c) for c in new_codes])


def ref_is_closed_under(form, var):
    u = form.universe
    u.check(var)
    pos_code = 2 * var.index + 1
    present = {e.codes for e in form.elements}
    with_pos = [e.codes for e in form.elements if pos_code in e.codes]
    with_neg = [e.codes for e in form.elements if pos_code ^ 1 in e.codes]
    for a in with_pos:
        for b in with_neg:
            merged = ref_combine(a, b, var.index)
            if merged is not None and merged not in present:
                return False
    return True


def ref_prime_forms(value, mode):
    u = value.universe
    if len(u) > tractable.PRIME_FORM_CAP:
        raise CapacityError(
            f"universe has {len(u)} variables, prime-form cap is {tractable.PRIME_FORM_CAP}"
        )
    if mode not in ("implicants", "implicates"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "implicants":
        if isinstance(value, Dnf):
            seeds = {t.codes for t in value.elements}
        else:
            mask = oracle.models_mask(value)
            seeds = {
                tuple(2 * i + (bits >> i & 1) for i in range(len(u)))
                for bits in oracle._iter_bits(mask)
            }
        primes = tractable._closure_primes(seeds)
        return Dnf(u, [Term(u, codes) for codes in primes])

    if isinstance(value, Cnf):
        seeds = {c.codes for c in value.elements}
    else:
        full = (1 << (1 << len(u))) - 1
        mask = oracle.models_mask(value)
        seeds = {
            tuple(2 * i + (1 - (bits >> i & 1)) for i in range(len(u)))
            for bits in oracle._iter_bits(full & ~mask)
        }
    primes = tractable._closure_primes(seeds)
    return Cnf(u, [Clause(u, codes) for codes in primes])


# -- seeded inputs ---------------------------------------------------------------


def outcome(fn, *args):
    """The result as its type and element codes in order, or the error."""
    try:
        result = fn(*args)
    except Exception as error:  # the error's type and message are compared
        return ("error", type(error).__name__, str(error))
    if isinstance(result, bool):
        return ("ok", result)
    return ("ok", type(result).__name__, tuple(e.codes for e in result.elements))


def random_element(u, rng, make):
    n = len(u)
    width = 0 if rng.random() < 0.08 else rng.randint(1, max(1, min(4, n)))
    chosen = rng.sample(range(n), min(width, n))
    return make(u, tuple(sorted(2 * v + rng.randrange(2) for v in chosen)))


def random_form(u, rng, form):
    make = Clause if form is Cnf else Term
    count = rng.choice([0, 1, 2, rng.randint(1, 3 * len(u))])
    elements = [random_element(u, rng, make) for _ in range(count)]
    if rng.random() < 0.1:  # an already-empty element among others
        elements.insert(rng.randrange(len(elements) + 1), make(u, ()))
    return form(u, elements)


def random_item(u, rng, other):
    """Mostly a literal of ``u``; sometimes one of another universe, or a
    name ``u`` does not know."""
    roll = rng.random()
    if roll < 0.03:
        return other.literal_by_code(0)
    if roll < 0.05:
        return "nosuch"
    return u.literal_by_code(rng.randrange(2 * len(u)))


def random_variable(u, rng, other):
    if rng.random() < 0.03:
        return other.variables[0]
    return u.variables[rng.randrange(len(u))]


def has_empty(form):
    return any(not e.codes for e in form.elements)


class TestFlatFormsAgainstReference:
    def test_quantifiers_and_closures_on_seeded_forms(self):
        rng = random.Random(2027)
        other = Universe(["o"])
        universes = [Universe(n) for n in range(1, 7)]
        absorbed = {"Cnf": 0, "Dnf": 0}
        refused = 0
        for trial in range(2400):
            u = rng.choice(universes)
            cnf = random_form(u, rng, Cnf)
            dnf = random_form(u, rng, Dnf)
            lit = random_item(u, rng, other)
            var = random_variable(u, rng, other)

            got = outcome(cnf_forall_literal, cnf, lit)
            want = outcome(ref_cnf_forall_literal, cnf, lit)
            if want[0] == "ok" and has_empty(cnf):
                # the one intended change: an already-empty clause absorbs
                assert () in want[2]
                assert got == ("ok", "Cnf", ((),))
                absorbed["Cnf"] += len(want[2]) > 1
            else:
                assert got == want, (str(cnf), lit)

            got = outcome(dnf_exists_literal, dnf, lit)
            want = outcome(ref_dnf_exists_literal, dnf, lit)
            assert got == want, (str(dnf), lit)
            if want[0] == "ok" and has_empty(dnf):
                assert got == ("ok", "Dnf", ((),))
                absorbed["Dnf"] += 1

            for assume_closed in (False, True):
                got = outcome(cnf_exists_literal, cnf, lit, assume_closed)
                assert got == outcome(
                    ref_cnf_exists_literal, cnf, lit, assume_closed
                ), (str(cnf), lit, assume_closed)
                refused += got[:2] == ("error", "PreconditionError")
                got = outcome(dnf_forall_literal, dnf, lit, assume_closed)
                assert got == outcome(
                    ref_dnf_forall_literal, dnf, lit, assume_closed
                ), (str(dnf), lit, assume_closed)
                refused += got[:2] == ("error", "PreconditionError")

            for form, mode in ((cnf, "resolution"), (dnf, "consensus")):
                assert outcome(close_under, form, var) == outcome(
                    ref_close_under, form, var, mode
                ), (str(form), var)
                assert outcome(is_closed_under, form, var) == outcome(
                    ref_is_closed_under, form, var
                ), (str(form), var)
        # the pinned case was met on both forms, and assume_closed refused
        assert absorbed["Cnf"] > 20 and absorbed["Dnf"] > 20
        assert refused > 100

    def test_prime_forms_on_seeded_values(self):
        rng = random.Random(2029)
        universes = [Universe(n) for n in range(1, 7)]
        for trial in range(200):
            u = universes[trial % 5] if trial % 20 else universes[5]
            form = Cnf if rng.random() < 0.5 else Dnf
            flat = random_form(u, rng, form)
            for value in (flat, flat.to_formula()):
                for mode in ("implicants", "implicates"):
                    assert outcome(prime_forms, value, mode) == outcome(
                        ref_prime_forms, value, mode
                    ), (str(flat), mode)
        u = universes[2]
        assert outcome(prime_forms, u.true, "neither") == outcome(
            ref_prime_forms, u.true, "neither"
        )
        wide = Universe(17)
        assert outcome(prime_forms, wide.true, "implicants") == outcome(
            ref_prime_forms, wide.true, "implicants"
        )

"""Flat-form and circuit quantification routines against the definitional
operators, plus prime forms, closures and the structural verifiers."""

import random

import pytest

from qlit.core import Annotation, CircuitBuilder, Formula, Universe, negate
from qlit.errors import CapacityError, PreconditionError, StructureError
from qlit.generators import (
    random_cnf,
    random_decision_dnnf,
    random_dnf,
    random_formula,
    random_sdd,
)
from qlit.io import parse_dimacs, parse_formula, parse_nnf, parse_sdd
from qlit import oracle
from qlit.quantify import exists_literal, forall_literal, quantify, quantify_set
from qlit.tractable import (
    Cnf,
    Dnf,
    close_under,
    cnf_exists_literal,
    cnf_forall_literal,
    ddnnf_exists,
    ddnnf_forall,
    ddnnf_shift,
    dnf_exists_literal,
    dnf_forall_literal,
    is_closed_under,
    prime_forms,
    sdd_exists,
    sdd_forall,
    sdd_shift,
    verify_decision_dnnf,
    verify_dnnf,
    verify_sdd,
)

from conftest import LOAN_DECISION_NNF


@pytest.fixture()
def loan_cnf() -> Cnf:
    return parse_dimacs(
        "c var 1 d\nc var 2 g\nc var 3 h\nc var 4 i\n"
        "p cnf 4 3\n3 4 0\n-1 2 0\n-1 4 0\n"
    )


@pytest.fixture()
def loan_neg_cnf(loan_cnf) -> Cnf:
    u = loan_cnf.universe
    return Cnf(u, [u.clause("d,~i"), u.clause("d,~h"), u.clause("~g,~i")])


class TestCnfForall:
    def test_loan_forall_d_h_variables(self, loan_cnf):
        u = loan_cnf.universe
        out = loan_cnf
        for name in ("d", "h"):
            out = cnf_forall_literal(out, [u.pos(name)])
            out = cnf_forall_literal(out, [u.neg(name)])
        assert oracle.equivalent(out.to_formula(), u.lit("g") & u.lit("i"))

    def test_loan_forall_d_g_variables_is_false(self, loan_cnf):
        u = loan_cnf.universe
        out = loan_cnf
        for name in ("d", "g"):
            out = cnf_forall_literal(out, [u.pos(name)])
            out = cnf_forall_literal(out, [u.neg(name)])
        assert out.is_false()

    def test_loan_negation_forall_neg_d_neg_h(self, loan_neg_cnf):
        u = loan_neg_cnf.universe
        out = cnf_forall_literal(loan_neg_cnf, [u.neg("d")])
        out = cnf_forall_literal(out, [u.neg("h")])
        assert oracle.equivalent(out.to_formula(), ~u.lit("h") & ~u.lit("i"))

    def test_collapses_to_single_empty_clause(self):
        u = Universe(["x"])
        cnf = Cnf(u, [u.clause("~x"), u.clause("x")])
        out = cnf_forall_literal(cnf, [u.pos("x")])
        assert out.is_false()
        assert len(out) == 1


class TestCnfExists:
    def test_prime_implicate_cnf_drops_clauses_with_literal(self):
        u = Universe(["x", "y"])
        cnf = Cnf(u, [u.clause("~x,y"), u.clause("x,~y")])
        out = cnf_exists_literal(cnf, [u.pos("x")], assume_closed=True)
        assert {str(c) for c in out} == {"~x | y"}

    def test_independent_literal_is_identity(self, loan_cnf):
        u = loan_cnf.universe
        fresh = Universe(["d", "g", "h", "i", "extra"])
        lifted = parse_dimacs(
            "p cnf 5 3\n3 4 0\n-1 2 0\n-1 4 0\n", fresh
        )
        assert cnf_exists_literal(lifted, [fresh.pos("extra")]) == lifted
        del u

    def test_assume_closed_rejects_open_cnf(self):
        u = Universe(["x", "y", "z"])
        cnf = Cnf(u, [u.clause("x,y"), u.clause("~x,z")])
        with pytest.raises(PreconditionError):
            cnf_exists_literal(cnf, [u.pos("x")], assume_closed=True)

    def test_matches_definitional_operator(self):
        u = Universe(6)
        rng = random.Random(3)
        for _ in range(150):
            cnf = random_cnf(u, rng)
            lit = u.literal_by_code(rng.randrange(12))
            out = cnf_exists_literal(cnf, [lit])
            assert oracle.equivalent(out.to_formula(), exists_literal(cnf.to_formula(), lit))


class TestClosures:
    def test_resolution_adds_the_resolvent(self):
        u = Universe(["a", "b", "x"])
        cnf = Cnf(u, [u.clause("x,a"), u.clause("~x,b")])
        closed = close_under(cnf, u.variable("x"))
        assert {str(c) for c in closed} >= {"a | b"}
        assert is_closed_under(closed, u.variable("x"))

    def test_consensus_adds_the_consensus_term(self):
        u = Universe(["a", "b", "x"])
        dnf = Dnf(u, [u.term("x,a"), u.term("~x,b")])
        closed = close_under(dnf, u.variable("x"))
        assert {str(t) for t in closed.sorted_elements()} >= {"a,b"}

    def test_closure_is_idempotent_and_model_preserving(self):
        u = Universe(5)
        rng = random.Random(5)
        for _ in range(100):
            cnf = random_cnf(u, rng)
            var = u.variables[rng.randrange(5)]
            closed = close_under(cnf, var)
            assert oracle.equivalent(closed.to_formula(), cnf.to_formula())
            assert close_under(closed, var) == closed


class TestDnf:
    def test_exists_drops_the_literal(self):
        u = Universe(["x", "y"])
        dnf = Dnf(u, [u.term("x,y"), u.term("~x,~y")])
        out = dnf_exists_literal(dnf, [u.pos("x")])
        assert oracle.equivalent(out.to_formula(), parse_formula("~x | y", u))

    def test_forall_on_prime_implicants(self):
        u = Universe(["x", "y"])
        dnf = Dnf(u, [u.term("x,y"), u.term("~x,~y")])
        out = dnf_forall_literal(dnf, [u.pos("x")], assume_closed=True)
        assert {str(t) for t in out.sorted_elements()} == {"x,y"}

    def test_forall_empties_when_every_term_blocked(self):
        u = Universe(["x", "y"])
        dnf = Dnf(u, [u.term("~x,y"), u.term("~x,~y")])
        out = dnf_forall_literal(dnf, [u.pos("x")])
        assert out.is_false()

    def test_matches_definitional_operators(self):
        u = Universe(6)
        rng = random.Random(7)
        for _ in range(150):
            dnf = random_dnf(u, rng)
            lit = u.literal_by_code(rng.randrange(12))
            fast = dnf_exists_literal(dnf, [lit])
            assert oracle.equivalent(fast.to_formula(), exists_literal(dnf.to_formula(), lit))
            fast = dnf_forall_literal(dnf, [lit])
            assert oracle.equivalent(fast.to_formula(), forall_literal(dnf.to_formula(), lit))


class TestPrimeForms:
    def test_equivalence_formula(self):
        u = Universe(["x", "y"])
        f = parse_formula("(x => y) & (y => x)", u)
        implicants = prime_forms(f, "implicants")
        assert {str(t) for t in implicants.terms} == {"x,y", "~x,~y"}
        implicates = prime_forms(f, "implicates")
        assert {str(c) for c in implicates.clauses} == {"~x | y", "x | ~y"}

    def test_constants(self, xyz):
        assert [len(t) for t in prime_forms(xyz.true, "implicants").terms] == [0]
        assert len(prime_forms(xyz.true, "implicates")) == 0
        assert len(prime_forms(xyz.false, "implicants")) == 0
        assert [len(c) for c in prime_forms(xyz.false, "implicates").clauses] == [0]

    def test_admission_complete_reason_has_four_implicants(self):
        u = Universe(["e", "f", "g", "r", "w"])
        reason = parse_formula("(e | g) & (e | w) & r & (~f | g | w)", u)
        implicants = prime_forms(reason, "implicants")
        assert {str(t) for t in implicants.terms} == {
            "e,g,r",
            "e,r,w",
            "e,~f,r",
            "g,r,w",
        }

    def test_exhaustive_minimality_and_entailment(self):
        u = Universe(4)
        rng = random.Random(11)
        for _ in range(60):
            f = random_formula(u, rng)
            implicants = prime_forms(f, "implicants")
            terms = list(implicants.terms)
            for term in terms:
                assert oracle.entails(term, f)
                for other in terms:
                    if other is not term:
                        assert not set(other.codes) < set(term.codes)
            implicates = prime_forms(f, "implicates")
            for clause in implicates.clauses:
                assert oracle.entails(f, clause.to_formula())
            # dual route: implicates are negated implicants of the negation
            dual = {
                tuple(sorted(c ^ 1 for c in t.codes))
                for t in prime_forms(negate(f), "implicants").terms
            }
            assert {c.codes for c in implicates.clauses} == dual

    def test_cap(self):
        u = Universe(17)
        with pytest.raises(CapacityError, match="16"):
            prime_forms(u.true, "implicants")


class TestDecisionCircuit:
    def test_transcribed_loan_circuit_parses_as_decision(self):
        u = Universe(["d", "g", "h", "i"])
        circuit = parse_nnf(LOAN_DECISION_NNF, u)
        assert circuit.annotation == Annotation.DECISION_DNNF
        delta = parse_formula("(h | i) & (~d | g) & (~d | i)", u)
        assert oracle.equivalent(circuit, delta)

    def test_exists_d_matches_cnf_route(self):
        u = Universe(["d", "g", "h", "i"])
        circuit = parse_nnf(LOAN_DECISION_NNF, u)
        delta = parse_formula("(h | i) & (~d | g) & (~d | i)", u)
        out = ddnnf_exists(circuit, [u.pos("d")])
        assert out.annotation == Annotation.DNNF
        assert oracle.equivalent(out, exists_literal(delta, u.pos("d")))
        assert len(out) <= len(circuit)

    def test_forall_d_is_i_and_g(self):
        u = Universe(["d", "g", "h", "i"])
        circuit = parse_nnf(LOAN_DECISION_NNF, u)
        out = ddnnf_forall(circuit, [u.pos("d")])
        assert oracle.equivalent(out, u.lit("i") & u.lit("g"))

    def test_shift_of_single_decision_node(self):
        u = Universe(["a", "b", "x"])
        text = "nnf 7 6 3\nL 3\nL 1\nA 2 0 1\nL -3\nL 2\nA 2 3 4\nO 3 2 2 5\n"
        circuit = parse_nnf(text, u)
        shifted = ddnnf_shift(circuit)
        # (x & a) | (~x & b) becomes (x | b) & (~x | a)
        want = parse_formula("(x | b) & (~x | a)", u)
        assert oracle.equivalent(shifted, want)
        kinds = [n.kind for n in shifted.nodes if n.kind in ("and", "or")]
        assert kinds.count("and") == 1 and kinds.count("or") == 2

    def test_shift_keeps_disjuncts_variable_disjoint(self):
        u = Universe(6)
        rng = random.Random(13)
        for _ in range(100):
            circuit = random_decision_dnnf(u, rng)
            shifted = ddnnf_shift(circuit)
            assert oracle.equivalent(shifted, circuit.to_formula())
            reach = shifted.reachable()
            masks = {}
            for i in range(len(shifted.nodes)):
                if i not in reach:
                    continue
                node = shifted.nodes[i]
                if node.kind == "lit":
                    masks[i] = 1 << (node.lit >> 1)
                elif node.kind == "const":
                    masks[i] = 0
                else:
                    acc = 0
                    for child in node.children:
                        if node.kind == "or":
                            assert not acc & masks[child]
                        acc |= masks[child]
                    masks[i] = acc

    def test_random_circuits_match_definitional_quantification(self):
        u = Universe(6)
        rng = random.Random(17)
        for _ in range(100):
            circuit = random_decision_dnnf(u, rng)
            reference = circuit.to_formula()
            lits = [u.literal_by_code(rng.randrange(12)) for _ in range(rng.randint(1, 3))]
            out = ddnnf_exists(circuit, lits)
            assert oracle.equivalent(out, quantify_set(reference, "exists", lits))
            assert len(out) <= len(circuit)
            out = ddnnf_forall(circuit, lits)
            assert oracle.equivalent(out, quantify_set(reference, "forall", lits))

    def test_wrong_annotation_is_a_type_error(self):
        u = Universe(6)
        rng = random.Random(19)
        circuit = random_decision_dnnf(u, rng)
        quantified = ddnnf_forall(circuit, [u.literal_by_code(1)])
        assert quantified.annotation == Annotation.NNF
        with pytest.raises(TypeError):
            ddnnf_forall(quantified, [u.literal_by_code(3)])
        with pytest.raises(TypeError):
            sdd_exists(circuit, [u.literal_by_code(3)])

    def test_claimed_but_broken_structure_is_detected(self):
        u = Universe(["x", "y"])
        # (x & y) | y is no decision node and shares y across branches
        builder = CircuitBuilder(u)
        x, y = builder.lit(1), builder.lit(3)
        node = builder.add_or([builder.add_and([x, y]), y])
        circuit = builder.finish(node)
        with pytest.raises(StructureError):
            verify_decision_dnnf(circuit)


class TestSddCircuit:
    def sdd_equivalence(self) -> tuple:
        u = Universe(["x", "y"])
        text = "L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nD 5 2 1 3 2 4\n"
        return u, parse_sdd(text, u)

    def test_two_element_partition_parses(self):
        u, circuit = self.sdd_equivalence()
        assert circuit.annotation == Annotation.SDD
        assert oracle.equivalent(circuit, parse_formula("(x => y) & (y => x)", u))

    def test_exists_matches_definitional(self):
        u, circuit = self.sdd_equivalence()
        out = sdd_exists(circuit, [u.pos("x")])
        assert out.annotation == Annotation.DNNF
        assert oracle.equivalent(out, parse_formula("~x | y", u))

    def test_forall_matches_definitional(self):
        u, circuit = self.sdd_equivalence()
        out = sdd_forall(circuit, [u.pos("x")])
        assert oracle.equivalent(out, parse_formula("x & y", u))

    def test_shift_of_complementary_primes(self):
        u, circuit = self.sdd_equivalence()
        shifted = sdd_shift(circuit)
        assert oracle.equivalent(shifted, circuit.to_formula())
        assert len(shifted) <= 2 * len(circuit) + 2

    def test_random_circuits_match_definitional_quantification(self):
        u = Universe(6)
        rng = random.Random(23)
        for _ in range(100):
            circuit = random_sdd(u, rng)
            reference = circuit.to_formula()
            lits = [u.literal_by_code(rng.randrange(12)) for _ in range(rng.randint(1, 3))]
            out = sdd_exists(circuit, lits)
            assert oracle.equivalent(out, quantify_set(reference, "exists", lits))
            assert len(out) <= len(circuit)
            out = sdd_forall(circuit, lits)
            assert oracle.equivalent(out, quantify_set(reference, "forall", lits))

    def test_partition_violation_is_detected(self):
        u = Universe(["x", "y"])
        # primes x and x overlap
        text = "L 1 1\nL 2 2\nD 3 2 1 2 1 2\n"
        with pytest.raises(StructureError):
            parse_sdd(text, u)

    def test_a_sub_over_its_primes_variable_fails_decomposability(self):
        # the second element is (~x, x): its and-node is refused before any
        # partition is read, in memory and from text
        u = Universe(["x"])
        text = "L 1 1\nL 2 -1\nT 3\nL 4 1\nD 5 2 1 3 2 4\n"
        message = r"^and-node children share variables \(node 4\)$"
        with pytest.raises(StructureError, match=message):
            parse_sdd(text, u)
        builder = CircuitBuilder(u)
        x, not_x = builder.lit(1), builder.lit(0)
        pairs = [builder.add_and([x, builder.const(True)]), builder.add_and([not_x, x])]
        with pytest.raises(StructureError, match="^and-node children share variables"):
            verify_sdd(builder.finish(builder.add_or(pairs)))

    def test_semantic_route_is_chosen_by_the_number_of_prime_variables(self):
        # the prime x16 is itself a partition node, so the syntactic route
        # would refuse it; one prime variable takes the semantic route,
        # however high its index
        u = Universe(20)
        text = "L 1 16\nL 2 -16\nT 3\nF 4\nD 5 2 1 3 2 4\nL 6 20\nL 7 -20\nD 8 2 5 6 2 7\n"
        circuit = parse_sdd(text, u)
        assert oracle.equivalent(circuit, parse_formula("(x16 & x20) | (~x16 & ~x20)", u))

    def test_non_covering_primes_detected(self):
        u = Universe(["x", "y"])
        builder = CircuitBuilder(u)
        x = builder.lit(1)
        y = builder.lit(3)
        pair = builder.add_and([x, y])
        node = builder.add_or([pair])
        with pytest.raises(StructureError):
            verify_sdd(builder.finish(node))


class TestMonotoneOutput:
    def test_one_literal_per_variable_gives_monotone_circuit(self):
        u = Universe(5)
        rng = random.Random(29)
        for _ in range(50):
            circuit = random_decision_dnnf(u, rng)
            lits = [
                u.literal_by_code(2 * v.index + rng.randrange(2)) for v in u.variables
            ]
            out = ddnnf_forall(circuit, lits)
            codes = out.literal_codes()
            assert not any(code ^ 1 in codes for code in codes)


class TestVerifiersLeaveArgumentsAlone:
    def test_verifying_an_sdd_as_decision_circuit(self):
        u = Universe(["x", "y"])
        circuit = parse_sdd("L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nD 5 2 1 3 2 4\n", u)
        as_decision = verify_decision_dnnf(circuit)
        assert as_decision.annotation == Annotation.DECISION_DNNF
        assert as_decision.kinds is circuit.kinds
        assert as_decision.args is circuit.args
        assert as_decision.decisions is circuit.decisions
        assert circuit.annotation == Annotation.SDD
        assert verify_dnnf(circuit).annotation == Annotation.SDD
        out = sdd_exists(circuit, [u.pos("x")])
        assert oracle.equivalent(out, parse_formula("~x | y", u))

    def test_routines_refuse_an_unverified_circuit(self):
        # (x & a) | (~x & b) is both a decision node and an SDD partition
        u = Universe(["a", "b", "x"])
        b = CircuitBuilder(u)
        node = b.add_or([b.add_and([b.lit(5), b.lit(1)]), b.add_and([b.lit(4), b.lit(3)])], decision=2)
        plain = b.finish(node)
        assert plain.annotation == Annotation.NNF and plain.partitions is None
        formula = plain.to_formula()
        for verify, routines in (
            (verify_decision_dnnf, (ddnnf_forall, ddnnf_exists)),
            (verify_sdd, (sdd_forall, sdd_exists)),
        ):
            for routine, quantifier in zip(routines, ("forall", "exists")):
                for lits in ([u.pos("x")], [u.neg("a"), u.pos("b")], [u.neg("x"), u.pos("x")]):
                    with pytest.raises(TypeError, match="needs a verified"):
                        routine(plain, lits)
                    want = quantify_set(formula, quantifier, lits)
                    assert oracle.equivalent(routine(verify(plain), lits), want)
                    # quantify takes the definitional route on the plain circuit
                    got = quantify(plain, quantifier, lits)
                    assert isinstance(got, Formula) and oracle.equivalent(got, want)

    @pytest.mark.parametrize("claim", [Annotation.SDD, Annotation.DECISION_DNNF])
    def test_an_unchecked_claim_verifies_as_dnnf_only(self, claim):
        # (a & b) | (a & c) is decomposable, but its primes overlap and it
        # decides no variable: the claimed class's verifier refuses it
        u = Universe(["a", "b", "c"])
        b = CircuitBuilder(u)
        a, bb, c = b.lit(1), b.lit(3), b.lit(5)
        plain = b.finish(b.add_or([b.add_and([a, bb]), b.add_and([a, c])]))
        verify, forall = (verify_sdd, sdd_forall) if claim == Annotation.SDD \
            else (verify_decision_dnnf, ddnnf_forall)
        with pytest.raises(StructureError):
            verify(plain)
        verified = verify_dnnf(plain)
        assert verified.annotation == Annotation.DNNF
        assert verify_dnnf(verified) is verified
        with pytest.raises(TypeError):
            forall(verified, [u.neg("b")])
        want = quantify_set(plain.to_formula(), "forall", [u.neg("b")])
        assert oracle.equivalent(quantify(verified, "forall", ["~b"]), want)
        sdd = parse_sdd("L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nD 5 2 1 3 2 4\n", Universe(["x", "y"]))
        assert verify_dnnf(sdd) is sdd

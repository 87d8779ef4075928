"""Parsers and serializers: error positions, header validation, annotation
inference and round trips."""

import random

import pytest

from qlit.core import Annotation, Universe, truth_table
from qlit.errors import ParseError
from qlit.generators import random_decision_dnnf, random_formula, random_sdd
from qlit import io as io_module, oracle
from qlit.io import (
    emit_classifier_bundle,
    emit_dimacs,
    emit_nnf,
    emit_sdd,
    parse_classifier_bundle,
    parse_dimacs,
    parse_formula,
    parse_nnf,
    parse_sdd,
)

from conftest import ADMISSION_BUNDLE, LOAN_BUNDLE, LOAN_DECISION_NNF


class TestDimacs:
    def test_loan_cnf_with_named_variables(self):
        text = (
            "c var 1 d\nc var 2 g\nc var 3 h\nc var 4 i\n"
            "p cnf 4 3\n3 4 0\n-1 2 0\n-1 4 0\n"
        )
        cnf = parse_dimacs(text)
        assert [v.name for v in cnf.universe] == ["d", "g", "h", "i"]
        want = parse_formula("(h | i) & (~d | g) & (~d | i)", cnf.universe)
        assert oracle.equivalent(cnf.to_formula(), want)

    def test_empty_clause_list_is_true(self):
        cnf = parse_dimacs("p cnf 1 0\n")
        assert cnf.is_true() and len(cnf.universe) == 1

    def test_tautological_clause_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2.*tautological"):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dimacs("p dnf 2 1\n1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2 clauses"):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_round_trip(self):
        u = Universe(5)
        rng = random.Random(3)
        from qlit.generators import random_cnf

        for _ in range(50):
            cnf = random_cnf(u, rng)
            again = parse_dimacs(emit_dimacs(cnf), u)
            assert again == cnf


class TestNnf:
    def test_loan_circuit_annotation_and_models(self):
        u = Universe(["d", "g", "h", "i"])
        circuit = parse_nnf(LOAN_DECISION_NNF, u)
        assert circuit.annotation == Annotation.DECISION_DNNF
        want = parse_formula("(h | i) & (~d | g) & (~d | i)", u)
        assert oracle.equivalent(circuit, want)

    def test_single_literal_circuit(self):
        circuit = parse_nnf("nnf 1 0 1\nL 1\n")
        assert len(circuit) == 1
        assert oracle.equivalent(circuit, circuit.universe.lit("x1"))

    def test_forward_reference_rejected(self):
        with pytest.raises(ParseError, match="reference"):
            parse_nnf("nnf 2 2 1\nA 2 1 0\nL 1\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError, match="mismatch"):
            parse_nnf("nnf 2 1 1\nL 1\nA 2 0\n")

    def test_header_counts_validated(self):
        with pytest.raises(ParseError, match="declares 3 nodes"):
            parse_nnf("nnf 3 0 1\nL 1\n")
        with pytest.raises(ParseError, match="declares 4 edges"):
            parse_nnf("nnf 3 4 2\nL 1\nL 2\nA 2 0 1\n")

    def test_round_trip_is_identity_on_emitted(self):
        u = Universe(5)
        rng = random.Random(5)
        for _ in range(50):
            circuit = random_decision_dnnf(u, rng)
            text = emit_nnf(circuit)
            again = parse_nnf(text, u)
            assert emit_nnf(again) == text
            assert again.annotation == Annotation.DECISION_DNNF
            assert oracle.equivalent(again, circuit.to_formula())

    def test_plain_nnf_annotation_when_sharing_variables(self):
        u = Universe(["x", "y"])
        # (x & y) | (x & ~y) is a decision on y but declares no decision var,
        # so the strongest inferred annotation is DNNF; sharing x across an
        # and makes even that fail here: (x & y) | x shares x in the or only
        circuit = parse_nnf("nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nL -2\nO 0 2 2 0\n", u)
        assert circuit.annotation in (Annotation.NNF, Annotation.DNNF)


class TestSdd:
    def test_constant_node(self):
        circuit = parse_sdd("T 0\n", Universe(["x"]))
        assert oracle.valid(circuit)

    def test_malformed_element_count(self):
        with pytest.raises(ParseError, match="fields disagree"):
            parse_sdd("L 1 1\nD 2 2 1 1\n")

    def test_undefined_reference(self):
        with pytest.raises(ParseError, match="undefined node"):
            parse_sdd("L 1 1\nD 2 1 1 9\n")

    def test_round_trip_preserves_models(self):
        u = Universe(5)
        rng = random.Random(7)
        for _ in range(40):
            circuit = random_sdd(u, rng)
            text = emit_sdd(circuit)
            again = parse_sdd(text, u)
            assert oracle.equivalent(again, circuit.to_formula())
            assert emit_sdd(again) == text


class TestVarComments:
    """``c var <index> <name>`` comments, shared by the DIMACS, ``.nnf`` and
    SDD parsers."""

    PARSERS = {
        "dimacs": (parse_dimacs, "p cnf 2 1\n1 2 0\n"),
        "nnf": (parse_nnf, "nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n"),
        "sdd": (parse_sdd, "L 0 1\nL 1 -1\nL 2 2\nD 3 2 0 2 1 2\n"),
    }

    @pytest.mark.parametrize("fmt", sorted(PARSERS))
    def test_two_variables_named_alike_are_a_parse_error(self, fmt):
        parse, body = self.PARSERS[fmt]
        with pytest.raises(ParseError, match="duplicate variable name 'a'") as caught:
            parse("c var 1 a\nc var 2 a\n" + body)
        assert caught.value.line == 2
        # the later of the two comments is named, in either index order and
        # when a comment renames an index named before
        with pytest.raises(ParseError) as caught:
            parse("c var 2 a\nc note\nc var 1 b\nc var 1 a\n" + body)
        assert caught.value.line == 4
        with pytest.raises(ParseError) as caught:
            parse("c var 1 b\nc var 2 a\nc note\nc var 1 a\n" + body)
        assert caught.value.line == 4

    def test_duplicate_line_counts_from_the_first_line(self):
        with pytest.raises(ParseError) as caught:
            parse_dimacs("c var 1 a\nc var 2 a\np cnf 2 1\n1 2 0\n", first_line=10)
        assert caught.value.line == 11

    @pytest.mark.parametrize("fmt", sorted(PARSERS))
    def test_names_that_do_not_cover_the_variables_are_ignored(self, fmt):
        parse, body = self.PARSERS[fmt]
        circuit = parse("c var 1 a\nc var 3 a\n" + body)
        assert [v.name for v in circuit.universe] == ["x1", "x2"]

    @pytest.mark.parametrize("fmt", sorted(PARSERS))
    @pytest.mark.parametrize("index", ["\u00b2", "\u0661", "\uff11"])
    def test_an_index_of_other_digits_is_an_ordinary_comment(self, fmt, index):
        parse, body = self.PARSERS[fmt]
        # superscript two, Arabic-Indic one, fullwidth one: str.isdigit() holds
        assert index.isdigit()
        value = parse(f"c var {index} a\nc var 2 b\n" + body)
        assert [v.name for v in value.universe] == ["x1", "x2"]
        value = parse(f"c var 1 a\nc var 2 b\n" + body)
        assert [v.name for v in value.universe] == ["a", "b"]


class TestFormula:
    def test_precedence(self):
        u = Universe(["x", "y", "z"])
        f = parse_formula("~x & y | z => x <=> y", u)
        # reads as ((((~x & y) | z) => x) <=> y)
        want = (((~u.lit("x") & u.lit("y")) | u.lit("z")).implies(u.lit("x"))).iff(
            u.lit("y")
        )
        assert f is want

    def test_right_associative_arrows(self):
        u = Universe(["x", "y", "z"])
        assert parse_formula("x => y => z", u) is u.lit("x").implies(
            u.lit("y").implies(u.lit("z"))
        )

    def test_constants(self):
        u = Universe(["x"])
        assert parse_formula("true", u) is u.true
        assert parse_formula("false | x", u) is (u.false | u.lit("x"))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError, match="line 1, column 9"):
            parse_formula("x & y & ", Universe(["x", "y"]))
        with pytest.raises(ParseError, match="line 2, column 5"):
            parse_formula("x &\n  y )", Universe(["x", "y"]))

    def test_unknown_identifier_with_declared_universe(self):
        with pytest.raises(ParseError, match="unknown identifier 'q'"):
            parse_formula("x & q", Universe(["x"]))

    def test_universe_inferred_sorted(self):
        f = parse_formula("b | a")
        assert [v.name for v in f.universe] == ["a", "b"]

    def test_print_parse_round_trip(self):
        u = Universe(4)
        rng = random.Random(11)
        for _ in range(100):
            f = random_formula(u, rng)
            again = parse_formula(str(f), u)
            assert oracle.equivalent(f, again)


class TestBundle:
    def test_loan_bundle(self):
        bundle = parse_classifier_bundle(LOAN_BUNDLE)
        assert [v.name for v in bundle.universe] == ["d", "g", "h", "i"]
        assert bundle.negative is not None
        assert bundle.protected == ()

    def test_admission_protected_set(self):
        bundle = parse_classifier_bundle(ADMISSION_BUNDLE)
        assert bundle.protected == ("r",)

    def test_missing_delta_section(self):
        with pytest.raises(ParseError, match="no 'section delta'"):
            parse_classifier_bundle("var 1 x\n")

    def test_non_contiguous_indexes(self):
        with pytest.raises(ParseError, match="contiguous"):
            parse_classifier_bundle("var 1 x\nvar 3 y\nsection delta\np cnf 2 0\n")

    def test_error_line_numbers_offset_into_sections(self):
        text = "var 1 x\nsection delta\np cnf 1 1\n1 -1 0\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_classifier_bundle(text)

    def test_two_variables_named_alike_are_a_parse_error(self):
        text = "var 1 a\nc note\nvar 2 a\nsection delta\np cnf 2 1\n1 2 0\n"
        with pytest.raises(ParseError, match="duplicate variable name 'a'") as caught:
            parse_classifier_bundle(text)
        assert caught.value.line == 3
        # the later line is named, whatever the index order
        with pytest.raises(ParseError) as caught:
            parse_classifier_bundle("var 2 a\nvar 1 a\nsection delta\np cnf 2 0\n")
        assert caught.value.line == 2

    def test_round_trip(self):
        bundle = parse_classifier_bundle(ADMISSION_BUNDLE)
        text = emit_classifier_bundle(bundle)
        again = parse_classifier_bundle(text)
        assert emit_classifier_bundle(again) == text
        assert again.positive == parse_dimacs(
            emit_dimacs(bundle.positive), again.universe
        )


def _sdd_chain_text(levels: int) -> str:
    """A right-linear SDD: level ``v`` is ``(x_v & a) | (~x_v & b)`` with
    ``a`` and ``b`` the two levels below it."""
    lines = ["T 0", "F 1"]
    below = (0, 1)
    for var in range(levels, 0, -1):
        pos, neg, node = len(lines), len(lines) + 1, len(lines) + 2
        lines += [f"L {pos} {var}", f"L {neg} {-var}"]
        lines.append(f"D {node} 2 {pos} {below[0]} {neg} {below[1]}")
        below = (node, below[0])
    return "\n".join(lines) + "\n"


class TestDeepSdd:
    def test_round_trip_of_a_2000_level_chain(self):
        u = Universe(2000)
        circuit = parse_sdd(_sdd_chain_text(2000), u)
        text = emit_sdd(circuit)
        again = parse_sdd(text, u)
        assert emit_sdd(again) == text
        rng = random.Random(3)
        masks = [rng.getrandbits(64) for _ in range(2000)]
        full = (1 << 64) - 1
        assert truth_table(again, masks, full) == truth_table(circuit, masks, full)


class _RecursiveFormulaParser:
    """Recursive descent over the formula grammar: the reference the
    iterative parser must match node for node and error for error."""

    def __init__(self, tokens, universe):
        self.tokens, self.pos, self.universe = tokens, 0, universe

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def parse(self):
        formula = self.iff()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected {token.text!r}", token.line, token.column)
        return formula

    def iff(self):
        left = self.implies()
        if self.peek().text == "<=>":
            self.take()
            return left.iff(self.iff())
        return left

    def implies(self):
        left = self.disjunction()
        if self.peek().text == "=>":
            self.take()
            return left.implies(self.implies())
        return left

    def disjunction(self):
        out = self.conjunction()
        while self.peek().text == "|":
            self.take()
            out = out | self.conjunction()
        return out

    def conjunction(self):
        out = self.unary()
        while self.peek().text == "&":
            self.take()
            out = out & self.unary()
        return out

    def unary(self):
        if self.peek().text == "~":
            self.take()
            return ~self.unary()
        return self.atom()

    def atom(self):
        token = self.take()
        if token.text == "(":
            inner = self.iff()
            closing = self.take()
            if closing.text != ")":
                raise ParseError(
                    f"expected ')', got {closing.text or 'end of input'!r}",
                    closing.line,
                    closing.column,
                )
            return inner
        if token.kind == "ident":
            if token.text in ("true", "false"):
                return self.universe.true if token.text == "true" else self.universe.false
            if token.text not in self.universe:
                raise ParseError(f"unknown identifier {token.text!r}", token.line, token.column)
            return self.universe.lit(token.text)
        raise ParseError(
            f"expected a formula, got {token.text or 'end of input'!r}", token.line, token.column
        )


def _outcome(parse, text, universe):
    """The parsed node's serial, or the error with its position, plus the
    nodes the parse created, by serial: comparable across universes."""
    seen = len(universe._node_cache)
    try:
        result = parse(text, universe).serial
    except ParseError as error:
        result = (str(error), error.line, error.column)
    created = [
        (n.serial, n.kind, [c.serial for c in n.children] if n.children else n.key[1:])
        for n in sorted(universe._node_cache.values(), key=lambda n: n.serial)[seen:]
    ]
    return result, created


class TestFormulaParserAgainstRecursiveDescent:
    def test_random_strings_give_the_same_node_or_error(self):
        pieces = ["a", "b", "zz", "true", "false", "~", "&", "|", "=>", "<=>", "(", ")", " ", "\n"]
        rng = random.Random(89)
        texts = ["", ")", "(", "a b", "(a", "a)", "~", "a &", "a => b <=> ~(b | a) & true"]
        for _ in range(1000):
            texts.append(" ".join(rng.choice(pieces) for _ in range(rng.randrange(1, 12))))
        for _ in range(500):
            text = str(random_formula(Universe(["a", "b"]), rng))
            cut = rng.randrange(len(text) + 1)
            texts.append(text)
            texts.append(text[:cut] + rng.choice(pieces) + text[cut:])
        for text in texts:
            # each parser runs in a universe of its own, so node creation
            # orders compare too
            new, old = Universe(["a", "b"]), Universe(["a", "b"])
            got = _outcome(parse_formula, text, new)
            want = _outcome(
                lambda t, u: _RecursiveFormulaParser(list(io_module._tokenize(t)), u).parse(),
                text,
                old,
            )
            assert got == want, text


class TestDeepFormula:
    def test_deep_nesting_under_the_default_recursion_limit(self):
        u = Universe(["a", "b"])
        a = u.lit("a")
        assert parse_formula("(" * 100_000 + "a" + ")" * 100_000, u) is a
        negated = parse_formula("~" * 100_001 + "a", u)
        assert oracle.equivalent(negated, ~a)
        with pytest.raises(ParseError, match="expected '\\)', got 'end of input'"):
            parse_formula("(" * 100_000 + "a", u)

    def test_long_chains_keep_their_grouping(self):
        u = Universe(["a", "b"])
        names = ["a", "b"] * 5_000
        arrows = u.lit(names[-1])
        for name in reversed(names[:-1]):  # right-deep
            arrows = u.lit(name).implies(arrows)
        assert parse_formula(" => ".join(names), u) is arrows
        conj = u.lit(names[0])
        for name in names[1:]:  # left-deep
            conj = conj & u.lit(name)
        assert parse_formula(" & ".join(names), u) is conj


def _reference_parse_dimacs(text, universe=None, first_line=1):
    """The token-list DIMACS parser that the one-pass parser replaced: the
    reference it must match result for result and error for error."""
    from qlit.core import Clause
    from qlit.io import _named_universe, _note_name
    from qlit.tractable import Cnf

    lines = text.splitlines()
    header = None
    tokens = []  # (value, line number)
    names = {}
    for offset, line in enumerate(lines):
        number = first_line + offset
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            _note_name(stripped, names, number)
            continue
        if stripped.startswith("p"):
            if header is not None:
                raise ParseError("second problem line", number)
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError("malformed header, expected 'p cnf <vars> <clauses>'", number)
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError("non-numeric header counts", number) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError("negative header counts", number)
            continue
        if header is None:
            raise ParseError("clause before the problem line", number)
        for field in stripped.split():
            try:
                tokens.append((int(field), number))
            except ValueError:
                raise ParseError(f"expected an integer, got {field!r}", number) from None

    if header is None:
        line = first_line + len(lines)
        raise ParseError("missing 'p cnf' header", max(line - 1, first_line))
    nvars, nclauses = header
    if universe is None:
        universe = _named_universe(names, nvars)
    elif len(universe) != nvars:
        raise ParseError(
            f"header declares {nvars} variables, universe has {len(universe)}", first_line
        )

    clauses = []
    current = []
    current_line = first_line
    for value, number in tokens:
        if value == 0:
            codes = set()
            for item in current:
                code = 2 * (abs(item) - 1) + (1 if item > 0 else 0)
                if code ^ 1 in codes:
                    raise ParseError(f"tautological clause over variable {abs(item)}", number)
                codes.add(code)
            clauses.append(Clause(universe, tuple(sorted(codes))))
            current = []
        else:
            if abs(value) > nvars:
                raise ParseError(f"literal {value} out of range", number)
            current.append(value)
            current_line = number
    if current:
        raise ParseError("unterminated clause", current_line)
    if len(clauses) != nclauses:
        raise ParseError(
            f"header declares {nclauses} clauses, found {len(clauses)}",
            tokens[-1][1] if tokens else first_line,
        )
    return Cnf(universe, clauses)


def _dimacs_outcome(parse, text, *args):
    """Universe names and clause codes in order, or the error with its
    line: comparable across parsers."""
    try:
        cnf = parse(text, *args)
    except ParseError as error:
        return ("ParseError", str(error), error.line)
    except Exception as error:  # the same escape from both parsers is no regression
        return (type(error).__name__, str(error))
    return ([v.name for v in cnf.universe], [c.codes for c in cnf.elements])


def _random_dimacs(rng):
    """A valid DIMACS text over 0-6 variables, dressed in the format's
    freedoms: comments anywhere, ``c var`` names, clauses across and
    sharing lines, empty clauses, repeated literals and CRLF endings."""
    nvars = rng.randrange(7)
    clauses = []
    for _ in range(rng.randrange(6)):
        width = rng.randrange(min(nvars, 4) + 1)
        chosen = rng.sample(range(1, nvars + 1), width)
        clause = [v if rng.random() < 0.5 else -v for v in chosen]
        if clause and rng.random() < 0.15:
            clause.append(rng.choice(clause))  # a repeated literal
        clauses.append(clause)
    tokens = [str(v) for clause in clauses for v in [*clause, 0]]
    body = []
    while tokens:
        take = rng.randrange(1, 6)
        body.append(" ".join(tokens[:take]))
        tokens = tokens[take:]
    comments = ["c", "c hello", "c\tnote", "cnote", "c var", "c var 9 z"]
    if rng.random() < 0.5:
        ids = list(range(1, nvars + 1))
        if rng.random() < 0.3 and ids:
            ids.pop(rng.randrange(len(ids)))  # names that miss a variable
        comments += [f"c var {i} v{i}" for i in ids]
    lines = [f"p cnf {nvars} {len(clauses)}", *body]
    for comment in rng.sample(comments, rng.randrange(len(comments) + 1)):
        lines.insert(rng.randrange(len(lines) + 1), comment)
    if rng.random() < 0.2:
        lines.insert(rng.randrange(len(lines) + 1), "")
    newline = "\r\n" if rng.random() < 0.2 else "\n"
    return newline.join(lines) + (newline if rng.random() < 0.8 else "")


_BYTES = "0123456789- \t\n\rcpnfx+_"
_TOKENS = ["0", "1", "-1", "2", "-2", "3", "7", "-9", "x", "p", "cnf", "c", "01", "+2", "1_0"]


def _mutate(text, rng, alphabet=_BYTES, tokens=_TOKENS):
    """One seeded byte or token mutation."""
    kind = rng.randrange(6)
    at = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:at] + rng.choice(alphabet) + text[at:]
    if kind == 1:
        return text[:at] + text[at + 1 :]
    if kind == 2:
        return text[:at] + rng.choice(alphabet) + text[at + 1 :]
    lines = text.split("\n")
    row = rng.randrange(len(lines))
    fields = lines[row].split(" ")
    if kind == 3:  # replace a token
        fields[rng.randrange(len(fields))] = rng.choice(tokens)
    elif kind == 4:  # insert a token
        fields.insert(rng.randrange(len(fields) + 1), rng.choice(tokens))
    else:  # drop, repeat or swap lines
        other = rng.randrange(len(lines))
        lines[row], lines[other] = lines[other], lines[row]
        if rng.random() < 0.5:
            lines.insert(row, lines[other])
        return "\n".join(lines)
    lines[row] = " ".join(fields)
    return "\n".join(lines)


class TestDimacsAgainstReference:
    CORPUS = [
        "",
        "c only a comment\n",
        "p cnf 0 0\n",
        "p cnf 0 1\n0\n",
        "p cnf 2 2\n0\n1 -2 0\n",
        "p cnf 3 2\n1 -2\n3 0 -1\n0\n",
        "p cnf 3 2\r\n1 -2 0\r\nc mid\r\n2 3 0\r\n",
        "c var 1 a\nc var 2 b\np cnf 2 1\n1 2 0\nc var 1 z\n",
        "c var 1 a\nc var 2 a\np cnf 2 1\n1 2 0\n",
        "p cnf 2 1\n1 1 -2 0\n",
        "p cnf 3 1\n1 2 -2 -1 0\n",
        "p cnf 3 2\n1 -1 0 9 0\n",
        "p cnf 3 2\n9 0 1 -1 0\n",
        "p cnf 2 1\n3 0\nx 0\n",
        "p cnf 2 1\n1 -1 0\np cnf 2 1\n",
        "p cnf 2 1\n1 2\n",
        "p cnf 2 2\n1 0\n",
        "  c\tindented comment\n p cnf 1 1 \n\t1 0\n",
        "1 0\np cnf 1 1\n",
        "p cnf -1 0\n",
        "p cnf a 0\n",
        "p dnf 1 1\n",
    ]

    def test_corpus_and_mutations_match_the_reference(self):
        rng = random.Random(1709)
        texts = list(self.CORPUS)
        for _ in range(300):
            texts.append(_random_dimacs(rng))
        base = list(texts)
        for _ in range(1500):
            text = rng.choice(base)
            for _ in range(rng.randrange(1, 4)):
                text = _mutate(text, rng)
            texts.append(text)
        errors = 0
        for text in texts:
            want = _dimacs_outcome(_reference_parse_dimacs, text)
            assert _dimacs_outcome(parse_dimacs, text) == want, repr(text)
            errors += want[0] == "ParseError"
            if rng.random() < 0.2:  # a declared universe and an offset start
                u = Universe(rng.randrange(4))
                line = rng.randrange(1, 9)
                want = _dimacs_outcome(_reference_parse_dimacs, text, u, line)
                assert _dimacs_outcome(parse_dimacs, text, u, line) == want, repr(text)
        # both outcomes are well represented
        assert 300 < errors < len(texts) - 300


def _reference_texts(value):
    """``str`` of a clause, term, CNF or DNF, literal by literal."""
    from qlit.core import Clause, Term
    from qlit.tractable import Cnf, Dnf

    if isinstance(value, Clause):
        return " | ".join(str(lit) for lit in value.literals()) if value.codes else "false"
    if isinstance(value, Term):
        return ",".join(str(lit) for lit in value.literals()) if value.codes else "true"
    if isinstance(value, Cnf):
        if value.is_true():
            return "true"
        parts = []
        for clause in value.sorted_elements():
            text = _reference_texts(clause)
            parts.append(f"({text})" if len(clause) > 1 else text)
        return " & ".join(parts)
    assert isinstance(value, Dnf)
    if value.is_false():
        return "false"
    return " | ".join(
        " & ".join(str(lit) for lit in term) if term.codes else "true"
        for term in value.sorted_elements()
    )


def _reference_emit_dimacs(cnf):
    lines = [f"p cnf {len(cnf.universe)} {len(cnf.elements)}"]
    for clause in cnf.sorted_elements():
        numbers = [
            (code >> 1) + 1 if code & 1 else -((code >> 1) + 1) for code in clause.codes
        ]
        lines.append(" ".join(str(n) for n in numbers + [0]))
    return "\n".join(lines) + "\n"


class TestTextsAgainstReference:
    def test_random_and_edge_cnfs_and_dnfs(self):
        from qlit.generators import random_cnf, random_dnf
        from qlit.tractable import Cnf, Dnf

        rng = random.Random(4409)
        values = []
        for n in range(0, 8):
            u = Universe([f"v{i}" for i in range(n)] if n % 2 else n)
            values += [Cnf(u), Cnf(u, [u.clause()]), Dnf(u), Dnf(u, [u.term()])]
            if n:
                values += [
                    Cnf(u, [u.clause([lit]) for lit in u._literals[::3]]),
                    Cnf(u, [u.clause(), u.clause([u._literals[-1]])]),
                    Dnf(u, [u.term([lit]) for lit in u._literals[1::3]]),
                    Dnf(u, [u.term(), u.term([u._literals[0]])]),
                ]
                for _ in range(40):
                    values += [random_cnf(u, rng), random_dnf(u, rng)]
        for value in values:
            assert str(value) == _reference_texts(value)
            for element in value.elements:
                assert str(element) == _reference_texts(element)
            if isinstance(value, Cnf):
                assert emit_dimacs(value) == _reference_emit_dimacs(value)

    def test_dimacs_codes_invert_the_universe_table(self):
        from qlit.core import dimacs_codes

        for n in range(6):
            u = Universe(n)
            code_of = dimacs_codes(n)
            assert sorted(code_of) == list(range(-n, n + 1)) and code_of[0] is None
            for code, text in enumerate(u._dimacs):
                assert code_of[int(text)] == code


_BUNDLE_BYTES = "0123456789- \t\nacdegiprvx"
_BUNDLE_TOKENS = [
    "var", "protected", "section", "delta", "negdelta", "c", "p", "cnf",
    "0", "1", "2", "-1", "-3", "9", "a", "d", "e", "g", "r", "~d",
]


class TestBundleFuzz:
    def test_mutated_bundles_parse_or_fail_with_a_line(self, tmp_path, capsys):
        from qlit.cli import main

        rng = random.Random(4111)
        path = tmp_path / "fuzz.bundle"
        outcomes = {"parsed": 0, "ParseError": 0}
        codes = set()
        for _ in range(1000):
            text = rng.choice([LOAN_BUNDLE, ADMISSION_BUNDLE])
            if rng.random() < 0.3:
                text = _mutate(text, rng, _BUNDLE_BYTES, _BUNDLE_TOKENS)
            text = _mutate(text, rng, _BUNDLE_BYTES, _BUNDLE_TOKENS)
            try:
                bundle = parse_classifier_bundle(text)
            except ParseError as error:
                assert error.line >= 1, repr(text)
                outcomes["ParseError"] += 1
                term = "d"
            else:
                outcomes["parsed"] += 1
                names = [v.name for v in bundle.universe]
                term = ",".join(rng.sample(names, rng.randint(1, len(names))))
            path.write_text(text)
            code = main(["decide", "--classifier", str(path), f"--term={term}"])
            assert code in (0, 1, 2), (repr(text), term, capsys.readouterr().err)
            capsys.readouterr()
            codes.add(code)
        # both outcomes, and every exit code, are represented
        assert min(outcomes.values()) > 100, outcomes
        assert codes == {0, 1, 2}

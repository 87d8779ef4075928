"""Parsers and serializers: error positions, header validation, annotation
inference and round trips."""

import random
import re

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

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("var 1 a\nprotected zz\n", 2, "protected variable 'zz' is not declared"),
            ("var 1 a\nvar 3 b\n", 2, "contiguous"),
            ("c x\nvar 2 a\n", 2, "contiguous"),
            # the first var line in file order whose index lies outside 1..n
            ("var 2 b\nvar 5 c\nvar 1 a\nvar 4 d\nsection delta\np cnf 4 0\n", 2, "contiguous"),
            ("var 1 a\nprotected a\nvar 2 b\nprotected b zz\nsection delta\n", 4, "'zz'"),
        ],
    )
    def test_whole_bundle_errors_name_their_line(self, text, line, message):
        with pytest.raises(ParseError, match=message) as caught:
            parse_classifier_bundle(text)
        assert caught.value.line == line

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
    """The parsed node's id, or the error with its position, plus the
    nodes the parse created, by id: comparable across universes."""
    seen = len(universe._node_cache)
    try:
        result = parse(text, universe).id
    except ParseError as error:
        result = (str(error), error.line, error.column)
    created = [
        (n.id, n.kind, [c.id for c in n.children] if n.children else n.key[1:])
        for n in map(universe._store.finish, range(seen, len(universe._node_cache)))
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


def _reference_tokenize(text):
    """The character loop that the one-pattern tokenizer replaced: the
    reference it must match token for token and error for error."""
    line = 1
    column = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        matched = None
        for punct in ("<=>", "=>", "~", "&", "|", "(", ")"):
            if text.startswith(punct, i):
                matched = punct
                break
        if matched:
            yield io_module._Token("punct", matched, line, column)
            column += len(matched)
            i += len(matched)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            yield io_module._Token("ident", text[start:i], line, column)
            column += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    yield io_module._Token("end", "", line, column)


def _tokens_or_error(tokenize, text):
    try:
        return list(tokenize(text))
    except ParseError as error:
        return str(error), error.line, error.column


class TestTokenizerAgainstCharacterLoop:
    def test_seeded_strings_give_the_same_tokens_or_error(self):
        pieces = [
            "a", "x1", "_b", "<=>", "=>", "<", "=", ">", "~", "&", "|", "(", ")", "!", "-",
            "é", "ß", "Ω", "中", "ǅ",  # letters, one of them titlecase
            "0", "7", "٣",  # decimal digits
            "²", "½", "Ⅻ", "〇",  # other numerics: digit, fraction, letter numerals
            "\u0301", "\u200b",  # a combining mark and a zero-width space
            " ", "\t", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028",
        ]
        rng = random.Random(97)
        for _ in range(20_000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 10)))
            assert _tokens_or_error(io_module._tokenize, text) == _tokens_or_error(
                _reference_tokenize, text
            ), repr(text)

    def test_every_code_point_alone_and_beside_a(self):
        """Every assigned code point, and a seeded sample of the unassigned,
        private-use and surrogate ones, which share a single character class.
        Texts the reference accepts are compared all at once, one per line."""
        import unicodedata

        chars, rest = [], []
        for code in range(0x110000):
            ch = chr(code)
            (rest if unicodedata.category(ch) in ("Cn", "Co", "Cs") else chars).append(ch)
        chars += random.Random(5).sample(rest, 5_000)
        for context in ("{}", "a{}a"):
            accepted = []
            for ch in chars:
                text = context.format(ch)
                want = _tokens_or_error(_reference_tokenize, text)
                if isinstance(want, list) and "\n" not in text:
                    accepted.append(text)
                else:
                    assert _tokens_or_error(io_module._tokenize, text) == want, repr(text)
            assert len(accepted) > 100_000
            joined = "\n".join(accepted)
            want = list(_reference_tokenize(joined))
            assert _tokens_or_error(io_module._tokenize, joined) == want


def _reference_int(field):
    """An optional sign and ASCII digits as an integer, else ``ValueError``."""
    if re.fullmatch(r"[+-]?[0-9]+", field) is None:
        raise ValueError(f"not an integer: {field!r}")
    return int(field)


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
                header = (_reference_int(fields[2]), _reference_int(fields[3]))
            except ValueError:
                raise ParseError("non-numeric header counts", number) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError("negative header counts", number)
            continue
        if header is None:
            raise ParseError("clause before the problem line", number)
        for field in stripped.split():
            try:
                tokens.append((_reference_int(field), number))
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


# the loan classifier as a partition circuit: decide d, then g/h/i blocks
_LOAN_SDD = (
    "c var 1 d\nc var 2 g\nc var 3 h\nc var 4 i\n"
    "L 1 1\nL 2 -1\nL 3 2\nL 4 -2\nL 5 3\nL 6 -3\nL 7 4\nL 8 -4\n"
    "F 9\nT 10\nD 11 2 7 10 8 9\nD 12 2 5 10 6 11\nD 13 2 3 11 4 9\nD 14 2 1 13 2 12\n"
)


def _generated(make, emit, seed):
    """Four emitted texts of seeded random values over three variables."""
    rng = random.Random(seed)
    u = Universe(3)
    return [emit(make(u, rng)) for _ in range(4)]


# per format: the parser, the CLI's --repr, seed texts, mutation bytes and tokens
_PARSER_FUZZ = {
    "nnf": (
        parse_nnf,
        "ddnnf",
        [LOAN_DECISION_NNF, *_generated(random_decision_dnnf, emit_nnf, 23)],
        "0123456789- \t\nLAOncvdgx",
        ["nnf", "L", "A", "O", "0", "1", "2", "3", "-1", "-3", "9", "c", "var", "d"],
    ),
    "sdd": (
        parse_sdd,
        "sdd",
        [_LOAN_SDD, *_generated(random_sdd, emit_sdd, 29)],
        "0123456789- \t\nTFLDcvdgx",
        ["T", "F", "L", "D", "0", "1", "2", "-1", "-2", "5", "9", "c", "var", "d"],
    ),
    "formula": (
        parse_formula,
        "formula",
        [
            "(h | i) & (~d | g) & (~d | i)\n",
            "x => (y <=> ~z)",
            "true | false",
            *_generated(random_formula, str, 31),
        ],
        "dghixyz~&|=<>() \t\n",
        ["d", "x1", "~", "&", "|", "=>", "<=>", "(", ")", "true", "false", "c"],
    ),
}


class TestParserFuzz:
    """Seeded mutations of ``.nnf``, SDD and formula texts: each text parses
    or fails with a ``ParseError`` carrying a line, or a ``StructureError``;
    ``qlit quantify`` on it exits 0, 1 or 2, never 3."""

    @pytest.mark.parametrize("fmt", sorted(_PARSER_FUZZ))
    def test_mutated_texts_parse_or_fail_with_a_line(self, fmt, tmp_path, capsys):
        from qlit.cli import main
        from qlit.errors import StructureError

        parse, repr_, corpus, alphabet, tokens = _PARSER_FUZZ[fmt]
        rng = random.Random(7919)
        path = tmp_path / "fuzz.in"
        outcomes = {"parsed": 0, "refused": 0}
        for _ in range(1000):
            text = rng.choice(corpus)
            for _ in range(rng.randint(1, 2)):
                text = _mutate(text, rng, alphabet, tokens)
            try:
                value = parse(text)
            except ParseError as error:
                assert error.line >= 1, repr(text)
                outcomes["refused"] += 1
                items = "d"
            except StructureError:
                outcomes["refused"] += 1
                items = "d"
            else:
                outcomes["parsed"] += 1
                names = [v.name for v in value.universe] or ["d"]
                picked = rng.sample(names, rng.randint(1, len(names)))
                items = ",".join(rng.choice([n, "~" + n, n[:1].upper() + n[1:]]) for n in picked)
            path.write_text(text)
            op = rng.choice(["forall", "exists"])
            code = main(["quantify", "--op", op, "--items", items, "--in", str(path), "--repr", repr_])
            assert code in (0, 1, 2), (repr(text), items, capsys.readouterr().err)
            capsys.readouterr()
        # both outcomes are represented
        assert min(outcomes.values()) > 10, outcomes


def _large_dimacs(rng, literals=30_000):
    """The lines of a valid DIMACS text of at least ``literals`` literals over
    ``literals // 15`` variables: clauses of 0-5 literals, some with a
    repeated literal, laid over lines of 1-8 fields so that clauses span
    lines, and runs of clause lines parted by comment and blank lines."""
    nvars = literals // 15
    clauses = []
    count = 0
    while count < literals:
        width = rng.choice([0, 1, 2, 3, 3, 3, 4, 5]) if rng.random() < 0.1 else 3
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), width)]
        if clause and rng.random() < 0.02:
            clause.insert(rng.randrange(len(clause) + 1), rng.choice(clause))
        clauses.append(clause)
        count += len(clause)
    tokens = [str(v) for clause in clauses for v in [*clause, 0]]
    lines = []
    while tokens:
        take = rng.randint(1, 8)
        lines.append(" ".join(tokens[:take]))
        del tokens[:take]
        if rng.random() < 0.01:
            lines.append(rng.choice(["c a comment", "", "c", "  ", "c var 3"]))
    # a name for every variable, on ``c var`` lines anywhere after the header
    names = {}
    for v in range(1, nvars + 1):
        names.setdefault(rng.randrange(len(lines) + 1), []).append(f"c var {v} n{v}")
    lines = [row for k, line in enumerate([*lines, None]) for row in [*names.get(k, []), line]]
    return [f"p cnf {nvars} {len(clauses)}", *lines[:-1]]


class TestLargeDimacsAgainstReference:
    """Texts of 30,000 literals and more, valid and with one fault planted on a
    late line, read as the line-by-line reference reads them."""

    @staticmethod
    def _late(lines, rng):
        """The index of a clause line in the last tenth of ``lines``."""
        while True:
            k = rng.randrange(len(lines) * 9 // 10, len(lines))
            if lines[k].strip() and not lines[k].startswith("c"):
                return k

    def _faults(self, lines, rng):
        """Copies of ``lines``, each with one planted fault."""
        nvars = int(lines[0].split()[2])

        def replaced(lines, k, make):
            fields = lines[k].split()
            at = rng.randrange(len(fields))
            fields[at] = make(fields[at])
            return [*lines[:k], " ".join(fields), *lines[k + 1 :]]

        def appended(lines, k, tail):
            return [*lines[:k], lines[k] + " " + tail, *lines[k + 1 :]]

        late = self._late(lines, rng)
        early = rng.randrange(1, len(lines) // 2)
        while not lines[early].strip() or lines[early].startswith("c"):
            early += 1
        out_of_range = str(nvars + 1 + rng.randrange(5))
        yield replaced(lines, late, lambda _: rng.choice(["x", "1_0", "١", "2-", "+-3"]))
        yield appended(lines, late, f"{out_of_range} 0")
        yield appended(lines, late, "7 -7 0")
        yield [*lines, "1 2"]
        yield appended(lines, late, "3 0")
        yield replaced(appended(lines, early, "5 -5 0"), late, lambda _: "1_0")
        yield replaced(appended(lines, early, f"{out_of_range} 0"), late, lambda _: "x")
        yield [*lines[:late], "p cnf 1 1", *lines[late:]]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_valid_and_faulty_texts_match_the_reference(self, seed):
        rng = random.Random(seed)
        lines = _large_dimacs(rng)
        assert sum(len(line.split()) for line in lines[1:] if line[:1] != "c") >= 30_000
        spelled = [  # integers written as ``int`` also reads them: ``+2``, ``01``
            " ".join(rng.choice([f, "+" + f, "0" + f]) if f[0] != "-" else f for f in line.split())
            if k and not line.startswith("c") else line
            for k, line in enumerate(lines)
        ]
        texts = [lines, spelled, *self._faults(lines, rng)]
        outcomes = []
        for text_lines in texts:
            newline = rng.choice(["\n", "\r\n"])
            text = newline.join(text_lines) + newline
            want = _dimacs_outcome(_reference_parse_dimacs, text)
            assert _dimacs_outcome(parse_dimacs, text) == want
            outcomes.append(want)
            u = Universe(int(text_lines[0].split()[2]))
            assert _dimacs_outcome(parse_dimacs, text, u, 40) == _dimacs_outcome(
                _reference_parse_dimacs, text, u, 40
            )
        # the valid texts parse alike; each fault is an error on a late line
        assert outcomes[0][0][0] == "n1" and outcomes[0] == outcomes[1]
        assert [outcome[0] for outcome in outcomes[2:]] == ["ParseError"] * (len(texts) - 2)
        messages = [outcome[1] for outcome in outcomes[2:]]
        for message, part in zip(messages, [
            "expected an integer", "out of range", "tautological", "unterminated",
            "clauses, found", "expected an integer", "expected an integer", "second problem line",
        ]):
            assert part in message
        assert all(outcome[2] > len(lines) // 2 for outcome in outcomes[2:])

    def test_a_var_index_past_the_digit_limit_is_a_comment(self):
        # ``int`` refuses more than 4,300 digits: the comment names no variable
        text = f"c var 1 a\nc var {'9' * 5000} b\np cnf 1 1\n1 0\nx 0\n"
        assert _dimacs_outcome(parse_dimacs, text) == ("ParseError", "line 5, column 1: expected an integer, got 'x'", 5)
        assert _dimacs_outcome(parse_dimacs, text[:-4]) == (["a"], [(1,)])

    def test_integers_in_other_scripts_are_not_read(self):
        with pytest.raises(ParseError, match="expected an integer, got '١'") as caught:
            parse_dimacs("p cnf 2 1\n١ -2 0\n")
        assert caught.value.line == 2


def _flat_elements(u, rng, count):
    """``count`` code tuples over ``u``: empty, unit and wider elements."""
    elements = []
    for _ in range(count):
        width = rng.choice([0, 1, 1, 2, 3, 4]) if rng.random() < 0.3 else rng.randint(2, 4)
        chosen = sorted(rng.sample(range(len(u)), min(width, len(u))))
        elements.append(tuple(2 * v + rng.randrange(2) for v in chosen))
    return elements


class TestBulkTextsAgainstReference:
    def test_seeded_forms_with_unit_and_empty_elements(self):
        from qlit.tractable import Cnf, Dnf

        rng = random.Random(4410)
        seen = set()
        for trial in range(400):
            n = rng.randrange(1, 9)
            u = Universe([f"v{i}_{rng.randrange(100)}" for i in range(n)] if trial % 2 else n)
            elements = _flat_elements(u, rng, rng.randrange(6))
            if trial % 3 == 0:  # every element has two literals or more
                elements = [e for e in elements if len(e) > 1]
            for form in (Cnf._of(u, elements), Dnf._of(u, elements)):
                text = str(form)
                assert text == _reference_texts(form)
                seen.add((type(form).__name__, min(map(len, form.codes), default=None), text in ("true", "false")))
        # the forms include true and false, and elements of every width class
        assert {(kind, width) for kind, width, _ in seen} >= {
            (kind, width) for kind in ("Cnf", "Dnf") for width in (None, 0, 1, 2)
        }


class TestLargeHeadersCostNothingEarly:
    """A header may declare up to ``MAX_VARIABLES`` variables: a later line's
    error is found before anything that grows with that count is built."""

    @pytest.mark.parametrize(
        "parse, text, error",
        [
            (parse_dimacs, "p cnf 1000000 1\n1 -1 0\n", "tautological clause over variable 1"),
            (parse_dimacs, "p cnf 1000000 2\n1 0\n", "header declares 2 clauses, found 1"),
            (parse_dimacs, "p cnf 1000000 1\n1 2\n", "unterminated clause"),
            (parse_nnf, "nnf 2 0 1000000\nL 1\n", "header declares 2 nodes, found 1"),
            (parse_sdd, "L 1 1000000\nL 1 1\n", "node id 1 defined twice"),
        ],
    )
    def test_a_later_error_allocates_little(self, parse, text, error):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as raised:
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raised.value.line == 2 and error in str(raised.value)
        assert peak < 1 << 20  # a table over the header's count takes tens of MiB

    def test_one_past_the_limit_is_refused_on_the_header(self):
        from qlit.io import MAX_VARIABLES

        for parse, text, line in [
            (parse_dimacs, f"c x\np cnf {MAX_VARIABLES + 1} 0\n", 2),
            (parse_nnf, f"nnf 1 0 {MAX_VARIABLES + 1}\nA 0\n", 1),
            (parse_sdd, f"T 1\nL 2 -{MAX_VARIABLES + 1}\n", 2),
        ]:
            with pytest.raises(ParseError) as raised:
                parse(text)
            assert raised.value.line == line
            assert f"{MAX_VARIABLES + 1} variables, more than the limit of {MAX_VARIABLES}" in str(raised.value)

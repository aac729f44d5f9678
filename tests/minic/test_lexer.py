"""Tests for the MiniC lexer."""

import random

import pytest

from repro.errors import LexError
from repro.minic.lexer import Token, tokenize
from repro.testing.progen import generate_program
from repro.workloads import get, workload_names
from tests.minic.lexer_reference import reference_tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]  # drop EOF


class TestBasics:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_keywords_vs_identifiers(self):
        assert kinds("int intx") == [("kw", "int"), ("ident", "intx")]

    def test_identifier_with_underscores_digits(self):
        assert kinds("_a1 b_2") == [("ident", "_a1"), ("ident", "b_2")]

    def test_all_keywords_recognized(self):
        for kw in ("int", "long", "char", "double", "void", "struct", "if",
                   "else", "while", "for", "do", "return", "break",
                   "continue", "sizeof"):
            assert kinds(kw) == [("kw", kw)]


class TestNumbers:
    def test_decimal_int(self):
        tok = tokenize("12345")[0]
        assert tok.kind == "int" and tok.value == 12345

    def test_hex_int(self):
        tok = tokenize("0xFF")[0]
        assert tok.value == 255
        assert tokenize("0x10")[0].value == 16

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_float_literal(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == "float" and tok.value == 3.25

    def test_float_with_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025

    def test_leading_dot_float(self):
        assert tokenize(".5")[0].value == 0.5

    def test_int_then_member_access_not_float(self):
        # "1.x" is not valid but digits followed by dot digit IS a float;
        # here check "7 . x" style does not merge
        toks = kinds("a.b")
        assert toks == [("ident", "a"), ("op", "."), ("ident", "b")]


class TestCharsAndStrings:
    def test_char_literal(self):
        assert tokenize("'a'")[0].value == ord("a")

    @pytest.mark.parametrize("text,code", [
        (r"'\n'", 10), (r"'\t'", 9), (r"'\0'", 0), (r"'\\'", 92),
        (r"'\''", 39),
    ])
    def test_char_escapes(self, text, code):
        assert tokenize(text)[0].value == code

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_string_literal(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind == "string" and tok.value == "hello"

    def test_string_escapes(self):
        assert tokenize(r'"a\nb"')[0].value == "a\nb"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string_rejected(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')


class TestOperators:
    def test_longest_match(self):
        assert kinds("a<<=b") == [("ident", "a"), ("op", "<<="), ("ident", "b")]
        assert kinds("a<<b") == [("ident", "a"), ("op", "<<"), ("ident", "b")]
        assert kinds("a<b") == [("ident", "a"), ("op", "<"), ("ident", "b")]

    def test_arrow_vs_minus(self):
        assert kinds("a->b") == [("ident", "a"), ("op", "->"), ("ident", "b")]
        assert kinds("a-b") == [("ident", "a"), ("op", "-"), ("ident", "b")]

    def test_increment(self):
        assert kinds("a++ + ++b") == [
            ("ident", "a"), ("op", "++"), ("op", "+"), ("op", "++"),
            ("ident", "b")]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestCommentsAndPositions:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("ident", "a"), ("ident", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_error_carries_position(self):
        try:
            tokenize("ok\n   $")
        except LexError as e:
            assert e.line == 2 and e.column == 4
        else:
            pytest.fail("expected LexError")


#: Every malformed input of the cases above.
ERROR_CASES = ["0x", "'a", '"abc', '"ab\ncd"', "a @ b", "/* never ends",
               "ok\n   $"]
#: Fragments spliced into real sources to reach every lexer branch,
#: malformed ones included.
FRAGMENTS = ["@", "$", "`", "\x0b", "0x", "0X", "'\\q'", "'", '"',
             '"\\q"', '"a\nb"', "/*", "*/", "//", "\n", "\t", "'\n'",
             ".5e", "1e+", "'a", "\\", "\u00e9", "..", "->", ">>=", "<<"]


def _outcome(lex, source):
    """Token stream (every field) or the LexError's message and place."""
    try:
        return [(t.kind, t.text, t.line, t.column, repr(t.value))
                for t in lex(source)]
    except LexError as e:
        return ("LexError", str(e), e.line, e.column)


def _sources():
    return ([get(name).source for name in workload_names()]
            + [generate_program(seed)
               for seed in range(20140623, 20140663)])


class TestAgainstReference:
    """``tokenize`` equals the character-at-a-time reference lexer."""

    def test_error_cases(self):
        for source in ERROR_CASES:
            want = _outcome(reference_tokenize, source)
            assert want[0] == "LexError"
            assert _outcome(tokenize, source) == want

    def test_workloads_and_generated_programs(self):
        for source in _sources():
            assert _outcome(tokenize, source) == \
                _outcome(reference_tokenize, source)

    def test_spliced_and_truncated_sources(self):
        rng = random.Random(20140623)
        errors = 0
        for source in _sources():
            for _ in range(4):
                at = rng.randrange(len(source) + 1)
                for variant in (source[:at] + rng.choice(FRAGMENTS)
                                + source[at:], source[:at]):
                    want = _outcome(reference_tokenize, variant)
                    errors += want[0] == "LexError"
                    assert _outcome(tokenize, variant) == want, variant
        assert errors > 20

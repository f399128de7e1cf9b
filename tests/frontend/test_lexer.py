"""Tests for the MiniC lexer."""

import pytest

from repro.errors import CompileError
from repro.frontend.lexer import Token, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestTokens:
    def test_keywords_vs_identifiers(self):
        toks = kinds("int foo while whilex")
        assert toks == [
            ("keyword", "int"), ("ident", "foo"),
            ("keyword", "while"), ("ident", "whilex"),
        ]

    def test_numbers(self):
        toks = tokenize("42 0x1F 3.5 1e3 2.5e-2 7L")[:-1]
        assert [t.value for t in toks] == [42, 31, 3.5, 1000.0, 0.025, 7]
        assert [t.kind for t in toks] == ["int", "int", "float", "float", "float", "int"]

    def test_char_literals(self):
        toks = tokenize(r"'a' '\n' '\0' '\\'")[:-1]
        assert [t.value for t in toks] == [97, 10, 0, 92]

    def test_string_literals(self):
        toks = tokenize(r'"hi" "a\nb" ""')[:-1]
        assert [t.value for t in toks] == [b"hi", b"a\nb", b""]

    def test_operators_longest_match(self):
        toks = kinds("a <<= b << c <= d < e")
        ops = [text for kind, text in toks if kind == "op"]
        assert ops == ["<<=", "<<", "<=", "<"]

    def test_arrow_vs_minus(self):
        ops = [t.text for t in tokenize("a->b - c--")[:-1] if t.kind == "op"]
        assert ops == ["->", "-", "--"]

    def test_comments_stripped(self):
        toks = kinds("a // line comment\nb /* block\ncomment */ c")
        assert [text for _, text in toks] == ["a", "b", "c"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")[:-1]
        assert [t.line for t in toks] == [1, 2, 4]

    def test_errors(self):
        with pytest.raises(CompileError, match="unterminated block comment"):
            tokenize("/* never ends")
        with pytest.raises(CompileError, match="unterminated string"):
            tokenize('"open')
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize("a $ b")
        with pytest.raises(CompileError, match="unknown escape"):
            tokenize(r"'\q'")
        # Malformed literals and characters outside C's basic set: a
        # CompileError naming the line, never a ValueError/IndexError.
        for source, message in [
            ("1.5e", "malformed number '1.5e'"),
            ("1e+", "malformed number '1e\\+'"),
            (".5e", "malformed number '.5e'"),
            ("0x", "malformed number '0x'"),
            ("\u00b2", "unexpected character"),
            ("int \u00e9 = 1;", "unexpected character"),
            ("'\\", "unterminated char literal"),
            ('"\\', "unterminated string literal"),
            ('"\u20ac"', "character out of range"),
        ]:
            with pytest.raises(CompileError, match=message) as info:
                tokenize("int x;\n" + source)
            assert info.value.line == 2, source

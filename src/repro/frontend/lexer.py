"""Lexer for MiniC, the C subset the workloads are written in.

One compiled master regex names every token class; ``tokenize`` walks
its matches in order.  Identifiers and numbers use C's basic (ASCII)
character set, and any other character outside comments and literals
is an error.  Every malformed input raises :class:`CompileError` with
its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from ..errors import CompileError

KEYWORDS = {
    "int", "long", "char", "double", "float", "void", "unsigned",
    "struct", "extern", "static", "sizeof", "typedef", "const",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "NULL",
}

# Longest-match-first operator table.
OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

# Alternatives are tried in order at each position: comments before
# the ``/`` operator, numbers before the ``.`` operator.  A comment or
# literal that does not close falls through to ``open`` and is
# diagnosed there; ``bad`` matches any other single character.  The
# number groups leave out the ignored ``[uUlL]`` suffix.
_TOKEN = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<hex>0[xX][0-9A-Fa-f]*)[uUlL]*
    | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)[uUlL]*
    | (?P<char>'(?:\\.|[^\\])')
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<open>/\*|['"])
    | (?P<op>""" + "|".join(re.escape(op) for op in OPERATORS) + r""")
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass
class Token:
    kind: str        # "ident" | "keyword" | "int" | "float" | "char" | "string" | "op" | "eof"
    text: str
    line: int
    value: object = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group(kind)
        if kind == "skip":  # whitespace or a comment
            line += text.count("\n")
        elif kind == "name":
            kind = "keyword" if text in KEYWORDS else "ident"
            append(Token(kind, text, line))
        elif kind == "op":
            append(Token("op", text, line))
        elif kind == "number":
            if text[-1] in "eE+-":
                raise CompileError(f"malformed number {text!r}", line)
            if "." in text or "e" in text or "E" in text:
                append(Token("float", text, line, float(text)))
            else:
                append(Token("int", text, line, int(text)))
        elif kind == "hex":
            if len(text) == 2:
                raise CompileError(f"malformed number {text!r}", line)
            append(Token("int", text, line, int(text, 16)))
        elif kind == "char":
            append(Token("char", text, line, _char_value(text, line)))
        elif kind == "string":
            append(Token("string", text, line, _string_value(text, line)))
        elif kind == "open":
            _diagnose_open(source, match.start(), line)
        else:
            raise CompileError(f"unexpected character {text!r}", line)
    tokens.append(Token("eof", "", line))
    return tokens


_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}


def _escape(escape: str, line: int) -> int:
    code = _ESCAPES.get(escape)
    if code is None:
        raise CompileError(f"unknown escape \\{escape}", line)
    return code


def _char_value(text: str, line: int) -> int:
    """Value of a closed char literal (``'x'`` or ``'\\x'``)."""
    if text[1] == "\\":
        return _escape(text[2], line)
    return ord(text[1])


def _string_value(text: str, line: int) -> bytes:
    """Bytes of a closed string literal, escapes decoded."""
    body = text[1:-1]
    out = bytearray()
    i = 0
    while True:
        j = body.find("\\", i)
        chunk = body[i:] if j < 0 else body[i:j]
        try:
            out += chunk.encode("latin-1")
        except UnicodeEncodeError:
            raise CompileError("character out of range in string literal",
                               line) from None
        if j < 0:
            return bytes(out)
        out.append(_escape(body[j + 1], line))
        i = j + 2


def _diagnose_open(source: str, i: int, line: int) -> None:
    """Raise the error for a comment or literal starting at ``i`` that
    the master regex could not close.  Escapes are checked in source
    order, so an unknown escape is reported before a missing quote."""
    opener = source[i]
    if opener == "/":
        raise CompileError("unterminated block comment", line)
    if opener == "'":
        if source.startswith("\\", i + 1) and i + 2 < len(source):
            _escape(source[i + 2], line)
        raise CompileError("unterminated char literal", line)
    j = i + 1
    while j < len(source):
        if source[j] == "\\" and j + 1 < len(source):
            _escape(source[j + 1], line)
            j += 2
        elif source[j] == "\n":
            raise CompileError("newline in string literal", line)
        else:
            j += 1
    raise CompileError("unterminated string literal", line)

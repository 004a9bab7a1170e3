"""Tokenizer for the calculator dialect.

Scripts are plain text: statements end with semicolons, `#` starts a
comment running to end of line, and backslash words such as \\closure name
commands. Numbers come in three shapes (integer, a/b rational, decimal;
the slash of a rational may have spaces around it, but no tab or line
break) and stay unevaluated strings until the interpreter knows the active
domain. Names and numbers are ASCII: any other letter or digit, such as
`é` or `٣`, is an unexpected character. A few input conveniences are
normalised here: the words `inf` and `∞` and the command `\\infty` all
become one INFINITY token, the Unicode minus sign U+2212 becomes MINUS,
and `≤` / `≥` become the two-character relation operators.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .errors import LexError

__all__ = ["TokenKind", "Token", "tokenize"]


class TokenKind(Enum):
    IDENT = "IDENT"
    COMMAND = "COMMAND"
    INTEGER = "INTEGER"
    RATIONAL = "RATIONAL"
    DECIMAL = "DECIMAL"
    INFINITY = "INFINITY"
    PLUS = "PLUS"
    STAR = "STAR"
    MINUS = "MINUS"
    EQUALS = "EQUALS"
    SEMICOLON = "SEMICOLON"
    COMMA = "COMMA"
    LBRACKET = "LBRACKET"
    RBRACKET = "RBRACKET"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    RELOP = "RELOP"
    EOF = "EOF"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    value: object
    line: int
    col: int
    offset: int


_NUMBER = re.compile(r"\d+\.\d+|\d+ */ *\d+|\d+", re.ASCII)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_SINGLE = {
    "+": TokenKind.PLUS,
    "*": TokenKind.STAR,
    "-": TokenKind.MINUS,
    "−": TokenKind.MINUS,
    ";": TokenKind.SEMICOLON,
    ",": TokenKind.COMMA,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def emit(kind, lexeme, value, start):
        tokens.append(Token(kind, lexeme, value, line, start - line_start + 1, start))

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        if ch == "\\":
            m = _IDENT.match(text, i + 1)
            if not m:
                raise LexError("expected a command name after backslash", line, col)
            word = m.group(0)
            if word == "infty":
                emit(TokenKind.INFINITY, "\\infty", 1, i)
            else:
                emit(TokenKind.COMMAND, "\\" + word, word, i)
            i = m.end()
            continue
        if ch.isascii() and ch.isdigit():
            m = _NUMBER.match(text, i)
            lexeme = m.group(0)
            if "." in lexeme:
                kind = TokenKind.DECIMAL
            elif "/" in lexeme:
                kind = TokenKind.RATIONAL
                # The digits are tested as text: int() refuses very long ones.
                if not lexeme.split("/")[1].strip(" 0"):
                    raise LexError("rational literal with zero denominator", line, col)
            else:
                kind = TokenKind.INTEGER
            emit(kind, lexeme, lexeme, i)
            i = m.end()
            continue
        if ch.isascii() and ch.isalpha() or ch == "_":
            m = _IDENT.match(text, i)
            word = m.group(0)
            if word == "inf":
                emit(TokenKind.INFINITY, word, 1, i)
            else:
                emit(TokenKind.IDENT, word, word, i)
            i = m.end()
            continue
        if ch == "∞":
            emit(TokenKind.INFINITY, ch, 1, i)
            i += 1
            continue
        if ch in "<>":
            if i + 1 < n and text[i + 1] == "=":
                emit(TokenKind.RELOP, text[i : i + 2], text[i : i + 2], i)
                i += 2
            else:
                emit(TokenKind.RELOP, ch, ch, i)
                i += 1
            continue
        if ch == "≤":
            emit(TokenKind.RELOP, ch, "<=", i)
            i += 1
            continue
        if ch == "≥":
            emit(TokenKind.RELOP, ch, ">=", i)
            i += 1
            continue
        if ch == "=":
            emit(TokenKind.EQUALS, ch, ch, i)
            i += 1
            continue
        if ch in _SINGLE:
            emit(_SINGLE[ch], ch, ch, i)
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)

    tokens.append(Token(TokenKind.EOF, "", None, line, n - line_start + 1, n))
    return tokens

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


# The members as module names, in the class's order, read once: an Enum
# member read off its class costs about 165 ns. The parser imports them.
(
    _IDENT, _COMMAND, _INTEGER, _RATIONAL, _DECIMAL, _INFINITY, _PLUS, _STAR, _MINUS,
    _EQUALS, _SEMICOLON, _COMMA, _LBRACKET, _RBRACKET, _LPAREN, _RPAREN, _RELOP, _EOF,
) = TokenKind

_NUMBER = re.compile(r"\d+\.\d+|\d+ */ *\d+|\d+", re.ASCII)
_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# Tokens of one character whose value is that character.
_SINGLE = {
    "+": _PLUS,
    "*": _STAR,
    "-": _MINUS,
    "−": _MINUS,
    "=": _EQUALS,
    ";": _SEMICOLON,
    ",": _COMMA,
    "[": _LBRACKET,
    "]": _RBRACKET,
    "(": _LPAREN,
    ")": _RPAREN,
}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    while i < n:
        ch = text[i]
        kind = _SINGLE.get(ch)
        if kind is not None:
            append(Token(kind, ch, ch, line, i - line_start + 1, i))
            i += 1
            continue
        if ch == " ":
            i += 1
            continue
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in "\t\r":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        if ch == "\\":
            m = _WORD.match(text, i + 1)
            if not m:
                raise LexError("expected a command name after backslash", line, col)
            word = m.group(0)
            if word == "infty":
                append(Token(_INFINITY, "\\infty", 1, line, col, i))
            else:
                append(Token(_COMMAND, "\\" + word, word, line, col, i))
            i = m.end()
            continue
        if ch.isascii() and ch.isdigit():
            m = _NUMBER.match(text, i)
            lexeme = m.group(0)
            if "." in lexeme:
                kind = _DECIMAL
            elif "/" in lexeme:
                kind = _RATIONAL
                # The digits are tested as text: int() refuses very long ones.
                if not lexeme.split("/")[1].strip(" 0"):
                    raise LexError("rational literal with zero denominator", line, col)
            else:
                kind = _INTEGER
            append(Token(kind, lexeme, lexeme, line, col, i))
            i = m.end()
            continue
        if ch.isascii() and ch.isalpha() or ch == "_":
            m = _WORD.match(text, i)
            word = m.group(0)
            if word == "inf":
                append(Token(_INFINITY, word, 1, line, col, i))
            else:
                append(Token(_IDENT, word, word, line, col, i))
            i = m.end()
            continue
        if ch in "<>":
            if i + 1 < n and text[i + 1] == "=":
                append(Token(_RELOP, text[i : i + 2], text[i : i + 2], line, col, i))
                i += 2
            else:
                append(Token(_RELOP, ch, ch, line, col, i))
                i += 1
            continue
        if ch == "∞":
            append(Token(_INFINITY, ch, 1, line, col, i))
        elif ch == "≤":
            append(Token(_RELOP, ch, "<=", line, col, i))
        elif ch == "≥":
            append(Token(_RELOP, ch, ">=", line, col, i))
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
        i += 1

    append(Token(_EOF, "", None, line, n - line_start + 1, n))
    return tokens

"""Script dialect: lexer, parser, evaluator and command-line front end."""

from .errors import (
    ArityError,
    EvalError,
    LexError,
    MathparError,
    ParseError,
    UnknownCommand,
    UnknownSpace,
)
from .interp import RenderOptions, Session, evaluate, render
from .lexer import Token, TokenKind, tokenize
from .parser import parse

__all__ = [
    "MathparError",
    "LexError",
    "ParseError",
    "EvalError",
    "UnknownSpace",
    "UnknownCommand",
    "ArityError",
    "Token",
    "TokenKind",
    "tokenize",
    "parse",
    "Session",
    "RenderOptions",
    "evaluate",
    "render",
]

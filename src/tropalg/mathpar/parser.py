"""Recursive-descent parser producing a small statement and expression AST.

Number literals keep their source spelling; the interpreter converts them
once it knows which domain is active, so `7/2` can become an exact
rational in Q and an error in Z. Unary minus applied directly to a number
or infinity literal folds into the literal, which keeps `-3` a single
node everywhere. Source positions ride along on every node for error
messages but never take part in equality, so ASTs compare structurally.
Every node class derives from `Node`, whose `__eq__` is the only one; it
walks both trees with an explicit stack, so trees of any depth compare.
Chains of `+`, `-` and `*` and runs of prefix minus signs are folded in
loops, so only parentheses and brackets cost stack depth, and those may
nest at most MAX_NESTING deep.
"""

from __future__ import annotations

from typing import Union

from .errors import ParseError
from .lexer import (
    _COMMA, _COMMAND, _DECIMAL, _EOF, _EQUALS, _IDENT, _INFINITY, _INTEGER, _LBRACKET, _LPAREN,
    _MINUS, _PLUS, _RATIONAL, _RBRACKET, _RELOP, _RPAREN, _SEMICOLON, _STAR, Token, TokenKind,
    tokenize,
)

__all__ = [
    "Node",
    "SpaceDecl",
    "Assign",
    "ExprStmt",
    "ScalarLit",
    "InfinityLit",
    "MatrixLit",
    "ListLit",
    "EmptyLit",
    "Var",
    "BinOp",
    "UnaryNeg",
    "Call",
    "Ineq",
    "parse",
]


# Parentheses and brackets (a command's argument list included) may nest
# this deep. Parsing and evaluation each take at most four stack frames per
# level, so the bound keeps any script well inside the interpreter's
# default recursion limit of 1000; CPython's own parser stops at 200 too.
MAX_NESTING = 200


class Node:
    """Base of every AST node.

    A subclass lists its fields in `__slots__`, and the constructor takes
    them positionally in that order; the source position is keyword-only.
    """

    __slots__ = ("line", "col")

    def __init__(self, *fields, line=0, col=0):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)
        self.line = line
        self.col = col

    def __eq__(self, other):
        """Same node types and field values all the way down, positions aside."""
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if type(a) is not type(b):
                return False
            if isinstance(a, Node):
                stack.extend((getattr(a, f), getattr(b, f)) for f in a.__slots__)
            elif isinstance(a, tuple):
                if len(a) != len(b):
                    return False
                stack.extend(zip(a, b))
            elif a != b:
                return False
        return True

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, f)) for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ScalarLit(Node):
    __slots__ = ("value", "kind")  # kind: "int" | "rat" | "dec"


class InfinityLit(Node):
    __slots__ = ("sign",)


class Var(Node):
    __slots__ = ("name",)


class EmptyLit(Node):
    __slots__ = ()


class MatrixLit(Node):
    __slots__ = ("rows",)


class ListLit(Node):
    __slots__ = ("items",)


class BinOp(Node):
    __slots__ = ("op", "left", "right")  # op: "+" | "-" | "*"


class UnaryNeg(Node):
    __slots__ = ("operand",)


class Call(Node):
    __slots__ = ("command", "args")


class Ineq(Node):
    __slots__ = ("left", "op", "right")  # op: "<" | "<=" | ">" | ">="


Expr = Union[
    ScalarLit, InfinityLit, Var, EmptyLit, MatrixLit, ListLit, BinOp, UnaryNeg, Call, Ineq
]


class SpaceDecl(Node):
    __slots__ = ("name", "vars")


class Assign(Node):
    __slots__ = ("name", "expr")


class ExprStmt(Node):
    __slots__ = ("expr",)


Stmt = Union[SpaceDecl, Assign, ExprStmt]


# The kind field of a ScalarLit, by the value of its token's kind, since
# hashing a member runs Enum.__hash__ in Python.
_LITERAL_KINDS = {"INTEGER": "int", "RATIONAL": "rat", "DECIMAL": "dec"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not _EOF:
            self.i += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {what}, found {tok.lexeme or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def open_group(self, kind: TokenKind, what: str) -> Token:
        """Consume an opening parenthesis or bracket, one level deeper."""
        tok = self.expect(kind, what)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col
            )
        return tok

    def close_group(self, kind: TokenKind, what: str) -> None:
        self.expect(kind, what)
        self.depth -= 1

    def parse_script(self) -> list[Stmt]:
        stmts: list[Stmt] = []
        while self.peek().kind is not _EOF:
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self) -> Stmt:
        tok = self.peek()
        if tok.kind is _IDENT and self.tokens[self.i + 1].kind is _EQUALS:
            if tok.value == "SPACE":
                return self.parse_space_decl()
            self.next()
            self.next()
            expr = self.parse_expr()
            self.expect(_SEMICOLON, "';'")
            return Assign(tok.value, expr, line=tok.line, col=tok.col)
        expr = self.parse_expr()
        self.expect(_SEMICOLON, "';'")
        return ExprStmt(expr, line=tok.line, col=tok.col)

    def parse_space_decl(self) -> SpaceDecl:
        tok = self.next()  # SPACE
        self.next()  # =
        name = self.expect(_IDENT, "a space name")
        self.expect(_LBRACKET, "'['")
        vars_: list[str] = []
        if self.peek().kind is _IDENT:
            vars_.append(self.next().value)
            while self.peek().kind is _COMMA:
                self.next()
                vars_.append(self.expect(_IDENT, "a variable name").value)
        self.expect(_RBRACKET, "']'")
        self.expect(_SEMICOLON, "';'")
        return SpaceDecl(name.value, tuple(vars_), line=tok.line, col=tok.col)

    def parse_expr(self) -> Expr:
        left = self.parse_sum()
        tok = self.peek()
        if tok.kind is _RELOP:
            self.next()
            right = self.parse_sum()
            return Ineq(left, tok.value, right, line=tok.line, col=tok.col)
        return left

    def parse_sum(self) -> Expr:
        """A sum of products, both folded to the left in one loop.

        `*` binds tighter than `+` and `-`: the product being built is
        `node`, and the sum to its left waits in `total` until that product
        ends. One function for both precedence levels keeps a level of
        nesting to three stack frames (see MAX_NESTING).
        """
        total = op = None
        node = self.parse_operand()
        while True:
            tok = self.peek()
            kind = tok.kind
            if kind is _STAR:
                self.next()
                node = BinOp("*", node, self.parse_operand(), line=tok.line, col=tok.col)
                continue
            if total is not None:
                sign = "+" if op.kind is _PLUS else "-"
                node = BinOp(sign, total, node, line=op.line, col=op.col)
            if kind is not _PLUS and kind is not _MINUS:
                return node
            self.next()
            total, op = node, tok
            node = self.parse_operand()

    def parse_operand(self) -> Expr:
        """An atom after any number of prefix minus signs.

        The signs are collected in a loop and applied innermost first. A
        sign applied directly to a number or infinity literal folds into
        the literal.
        """
        signs = []
        while self.peek().kind is _MINUS:
            signs.append(self.next())
        tok = self.peek()
        kind = tok.kind
        if kind is _INTEGER or kind is _RATIONAL or kind is _DECIMAL:
            self.next()
            node = ScalarLit(
                tok.value.replace(" ", ""), _LITERAL_KINDS[kind._value_], line=tok.line, col=tok.col
            )
        elif kind is _INFINITY:
            self.next()
            node = InfinityLit(1, line=tok.line, col=tok.col)
        elif kind is _IDENT:
            self.next()
            node = Var(tok.value, line=tok.line, col=tok.col)
        elif kind is _COMMAND:
            node = self.parse_call()
        elif kind is _LPAREN:
            self.open_group(_LPAREN, "'('")
            if self.peek().kind is _RPAREN:
                node = EmptyLit(line=tok.line, col=tok.col)
            else:
                node = self.parse_expr()
            self.close_group(_RPAREN, "')'")
        elif kind is _LBRACKET:
            node = self.parse_bracket()
        else:
            raise ParseError(
                f"expected an expression, found {tok.lexeme or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        for sign in reversed(signs):
            if isinstance(node, ScalarLit) and not node.value.startswith("-"):
                node = ScalarLit("-" + node.value, node.kind, line=sign.line, col=sign.col)
            elif isinstance(node, InfinityLit):
                node = InfinityLit(-node.sign, line=sign.line, col=sign.col)
            else:
                node = UnaryNeg(node, line=sign.line, col=sign.col)
        return node

    def parse_bracket(self) -> Expr:
        tok = self.open_group(_LBRACKET, "'['")
        if self.peek().kind is _RBRACKET:
            self.close_group(_RBRACKET, "']'")
            return EmptyLit(line=tok.line, col=tok.col)
        if self.peek().kind is _LBRACKET:
            rows = [self.parse_row()]
            while self.peek().kind is _COMMA:
                self.next()
                rows.append(self.parse_row())
            self.close_group(_RBRACKET, "']'")
            w = len(rows[0])
            for row in rows:
                if len(row) != w:
                    raise ParseError(
                        f"matrix rows have {w} and {len(row)} entries",
                        tok.line,
                        tok.col,
                    )
            return MatrixLit(tuple(rows), line=tok.line, col=tok.col)
        items = [self.parse_expr()]
        while self.peek().kind is _COMMA:
            self.next()
            items.append(self.parse_expr())
        self.close_group(_RBRACKET, "']'")
        return ListLit(tuple(items), line=tok.line, col=tok.col)

    def parse_row(self) -> tuple:
        self.open_group(_LBRACKET, "'['")
        items = [self.parse_expr()]
        while self.peek().kind is _COMMA:
            self.next()
            items.append(self.parse_expr())
        self.close_group(_RBRACKET, "']'")
        return tuple(items)

    def parse_call(self) -> Call:
        tok = self.next()  # COMMAND
        self.open_group(_LPAREN, "'(' after command")
        args: list[Expr] = []
        if self.peek().kind is not _RPAREN:
            args.append(self.parse_expr())
            while self.peek().kind is _COMMA:
                self.next()
                args.append(self.parse_expr())
        self.close_group(_RPAREN, "')'")
        return Call(tok.value, tuple(args), line=tok.line, col=tok.col)


def parse(text: str) -> list[Stmt]:
    return _Parser(tokenize(text)).parse_script()

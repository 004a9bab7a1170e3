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

A ROW token, a bracket of number and infinity literals alone, each after
at most one minus sign, becomes one NumberRow: a list literal's items, or
one row of a matrix literal, whose width is its count of entries and whose
bracket is one level of nesting. It keeps the entries as the lexer spelled
them alike, which equality compares, and its text, which like a position
it ignores; NumberRow.nodes builds from that text the ScalarLit and
InfinityLit nodes of the general route, at their positions, when an entry
needs one. Where the parser wants some other token, a ROW token is split
back into the tokens of its characters, so every ParseError is unchanged.
"""

from __future__ import annotations

from typing import Union

from .errors import ParseError
from .lexer import (
    _COMMA, _COMMAND, _DECIMAL, _EOF, _EQUALS, _IDENT, _INFINITY, _INTEGER, _LBRACKET, _LPAREN,
    _MINUS, _PLUS, _RATIONAL, _RBRACKET, _RELOP, _ROW, _RPAREN, _SEMICOLON, _STAR, Token,
    TokenKind, _row_tokens, tokenize,
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
    "NumberRow",
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

    A subclass lists its fields in `__slots__`, and its own constructor
    takes them positionally in that order, with the source position
    keyword-only. Each constructor is written out by hand, for the reason
    `tropalg._record` gives, and assigns its fields directly, so it checks
    its field count as any function does: a missing or an extra field
    raises TypeError. The fields a subclass names in `_layout` record, like
    the position, how its source was written.
    """

    __slots__ = ("line", "col")
    _layout = ()

    def __eq__(self, other):
        """Same node types and field values all the way down, layout aside."""
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if type(a) is not type(b):
                return False
            if isinstance(a, Node):
                stack.extend((getattr(a, f), getattr(b, f))
                             for f in a.__slots__ if f not in a._layout)
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

    def __init__(self, value, kind, *, line=0, col=0):
        self.value = value
        self.kind = kind
        self.line = line
        self.col = col


class InfinityLit(Node):
    __slots__ = ("sign",)

    def __init__(self, sign, *, line=0, col=0):
        self.sign = sign
        self.line = line
        self.col = col


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name, *, line=0, col=0):
        self.name = name
        self.line = line
        self.col = col


class EmptyLit(Node):
    __slots__ = ()

    def __init__(self, *, line=0, col=0):
        self.line = line
        self.col = col


class MatrixLit(Node):
    __slots__ = ("rows",)

    def __init__(self, rows, *, line=0, col=0):
        self.rows = rows
        self.line = line
        self.col = col


class ListLit(Node):
    __slots__ = ("items",)  # items: a tuple of expressions or a NumberRow

    def __init__(self, items, *, line=0, col=0):
        self.items = items
        self.line = line
        self.col = col


class NumberRow(Node):
    """The entries of a ROW token, as its value spells them, and its text.

    A MatrixLit's rows are tuples of expressions or NumberRows.
    """

    __slots__ = ("entries", "text")
    _layout = ("text",)

    def __init__(self, entries, text, *, line=0, col=0):
        self.entries = entries
        self.text = text
        self.line = line
        self.col = col

    def nodes(self) -> tuple:
        """The entries as the general route reads them from the text: a
        ScalarLit or InfinityLit each, at its position."""
        parser = _Parser(_row_tokens(self.text, self.line, self.col, 0))
        parser.next()  # '['
        return parser.parse_items()


class BinOp(Node):
    __slots__ = ("op", "left", "right")  # op: "+" | "-" | "*"

    def __init__(self, op, left, right, *, line=0, col=0):
        self.op = op
        self.left = left
        self.right = right
        self.line = line
        self.col = col


class UnaryNeg(Node):
    __slots__ = ("operand",)

    def __init__(self, operand, *, line=0, col=0):
        self.operand = operand
        self.line = line
        self.col = col


class Call(Node):
    __slots__ = ("command", "args")

    def __init__(self, command, args, *, line=0, col=0):
        self.command = command
        self.args = args
        self.line = line
        self.col = col


class Ineq(Node):
    __slots__ = ("left", "op", "right")  # op: "<" | "<=" | ">" | ">="

    def __init__(self, left, op, right, *, line=0, col=0):
        self.left = left
        self.op = op
        self.right = right
        self.line = line
        self.col = col


Expr = Union[
    ScalarLit, InfinityLit, Var, EmptyLit, MatrixLit, ListLit, BinOp, UnaryNeg, Call, Ineq
]
Row = Union[tuple, NumberRow]


class SpaceDecl(Node):
    __slots__ = ("name", "vars")

    def __init__(self, name, vars, *, line=0, col=0):
        self.name = name
        self.vars = vars
        self.line = line
        self.col = col


class Assign(Node):
    __slots__ = ("name", "expr")

    def __init__(self, name, expr, *, line=0, col=0):
        self.name = name
        self.expr = expr
        self.line = line
        self.col = col


class ExprStmt(Node):
    __slots__ = ("expr",)

    def __init__(self, expr, *, line=0, col=0):
        self.expr = expr
        self.line = line
        self.col = col


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
            if tok.kind is _ROW:
                # Its '[' is the token found: split the row back into the
                # tokens of its characters and look again.
                row = _row_tokens(tok.lexeme, tok.line, tok.col, tok.offset)
                self.tokens[self.i : self.i + 1] = row[:-1]
                return self.expect(kind, what)
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

        The signs are collected in a loop and applied innermost first, each
        by _negate.
        """
        signs = []
        while self.peek().kind is _MINUS:
            signs.append(self.next())
        tok = self.peek()
        kind = tok.kind
        node = _literal(tok)
        if node is not None:
            self.next()
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
        elif kind is _ROW:
            node = ListLit(self.parse_number_row(), line=tok.line, col=tok.col)
        elif kind is _LBRACKET:
            node = self.parse_bracket()
        else:
            raise ParseError(
                f"expected an expression, found {tok.lexeme or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        for sign in reversed(signs):
            node = _negate(node, sign)
        return node

    def parse_bracket(self) -> Expr:
        tok = self.open_group(_LBRACKET, "'['")
        kind = self.peek().kind
        if kind is _RBRACKET:
            self.close_group(_RBRACKET, "']'")
            return EmptyLit(line=tok.line, col=tok.col)
        if kind is _LBRACKET or kind is _ROW:
            rows = [self.parse_row()]
            while self.peek().kind is _COMMA:
                self.next()
                rows.append(self.parse_row())
            self.close_group(_RBRACKET, "']'")
            w = _width(rows[0])
            for row in rows:
                if _width(row) != w:
                    raise ParseError(
                        f"matrix rows have {w} and {_width(row)} entries",
                        tok.line,
                        tok.col,
                    )
            return MatrixLit(tuple(rows), line=tok.line, col=tok.col)
        return ListLit(self.parse_items(), line=tok.line, col=tok.col)

    def parse_row(self) -> Row:
        if self.peek().kind is _ROW:
            return self.parse_number_row()
        self.open_group(_LBRACKET, "'['")
        return self.parse_items()

    def parse_items(self) -> tuple:
        """The comma-separated items of a bracket just opened, and its ']'."""
        items = [self.parse_expr()]
        while self.peek().kind is _COMMA:
            self.next()
            items.append(self.parse_expr())
        self.close_group(_RBRACKET, "']'")
        return tuple(items)

    def parse_number_row(self) -> NumberRow:
        """The NumberRow of a ROW token, whose bracket is one level deeper."""
        tok = self.next()
        if self.depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)
        return NumberRow(tok.value, tok.lexeme, line=tok.line, col=tok.col)

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


def _width(row: Row) -> int:
    return len(row.entries) if type(row) is NumberRow else len(row)


def _literal(tok: Token) -> ScalarLit | InfinityLit | None:
    """The node of a number or infinity literal token, None for any other."""
    kind = tok.kind
    if kind is _INTEGER or kind is _RATIONAL or kind is _DECIMAL:
        return ScalarLit(
            tok.value.replace(" ", ""), _LITERAL_KINDS[kind._value_], line=tok.line, col=tok.col
        )
    if kind is _INFINITY:
        return InfinityLit(1, line=tok.line, col=tok.col)
    return None


def _negate(node: Expr, sign: Token) -> Expr:
    """The minus sign applied to node, positioned at the sign.

    It folds into a number literal not yet negative and into an infinity
    literal; node, just built and held by no other node, is changed in
    place. Any other node becomes the operand of a UnaryNeg.
    """
    if type(node) is ScalarLit and node.value[0] != "-":
        node.value = "-" + node.value
    elif type(node) is InfinityLit:
        node.sign = -node.sign
    else:
        return UnaryNeg(node, line=sign.line, col=sign.col)
    node.line, node.col = sign.line, sign.col
    return node


def parse(text: str) -> list[Stmt]:
    return _Parser(tokenize(text)).parse_script()

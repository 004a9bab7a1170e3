import bisect
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropalg import ALGEBRAS_BY_NAME, ExtScalar, TropalgError, TropMatrix, count_ops
from tropalg.lp import Interval
from tropalg.mathpar import (
    ArityError,
    EvalError,
    LexError,
    MathparError,
    ParseError,
    RenderOptions,
    Session,
    TokenKind,
    UnknownCommand,
    UnknownSpace,
    evaluate,
    parse,
    render,
    tokenize,
)
from tropalg.mathpar.interp import _Evaluator, _rational_rows
from tropalg.mathpar.lexer import Token
from tropalg.mathpar.parser import (
    MAX_NESTING,
    Assign,
    BinOp,
    Call,
    EmptyLit,
    ExprStmt,
    InfinityLit,
    ListLit,
    MatrixLit,
    Node,
    NumberRow,
    ScalarLit,
    SpaceDecl,
    UnaryNeg,
    Var,
)

from oracles import (
    ref_entries,
    ref_literal,
    ref_negate,
    ref_rational_rows,
    ref_render_matrix,
    ref_scale,
    unparse,
)

GOLDEN = Path(__file__).parent / "golden"
# The recorded block bank that the script-mix benchmark draws its scripts from.
BANK = Path(__file__).resolve().parents[1] / "bench" / "data" / "script_blocks.json"


def run(code, options=None):
    session = Session()
    return evaluate(parse(code), session, options), session


def output(code, options=None):
    return run(code, options)[0]


# ---- lexer ----


def test_token_kinds_of_a_space_declaration():
    kinds = [t.kind for t in tokenize("SPACE = ZMaxPlus[];")]
    assert kinds == [
        TokenKind.IDENT,
        TokenKind.EQUALS,
        TokenKind.IDENT,
        TokenKind.LBRACKET,
        TokenKind.RBRACKET,
        TokenKind.SEMICOLON,
        TokenKind.EOF,
    ]


def test_command_and_infinity_tokens():
    toks = tokenize("\\closure(A); [[0, 1, \\infty]]; [x, \\infty]")
    assert toks[0].kind is TokenKind.COMMAND and toks[0].value == "closure"
    # A bracket of literals alone is one ROW token, its infinity spelled inf;
    # in any other bracket \\infty is an INFINITY token.
    assert [t.value for t in toks if t.kind is TokenKind.ROW] == [("0", "1", "inf")]
    assert [t.lexeme for t in toks if t.kind is TokenKind.INFINITY] == ["\\infty"]


def test_infinity_aliases_and_unicode_operators():
    for text in ("\\infty", "inf", "∞"):
        assert tokenize(text)[0].kind is TokenKind.INFINITY
    assert tokenize("−2")[0].kind is TokenKind.MINUS
    assert tokenize("x ≤ 1")[1].value == "<="
    assert tokenize("x ≥ 1")[1].value == ">="


def test_number_shapes():
    kinds = [t.kind for t in tokenize("7 7/2 7.25")][:3]
    assert kinds == [TokenKind.INTEGER, TokenKind.RATIONAL, TokenKind.DECIMAL]


def test_zero_denominator_is_a_lex_error():
    with pytest.raises(LexError):
        tokenize("1/0")


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("SPACE = Q[]; x = 1\n/2;\nx; y = é;", 2, 1),
        ("SPACE = Q[]; x = 1\t/ 2;", 1, 20),
    ],
)
def test_rational_literals_stay_on_one_line(text, line, col):
    # Spaces may surround the slash; a tab or line break ends the number
    # before it, and a lone slash is no token.
    assert tokenize("x = 1 /  2;")[2].lexeme == "1 /  2"
    with pytest.raises(LexError) as e:
        tokenize(text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, "unexpected character '/'")


def test_illegal_character_reports_its_position():
    with pytest.raises(LexError) as e:
        tokenize("2 + $")
    assert e.value.line == 1 and e.value.col == 5


@pytest.mark.parametrize(
    "text, col, ch",
    [
        ("x = é;", 5, "é"),
        ("x = ٣;", 5, "٣"),
        ("x = 1٣;", 6, "٣"),
        ("x = ²;", 5, "²"),
        ("x٣ = 1;", 2, "٣"),
        ("\\clösure(A);", 4, "ö"),
    ],
)
def test_names_and_numbers_are_ascii(text, col, ch):
    # Unicode letters and digits are not read as names or numbers.
    with pytest.raises(LexError) as e:
        tokenize(text)
    assert (e.value.line, e.value.col, e.value.message) == (1, col, f"unexpected character {ch!r}")


def test_comments_vanish():
    toks = tokenize("# heading\n2; # trailing\n")
    assert [t.kind for t in toks] == [
        TokenKind.INTEGER,
        TokenKind.SEMICOLON,
        TokenKind.EOF,
    ]


def test_lexemes_reconstruct_the_source_via_offsets():
    for script in sorted(GOLDEN.glob("*.mp")):
        text = script.read_text()
        rebuilt = list(text)
        for tok in tokenize(text):
            rebuilt[tok.offset : tok.offset + len(tok.lexeme)] = tok.lexeme
        assert "".join(rebuilt) == text


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "x<",
            [("IDENT", "x", "x", 1, 1, 0), ("RELOP", "<", "<", 1, 2, 1), ("EOF", "", None, 1, 3, 2)],
        ),
        (
            "x>",
            [("IDENT", "x", "x", 1, 1, 0), ("RELOP", ">", ">", 1, 2, 1), ("EOF", "", None, 1, 3, 2)],
        ),
        (
            "x <= 1; y >= 2;",
            [
                ("IDENT", "x", "x", 1, 1, 0),
                ("RELOP", "<=", "<=", 1, 3, 2),
                ("INTEGER", "1", "1", 1, 6, 5),
                ("SEMICOLON", ";", ";", 1, 7, 6),
                ("IDENT", "y", "y", 1, 9, 8),
                ("RELOP", ">=", ">=", 1, 11, 10),
                ("INTEGER", "2", "2", 1, 14, 13),
                ("SEMICOLON", ";", ";", 1, 15, 14),
                ("EOF", "", None, 1, 16, 15),
            ],
        ),
        (
            "x ≤ 1 ≥ 2",
            [
                ("IDENT", "x", "x", 1, 1, 0),
                ("RELOP", "≤", "<=", 1, 3, 2),
                ("INTEGER", "1", "1", 1, 5, 4),
                ("RELOP", "≥", ">=", 1, 7, 6),
                ("INTEGER", "2", "2", 1, 9, 8),
                ("EOF", "", None, 1, 10, 9),
            ],
        ),
        (
            "−3 - ∞ + inf * \\infty",
            [
                ("MINUS", "−", "−", 1, 1, 0),
                ("INTEGER", "3", "3", 1, 2, 1),
                ("MINUS", "-", "-", 1, 4, 3),
                ("INFINITY", "∞", 1, 1, 6, 5),
                ("PLUS", "+", "+", 1, 8, 7),
                ("INFINITY", "inf", 1, 1, 10, 9),
                ("STAR", "*", "*", 1, 14, 13),
                ("INFINITY", "\\infty", 1, 1, 16, 15),
                ("EOF", "", None, 1, 22, 21),
            ],
        ),
        (
            "a = 1;\r\n\tb = 2/ 3;\r\n",
            [
                ("IDENT", "a", "a", 1, 1, 0),
                ("EQUALS", "=", "=", 1, 3, 2),
                ("INTEGER", "1", "1", 1, 5, 4),
                ("SEMICOLON", ";", ";", 1, 6, 5),
                ("IDENT", "b", "b", 2, 2, 9),
                ("EQUALS", "=", "=", 2, 4, 11),
                ("RATIONAL", "2/ 3", "2/ 3", 2, 6, 13),
                ("SEMICOLON", ";", ";", 2, 10, 17),
                ("EOF", "", None, 3, 1, 20),
            ],
        ),
        (
            "\\closure([[1.5, -x_1]]); # tail",
            [
                ("COMMAND", "\\closure", "closure", 1, 1, 0),
                ("LPAREN", "(", "(", 1, 9, 8),
                ("LBRACKET", "[", "[", 1, 10, 9),
                ("LBRACKET", "[", "[", 1, 11, 10),
                ("DECIMAL", "1.5", "1.5", 1, 12, 11),
                ("COMMA", ",", ",", 1, 15, 14),
                ("MINUS", "-", "-", 1, 17, 16),
                ("IDENT", "x_1", "x_1", 1, 18, 17),
                ("RBRACKET", "]", "]", 1, 21, 20),
                ("RBRACKET", "]", "]", 1, 22, 21),
                ("RPAREN", ")", ")", 1, 23, 22),
                ("SEMICOLON", ";", ";", 1, 24, 23),
                ("EOF", "", None, 1, 32, 31),
            ],
        ),
        ("", [("EOF", "", None, 1, 1, 0)]),
        (
            "(1)\n\n  ",
            [
                ("LPAREN", "(", "(", 1, 1, 0),
                ("INTEGER", "1", "1", 1, 2, 1),
                ("RPAREN", ")", ")", 1, 3, 2),
                ("EOF", "", None, 3, 3, 7),
            ],
        ),
        (
            "[1, \u2212 3 / 4,\t\\infty] [inf,x]",
            [
                ("ROW", "[1, \u2212 3 / 4,\t\\infty]", ("1", "-3/4", "inf"), 1, 1, 0),
                ("LBRACKET", "[", "[", 1, 22, 21),
                ("INFINITY", "inf", 1, 1, 23, 22),
                ("COMMA", ",", ",", 1, 26, 25),
                ("IDENT", "x", "x", 1, 27, 26),
                ("RBRACKET", "]", "]", 1, 28, 27),
                ("EOF", "", None, 1, 29, 28),
            ],
        ),
        (
            "[[0, -1],[2.5, \u221e]]",
            [
                ("LBRACKET", "[", "[", 1, 1, 0),
                ("ROW", "[0, -1]", ("0", "-1"), 1, 2, 1),
                ("COMMA", ",", ",", 1, 9, 8),
                ("ROW", "[2.5, \u221e]", ("2.5", "inf"), 1, 10, 9),
                ("RBRACKET", "]", "]", 1, 18, 17),
                ("EOF", "", None, 1, 19, 18),
            ],
        ),
        (
            # A line break or a comment in a bracket: character by character.
            "[1,\n2] [3 # c\n] [-1/2]",
            [
                ("LBRACKET", "[", "[", 1, 1, 0),
                ("INTEGER", "1", "1", 1, 2, 1),
                ("COMMA", ",", ",", 1, 3, 2),
                ("INTEGER", "2", "2", 2, 1, 4),
                ("RBRACKET", "]", "]", 2, 2, 5),
                ("LBRACKET", "[", "[", 2, 4, 7),
                ("INTEGER", "3", "3", 2, 5, 8),
                ("RBRACKET", "]", "]", 3, 1, 14),
                ("ROW", "[-1/2]", ("-1/2",), 3, 3, 16),
                ("EOF", "", None, 3, 9, 22),
            ],
        ),
    ],
    ids=["lt-at-end", "gt-at-end", "two-char-relops", "unicode-relops", "infinities",
         "crlf-and-tab", "comment-at-end", "empty", "trailing-lines", "a-row", "matrix-rows",
         "rows-read-by-character"],
)
def test_exact_tokens(text, expected):
    # Every field of every token: kind, lexeme, value, line, col, offset.
    assert [(t.kind.name, *t[1:]) for t in tokenize(text)] == expected


# The lexer's alphabet, with letters and digits it refuses, and pieces
# that take more than one character to recognise.
LEX_PIECES = list("aZ_09 \t\r\n;,[]()+-*=<>/.#\\$−∞≤≥é٣²Ω") + [
    "x1", "inf", "\\infty", "\\solve", "1 / 2", "3/0", "2.5", "<=", ">=", "# c\n",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=40).map("".join))
def test_token_and_error_positions_agree_with_the_text(text):
    def position(offset):
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    try:
        tokens = tokenize(text)
    except LexError as e:
        lines = text.split("\n")
        assert 1 <= e.line <= len(lines) and 1 <= e.col <= len(lines[e.line - 1])
        offset = sum(len(line) + 1 for line in lines[: e.line - 1]) + e.col - 1
        assert position(offset) == (e.line, e.col)
        # The error is about what starts at its position.
        with pytest.raises(LexError) as again:
            tokenize(text[offset:])
        assert (again.value.line, again.value.col, again.value.message) == (1, 1, e.message)
        return
    for tok in tokens:
        assert text[tok.offset : tok.offset + len(tok.lexeme)] == tok.lexeme
        assert (tok.line, tok.col) == position(tok.offset)
    assert tokens[-1].offset == len(text)


# ---- parser ----


def test_statement_shapes_of_an_equation_script():
    stmts = parse(
        "SPACE = ZMaxPlus[]; A = [[1, 2], [3, 0]]; b = [5, 7]; \\solveLAETropic(A, b);"
    )
    assert [type(s) for s in stmts] == [SpaceDecl, Assign, Assign, ExprStmt]
    assert isinstance(stmts[1].expr, MatrixLit)
    assert isinstance(stmts[2].expr, ListLit)
    assert isinstance(stmts[3].expr, Call)


def test_sum_of_product_precedence():
    (stmt,) = parse("2 * 3 + 1;")
    assert stmt.expr == BinOp("+", BinOp("*", ScalarLit("2", "int"), ScalarLit("3", "int")), ScalarLit("1", "int"))


def test_unary_minus_binds_tightest_and_folds_into_literals():
    (stmt,) = parse("-2 * 3;")
    assert stmt.expr == BinOp("*", ScalarLit("-2", "int"), ScalarLit("3", "int"))
    (stmt,) = parse("-\\infty;")
    assert stmt.expr == InfinityLit(-1)
    (stmt,) = parse("-x;")
    assert stmt.expr == UnaryNeg(Var("x"))


def test_empty_literals():
    assert parse("();")[0].expr == EmptyLit()
    assert parse("[];")[0].expr == EmptyLit()
    assert output("[];") == ["[]"]


def test_ragged_matrix_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("[[1, 2], [3]];")


def test_missing_semicolon_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("2 + 3")


def test_inequalities_parse_inside_solve():
    (stmt,) = parse("\\solve([x - 6 > 0, x - 7 < 0]);")
    items = stmt.expr.args[0].items
    assert [i.op for i in items] == [">", "<"]


def test_golden_scripts_round_trip_through_unparse():
    for script in sorted(GOLDEN.glob("*.mp")):
        stmts = parse(script.read_text())
        again = parse("\n".join(unparse(s) for s in stmts))
        assert again == stmts


def _parsed_items(items):
    """items as the parser reads them back: a NumberRow when each is a
    number or infinity literal, spelled as a ROW token spells it."""
    if all(type(e) in (ScalarLit, InfinityLit) for e in items):
        spell = {1: "inf", -1: "-inf"}
        return NumberRow(tuple(e.value if type(e) is ScalarLit else spell[e.sign] for e in items),
                         "")
    return items


def _rand_scalar_lit(rng):
    shape = rng.randrange(3)
    sign = "-" if rng.random() < 0.3 else ""
    if shape == 0:
        return ScalarLit(sign + str(rng.randint(0, 99)), "int")
    if shape == 1:
        return ScalarLit(f"{sign}{rng.randint(0, 9)}/{rng.randint(1, 9)}", "rat")
    return ScalarLit(f"{sign}{rng.randint(0, 9)}.{rng.randint(0, 99):02d}", "dec")


def _rand_expr(rng, depth, bracket_ok=True):
    """Build a random expression tree whose unparsed form reparses to it.

    ``bracket_ok`` guards the leftmost token: a list whose first item
    starts with ``[`` would reparse as a matrix, so bracket-led shapes
    are kept out of that position all the way down the left spine.
    """
    if depth <= 0:
        pick = rng.randrange(4)
        if pick == 0:
            return _rand_scalar_lit(rng)
        if pick == 1:
            return Var(rng.choice("abcxyz"))
        if pick == 2:
            return InfinityLit(rng.choice((-1, 1)))
        return ScalarLit(str(rng.randint(0, 9)), "int")
    pick = rng.randrange(6 if bracket_ok else 4)
    if pick == 0:
        return BinOp(
            rng.choice("+-*"),
            _rand_expr(rng, depth - 1, bracket_ok),
            _rand_expr(rng, depth - 1),
        )
    if pick == 1:
        operand = _rand_expr(rng, depth - 1)
        while isinstance(operand, (ScalarLit, InfinityLit)):
            operand = Var(rng.choice("abcxyz"))
        return UnaryNeg(operand)
    if pick == 2:
        return Call(
            rng.choice(("closure", "solve", "BellmanEquation")),
            tuple(_rand_expr(rng, depth - 1) for _ in range(rng.randint(1, 3))),
        )
    if pick == 3:
        return _rand_expr(rng, 0)
    if pick == 4:
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        return MatrixLit(
            tuple(
                _parsed_items(
                    tuple(_rand_expr(rng, depth - 1, bracket_ok=False) for _ in range(c))
                )
                for _ in range(r)
            )
        )
    head = _rand_expr(rng, depth - 1, bracket_ok=False)
    rest = tuple(_rand_expr(rng, depth - 1) for _ in range(rng.randint(0, 2)))
    return ListLit(_parsed_items((head,) + rest))


def test_random_statements_round_trip_through_unparse():
    rng = random.Random(50)
    for _ in range(300):
        pick = rng.randrange(3)
        if pick == 0:
            stmt = SpaceDecl(
                rng.choice(("ZMaxPlus", "Q", "R64MinPlus")),
                tuple(rng.choice("xyz") for _ in range(rng.randint(0, 2))),
            )
        elif pick == 1:
            stmt = Assign(rng.choice("abc"), _rand_expr(rng, rng.randint(0, 3)))
        else:
            stmt = ExprStmt(_rand_expr(rng, rng.randint(0, 3)))
        (again,) = parse(unparse(stmt))
        assert again == stmt, unparse(stmt)


@pytest.mark.parametrize(
    "source",
    [" + ".join(["1"] * 5000) + ";", " - ".join(["x * 2"] * 2500) + ";", "-" * 5000 + "x;"],
    ids=["sum", "sum-of-products", "negations"],
)
def test_long_chains_unparse_to_their_source(source):
    (stmt,) = parse(source)
    assert unparse(stmt) == source
    assert parse(unparse(stmt)) == [stmt]


def test_equality_ignores_positions_and_compares_every_field():
    one = ScalarLit("1", "int")
    assert BinOp("+", one, Var("x"), line=1, col=3) == BinOp("+", one, Var("x"), line=7, col=9)
    assert parse("x = 1;") == parse("\n\n   x   =\n1 ;")
    assert Var("x") != ScalarLit("x", "int")
    assert Var("x") != Var("y")
    assert BinOp("+", one, one) != BinOp("*", one, one)
    assert ScalarLit("1", "int") != ScalarLit("1", "dec")
    assert Call("closure", (one,)) != Call("closure", (one, one))
    assert MatrixLit(((one,),)) != MatrixLit(((one, one),))
    assert ListLit(()) != ListLit((one,))
    deep = " + ".join(["1"] * 4999)
    assert parse(deep + " + 1;") != parse(deep + " + 2;")
    assert parse("1 + " + deep + ";") != parse("2 + " + deep + ";")


@pytest.mark.parametrize("cls", Node.__subclasses__(), ids=lambda cls: cls.__name__)
def test_node_constructors_take_exactly_their_fields(cls):
    fields = cls.__slots__
    node = cls(*fields, line=4, col=5)
    assert [getattr(node, f) for f in fields] == list(fields)
    assert (node.line, node.col) == (4, 5)
    assert repr(node) == f"{cls.__name__}({', '.join(map(repr, fields))})"
    assert node == cls(*fields)
    with pytest.raises(TypeError):
        cls(*fields, "extra")
    if fields:
        with pytest.raises(TypeError):
            cls(*fields[:-1])


def test_the_recorded_bank_lexes_to_tokens_and_parses_to_complete_nodes():
    bank = json.loads(BANK.read_text())
    parsed = 0
    for block in bank["blocks"] + bank["error_blocks"]:
        try:
            tokens = tokenize(block["text"])
        except LexError:
            continue
        for tok in tokens:
            assert type(tok) is Token and tok == Token(*tok), tok
        try:
            stack = parse(block["text"])
        except ParseError:
            continue
        parsed += 1
        while stack:
            item = stack.pop()
            if isinstance(item, tuple):
                stack.extend(item)
            elif isinstance(item, Node):
                for name in ("line", "col") + type(item).__slots__:
                    assert hasattr(item, name), (type(item).__name__, name)
                    stack.append(getattr(item, name))
    assert parsed >= len(bank["blocks"])


# Entry spellings of a ROW token: both minus signs, spaces around a sign and
# a slash, the three infinities, leading zeros, signed zeros, an int one
# digit past what int() reads from text, a decimal past the largest float
# and one below the least; and entries that make a bracket fall back.
NUMBER_ENTRIES = ["3", "-3", "\u2212 3", "- 3", "3 / 4", "-3/4", "7/02", "0.25", "-0.5", "007",
                  "-00.10", "-0", "-0.0", "\\infty", "-\\infty", "inf", "- inf", "\u221e",
                  "\u2212\u221e", "1" + "0" * 4300, "1" + "0" * 400 + ".5", "-0." + "0" * 330 + "1"]
OTHER_ENTRIES = ["--3", "(1)", "2*x", "x", "1 + 2", "-(3)", "\\closure(1)", "4 < 5"]
# Separators of entries; a line break or a comment in a bracket makes the
# lexer read it character by character.
SEPARATORS = [", ", ",", ",\t", ", ", ",", " ,\n  ", " , # c\n "]


def _rand_bracket(rng, wrap):
    """A random list or matrix literal of entry spellings, each passed
    through wrap; and the offset in it where each entry starts."""
    parts, starts = [], []

    def row(cols):
        parts.append("[")
        for j in range(cols):
            if j:
                parts.append(rng.choice(SEPARATORS))
            starts.append(sum(map(len, parts)))
            parts.append(wrap(rng.choice(OTHER_ENTRIES if rng.random() < 0.04 else NUMBER_ENTRIES)))
        parts.append("]")

    cols = rng.randint(1, 4)
    if rng.random() < 0.5:
        row(cols)
    else:
        parts.append("[")
        for i in range(rng.randint(1, 3)):
            if i:
                parts.append(",\n ")
            row(cols)
        parts.append("]")
    return "".join(parts), starts


@pytest.mark.parametrize("space", [f"{name}[]" for name in ALGEBRAS_BY_NAME] + ["Q[x]"])
def test_number_rows_read_as_their_parenthesised_entries_do(space):
    # A bracket, read as ROW tokens where the lexer can, prints what the
    # same bracket with each entry parenthesised prints through the general
    # route, or raises the same error at the same place in the same entry.
    rng = random.Random(f"number rows {space}")
    prefix = f"SPACE = {space}; x = "
    rows = 0
    for _ in range(120):
        state = rng.getstate()
        text, starts = _rand_bracket(rng, lambda e: e)
        rng.setstate(state)
        wrapped, wrapped_starts = _rand_bracket(rng, lambda e: f"({e})")
        rows += sum(t.kind is TokenKind.ROW for t in tokenize(text))
        outcomes = []
        for t, entry_starts, shift in ((text, starts, 0), (wrapped, wrapped_starts, 1)):
            code = prefix + t + "; x;"
            try:
                outcomes.append(output(code))
            except MathparError as e:
                lines = code.split("\n")
                offset = sum(len(line) + 1 for line in lines[: e.line - 1]) + e.col - 1
                k = bisect.bisect_right(entry_starts, offset - len(prefix)) - 1
                at = offset - len(prefix) - entry_starts[k] - shift
                outcomes.append((type(e), e.message, k, at))
        assert outcomes[0] == outcomes[1], (space, text)
    assert rows >= 80


@pytest.mark.parametrize("opening, closing", [("[", "]"), ("(", ")")], ids=["rows", "parentheses"])
def test_a_number_row_past_the_nesting_limit_raises_at_its_bracket(opening, closing):
    prefix = "x = " + opening * (MAX_NESTING - 1)
    assert parse(prefix + "[1, -2]" + closing * (MAX_NESTING - 1) + ";")
    prefix += opening
    with pytest.raises(ParseError) as e:
        parse(prefix + "[1, -2]" + closing * MAX_NESTING + ";")
    assert str(e.value) == f"1:{len(prefix) + 1}: nesting deeper than 200 levels"


# ---- evaluation ----


def test_tropical_operators_follow_the_space():
    assert output("SPACE = ZMaxPlus[]; 2 + 3; 2 * 3;") == ["3", "5"]
    assert output("SPACE = ZMinPlus[]; 2 + 3; 2 * 3;") == ["2", "5"]
    assert output("2 + 3; 2 * 3;") == ["5", "6"]


def test_assignments_print_only_command_results():
    assert output("SPACE = ZMaxPlus[]; a = 2 + 3;") == []
    assert output("SPACE = ZMaxPlus[]; a = \\closure(-1);") == ["0"]


def test_binary_minus_is_division_in_tropical_spaces():
    assert output("SPACE = ZMaxPlus[]; 5 - 3;") == ["2"]
    assert output("SPACE = Q[]; 5 - 3;") == ["2"]
    assert output("SPACE = ZMinPlus[]; 5 - 3;") == ["2"]


def test_unknown_space_and_variable_rules():
    with pytest.raises(UnknownSpace):
        run("SPACE = Nope[];")
    with pytest.raises(EvalError):
        run("SPACE = ZMaxPlus[x];")
    with pytest.raises(EvalError):
        run("y;")


def test_bindings_are_locked_to_their_space():
    code = "SPACE = ZMaxPlus[]; a = 3; SPACE = ZMinPlus[]; a + 1;"
    with pytest.raises(EvalError) as e:
        run(code)
    assert "ZMaxPlus" in str(e.value)


def test_rebinding_after_a_space_switch_is_fine():
    out = output("SPACE = ZMaxPlus[]; a = 3; SPACE = ZMinPlus[]; a = 4; a + 9;")
    assert out == ["4"]


def test_integer_spaces_reject_fractional_literals():
    with pytest.raises(EvalError):
        run("SPACE = ZMaxPlus[]; 1/2;")
    assert output("SPACE = QMaxPlus[]; 1/2 + 0;") == ["1/2"]
    assert output("SPACE = R64MaxPlus[]; 1/2 + 0;") == ["0.5"]


def test_infinity_is_per_space():
    assert output("SPACE = ZMaxPlus[]; -\\infty + 4;") == ["4"]
    assert output("SPACE = ZMinPlus[]; \\infty + 4;") == ["4"]
    with pytest.raises(EvalError):
        run("SPACE = ZMaxPlus[]; \\infty;")
    with pytest.raises(EvalError):
        run("SPACE = Q[]; \\infty;")


def test_matrix_arithmetic_in_scripts():
    out = output(
        "SPACE = ZMaxPlus[]; A = [[1, 2], [3, 0]]; B = [[0, 0], [0, 0]];"
        "A + B; A * [4, 3]; 2 * A;"
    )
    assert out == ["[[1, 2], [3, 0]]", "[5, 7]", "[[3, 4], [5, 2]]"]
    assert output("SPACE = ZMaxPlus[]; [[1, 2]] * 3;") == ["[[4, 5]]"]


def test_matrix_entries_must_be_scalars():
    with pytest.raises(EvalError):
        run("SPACE = ZMaxPlus[]; [[1, [2, 3]]];")


def test_inequality_outside_solve_is_an_error():
    with pytest.raises(EvalError):
        run("SPACE = Q[x]; x - 6 > 0;")


# ---- commands ----


def test_unknown_command_and_arity():
    with pytest.raises(UnknownCommand):
        run("SPACE = ZMaxPlus[]; \\nope(1);")
    with pytest.raises(ArityError):
        run("SPACE = ZMaxPlus[]; \\closure(1, 2);")
    with pytest.raises(ArityError):
        run("SPACE = R64[]; \\SimplexMax([[1]], [1]);")


def test_commands_check_the_space_kind():
    with pytest.raises(EvalError):
        run("\\closure([[1]]);")
    with pytest.raises(EvalError):
        run("SPACE = ZMaxPlus[]; \\SimplexMax([[1]], [1], [1]);")
    with pytest.raises(EvalError):
        run("SPACE = R64[]; \\solve([x - 1 > 0]);")


def test_scalar_closure_divergence_prints_the_missing_infinity():
    assert output("SPACE = ZMaxPlus[]; \\closure(1);") == ["\\infty"]
    assert output("SPACE = ZMinPlus[]; \\closure(-1);") == ["-\\infty"]


def test_matrix_closure_divergence_is_an_error():
    with pytest.raises(EvalError):
        run("SPACE = ZMaxPlus[]; \\closure([[1]]);")


def test_unsolvable_equation_system_is_reported():
    with pytest.raises(EvalError) as e:
        run("SPACE = ZMaxPlus[]; \\solveLAETropic([[0, 0], [0, 0]], [0, 5]);")
    assert e.value.line == 1


def test_bellman_forms():
    out = output(
        "SPACE = ZMaxPlus[]; A = [[-1, -2], [-3, -4]];"
        "\\BellmanEquation(A, [0, 0]); \\BellmanInequality(A);"
    )
    assert out == ["[0, 0]", "[[0, -2], [-3, 0]]"]
    out = output("SPACE = ZMinPlus[]; \\BellmanEquation([[0, 1], [2, 0]]);")
    assert out == ["[[0, 1], [2, 0]]"]


def test_shortest_path_commands_validate_their_input():
    with pytest.raises(EvalError):
        run("SPACE = ZMinPlus[]; \\findTheShortestPath([[0, 1], [1, 0]], 0, 2);")
    with pytest.raises(EvalError):
        run("SPACE = ZMinPlus[]; \\findTheShortestPath([[0, -1], [1, 0]], 0, 1);")
    with pytest.raises(EvalError):
        run("SPACE = ZMaxPlus[]; \\searchLeastDistances([[0, 1], [1, 0]]);")


def test_simplex_group_forms():
    base = "SPACE = Q[]; "
    assert output(base + "\\SimplexMax([[1, 1]], [4], [1, 2]);") == ["[0, 4]"]
    out = output(base + "\\SimplexMax((), [[1, 1]], (), [4], [1, 2]);")
    assert out == ["[0, 4]"]
    out = output(
        base + "\\SimplexMin((), (), [[1, 1]], (), (), [4], [1, 2]);"
    )
    assert out == ["[4, 0]"]


def test_simplex_empty_groups_must_pair_up():
    with pytest.raises(EvalError):
        run("SPACE = Q[]; \\SimplexMax((), [[1, 1]], [4], (), [1, 2]);")


def test_simplex_verdict_words():
    assert output("SPACE = Q[]; \\SimplexMax([[1]], [-1], [1]);") == ["Infeasible"]
    assert output("SPACE = Q[]; \\SimplexMax((), (), [1]);") == ["Unbounded"]


def test_solve_accepts_plain_q_and_bound_constants():
    out = output("SPACE = Q[]; a = 6; b = \\solve([x - a > 0, x - 7 < 0]);")
    assert out == ["(6, 7)"]


def test_solve_rejects_degree_two_and_mixed_unknowns():
    with pytest.raises(EvalError):
        run("SPACE = Q[x]; \\solve([x * x - 1 > 0]);")
    with pytest.raises(EvalError):
        run("SPACE = Q[]; \\solve([x - 1 > 0, y - 1 < 0]);")
    with pytest.raises(EvalError):
        run("SPACE = Q[x]; \\solve([x - y > 0]);")
    # Unknowns mixed across a relation are reported at the relation.
    with pytest.raises(EvalError) as e:
        run("SPACE = Q[];\n\\solve([x + 1 >= y]);")
    assert str(e.value) == "2:15: inequalities mix the unknowns 'x' and 'y'"


def test_solve_interval_shapes():
    assert output("SPACE = Q[x]; \\solve([x ≥ 0, x ≤ 0]);") == ["[0, 0]"]
    assert output("SPACE = Q[x]; \\solve([x > 1, x < 0]);") == ["\\emptyset"]
    assert output("SPACE = Q[x]; \\solve([2 * x - 1 > 0]);") == ["(1/2, \\infty)"]
    assert output("SPACE = Q[x]; \\solve(x > 1);") == ["(1, \\infty)"]
    assert output("SPACE = Q[x]; \\solve(-x < 1);") == ["(-1, \\infty)"]


def test_solve_ends_are_exact_rationals_from_any_literal():
    _, session = run("SPACE = Q[]; k = 3; i = \\solve([2 * x - k >= 0, x + 0.5 < 7/2, 0 * x < 1]);")
    interval = session.bindings["i"].value
    assert interval == Interval(Fraction(3, 2), Fraction(3), True, False)
    assert type(interval.lo) is Fraction and type(interval.hi) is Fraction


def test_solve_refuses_a_bound_matrix_at_its_position():
    with pytest.raises(EvalError) as e:
        run("SPACE = Q[x]; y = [[1]]; \\solve(y < x);")
    assert str(e.value) == "1:33: variable 'y' is not a finite scalar"


# ---- rendering ----


def test_scalar_rendering_trims_floats():
    assert render(ExtScalar.of(8.0)) == "8"
    assert render(ExtScalar.of(2.5)) == "2.5"
    assert render(ExtScalar.of(Fraction(1, 3))) == "1/3"


@pytest.mark.parametrize("space", ["R64", "R64MaxPlus", "R64MinPlus"])
def test_small_floats_print_positionally_and_read_back(space):
    # repr writes these with an exponent, which the language cannot read.
    values = [1e-7, 1e-10, -2.5e-5, 5e-324]
    alg = ALGEBRAS_BY_NAME[space]
    printed = [render(ExtScalar.of(v)) for v in values]
    assert printed[:3] == ["0.0000001", "0.0000000001", "-0.000025"]
    assert printed[3] == "0." + "0" * 323 + "5"
    matrix = TropMatrix.from_rows([values, values[::-1]], alg)
    texts = printed + [render(matrix)]
    _, session = run(f"SPACE = {space}[]; "
                     + " ".join(f"x{i} = {t};" for i, t in enumerate(texts)))
    back = [session.bindings[f"x{i}"].value for i in range(len(texts))]
    assert [e.finite for e in back[:-1]] == values
    assert back[-1] == matrix
    # The one exception: -0.0 prints as 0, which reads back equal but
    # with the sign of zero lost.
    assert render(ExtScalar.of(-0.0)) == "0"
    _, session = run(f"SPACE = {space}[]; z = 0;")
    zero = session.bindings["z"].value.finite
    assert zero == -0.0 and math.copysign(1, zero) == 1


def _read_back_pool(rng, alg):
    """Plain values of alg's domain: ints of 400 digits, fractions, floats
    from the largest to the least subnormal, -0.0, and the infinite
    element of a tropical algebra; some fixed, some drawn."""
    if alg.domain.value == "F64":
        pool = [0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, -5e-324, 1.5e-7, 1e308, -1.7976931348623157e308]
        pool += [rng.uniform(-1, 1) * 10.0 ** rng.randint(-323, 307) for _ in range(12)]
    else:
        pool = [0, 1, -2, 10**400, -(10**400) - 1] + [rng.randint(-10**30, 10**30) for _ in range(6)]
        if alg.domain.value == "Q":
            pool += [Fraction(7, 3), Fraction(-1, 2), Fraction(10**400 + 1, 3)]
            pool += [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(6)]
    return pool + ([alg.zero()] if alg.is_tropical else [])


@pytest.mark.parametrize("space", [f"{name}[]" for name in ALGEBRAS_BY_NAME] + ["Q[x]"])
def test_printed_values_read_back_as_equal_values(space):
    # What render prints, evaluate reads back in the same space as an equal
    # value: scalars, matrices and lists, a one-column matrix printing as a
    # list. Two printed forms are not values of the space, and are left out:
    # an undefined scalar closure prints the infinity the space lacks, and
    # intervals, verdicts and the latex format are no literals. One value
    # loses a property: R64 prints -0.0 as 0, which reads back equal but
    # with the sign of zero lost, as the last check shows.
    _, session = run(f"SPACE = {space};")
    alg = session.algebra
    rng = random.Random(f"read back {space}")
    pool = _read_back_pool(rng, alg)
    values = [ExtScalar.of(v) for v in pool]
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        values.append(TropMatrix.from_rows(
            [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)], alg))
    texts = [render(v) for v in values]
    _, back = run(f"SPACE = {space}; " + " ".join(f"x{i} = {t};" for i, t in enumerate(texts)))
    for i, (value, text) in enumerate(zip(values, texts)):
        assert back.bindings[f"x{i}"].value == value, text
    if alg.domain.value == "F64":
        assert math.copysign(1, values[1].finite) == -1
        assert math.copysign(1, back.bindings["x1"].value.finite) == 1


HUGE = 10**5000  # printed through Decimal
# Plain entries by domain: floats below 1e-4 print positionally, and sums
# and products of +-1e308 fold onto the infinite element or overflow.
ENTRY_POOLS = {
    "Z": [0, 1, -2, 7, HUGE, -HUGE],
    "Q": [0, 1, -2, Fraction(7, 3), Fraction(-1, 2), Fraction(HUGE, 3), -HUGE],
    "F64": [0.0, 1.0, -2.5, 0.1, 1.5e-7, -3e-5, 1e308, -1e308, 1.7976931348623157e308, 5e-324],
}


def _same_outcome(ours, ref):
    """Run both under count_ops: the same error type and text, or equal
    matrices that print alike with equal counts. The per-entry route
    tallies up to the entry that raises, the raw rows all at once, so the
    counts of an error are not compared; no count is printed on one."""
    outcomes = []
    for route in (ours, ref):
        with count_ops() as counts:
            try:
                value = route()
            except TropalgError as e:
                value = (type(e), str(e))
        outcomes.append((value, counts.adds, counts.muls))
    (a, *counts_a), (b, *counts_b) = outcomes
    if isinstance(b, tuple):
        assert a == b
    else:
        assert a == b and render(a) == ref_render_matrix(b, "plain") and counts_a == counts_b


@pytest.mark.parametrize("space", [f"{name}[]" for name in ALGEBRAS_BY_NAME] + ["Q[x]"])
def test_matrices_negate_scale_and_print_as_the_per_entry_routes_did(space):
    _, session = run(f"SPACE = {space};")
    alg, ev = session.algebra, _Evaluator(session)
    pool = ENTRY_POOLS[alg.domain.value] + ([alg.zero()] if alg.is_tropical else [])
    rng = random.Random(space)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = TropMatrix.from_rows([[rng.choice(pool) for _ in range(cols)] for _ in range(rows)], alg)
        s = ExtScalar.of(rng.choice(pool))
        assert m.entries == ref_entries(m)
        for fmt in ("plain", "latex"):
            assert render(m, RenderOptions(fmt=fmt)) == ref_render_matrix(m, fmt)
        if not alg.is_tropical:
            assert _rational_rows(m) == ref_rational_rows(m)
        _same_outcome(lambda: ev.negate(m), lambda: ref_negate(m))
        _same_outcome(lambda: ev.binop("*", s, m), lambda: ref_scale(s, m))
        _same_outcome(lambda: ev.binop("*", m, s), lambda: ref_scale(s, m))


# Literal spellings: the largest float and the halfway point past it, where
# rounding overflows; an int past int()'s default text limit; leading zeros.
MAX_HALF = 2**1024 - 2**970
LITERALS = [("0", "int"), ("-7", "int"), ("007", "int"), ("-3/4", "rat"), ("8/4", "rat"),
            ("0.1", "dec"), ("-2.50", "dec"), ("0.00001", "dec"), ("1" + "0" * 4300, "int"),
            (str(MAX_HALF), "int"), (str(MAX_HALF - 1), "int"), (f"-{MAX_HALF}", "int"),
            (f"{MAX_HALF}/1", "rat"), (f"{MAX_HALF - 1}.0", "dec")]


@pytest.mark.parametrize("space", ["ZMaxPlus", "QMinPlus", "R64MaxPlus", "Q", "R64"])
def test_literals_read_as_the_decimal_route_did(space):
    alg = ALGEBRAS_BY_NAME[space]
    for text, kind in LITERALS:
        want = ref_literal(text, kind, alg.domain)
        for code in (f"{text};", f"[[{text}]];"):
            try:
                (got,) = output(f"SPACE = {space}[]; {code}")
            except EvalError as e:
                assert isinstance(want, str) and e.message == want
                assert (e.line, e.col) == (1, code.index(text) + len(space) + 13)
            else:
                value = want if code[0] != "[" else TropMatrix.from_rows([[want]], alg)
                assert got == render(value)


def test_latex_format_wraps_matrices():
    out = output(
        "SPACE = ZMinPlus[]; \\closure([[0, 1], [2, 0]]);",
        RenderOptions(fmt="latex"),
    )
    assert out == ["\\begin{pmatrix} 0 & 1 \\\\ 2 & 0 \\end{pmatrix}"]


def test_show_objective_appends_a_line():
    out = output(
        "SPACE = Q[]; x = \\SimplexMax([[1, 1, 3], [2, 2, 5], [4, 1, 2]],"
        " [30, 24, 36], [3, 1, 2]);",
        RenderOptions(show_objective=True),
    )
    assert out == ["[8, 4, 0]", "objective: 28"]


def test_error_messages_carry_positions():
    with pytest.raises(EvalError) as e:
        run("SPACE = ZMaxPlus[];\n\\closure(1, 2);")
    assert str(e.value).startswith("2:1:")


def test_session_accumulates_output_across_calls():
    session = Session()
    evaluate(parse("SPACE = ZMaxPlus[]; 1 + 2;"), session)
    evaluate(parse("4 * 5;"), session)
    assert session.output == ["2", "9"]

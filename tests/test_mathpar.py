import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropalg import ExtScalar
from tropalg.mathpar import (
    ArityError,
    EvalError,
    LexError,
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
from tropalg.mathpar.parser import (
    Assign,
    BinOp,
    Call,
    EmptyLit,
    ExprStmt,
    InfinityLit,
    ListLit,
    MatrixLit,
    ScalarLit,
    SpaceDecl,
    UnaryNeg,
    Var,
)

from oracles import unparse

GOLDEN = Path(__file__).parent / "golden"


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
    toks = tokenize("\\closure(A); [[0, 1, \\infty]]")
    assert toks[0].kind is TokenKind.COMMAND and toks[0].value == "closure"
    assert any(t.kind is TokenKind.INFINITY for t in toks)


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
    ],
    ids=["lt-at-end", "gt-at-end", "two-char-relops", "unicode-relops", "infinities",
         "crlf-and-tab", "comment-at-end", "empty", "trailing-lines"],
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
                tuple(_rand_expr(rng, depth - 1, bracket_ok=False) for _ in range(c))
                for _ in range(r)
            )
        )
    head = _rand_expr(rng, depth - 1, bracket_ok=False)
    rest = tuple(_rand_expr(rng, depth - 1) for _ in range(rng.randint(0, 2)))
    return ListLit((head,) + rest)


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


def test_solve_refuses_a_bound_matrix_at_its_position():
    with pytest.raises(EvalError) as e:
        run("SPACE = Q[x]; y = [[1]]; \\solve(y < x);")
    assert str(e.value) == "1:33: variable 'y' is not a finite scalar"


# ---- rendering ----


def test_scalar_rendering_trims_floats():
    assert render(ExtScalar.of(8.0)) == "8"
    assert render(ExtScalar.of(2.5)) == "2.5"
    assert render(ExtScalar.of(Fraction(1, 3))) == "1/3"


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

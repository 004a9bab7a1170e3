"""Generate the script-block bank of the script-mix workload and record its outputs.

Usage, from the repository root:

    python3 bench/record_blocks.py

A block is a few self-contained statements that start with a SPACE line
and define every variable they use, so blocks concatenate into scripts
in any order and the expected stdout of a script is the concatenation of
its blocks' outputs. This script draws the blocks from a fixed seed, runs
each one through the CLI in-process and stores the text, the statement
count and the recorded stdout (and, for error blocks, the relative error
position and message) in data/script_blocks.json.

The recorded outputs are the reference the benchmark checks scripts
against. Re-recording on a commit whose outputs are wrong would hide the
fault, so only re-run this at a commit whose outputs were checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BANK = HERE / "data" / "script_blocks.json"
BANK_SEED = 20240809
N_BLOCKS = 200
N_ERROR_BLOCKS = 24

TROPICAL = ["ZMaxPlus", "ZMinPlus", "QMaxPlus", "QMinPlus", "R64MaxPlus", "R64MinPlus"]
ERROR_LINE = re.compile(r"error: (\d+):(\d+): (.*)\n\Z", re.S)


def _maxplus(space: str) -> bool:
    return "Max" in space


def _num(rng, space: str, lo: int, hi: int) -> str:
    """A literal legal in the space: ints in Z, small fractions in Q, decimals in R64."""
    v = rng.randint(lo, hi)
    if space.startswith("Q") and rng.random() < 0.3:
        d = rng.choice([2, 3, 4])
        v = Fraction(rng.randint(lo * d, hi * d), d)
    elif space.startswith("R64") and rng.random() < 0.3:
        return str(v + rng.choice([0.5, 0.25, -0.5]))
    return str(v)


def _inf(space: str) -> str:
    return "-\\infty" if _maxplus(space) else "\\infty"


def _matrix(rng, space, rows, cols, friendly=True, p_inf=0.2) -> str:
    """A matrix literal; friendly tropical matrices have no improving cycle."""
    if space in ("Q", "R64"):
        lo, hi, p_inf = -9, 9, 0.0
    elif friendly:
        lo, hi = (-9, 0) if _maxplus(space) else (0, 9)
    else:
        lo, hi = -9, 9
    out = []
    for _ in range(rows):
        out.append(
            "["
            + ", ".join(
                _inf(space) if rng.random() < p_inf else _num(rng, space, lo, hi)
                for _ in range(cols)
            )
            + "]"
        )
    return "[" + ", ".join(out) + "]"


def _vector(rng, space, n, lo=-9, hi=9, p_inf=0.0) -> str:
    return (
        "["
        + ", ".join(
            _inf(space) if rng.random() < p_inf else _num(rng, space, lo, hi)
            for _ in range(n)
        )
        + "]"
    )


def block_scalar(rng):
    space = rng.choice(TROPICAL + ["Q", "R64"])
    a, b = _num(rng, space, -9, 9), _num(rng, space, -9, 9)
    lines = [f"a = {a};", f"b = {b};", "a + b;", "a * b;", "a - b;"]
    if space in ("Q", "R64"):
        lines.append("a * b + a;")
    else:
        lines.append(f"a + {_inf(space)};")
        lines.append(f"a * {_inf(space)};")
    return space, lines


def block_matrix(rng):
    space = rng.choice(TROPICAL + ["Q"])
    r, m, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    lines = [
        f"A = {_matrix(rng, space, r, m, friendly=False)};",
        f"B = {_matrix(rng, space, m, c, friendly=False)};",
        f"C = {_matrix(rng, space, r, m, friendly=False)};",
        "A * B;",
        "A + C;",
        f"{_num(rng, space, -3, 3)} * A;",
    ]
    if space == "Q":
        lines.append("A - C;")
    return space, lines


def block_closure(rng):
    space = rng.choice(TROPICAL)
    n = rng.randint(2, 5)
    s = _num(rng, space, -3, 3)
    return space, [
        f"A = {_matrix(rng, space, n, n)};",
        "\\closure(A);",
        f"\\closure({s});",
        "S = \\closure(A);",
    ]


def block_lae(rng):
    space = rng.choice(TROPICAL[:4])
    n = rng.randint(2, 6)
    m = rng.randint(2, 6)
    x = _vector(rng, space, n, -5, 5)
    return space, [
        f"A = {_matrix(rng, space, m, n, friendly=False, p_inf=0.1)};",
        f"x = {x};",
        "b = A * x;",
        "\\solveLAETropic(A, b);",
    ]


def block_lai(rng):
    space = rng.choice(TROPICAL)
    m, n = rng.randint(2, 6), rng.randint(2, 6)
    return space, [
        f"A = {_matrix(rng, space, m, n, friendly=False)};",
        f"b = {_vector(rng, space, m, -9, 9, p_inf=0.1)};",
        "\\solveLAITropic(A, b);",
    ]


def block_bellman(rng):
    space = rng.choice(TROPICAL)
    n = rng.randint(2, 6)
    lines = [
        f"A = {_matrix(rng, space, n, n)};",
        f"b = {_vector(rng, space, n, -9, 9, p_inf=0.2)};",
        "\\BellmanEquation(A, b);",
        "\\BellmanInequality(A, b);",
        "\\BellmanInequality(A);",
    ]
    if rng.random() < 0.5:
        lines.append("\\BellmanEquation(A);")
    return space, lines


def _adjacency(rng, space, n, density):
    rows = []
    for j in range(n):
        row = []
        for k in range(n):
            if j == k:
                row.append("0")
            elif rng.random() < density:
                row.append(_num(rng, space, 1, 9))
            else:
                row.append("\\infty")
        rows.append("[" + ", ".join(row) + "]")
    return "[" + ", ".join(rows) + "]"


def block_paths(rng):
    space = rng.choice(["ZMinPlus", "QMinPlus"])
    n = rng.randint(3, 5)
    lines = [f"G = {_adjacency(rng, space, n, rng.choice([0.4, 0.6, 0.9]))};"]
    lines.append("\\searchLeastDistances(G);")
    for _ in range(rng.randint(1, 3)):
        lines.append(f"\\findTheShortestPath(G, {rng.randrange(n)}, {rng.randrange(n)});")
    return space, lines


def _lp_data(rng):
    # Mostly small, so that the tests can check the optima by vertex enumeration.
    n = rng.choice([2, 3, 3, 4, 4, 6, 9, 12])
    m = rng.choice([2, 3, 3, 4, 4, 6, 9, 12])
    groups = {"a_le": [], "b_le": [], "a_eq": [], "b_eq": [], "a_ge": [], "b_ge": []}
    for _ in range(m):
        kind = rng.random()
        if kind < 0.75:
            groups["a_le"].append([rng.randint(0, 9) for _ in range(n)])
            groups["b_le"].append(rng.randint(10, 60))
        elif kind < 0.92:
            groups["a_ge"].append([rng.randint(0, 5) for _ in range(n)])
            groups["b_ge"].append(rng.randint(0, 6))
        else:
            groups["a_eq"].append([rng.randint(0, 4) for _ in range(n)])
            groups["b_eq"].append(rng.randint(4, 24))
    c = [rng.randint(-3, 9) for _ in range(n)]
    return c, groups


def _lit_rows(rows):
    if not rows:
        return "()"
    return "[" + ", ".join("[" + ", ".join(str(v) for v in r) + "]" for r in rows) + "]"


def _lit_vec(values):
    if not values:
        return "()"
    return "[" + ", ".join(str(v) for v in values) + "]"


def block_simplex(rng):
    space = rng.choice(["Q", "R64"])
    sense = rng.choice(["max", "min"])
    c, g = _lp_data(rng)
    cmd = "SimplexMax" if sense == "max" else "SimplexMin"
    if not g["a_eq"] and not g["a_ge"] and rng.random() < 0.6:
        lines = [
            f"A = {_lit_rows(g['a_le'])};",
            f"b = {_lit_vec(g['b_le'])};",
            f"c = {_lit_vec(c)};",
            f"x = \\{cmd}(A, b, c);",
        ]
    else:
        lines = [
            f"A1 = {_lit_rows(g['a_le'])};",
            f"A2 = {_lit_rows(g['a_eq'])};",
            f"A3 = {_lit_rows(g['a_ge'])};",
            f"b1 = {_lit_vec(g['b_le'])};",
            f"b2 = {_lit_vec(g['b_eq'])};",
            f"b3 = {_lit_vec(g['b_ge'])};",
            f"c = {_lit_vec(c)};",
            f"x = \\{cmd}(A1, A2, A3, b1, b2, b3, c);",
        ]
    lp = {"sense": sense, "c": c, **g}
    return space, lines, lp


def _ineq(rng, var):
    a = rng.choice([-3, -2, -1, 1, 2, 3])
    b = rng.randint(-20, 20)
    op = rng.choice(["<", "<=", ">", ">="])
    sign = "-" if b < 0 else "+"
    return f"{a}*{var} {sign} {abs(b)} {op} 0"


def block_solve(rng):
    # The unknown must be a name no block binds, or \solve reads the binding.
    var = rng.choice(["u", "w"])
    space = rng.choice([f"Q[{var}]", "Q"])
    k = rng.randint(1, 4)
    items = ", ".join(_ineq(rng, var) for _ in range(k))
    return space, [f"\\solve([{items}]);", f"y = \\solve([{_ineq(rng, var)}, {_ineq(rng, var)}]);"]


# Weighted so that the front end, not the kernels, does most of the work.
KINDS = [
    (block_scalar, 6),
    (block_matrix, 4),
    (block_closure, 2),
    (block_lae, 2),
    (block_lai, 2),
    (block_bellman, 1),
    (block_paths, 1),
    (block_simplex, 2),
    (block_solve, 3),
]


def error_block(rng):
    """A block whose last statement is a script error."""
    space = rng.choice(["ZMaxPlus", "ZMinPlus"])
    lead = []
    if rng.random() < 0.7:
        lead.append(f"a = {_num(rng, space, -9, 9)};")
        lead.append("a + a;")
    bad = rng.choice(
        [
            "zz_undefined + 1;",
            "\\frobnicate(1);",
            "\\closure(1, 2);",
            "a = 3 @ 4;",
            "a = [1, 2;",
            "SPACE = Nope[];",
            "\\closure([[1, 0], [0, -1]]);" if _maxplus(space) else "\\closure([[-1, 0], [0, 1]]);",
            "\\solveLAETropic([[0, 0], [0, 0]], [1, 2]);",
            "\\SimplexMax([[1]], [1], [1]);",
            "7/2 + 1;",
        ]
    )
    return space, lead + [bad]


def _render(space, lines) -> str:
    return "\n".join([f"SPACE = {space};" if "[" in space else f"SPACE = {space}[];"] + lines) + "\n"


def run_block(text: str):
    """Run a script text through the CLI in-process; returns (code, stdout, stderr)."""
    from tropalg.mathpar.cli import run_cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "block.mp"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(["run", str(path)])
    return code, out.getvalue(), err.getvalue()


def _is_syntax_error(text: str) -> bool:
    from tropalg.mathpar import MathparError, parse

    try:
        parse(text)
    except MathparError:
        return True
    return False


def _lp_objective(lp):
    from tropalg import LpProblem, Optimal, simplex_solve

    p = LpProblem(
        c=tuple(lp["c"]),
        a_le=tuple(map(tuple, lp["a_le"])),
        b_le=tuple(lp["b_le"]),
        a_eq=tuple(map(tuple, lp["a_eq"])),
        b_eq=tuple(lp["b_eq"]),
        a_ge=tuple(map(tuple, lp["a_ge"])),
        b_ge=tuple(lp["b_ge"]),
        sense=lp["sense"],
    )
    res = simplex_solve(p)
    if isinstance(res, Optimal):
        return "optimal", str(res.objective)
    return type(res).__name__.lower(), None


def make_bank(seed: int = BANK_SEED):
    rng = random.Random(seed)
    kinds = [k for k, w in KINDS for _ in range(w)]
    blocks = []
    while len(blocks) < N_BLOCKS:
        made = rng.choice(kinds)(rng)
        space, lines = made[0], made[1]
        text = _render(space, lines)
        code, out, err = run_block(text)
        if code != 0 or err:
            continue
        block = {"text": text, "statements": text.count(";"), "stdout": out}
        if len(made) == 3:
            block["lp"] = made[2]
            block["lp"]["status"], block["lp"]["objective"] = _lp_objective(made[2])
        blocks.append(block)
    errors = []
    while len(errors) < N_ERROR_BLOCKS:
        space, lines = error_block(rng)
        text = _render(space, lines)
        code, out, err = run_block(text)
        m = ERROR_LINE.match(err)
        if code != 1 or not m:
            raise RuntimeError(f"error block did not fail as expected: {text!r} -> {err!r}")
        errors.append(
            {
                "text": text,
                "statements": text.count(";"),
                "stdout": out,
                # A lexer or parser error stops the whole script before anything runs.
                "syntax": _is_syntax_error(text),
                "error_line": int(m.group(1)),
                "error_col": int(m.group(2)),
                "error_message": m.group(3),
            }
        )
    return {"seed": seed, "blocks": blocks, "error_blocks": errors}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    bank = make_bank()
    BANK.parent.mkdir(exist_ok=True)
    BANK.write_text(json.dumps(bank, indent=1) + "\n", encoding="utf-8")
    n_stmt = sum(b["statements"] for b in bank["blocks"])
    print(f"wrote {BANK}: {len(bank['blocks'])} blocks ({n_stmt} statements), "
          f"{len(bank['error_blocks'])} error blocks")


if __name__ == "__main__":
    main()

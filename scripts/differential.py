"""Run the calculator of a base revision and of the working tree on the
same generated scripts, and report where their answers differ.

Usage, from the root of a checkout:

    python3 scripts/differential.py --base REF [--scripts N] [--seed S]
        [--expect PATTERN ...] [--expect-ops PATTERN ...]

The src/ directory of revision REF is unpacked with `git archive` into a
temporary directory. N scripts are generated from seed S with the random
module: each calls one command of the working tree's command table, at
one of its arities or one past them, in one of the nine space forms, on
small operands of the shape the argument expects or of any shape; one
list in ten has a row more than the matrices. Operands have 1 to 3 rows,
or 4 to 9 in one script in ten, whose square operands have closures,
and 1 to 3 columns. An operand may be negated, parenthesised or joined
to another by +, - or *, and a scalar is at times wrapped in
parentheses up to the parser's nesting limit or one level past it. The
entries and rows of a matrix or list are separated by a comma with or
without blanks, a tab or a line break after it, or now and then a
comment, so that the lexer reads a bracket of literals as one ROW token
in some scripts and character by character in others. The
(command, arity, space) triples are dealt in a seeded order, so N of 234
or more covers every one. Each
tree answers every script in one long-lived worker process, once per
flag set of FLAG_SETS, as `mathpar eval SCRIPT FLAGS`, and the two exit
statuses, stdouts and stderrs are compared. A difference on a script that
an --expect regular expression matches (re.search over the script text)
is an intended one: it is counted and shown apart and does not fail the
run. On a script an --expect-ops expression matches, only a difference
in the `semiring ops: adds=... muls=...` line of stderr is intended; the
exit status, stdout and the rest of stderr are still compared. The
count of each outcome and every difference are printed; the exit status
is 1 when any other difference is found, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The generator deals this checkout's command table, whatever PYTHONPATH
# holds; each worker imports its own tree through its own PYTHONPATH.
sys.path.insert(0, str(ROOT / "src"))

SPACE_FORMS = [
    "ZMaxPlus[]", "ZMinPlus[]", "QMaxPlus[]", "QMinPlus[]", "R64MaxPlus[]", "R64MinPlus[]",
    "Q[]", "R64[]", "Q[x]",
]
NEAR_MAX = "1" + "0" * 308 + ".0"  # 1e308
MAX_FLOAT = "17976931348623157" + "0" * 292 + ".0"  # the largest float
NINES = "9" * 4300  # the longest int Python converts to text by default
# Spellings the lexer reads alike: the Unicode minus, spaces around a
# sign and a slash, the three infinities, leading zeros, and an int one
# digit past what int() reads from text by default.
SCALARS = ["0", "1", "-2", "3", "1/2", "-7/3", "0.5", "-0.3", NEAR_MAX, "-" + NEAR_MAX,
           MAX_FLOAT, f"{NINES} * {NINES}", "\\infty", "-\\infty", "\u2212 3", "3 / 4",
           "- \\infty", "inf", "\u221e", "007", "1" + "0" * 4300]
# Separators of the entries and rows of a bracket; a line break or a
# comment in a bracket makes the lexer read it character by character.
SEPARATORS = [", ", ",", ",\t", " ,\n  "]
COMMENT = ", # entry\n  "
INEQUALITIES = ["x <= 1", "2*x - 1 > x", "1/2 >= -x", "x * x < 0", "1 <= 2", "y < x", "x > 1",
                "0 * x >= 1"]
ANY = ["scalar", "matrix", "list", "empty", "inequalities", "index"]

# The operand each argument of a command expects; a simplex command takes
# k constraint matrices, k right-hand sides and an objective instead. A
# command missing here is given operands of any shape.
SHAPES = {
    "closure": ["square"],
    "solveLAETropic": ["matrix", "list"],
    "solveLAITropic": ["matrix", "list"],
    "BellmanEquation": ["square", "list"],
    "BellmanInequality": ["square", "list"],
    "findTheShortestPath": ["square", "index", "index"],
    "searchLeastDistances": ["square"],
    "solve": ["inequalities"],
}
OUTCOMES = {0: "answered", 1: "script error", 3: "internal error"}
# The operation counts that --trace-ops prints to stderr.
OPS_LINE = re.compile(r"^semiring ops: adds=\d+ muls=\d+\n", re.M)

# Every script runs once per flag set: operation counts with the objective
# of a linear program, which only --show-objective prints, then LaTeX.
FLAG_SETS = (("--trace-ops", "--show-objective"), ("--format=latex",))

# The worker: prints where it imported tropalg from, then answers each
# JSON-encoded [script, flags] line on stdin with a JSON [status, stdout,
# stderr] line.
WORKER = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import tropalg
from tropalg.mathpar.cli import run_cli
print(json.dumps(tropalg.__file__), flush=True)
for line in sys.stdin:
    script, flags = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["eval", script, *flags])
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def cases() -> list[tuple[str, int, str]]:
    """Every (command, arity, space) triple: each command of tropalg's
    command table, at each of its arities and one past them, in each space
    form."""
    from tropalg.mathpar.interp import _COMMANDS

    return [
        (command, k, space)
        for command, (_, readers, _) in sorted(_COMMANDS.items())
        for k in (*readers, max(readers) + 1)
        for space in SPACE_FORMS
    ]


def generate(count: int, seed: int) -> list[str]:
    """count scripts from seed, dealing the cases in a seeded order."""
    rng = random.Random(seed)
    deal = cases()
    rng.shuffle(deal)
    return [_script(rng, *deal[i % len(deal)]) for i in range(count)]


def _script(rng: random.Random, command: str, k: int, space: str) -> str:
    from tropalg.mathpar.parser import MAX_NESTING

    # One script in ten has 4 to 9 rows. Its square operands have a zero
    # diagonal and entries that make no cycle improve, so that their
    # closures exist, run through more pivots and, outside Z, bring
    # several denominators to the scale.
    wide = rng.random() < 0.1
    n, m = rng.randint(4, 9) if wide else rng.randint(1, 3), rng.randint(1, 3)
    small = ["0", "1", "-2", "3"]
    closable = ["0", "2", "1/2", "7/3"][: 2 if space.startswith("Z") else 4]
    if "MaxPlus" in space:
        small.append("-\\infty")
        closable = ["-" + v if v != "0" else v for v in closable] + ["-\\infty"]
    elif "MinPlus" in space:
        small.append("\\infty")
        closable.append("\\infty")

    def scalar(depth):
        text = rng.choice(small if rng.random() < 0.7 else SCALARS)
        if rng.random() < 0.996:
            return text
        # Parentheses up to the parser's limit or one level past it.
        p = MAX_NESTING - depth + rng.randint(0, 1)
        return "(" * p + text + ")" * p

    def bracket(items):
        """The items in a bracket, each after the first led by a separator."""
        items = list(items)
        seps = [COMMENT if rng.random() < 0.02 else rng.choice(SEPARATORS) for _ in items[1:]]
        return "[" + items[0] + "".join(map(str.__add__, seps, items[1:])) + "]"

    def matrix(depth, rows, cols, diagonal=None, pool=None):
        def entry(i, j):
            if i == j and diagonal:
                return diagonal
            return rng.choice(pool) if pool else term("scalar", depth + 2)

        return bracket(bracket(entry(i, j) for j in range(cols)) for i in range(rows))

    def operand(shape, depth):
        if shape == "any":
            shape = rng.choice(ANY)
        if shape == "scalar":
            return scalar(depth)
        if shape == "index":
            return str(rng.randint(-1, n))
        if shape == "matrix":
            return matrix(depth, n, m)
        if shape == "square":
            if wide:
                return matrix(depth, n, n, "0", closable)
            return matrix(depth, n, n, rng.choice(["0", None]))
        if shape in ("list", "objective"):
            # One list in ten has a row too many, so that the solvers'
            # row-count checks are compared too.
            length = m if shape == "objective" else n + (rng.random() < 0.1)
            return bracket(term("scalar", depth + 1) for _ in range(length))
        if shape == "empty":
            return "()"
        return "[" + ", ".join(rng.choices(INEQUALITIES, k=rng.randint(1, 3))) + "]"

    def term(shape, depth):
        """An operand of shape inside depth open groups, sometimes negated,
        parenthesised, or joined by +, - or * to a term of its shape or a
        scalar."""
        r = rng.random()
        if r < 0.8:
            return operand(shape, depth)
        if r < 0.9:
            op = rng.choice("+-*")
            left = "scalar" if op == "*" else shape  # a sum, or a scalar multiple
            return f"{term(left, depth)} {op} {term(shape, depth)}"
        if r < 0.95:
            return "(" + term(shape, depth + 1) + ")"
        return "-" + term(shape, depth)

    if command in ("SimplexMax", "SimplexMin"):
        g = (k - 1) // 2
        expected = ["matrix"] * g + ["list"] * g + ["objective"] * (k - 2 * g)
    else:
        expected = SHAPES.get(command, []) + ["any"] * k
    # The argument list is the first group open around each argument.
    args = ", ".join(term(expected[i] if rng.random() < 0.85 else "any", 1) for i in range(k))
    return f"SPACE = {space}; \\{command}({args});"


class Worker:
    """A process that answers scripts with the calculator of one src/ tree."""

    def __init__(self, src: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=src,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        where = Path(self._reply()).resolve()
        if src.resolve() not in where.parents:
            self.close()
            raise RuntimeError(f"the worker for {src} imported tropalg from {where}")

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def run(self, script: str, flags: tuple[str, ...]) -> tuple[int, str, str]:
        self.proc.stdin.write(json.dumps([script, list(flags)]) + "\n")
        self.proc.stdin.flush()
        return tuple(self._reply())

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _tally(results) -> str:
    counts = Counter(OUTCOMES.get(code, f"status {code}") for code, _, _ in results)
    return ", ".join(f"{name} {counts[name]}" for name in sorted(counts))


def _without_ops(answer):
    code, out, err = answer
    return code, out, OPS_LINE.sub("", err)


def report(runs, expect, expect_ops=()) -> int:
    """Print the outcomes and differences of (script, flags, base answer,
    working-tree answer) runs; the exit status is 1 when a difference is
    found on a script no pattern of expect matches, unless a pattern of
    expect_ops matches it and the answers differ in the ops line alone,
    else 0."""
    expected, unexpected = [], []
    for script, flags, b, w in runs:
        if b != w:
            matched = (any(re.search(pattern, script) for pattern in expect)
                       or any(re.search(pattern, script) for pattern in expect_ops)
                       and _without_ops(b) == _without_ops(w))
            (expected if matched else unexpected).append((script, flags, b, w))
    print(f"base:         {_tally(b for _, _, b, _ in runs)}")
    print(f"working tree: {_tally(w for _, _, _, w in runs)}")
    print(f"differences:  {len(unexpected)}, and {len(expected)} expected")
    for title, shown in (("difference", unexpected), ("expected difference", expected)):
        for script, flags, b, w in shown:
            print(f"\n{title}, {' '.join(flags)}: {script}")
            print(f"  base:         {b!r}\n  working tree: {w!r}")
    return 1 if unexpected else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the git revision to compare against")
    p.add_argument("--scripts", type=int, default=1000, help="how many scripts to run")
    p.add_argument("--seed", type=int, default=1, help="the seed of the generated scripts")
    p.add_argument("--expect", action="append", default=[], metavar="PATTERN",
                   help="a regular expression over the script text marking an intended "
                   "difference; may be repeated")
    p.add_argument("--expect-ops", action="append", default=[], metavar="PATTERN",
                   help="a regular expression over the script text on which a difference "
                   "in the semiring ops line alone is intended; may be repeated")
    args = p.parse_args(argv)

    scripts = generate(args.scripts, args.seed)
    archive = subprocess.run(
        ["git", "archive", args.base, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        with Worker(Path(tmp) / "src") as base, Worker(ROOT / "src") as work:
            runs = [(s, f, base.run(s, f), work.run(s, f)) for s in scripts for f in FLAG_SETS]

    print(f"{len(scripts)} scripts x {len(FLAG_SETS)} flag sets, seed {args.seed}, "
          f"base {args.base}")
    return report(runs, args.expect, args.expect_ops)


if __name__ == "__main__":
    sys.exit(main())

"""Run the calculator of a base revision and of the working tree on the
same generated scripts, and report where their answers differ.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/differential.py --base REF [--scripts N] [--seed S]

The src/ directory of revision REF is unpacked with `git archive` into a
temporary directory. N scripts are generated from seed S with the random
module: each calls one command of the working tree's command table, at
one of its arities or one past them, in one of the nine space forms, on
small operands of the shape the argument expects or of any shape; the
(command, arity, space) triples are dealt in a seeded order, so N of 234
or more covers every one. Each tree answers every script in one
long-lived worker process, as `mathpar eval SCRIPT --trace-ops`, and the
two exit statuses, stdouts and stderrs are compared. The count of each
outcome and the first differences are printed; the exit status is 1 when
any script is answered differently, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPACE_FORMS = [
    "ZMaxPlus[]", "ZMinPlus[]", "QMaxPlus[]", "QMinPlus[]", "R64MaxPlus[]", "R64MinPlus[]",
    "Q[]", "R64[]", "Q[x]",
]
NEAR_MAX = "1" + "0" * 308 + ".0"  # 1e308
MAX_FLOAT = "17976931348623157" + "0" * 292 + ".0"  # the largest float
NINES = "9" * 4300  # the longest int Python converts to text by default
SCALARS = ["0", "1", "-2", "3", "1/2", "-7/3", "0.5", "-0.3", NEAR_MAX, "-" + NEAR_MAX,
           MAX_FLOAT, f"{NINES} * {NINES}", "\\infty", "-\\infty"]
INEQUALITIES = ["x <= 1", "2*x - 1 > x", "1/2 >= -x", "x * x < 0", "1 <= 2", "y < x"]
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

# The worker: prints where it imported tropalg from, then answers each
# JSON-encoded script on stdin with a JSON [status, stdout, stderr] line.
WORKER = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import tropalg
from tropalg.mathpar.cli import run_cli
print(json.dumps(tropalg.__file__), flush=True)
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["eval", json.loads(line), "--trace-ops"])
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def generate(count: int, seed: int) -> list[str]:
    """count scripts from seed, over the commands of tropalg's command table."""
    from tropalg.mathpar.interp import _COMMANDS

    cases = [
        (command, k, space)
        for command, (_, readers, _) in sorted(_COMMANDS.items())
        for k in (*readers, max(readers) + 1)
        for space in SPACE_FORMS
    ]
    rng = random.Random(seed)
    rng.shuffle(cases)
    return [_script(rng, *cases[i % len(cases)]) for i in range(count)]


def _script(rng: random.Random, command: str, k: int, space: str) -> str:
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    small = ["0", "1", "-2", "3"]
    if "MaxPlus" in space:
        small.append("-\\infty")
    elif "MinPlus" in space:
        small.append("\\infty")

    def scalar():
        return rng.choice(small if rng.random() < 0.7 else SCALARS)

    def matrix(rows, cols, diagonal=None):
        return "[" + ", ".join(
            "[" + ", ".join(diagonal if i == j and diagonal else scalar() for j in range(cols)) + "]"
            for i in range(rows)
        ) + "]"

    def operand(shape):
        if shape == "any":
            shape = rng.choice(ANY)
        if shape == "scalar":
            return scalar()
        if shape == "index":
            return str(rng.randint(-1, n))
        if shape == "matrix":
            return matrix(n, m)
        if shape == "square":
            return matrix(n, n, rng.choice(["0", None]))
        if shape in ("list", "objective"):
            return "[" + ", ".join(scalar() for _ in range(m if shape == "objective" else n)) + "]"
        if shape == "empty":
            return "()"
        return "[" + ", ".join(rng.choices(INEQUALITIES, k=rng.randint(1, 3))) + "]"

    if command in ("SimplexMax", "SimplexMin"):
        g = (k - 1) // 2
        expected = ["matrix"] * g + ["list"] * g + ["objective"] * (k - 2 * g)
    else:
        expected = SHAPES.get(command, []) + ["any"] * k
    args = ", ".join(operand(expected[i] if rng.random() < 0.85 else "any") for i in range(k))
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

    def run(self, script: str) -> tuple[int, str, str]:
        self.proc.stdin.write(json.dumps(script) + "\n")
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the git revision to compare against")
    p.add_argument("--scripts", type=int, default=1000, help="how many scripts to run")
    p.add_argument("--seed", type=int, default=1, help="the seed of the generated scripts")
    args = p.parse_args(argv)

    scripts = generate(args.scripts, args.seed)
    archive = subprocess.run(
        ["git", "archive", args.base, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        with Worker(Path(tmp) / "src") as base, Worker(ROOT / "src") as work:
            pairs = [(s, base.run(s), work.run(s)) for s in scripts]

    differences = [(s, b, w) for s, b, w in pairs if b != w]
    print(f"{len(scripts)} scripts, seed {args.seed}, base {args.base}")
    print(f"base:         {_tally(b for _, b, _ in pairs)}")
    print(f"working tree: {_tally(w for _, _, w in pairs)}")
    print(f"differences:  {len(differences)}")
    for script, b, w in differences[:5]:
        print(f"\n{script}\n  base:         {b!r}\n  working tree: {w!r}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

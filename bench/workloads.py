"""The benchmark's three workloads.

Each workload draws its inputs from a seed as plain Python values, in
blocks whose mix of request kinds is fixed, so that every run sees the
same proportions and only the entries change with the seed. build()
turns a block into library objects, which is the set-up work; call()
is one timed request; check() compares the answer with a reference
computed outside the timed region.

tropalg is imported inside the functions that need it, so the set-up
probe can draw its inputs before it starts the clock on the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import reference as ref

INF = math.inf
HERE = Path(__file__).resolve().parent
BANK = HERE / "data" / "script_blocks.json"


class Request:
    """One request: what to call, with which library objects, and the plain inputs."""

    __slots__ = ("kind", "args", "plain")

    def __init__(self, kind, args, plain):
        self.kind = kind
        self.args = args
        self.plain = plain


def classify(fn, *args):
    """Run fn; ("ok", value), ("err", typed library error name) or ("crash", repr)."""
    from tropalg import TropalgError

    try:
        return ("ok", fn(*args))
    except TropalgError as e:
        return ("err", type(e).__name__)
    except Exception as e:  # an untyped error is a wrong answer, never a crash of the run
        return ("crash", repr(e))


def to_plain(value):
    """Library values as plain numbers, for checks and for comparing runs."""
    from tropalg import ExtScalar, IntervalBound, TropMatrix

    if isinstance(value, ExtScalar):
        return value.finite if value.inf_sign == 0 else value.inf_sign * INF
    if isinstance(value, TropMatrix):
        return [[to_plain(e) for e in row] for row in value.to_lists()]
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    if isinstance(value, IntervalBound):
        return [to_plain(value.lower), to_plain(value.upper), value.lower_closed, value.upper_closed]
    return value


def plain_outcome(outcome):
    return (outcome[0], to_plain(outcome[1])) if outcome[0] == "ok" else outcome


# ---- dense-closure ----


class DenseClosure:
    """Fresh dense matrices through the closure, Bellman, residuation and product calls."""

    name = "dense-closure"
    CALLS = ("closure_block", "bellman_solve", "bellman_inequality",
             "solve_lai_tropic", "solve_lae_tropic", "mat_mul")
    CLOSURE_CALLS = ("closure_block", "bellman_solve", "bellman_inequality")
    # Straddles 16 and 32: 9..16 pad to 16 and 17..24 pad to 32 in the block closure.
    SIZES = (9, 13, 16, 17, 20, 24)
    ALGEBRAS = ("ZMaxPlus", "ZMinPlus", "QMaxPlus")
    CYCLES_PER_BLOCK = 2  # of the 18 closure requests, about 10 % of all matrices

    def blocks(self, seed: int):
        rng = random.Random(seed)
        while True:
            combos = [(c, n) for c in self.CALLS for n in self.SIZES]
            algs = list(self.ALGEBRAS) * (len(combos) // len(self.ALGEBRAS))
            rng.shuffle(algs)
            closures = [i for i, (c, _) in enumerate(combos) if c in self.CLOSURE_CALLS]
            cyclic = set(rng.sample(closures, self.CYCLES_PER_BLOCK))
            lae = [i for i, (c, _) in enumerate(combos) if c == "solve_lae_tropic"]
            solvable = set(rng.sample(lae, len(lae) // 2))
            block = [
                self._request(rng, c, n, algs[i], i in cyclic, i in solvable)
                for i, (c, n) in enumerate(combos)
            ]
            rng.shuffle(block)
            yield block

    @staticmethod
    def _entry(rng, alg):
        if alg == "ZMaxPlus":
            return rng.randint(-9, 0)
        if alg == "ZMinPlus":
            return rng.randint(0, 9)
        return Fraction(rng.randint(-36, 0), rng.randint(1, 4))

    def _matrix(self, rng, alg, rows, cols, p_inf=0.2):
        z = ref.zero("Max" in alg)
        return [
            [z if rng.random() < p_inf else self._entry(rng, alg) for _ in range(cols)]
            for _ in range(rows)
        ]

    def _request(self, rng, call, n, alg, cyclic, solvable):
        maxplus = "Max" in alg
        a = self._matrix(rng, alg, n, n)
        if cyclic:
            i, j = rng.sample(range(n), 2)
            a[i][j], a[j][i] = (3, -1) if maxplus else (-3, 1)
        if call == "mat_mul":
            b = self._matrix(rng, alg, n, n)
        elif call in ("solve_lai_tropic", "solve_lae_tropic"):
            if solvable:
                x0 = [[rng.randint(-9, 9)] for _ in range(n)]
                b = ref.matmul(a, x0, maxplus)
            else:
                z = ref.zero(maxplus)
                b = [[z if rng.random() < 0.1 else rng.randint(-9, 9)] for _ in range(n)]
        elif call == "closure_block":
            b = None
        else:
            b = self._matrix(rng, alg, n, 1)
        return {"call": call, "alg": alg, "a": a, "b": b}

    def build(self, block):
        from tropalg import ALGEBRAS_BY_NAME, TropMatrix

        out = []
        for p in block:
            alg = ALGEBRAS_BY_NAME[p["alg"]]
            args = (TropMatrix.from_rows(p["a"], alg),)
            if p["b"] is not None:
                args += (TropMatrix.from_rows(p["b"], alg),)
            out.append(Request(p["call"], args, p))
        return out

    def call(self, req):
        import tropalg

        return classify(getattr(tropalg, req.kind), *req.args)

    def expected(self, p):
        maxplus = "Max" in p["alg"]
        a, b, call = p["a"], p["b"], p["call"]
        if call == "mat_mul":
            return ("ok", ref.matmul(a, b, maxplus))
        if call == "solve_lai_tropic":
            x, bounds = ref.lai(a, b, maxplus)
            return ("ok", [x, [list(t) for t in bounds]])
        if call == "solve_lae_tropic":
            x = ref.principal(a, b, maxplus)
            if ref.matmul(a, x, maxplus) != b:
                return ("err", "NoSolution")
            return ("ok", x)
        try:
            closed = ref.closure(a, maxplus)
        except ref.NoClosure:
            return ("err", "ClosureUndefined")
        return ("ok", closed if b is None else ref.matmul(closed, b, maxplus))

    def check(self, req, outcome) -> bool:
        return plain_outcome(outcome) == self.expected(req.plain)


# ---- path-queries ----


class PathQueries:
    """Shortest-path queries and all-pairs distances on nonnegative min-plus graphs."""

    name = "path-queries"
    SIZES = (12, 13, 15, 16, 18, 22)
    DENSITIES = (0.15, 0.3, 0.6)
    QUERIES_PER_GRAPH = 4
    PLATEAU_QUERIES = 3  # 3 of 27 queries per block, about 10 %

    def blocks(self, seed: int):
        rng = random.Random(seed)
        index = 0
        while True:
            dens = [self.DENSITIES[(index + i) % 3] for i in range(len(self.SIZES))]
            rng.shuffle(dens)
            graphs = [self._random_graph(rng, n, d) for n, d in zip(self.SIZES, dens)]
            # The clique size alternates so every pair of blocks has one of each.
            graphs.append(self._plateau_graph(rng, 8 + index % 2))
            rng.shuffle(graphs)
            yield graphs
            index += 1

    def _random_graph(self, rng, n, density):
        w = [
            [0 if j == k else (rng.randint(1, 9) if rng.random() < density else INF)
             for k in range(n)]
            for j in range(n)
        ]
        queries = [tuple(rng.sample(range(n), 2)) for _ in range(self.QUERIES_PER_GRAPH)]
        return {"w": w, "queries": queries}

    def _plateau_graph(self, rng, k):
        """A zero-weight k-clique whose only exit hangs off vertex 0, then a chain to the goal.

        Every clique edge is tight, so the depth-first path search from a
        clique vertex other than 0 backtracks through the clique's simple
        paths before it tries the exit.
        """
        n = k + rng.randint(3, 7)
        w = [[0 if j == i else INF for j in range(n)] for i in range(n)]
        for i in range(k):
            for j in range(k):
                w[i][j] = 0
        w[0][k] = rng.randint(1, 9)
        for v in range(k, n - 1):
            w[v][v + 1] = rng.randint(1, 9)
            for u in range(v + 2, n):
                if rng.random() < 0.3:
                    w[v][u] = rng.randint(1, 9)
        queries = [(rng.randint(1, k - 1), n - 1) for _ in range(self.PLATEAU_QUERIES)]
        return {"w": w, "queries": queries}

    def build(self, block):
        from tropalg import Z_MIN_PLUS, TropMatrix, WeightedGraph

        out = []
        for p in block:
            g = WeightedGraph(TropMatrix.from_rows(p["w"], Z_MIN_PLUS))
            for s, t in p["queries"]:
                out.append(Request("find_shortest_path", (g, s, t), (p["w"], s, t)))
            out.append(Request("search_least_distances", (g,), (p["w"],)))
        return out

    call = DenseClosure.call

    def check(self, req, outcome) -> bool:
        kind, value = plain_outcome(outcome)
        w = req.plain[0]
        if req.kind == "search_least_distances":
            return kind == "ok" and value == [ref.dijkstra(w, s) for s in range(len(w))]
        _, s, t = req.plain
        dist = ref.dijkstra(w, s)[t]
        if dist == INF:
            return (kind, value) == ("err", "NoPath")
        return kind == "ok" and ref.path_ok(w, value, s, t, dist)


# ---- script-mix ----


class ScriptMix:
    """Seeded scripts assembled from the recorded block bank, run through the CLI in-process."""

    name = "script-mix"
    SCRIPTS_PER_BLOCK = 20  # one of them ends in an error, 5 %
    MIN_STATEMENTS, MAX_STATEMENTS = 20, 200
    TRACE_OPS = re.compile(r"semiring ops: adds=(\d+) muls=(\d+)\n")

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.bank = json.loads(BANK.read_text(encoding="utf-8"))
        self.trace_ops = False

    def blocks(self, seed: int):
        rng = random.Random(seed)
        step = (self.MAX_STATEMENTS - self.MIN_STATEMENTS) / (self.SCRIPTS_PER_BLOCK - 1)
        while True:
            targets = [round(self.MIN_STATEMENTS + i * step) for i in range(self.SCRIPTS_PER_BLOCK)]
            rng.shuffle(targets)
            failing = rng.randrange(self.SCRIPTS_PER_BLOCK)
            yield [self._script(rng, t, i == failing) for i, t in enumerate(targets)]

    def _script(self, rng, target, failing):
        parts, stdout, count = [], [], 0
        while count < target:
            b = rng.choice(self.bank["blocks"])
            parts.append(b["text"])
            stdout.append(b["stdout"])
            count += b["statements"]
        stderr, code = "", 0
        if failing:
            e = rng.choice(self.bank["error_blocks"])
            line = sum(p.count("\n") for p in parts) + e["error_line"]
            parts.append(e["text"])
            stdout = [] if e["syntax"] else stdout + [e["stdout"]]
            stderr = f"error: {line}:{e['error_col']}: {e['error_message']}\n"
            code = 1
        return {"text": "".join(parts), "stdout": "".join(stdout), "stderr": stderr, "code": code}

    def build(self, block):
        out = []
        for i, p in enumerate(block):
            path = self.work_dir / f"script{i:03d}.mp"
            path.write_text(p["text"], encoding="utf-8")
            out.append(Request("run_cli", (str(path),), p))
        return out

    def call(self, req):
        from tropalg.mathpar import cli

        argv = ["run", req.args[0]] + (["--trace-ops"] if self.trace_ops else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = classify(cli.run_cli, argv)
        return outcome + (out.getvalue(), err.getvalue())

    def op_counts(self, outcome):
        """The (adds, muls) that --trace-ops printed, or None."""
        m = self.TRACE_OPS.search(outcome[3])
        return (int(m.group(1)), int(m.group(2))) if m else None

    def check(self, req, outcome) -> bool:
        p = req.plain
        stderr = self.TRACE_OPS.sub("", outcome[3])
        return outcome[:2] == ("ok", p["code"]) and outcome[2] == p["stdout"] and stderr == p["stderr"]


WORKLOADS = {w.name: w for w in (DenseClosure, PathQueries, ScriptMix)}


def make(name: str, work_dir: Path):
    """The named workload; script-mix writes its script files under work_dir."""
    return ScriptMix(work_dir) if name == ScriptMix.name else WORKLOADS[name]()

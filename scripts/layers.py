"""Time tropalg layer by layer, on the working tree and on a base revision
in the same process, and write the rows as JSON.

Usage, from the root of a checkout:

    python3 scripts/layers.py [--base REF] [--out FILE] [--against FILE] [--quick]

The working tree's src/ is imported as the package tropalg. With --base,
the src/ of revision REF is unpacked with `git archive` into a temporary
directory and imported as the package tropalg_base; no module in src/
imports tropalg by its absolute name, so each copy runs its own code.
Every row builds its inputs from fixed seeds before any timing, then runs
its work k times on each tree, the tree that goes first alternating from
run to run, with the garbage collector off as timeit has it, and records
for each tree the best and the median seconds of one call, the adds and
muls that count_ops counts in one call, and whether both trees printed
the same result. The rows:

- script.tokenize, script.parse, script.evaluate and script.run_cli: the
  lexer, the parser (the lexer included), the evaluator on parsed
  statements, and `mathpar run` in process, over the first 60 scripts
  that the script-mix workload of bench/ draws from seed 1. A result is,
  per script, the characters of its tokens without blanks, its
  statement kinds, its printed lines, and its exit status and output.
- closure_block and mat_mul at n = 9, 24 and 64 on ZMaxPlus, QMaxPlus and
  R64MaxPlus, and closure_block at n = 33 on ZMinPlus with one 10^400
  entry, whose width sets every packed field;
- bellman_solve at n = 24 with one column on each of its two routes, the
  label-setting one (no entry of A above the unit) and the elimination on
  [A | B], whole and as the solve (trmatrix._least_solution) and the
  check (trmatrix._holds) apart;
- solve_lae_tropic at n = 24, find_shortest_path on a min-plus graph of
  24 vertices, and simplex_solve on one program of 20 constraints in 20
  unknowns;
- classical mat_mul at n = 4, 8 and 16 on floats drawn uniformly from
  [-1, 1), over R64 and, on the same dyadic values, over Q, where each
  product is the exact dot product, over R64 rounded once;
- closure_block at n = 8, 16 and 32 on ZMaxPlus with entries in [-9, 0],
  whose muls are the elimination's n^2 (n - 1): n (n - 1) at each of its
  n pivots, 448, 3840 and 31744. The often-quoted 5/6 n^3 would need a
  block recursion that joins the closures of two halves by five
  products, which returns wrong closures on easy instances; a correct
  join takes six, n^3 - n multiplications in all.

--out writes the rows and a meta block: the Python version, nproc, the
seeds, k, the base revision and the timed trees, named by the git tree
hash of each src/ (for the working tree, computed from the files as they
are, so that an uncommitted change is named too), and the run time.
--against FILE, a file made with the same --quick setting, prints for
each row it shares with that file the ratio of this run's best to that
file's. --quick runs small sizes only (the classical products at n = 4
and the closures at n = 8), with k = 3, as a smoke test. It is a
measuring tool: it checks nothing and its exit status is 0 whatever the
ratios.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT_SEED = 1
INPUT_SEED = 15
SCRIPTS = 60


def load_package(src: Path, name: str):
    """The package in src/tropalg, imported under name with its submodules."""
    init = src / "tropalg" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.mathpar.cli")
    return module


def git(*args, stdin=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, input=stdin).stdout.strip()


def src_tree() -> str:
    """The git tree hash of the working tree's src/ as its files stand,
    committed or not, computed without writing to the repository; once the
    files are committed, `git rev-parse COMMIT:src` gives the same hash."""
    files = [f for f in git("ls-files", "-co", "--exclude-standard", "--", "src").splitlines()
             if (ROOT / f).is_file()]
    blobs = git("hash-object", "--stdin-paths", stdin="\n".join(files)).splitlines()
    root: dict = {}
    for path, blob in zip(files, blobs):
        *dirs, name = path.split("/")[1:]
        node = root
        for d in dirs:
            node = node.setdefault(d, {})
        node[name] = ("100755" if (ROOT / path).stat().st_mode & 0o111 else "100644", blob)

    def digest(node: dict) -> str:
        body = b""
        for name in sorted(node, key=lambda n: n + "/" if isinstance(node[n], dict) else n):
            mode, sha = ("40000", digest(node[name])) if isinstance(node[name], dict) else node[name]
            body += f"{mode} {name}".encode() + b"\0" + bytes.fromhex(sha)
        return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()

    return digest(root)


# ---- inputs, as plain values from fixed seeds ----


def scripts(count: int) -> list[str]:
    """The first count scripts that bench/'s script-mix draws from seed 1."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import ScriptMix
    finally:
        sys.path.pop(0)
    out = []
    for block in ScriptMix(Path(tempfile.gettempdir())).blocks(SCRIPT_SEED):
        out += [p["text"] for p in block]
        if len(out) >= count:
            return out[:count]


def entry(rng, alg: str, lo: int, hi: int):
    v = rng.randint(lo, hi)
    if alg.startswith("Q"):
        return Fraction(v * 4, rng.randint(1, 4))
    return v / 10 if alg.startswith("R64") else v


def matrix(rng, alg: str, rows: int, cols: int, lo: int, hi: int, p_inf: float = 0.2):
    """Plain rows; None stands for the algebra's infinite element."""
    return [[None if rng.random() < p_inf else entry(rng, alg, lo, hi) for _ in range(cols)]
            for _ in range(rows)]


# ---- rows ----


class Row:
    """One row: a name, the calls per timed sample, and for each tree a
    function of the package that returns (work, result), where work() is
    one call and result(value) its printed form."""

    def __init__(self, name, reps, make):
        self.name, self.reps, self.make = name, reps, make


def tm(pkg, alg: str, rows):
    algebra = pkg.ALGEBRAS_BY_NAME[alg]
    zero = algebra.zero()
    return pkg.TropMatrix.from_rows([[zero if x is None else x for x in r] for r in rows], algebra)


def lists(m) -> str:
    return str(m.to_lists())


def script_rows(texts: list[str], work_dir: Path) -> list[Row]:
    paths = []
    for i, text in enumerate(texts):
        path = work_dir / f"script{i:03d}.mp"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))

    def guarded(pkg, f):
        def call(x):
            try:
                return f(x)
            except pkg.mathpar.MathparError as e:
                return str(e)
        return call

    def tokenize(pkg):
        lex = guarded(pkg, pkg.mathpar.tokenize)
        chars = (lambda toks: toks if isinstance(toks, str) else
                 "".join(t.lexeme for t in toks).replace(" ", "").replace("\t", ""))
        return (lambda: [lex(t) for t in texts]), (lambda out: repr([chars(x) for x in out]))

    def parse(pkg):
        read = guarded(pkg, pkg.mathpar.parse)
        kinds = (lambda s: s if isinstance(s, str) else [type(x).__name__ for x in s])
        return (lambda: [read(t) for t in texts]), (lambda out: repr([kinds(x) for x in out]))

    def evaluate(pkg):
        mp = pkg.mathpar
        parsed = [guarded(pkg, mp.parse)(t) for t in texts]
        run = guarded(pkg, lambda stmts: mp.evaluate(stmts, mp.Session()))
        return (lambda: [s if isinstance(s, str) else run(s) for s in parsed]), repr

    def run_cli(pkg):
        cli = pkg.mathpar.cli

        def work():
            out = []
            for path in paths:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.run_cli(["run", path])
                out.append((code, stdout.getvalue(), stderr.getvalue()))
            return out

        return work, repr

    return [Row("script.tokenize", 1, tokenize), Row("script.parse", 1, parse),
            Row("script.evaluate", 1, evaluate), Row("script.run_cli", 1, run_cli)]


def kernel_rows(quick: bool) -> list[Row]:
    rng = random.Random(INPUT_SEED)
    rows = []
    sizes = (9,) if quick else (9, 24, 64)
    reps = {9: 100, 24: 20, 64: 1}
    for name in ("closure_block", "mat_mul"):
        for n in sizes:
            for alg in ("ZMaxPlus", "QMaxPlus", "R64MaxPlus"):
                a = matrix(rng, alg, n, n, -9, 0)
                b = matrix(rng, alg, n, n, -9, 9)

                def make(pkg, name=name, alg=alg, a=a, b=b):
                    ma, mb = tm(pkg, alg, a), tm(pkg, alg, b)
                    f = pkg.closure_block if name == "closure_block" else pkg.mat_mul
                    args = (ma,) if name == "closure_block" else (ma, mb)
                    return (lambda: f(*args)), lists

                rows.append(Row(f"{name} {alg} n={n}", reps[n] * (2 if name == "mat_mul" else 1),
                                make))
    n = 9 if quick else 33
    wide = matrix(rng, "ZMinPlus", n, n, 0, 9)
    wide[n // 2][n // 3] = 10**400

    def wide_closure(pkg):
        m = tm(pkg, "ZMinPlus", wide)
        return (lambda: pkg.closure_block(m)), lists

    rows.append(Row(f"closure_block ZMinPlus n={n} one 10^400", 5, wide_closure))

    n = 9 if quick else 24
    b = matrix(rng, "ZMaxPlus", n, 1, -9, 9, 0.0)
    for route, lo, hi in (("labels", -9, 0), ("elimination", -9, -2)):
        a = matrix(rng, "ZMaxPlus", n, n, lo, hi)
        if route == "elimination":
            a[0][n - 1] = 1  # above the unit; every cycle through it stays below

        def solve(pkg, a=a):
            ma, mb = tm(pkg, "ZMaxPlus", a), tm(pkg, "ZMaxPlus", b)
            return (lambda: pkg.bellman_solve(ma, mb)), lists

        def part(pkg, a=a, check=False):
            ma, mb = tm(pkg, "ZMaxPlus", a), tm(pkg, "ZMaxPlus", b)
            x = pkg.trmatrix._least_solution(ma, mb)
            if check:
                return (lambda: pkg.trmatrix._holds(ma, x, mb, x, False)), lambda r: repr(r[0])
            return (lambda: pkg.trmatrix._least_solution(ma, mb)), lists

        rows += [Row(f"bellman_solve ZMaxPlus n={n} m=1 {route}", 20, solve),
                 Row(f"bellman_solve ZMaxPlus n={n} m=1 {route}: solve", 20, part),
                 Row(f"bellman_solve ZMaxPlus n={n} m=1 {route}: check", 20,
                     lambda pkg, part=part: part(pkg, check=True))]

    a = matrix(rng, "ZMaxPlus", n, n, -9, 9)
    x0 = [[rng.randint(-9, 9)] for _ in range(n)]

    def lae(pkg):
        ma = tm(pkg, "ZMaxPlus", a)
        mb = pkg.mat_mul(ma, tm(pkg, "ZMaxPlus", x0))
        return (lambda: pkg.solve_lae_tropic(ma, mb)), lists

    rows.append(Row(f"solve_lae_tropic ZMaxPlus n={n}", 20, lae))

    g = matrix(rng, "ZMinPlus", n, n, 1, 9, 0.7)
    for i in range(n):
        g[i][i] = 0
        if i + 1 < n and g[i][i + 1] is None:
            g[i][i + 1] = 9  # so that the last vertex is reached

    def path(pkg):
        graph = pkg.WeightedGraph(tm(pkg, "ZMinPlus", g))
        return (lambda: pkg.find_shortest_path(graph, 0, n - 1)), repr

    rows.append(Row(f"find_shortest_path ZMinPlus n={n}", 20, path))

    m = 5 if quick else 20
    lp_a = [[rng.randint(1, 9) for _ in range(m)] for _ in range(m)]
    lp_b = [rng.randint(10, 100) for _ in range(m)]
    lp_c = [rng.randint(1, 9) for _ in range(m)]

    def simplex(pkg):
        problem = pkg.LpProblem(lp_c, lp_a, lp_b, sense="max")
        return (lambda: pkg.simplex_solve(problem)), repr

    rows.append(Row(f"simplex_solve {m}x{m}", 2, simplex))

    # New names: the rows above read a, b and n when they are made.
    for size in (4,) if quick else (4, 8, 16):
        left, right = ([[rng.uniform(-1, 1) for _ in range(size)] for _ in range(size)]
                       for _ in range(2))
        for alg, read in (("R64", float), ("Q", Fraction)):
            def classical(pkg, alg=alg, operands=[[[read(x) for x in r] for r in left],
                                                  [[read(x) for x in r] for r in right]]):
                ma, mb = (tm(pkg, alg, x) for x in operands)
                return (lambda: pkg.mat_mul(ma, mb)), lists

            rows.append(Row(f"mat_mul {alg} n={size} uniform", {4: 100, 8: 40, 16: 10}[size],
                            classical))

    for size in (8,) if quick else (8, 16, 32):
        closing = matrix(rng, "ZMaxPlus", size, size, -9, 0, 0.1)

        def counted(pkg, closing=closing):
            m = tm(pkg, "ZMaxPlus", closing)
            return (lambda: pkg.closure_block(m)), lists

        rows.append(Row(f"closure_block ZMaxPlus n={size}", {8: 100, 16: 40, 32: 5}[size],
                        counted))
    return rows


# ---- timing ----


def measure(row: Row, sides: dict, k: int) -> dict:
    """Row's best and median seconds per call, counts and results on each side."""
    made = {label: row.make(pkg) for label, pkg in sides.items()}
    out, printed = {}, {}
    for label, (work, result) in made.items():
        with sides[label].count_ops() as counts:
            value = work()
        printed[label] = result(value)
        out[label] = {"adds": counts.adds, "muls": counts.muls, "samples": []}
    labels = list(made)
    gc.collect()
    gc.disable()  # as timeit does: a collection would fall in some samples only
    try:
        for i in range(k):
            for label in labels if i % 2 == 0 else labels[::-1]:
                work = made[label][0]
                start = time.perf_counter()
                for _ in range(row.reps):
                    work()
                out[label]["samples"].append((time.perf_counter() - start) / row.reps)
    finally:
        gc.enable()
    record = {"name": row.name, "reps": row.reps}
    for label in labels:
        samples = out[label].pop("samples")
        out[label].update(best_s=min(samples), median_s=statistics.median(samples))
        record[label] = out[label]
    if "base" in record:
        record["ratio_best"] = record["head"]["best_s"] / record["base"]["best_s"]
        record["ratio_median"] = record["head"]["median_s"] / record["base"]["median_s"]
        record["same_result"] = printed["head"] == printed["base"]
    return record


def show(record: dict, older: dict | None) -> None:
    head = record["head"]
    line = f"{record['name']:<52} {head['best_s'] * 1e3:10.3f} {head['median_s'] * 1e3:10.3f}"
    if "base" in record:
        base = record["base"]
        line += (f" {base['best_s'] * 1e3:10.3f} {base['median_s'] * 1e3:10.3f}"
                 f" {record['ratio_best']:7.3f} {record['ratio_median']:7.3f}"
                 f" {'same' if record['same_result'] else 'DIFFERS'}")
        if (head["adds"], head["muls"]) != (base["adds"], base["muls"]):
            line += f" ops {base['adds']}/{base['muls']} -> {head['adds']}/{head['muls']}"
    if older is not None and record["name"] in older:
        line += f"  against {head['best_s'] / older[record['name']]['head']['best_s']:.3f}"
    print(line, flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="a git revision to time beside the working tree")
    p.add_argument("--out", help="write the rows and meta block to this JSON file")
    p.add_argument("--against", help="an earlier JSON file whose rows to compare with")
    p.add_argument("--quick", action="store_true", help="small sizes only, k = 3")
    args = p.parse_args(argv)
    started = time.perf_counter()
    k = 3 if args.quick else 21
    older = None
    if args.against:
        against = json.loads(Path(args.against).read_text())
        if against["meta"]["quick"] != args.quick:
            p.error("--against needs a file made with the same --quick setting")
        older = {r["name"]: r for r in against["rows"]}

    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": {"scripts": SCRIPT_SEED, "inputs": INPUT_SEED},
        "k": k,
        "quick": args.quick,
        "head": f"src tree {src_tree()}",
        "head_commit": git("rev-parse", "HEAD"),
        "head_src_clean": git("status", "--porcelain", "--", "src") == "",
        "base": None,
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"head": load_package(ROOT / "src", "tropalg")}
        if args.base:
            archive = subprocess.run(["git", "archive", args.base, "src"], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(Path(tmp) / "base", filter="data")
            sides["base"] = load_package(Path(tmp) / "base" / "src", "tropalg_base")
            commit = git("rev-parse", f"{args.base}^{{commit}}")
            meta["base"] = {"revision": args.base, "commit": commit,
                            "src_tree": git("rev-parse", f"{commit}:src")}
        work_dir = Path(tmp) / "scripts"
        work_dir.mkdir()
        rows = (script_rows(scripts(5 if args.quick else SCRIPTS), work_dir)
                + kernel_rows(args.quick))
        print(f"{'row':<52} {'head best':>10} {'median ms':>10}"
              + (f" {'base best':>10} {'median ms':>10} {'best':>7} {'median':>7}"
                 if args.base else ""), flush=True)
        records = []
        for row in rows:
            records.append(measure(row, sides, k))
            show(records[-1], older)
    meta["run_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta["run_s"] = round(time.perf_counter() - started, 1)
    if args.out:
        Path(args.out).write_text(json.dumps({"meta": meta, "rows": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

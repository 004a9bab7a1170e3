"""The tropalg benchmark: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload dense-closure --seed 1 --seconds 35 --trace 0

Run from the repository root. The library is imported from src/ of the
checkout this file sits in; without it the run stops with exit status 2
and prints no result.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
runs a fixed number of requests twice, untraced and then traced, and
reports the per-layer metrics; its counts repeat exactly for a seed.
Every answer is checked in both modes. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a readable report and a "meta" JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import BARE_REF_MS, CAL_REF_MS, calibration_ms, speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"

HELD_OUT_SEED = 918273  # reserved for confirming a claimed gain; never tune against it
MIN_REQUESTS = 100  # so that at least 10 samples lie beyond p90
SETUP_PROBES = 11
COLD_ROUNDS = 3  # launches of each of the nine golden scripts
IMPORT_PROBES = 3
TRACE_BLOCKS = {"dense-closure": 4, "path-queries": 4, "script-mix": 6}
COLD_CODE = "from tropalg.mathpar.cli import main; main()"
COLD_ROUTE = f"{{sys.executable}} -c '{COLD_CODE}' run <golden script>"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=120, check=False)


def probe(*args) -> float:
    done = run_child([sys.executable, str(HERE / "probe.py"), *map(str, args)])
    if done.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {done.stderr}")
    return float(done.stdout)


def median_probe(n, *args) -> float:
    probe(*args)  # warm-up: the first fresh import may still compile or read cold files
    return statistics.median(probe(*args) for _ in range(n))


def launch_ms(*args):
    t0 = perf_counter()
    done = run_child([sys.executable, "-c", *args])
    return (perf_counter() - t0) * 1e3, done


def cold_launch(script: Path):
    """One cold CLI launch of a golden script; (ms, bare launch ms, whether its output was right).

    A bare `python -c pass` launched just before gives the speed at which
    processes start at that moment; the caller scales by it.
    """
    bare, _ = launch_ms("pass")
    ms, done = launch_ms(COLD_CODE, "run", str(script))
    expected = script.with_suffix(".out").read_text(encoding="utf-8")
    return ms, bare, (done.returncode, done.stdout, done.stderr) == (0, expected, "")


class FreshProcessSamples:
    """Set-up probes and cold CLI launches, taken between blocks across the whole run.

    The speed of a shared machine drifts over tens of seconds, so these
    samples are spread over the run in step with the requests rather
    than all taken at its start.
    """

    def __init__(self, w, seed, work_dir):
        self.setup_args = ("setup", w.name, seed, work_dir)
        self.scripts = sorted(GOLDEN.glob("*.mp")) * COLD_ROUNDS
        self.setup_s, self.cold_ms, self.raw_cold_ms, self.cold_failed = [], [], [], 0
        # Warm-ups: the first fresh import may still compile or read cold files.
        probe(*self.setup_args)
        cold_launch(self.scripts[0])

    def take(self, share: float):
        """Take the samples due once `share` of the run has passed.

        A set-up probe calibrates inside its own process and reports its
        time at reference speed. A cold launch is scaled by the bare
        launch made just before it.
        """
        while len(self.setup_s) < math.ceil(SETUP_PROBES * share):
            self.setup_s.append(probe(*self.setup_args))
        while len(self.cold_ms) < math.ceil(len(self.scripts) * share):
            ms, bare, ok = cold_launch(self.scripts[len(self.cold_ms)])
            self.cold_ms.append(ms * BARE_REF_MS / bare)
            self.raw_cold_ms.append(ms)
            self.cold_failed += not ok


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def closed_loop(w, seed, seconds, min_requests=MIN_REQUESTS, between=None):
    """Whole blocks of requests, one at a time, until both limits are met.

    Returns (latencies, raw latencies, failed requests).
    Latencies are in ms at reference speed: a calibration sample precedes
    every request, and each block's times are scaled by its samples'
    median. Building the library objects, calibrating and checking the
    answers happen outside the timed region. between(share of the run
    passed) is called after every block and once at the end with 1.0.
    """
    latencies, raw, failed = [], [], 0
    blocks = w.blocks(seed)
    start = perf_counter()
    while perf_counter() - start < seconds or len(latencies) < min_requests:
        cal, block_ms = [], []
        for req in w.build(next(blocks)):
            cal.append(calibration_ms())
            t0 = perf_counter()
            outcome = w.call(req)
            block_ms.append((perf_counter() - t0) * 1e3)
            if not w.check(req, outcome):
                failed += 1
        scale = speed_scale(cal)
        latencies.extend(v * scale for v in block_ms)
        raw.extend(block_ms)
        if between is not None:
            between(min(1.0, (perf_counter() - start) / seconds) if seconds else 1.0)
    if between is not None:
        between(1.0)
    return latencies, raw, failed


def measure(w, seed, seconds, work_dir):
    """The untraced closed loop; returns (metrics, attempted, failed, meta)."""
    fresh = FreshProcessSamples(w, seed, work_dir)
    latencies, raw, failed = closed_loop(w, seed, seconds, between=fresh.take)
    n, cold_n = len(latencies), len(fresh.cold_ms)
    metrics = {
        "requests_per_s": (n / sum(latencies) * 1e3, "1/s"),
        "latency_ms_p50": (statistics.median(latencies), "ms"),
        "latency_ms_p90": (p90(latencies), "ms"),
        "setup_s": (statistics.median(fresh.setup_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "cold_run_ms_p50": (statistics.median(fresh.cold_ms), "ms"),
    }
    attempted = n + cold_n
    failed += fresh.cold_failed
    meta = {
        "requests": n,
        "samples": {"latency_ms_p50": n, "latency_ms_p90": n, "setup_s": len(fresh.setup_s),
                    "cold_run_ms_p50": cold_n},
        "beyond_p90": sum(v > metrics["latency_ms_p90"][0] for v in latencies),
        "failed_ratio": failed / attempted,
        "cold_route": COLD_ROUTE,
        "reference_speed": f"calibration_ms() reads {CAL_REF_MS} ms, a bare launch {BARE_REF_MS} ms",
        "unscaled": {"requests_per_s": n / sum(raw) * 1e3, "latency_ms_p50": statistics.median(raw),
                     "latency_ms_p90": p90(raw), "cold_run_ms_p50": statistics.median(fresh.raw_cold_ms)},
    }
    return metrics, attempted, failed, meta


def per_layer(tracer, untraced_s, traced_s, import_s):
    s, x = tracer.stats.__getitem__, tracer.extra

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    mm, cb, fq = s("trmatrix.mat_mul"), s("trmatrix.closure_block"), s("graph.find_shortest_path")
    simplex, tok, ev = s("lp.simplex_solve"), s("mathpar.lexer.tokenize"), s("mathpar.interp.evaluate")
    req = s("bench.request")
    return {
        "semiring.adds": (req.adds, "count"),
        "semiring.muls": (req.muls, "count"),
        "trmatrix.mat_mul.calls": (mm.calls, "count"),
        "trmatrix.mat_mul.self_s": (mm.self_s, "s"),
        "trmatrix.mat_mul.ns_per_muladd": (ratio(mm.self_s, mm.muls, 1e9), "ns"),
        "trmatrix.mat_oplus.self_s": (s("trmatrix.mat_oplus").self_s, "s"),
        "trmatrix.closure_block.calls": (cb.calls, "count"),
        "trmatrix.closure_block.self_s": (cb.self_s, "s"),
        "trmatrix.closure_block.useful_ratio": (ratio(x["closure.useful_muls"], x["closure.muls"]), "ratio"),
        "trmatrix.construct.self_s": (s("trmatrix.construct").self_s, "s"),
        "trmatrix.construct.entries": (int(x["construct.entries"]), "count"),
        "solvers.solve_lai_tropic.self_s": (s("solvers.solve_lai_tropic").self_s, "s"),
        "solvers.solve_lae_tropic.self_s": (s("solvers.solve_lae_tropic").self_s, "s"),
        "solvers.bellman_solve.self_s": (s("solvers.bellman_solve").self_s, "s"),
        "graph.WeightedGraph.self_s": (s("graph.WeightedGraph").self_s, "s"),
        "graph.search_least_distances.s": (s("graph.search_least_distances").incl_s, "s"),
        "graph.find_shortest_path.self_s": (fq.self_s, "s"),
        "graph.find_shortest_path.tight_tests": (fq.self_muls, "count"),
        "graph.closures_per_query": (ratio(x["closure.in_query"], fq.calls), "ratio"),
        "lp.simplex_solve.s": (simplex.incl_s, "s"),
        "lp.pivots": (int(x["lp.pivots"]), "count"),
        "lp.us_per_pivot": (ratio(simplex.incl_s, x["lp.pivots"], 1e6), "us"),
        "lp.solve_univariate_linear.s": (s("lp.solve_univariate_linear").incl_s, "s"),
        "mathpar.lexer.tokenize.s": (tok.incl_s, "s"),
        "mathpar.lexer.tokens_per_s": (ratio(x["lexer.tokens"], tok.incl_s), "1/s"),
        "mathpar.parser.parse.self_s": (s("mathpar.parser.parse").self_s, "s"),
        "mathpar.interp.evaluate.self_s": (ev.self_s, "s"),
        "mathpar.interp.render.s": (s("mathpar.interp.render").incl_s, "s"),
        "mathpar.interp.statements_per_s": (ratio(x["interp.statements"], ev.incl_s), "1/s"),
        "mathpar.cli.run_cli.self_s": (s("mathpar.cli.run_cli").self_s, "s"),
        "mathpar.cli.import_s": (import_s, "s"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
    }


def trace(w, seed):
    """Run a fixed request list untraced and traced; returns (metrics, attempted, failed, meta)."""
    from tropalg import count_ops

    from tracer import Tracer

    import_s = median_probe(IMPORT_PROBES, "import")
    gen = w.blocks(seed)
    blocks = [next(gen) for _ in range(TRACE_BLOCKS[w.name])]
    script = w.name == "script-mix"
    if script:
        w.trace_ops = True

    tracer = Tracer()
    untraced, traced, untraced_s, traced_s = [], [], 0.0, 0.0
    # Each request runs untraced and then at once traced, so that both
    # meet the machine at nearly the same speed. The traced copy of a
    # block is built under the tracer, so construction is traced too.
    for block in blocks:
        plain_reqs = w.build(block)
        with tracer.installed(), tracer.span("bench.build"):
            traced_reqs = w.build(block)
        for req, treq in zip(plain_reqs, traced_reqs):
            with count_ops() as c:
                t0 = perf_counter()
                outcome = w.call(req)
                untraced_s += perf_counter() - t0
            counts = w.op_counts(outcome) if script else (c.adds, c.muls)
            untraced.append((workloads.plain_outcome(outcome), counts, w.check(req, outcome)))
            with tracer.installed():
                t0 = perf_counter()
                with tracer.span("bench.request") as span:
                    outcome = w.call(treq)
                traced_s += perf_counter() - t0
            rolled = (span.counts.adds, span.counts.muls)
            traced.append((workloads.plain_outcome(outcome), rolled, w.check(treq, outcome)))

    failed = 0
    for (out_a, counts_a, ok_a), (out_b, counts_b, ok_b) in zip(untraced, traced):
        # Same answers and the same count_ops totals with tracing on or off; for
        # script-mix the untraced totals are what --trace-ops printed (None when
        # a script stops at an error, which prints no totals).
        same_counts = counts_a is None or counts_a == counts_b
        if not (ok_a and ok_b and out_a == out_b and same_counts):
            failed += 1
    metrics = per_layer(tracer, untraced_s, traced_s, import_s)
    meta = {"requests": len(traced), "trace_blocks": TRACE_BLOCKS[w.name], "untraced_s": untraced_s,
            "traced_s": traced_s, "failed_ratio": failed / len(traced)}
    return metrics, len(traced), failed, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tropalg" / "__init__.py").is_file():
        print(f"error: no tropalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tropalg

    if Path(tropalg.__file__).resolve().parent != SRC / "tropalg":
        print(f"error: imported tropalg from {tropalg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        w = workloads.make(args.workload, work_dir)
        if args.trace:
            metrics, attempted, failed, meta = trace(w, args.seed)
        else:
            metrics, attempted, failed, meta = measure(w, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory there

    meta.update(workload=args.workload, seed=args.seed, held_out_seed=HELD_OUT_SEED,
                seconds=args.seconds, trace=args.trace, python=sys.version.split()[0],
                nproc=os.cpu_count())
    print(f"tropalg benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':40s} {meta['failed_ratio']:>16.6g} ratio  ({failed} of {attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

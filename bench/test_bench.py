"""Tests of the benchmark itself: references, checks, the tracer and the recorded bank.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import tropalg  # noqa: E402
from oracles import lp_oracle  # noqa: E402

INF = ref.INF


def first_block(name, tmp_path, seed=7):
    w = workloads.make(name, tmp_path)
    return w, w.build(next(w.blocks(seed)))


# ---- references ----


def test_closure_reference_matches_the_library_and_sees_improving_cycles():
    a = [[-1, -2, -INF], [-3, -4, 0], [-INF, -1, -2]]
    got = tropalg.closure_block(tropalg.TropMatrix.from_rows(a, tropalg.Z_MAX_PLUS))
    assert workloads.to_plain(got) == ref.closure(a, maxplus=True)
    with pytest.raises(ref.NoClosure):
        ref.closure([[0, 3], [-1, 0]], maxplus=True)
    with pytest.raises(ref.NoClosure):
        ref.closure([[0, -3], [1, 0]], maxplus=False)


def test_path_check_rejects_wrong_weight_missing_edge_and_repeats():
    w = [[0, 1, 5], [INF, 0, 1], [INF, INF, 0]]
    dist = ref.dijkstra(w, 0)
    assert dist == [0, 1, 2]
    assert ref.path_ok(w, [0, 1, 2], 0, 2, dist[2])
    assert not ref.path_ok(w, [0, 2], 0, 2, dist[2])
    assert not ref.path_ok(w, [0, 1, 0, 1, 2], 0, 2, dist[2])
    assert not ref.path_ok(w, [1, 2], 0, 2, dist[2])


# ---- every workload's answers pass, and a perturbed answer fails ----


@pytest.mark.parametrize("name", ["dense-closure", "path-queries", "script-mix"])
def test_seeded_inputs_repeat_and_answers_check(name, tmp_path):
    w = workloads.make(name, tmp_path)
    assert next(w.blocks(3)) == next(w.blocks(3))
    for req in w.build(next(w.blocks(3)))[:12]:
        assert w.check(req, w.call(req)), req.kind


def _perturb(outcome):
    kind, value = outcome[0], outcome[1]
    if kind != "ok":
        return ("err", "NoSolution" if value == "NoPath" else "NoPath")
    if isinstance(value, tropalg.TropMatrix):
        e = value.entries[0]
        bumped = tropalg.ExtScalar(e.finite + 1) if e.is_finite else value.alg.one()
        return (kind, dataclasses.replace(value, entries=(bumped,) + value.entries[1:]))
    if isinstance(value, tuple):  # solve_lai_tropic: (x, bounds)
        return (kind, (_perturb(("ok", value[0]))[1], value[1]))
    if isinstance(value, list):  # a path
        return (kind, value[:-1])
    # script-mix: ("ok", exit status, stdout, stderr)
    return outcome[:2] + (outcome[2] + "0\n", outcome[3])


@pytest.mark.parametrize("name", ["dense-closure", "path-queries", "script-mix"])
def test_perturbed_answers_are_counted_as_failed(name, tmp_path):
    w = workloads.make(name, tmp_path)
    honest_call = w.call
    w.call = lambda req: _perturb(honest_call(req))
    latencies, _, failed = run.closed_loop(w, seed=5, seconds=0, min_requests=1)
    assert failed == len(latencies) > 0


def test_an_untyped_exception_is_a_failure(tmp_path):
    w, reqs = first_block("dense-closure", tmp_path)
    outcome = workloads.classify(lambda: 1 / 0)
    assert outcome[0] == "crash"
    assert not w.check(reqs[0], outcome)


# ---- fresh-process probes ----

_CLOCK_SPY = """
import sys
sys.path.insert(0, sys.argv[1])
import probe
loaded, real = [], probe.perf_counter
def spy():
    if not loaded:
        loaded.extend(sys.modules)
    return real()
probe.perf_counter = spy
probe.main(["setup", sys.argv[2], "1", sys.argv[3]])
print(" ".join(sorted(loaded)))
"""


@pytest.mark.parametrize("name", ["dense-closure", "script-mix"])
def test_setup_probe_starts_its_clock_before_importing_what_tropalg_imports(name, tmp_path):
    import subprocess

    done = subprocess.run([sys.executable, "-c", _CLOCK_SPY, str(HERE), name, str(tmp_path)],
                          capture_output=True, text=True, check=True, timeout=120)
    setup_s, loaded = done.stdout.splitlines()
    assert float(setup_s) > 0
    early = set(loaded.split()) & {"tropalg", "workloads", "reference", "fractions", "numbers", "decimal",
                                   "json", "random", "contextlib", "enum", "dataclasses"}
    assert not early - _loaded_at_start()


def _loaded_at_start():
    import subprocess

    done = subprocess.run([sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
                          capture_output=True, text=True, check=True, timeout=60)
    return set(done.stdout.split())


# ---- the tracer ----


def test_tracing_changes_no_answer_and_no_count(tmp_path):
    w, reqs = first_block("dense-closure", tmp_path)
    reqs = [r for r in reqs if r.args[0].rows <= 13][:8]
    untraced = []
    for req in reqs:
        with tropalg.count_ops() as c:
            untraced.append((workloads.plain_outcome(w.call(req)), (c.adds, c.muls)))
    original = tropalg.solvers.mat_mul
    tracer = Tracer()
    with tracer.installed():
        assert tropalg.solvers.mat_mul is not original
        assert tropalg.mathpar.interp.closure_block is tropalg.trmatrix.closure_block
        traced = []
        for req in reqs:
            with tracer.span("bench.request") as span:
                out = w.call(req)
            traced.append((workloads.plain_outcome(out), (span.counts.adds, span.counts.muls)))
    assert tropalg.solvers.mat_mul is original
    assert traced == untraced
    st = tracer.stats
    assert st["trmatrix.mat_mul"].calls > 0
    for name, s in st.items():
        assert s.self_s <= s.incl_s + 1e-9, name


def test_run_cli_counter_keeps_its_totals_under_tracing(tmp_path, capsys):
    from tropalg.mathpar import cli

    argv = ["eval", "SPACE = ZMaxPlus[]; \\closure([[-1, -2], [-3, -4]]); [[1, 2], [3, 0]] * [4, 3];",
            "--trace-ops"]
    cli.run_cli(argv)
    untraced = capsys.readouterr()
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.request") as span:
        cli.run_cli(argv)
    traced = capsys.readouterr()
    assert traced == untraced
    assert f"adds={span.counts.adds} muls={span.counts.muls}" in untraced.err
    assert tracer.stats["mathpar.cli.run_cli"].calls == 1
    assert tracer.stats["mathpar.lexer.tokenize"].calls == 1


def test_simplex_gets_stats_injected_when_the_caller_passes_none():
    tracer = Tracer()
    with tracer.installed():
        problem = tropalg.LpProblem(c=(3, 1), a_le=((1, 1), (2, 1)), b_le=(4, 6))
        tropalg.lp.simplex_solve(problem)
    assert tracer.extra["lp.pivots"] > 0


# ---- the recorded script-block bank ----


def _bank():
    return json.loads(workloads.BANK.read_text(encoding="utf-8"))


def test_bank_covers_every_command():
    text = "".join(b["text"] for b in _bank()["blocks"])
    for cmd in ("closure", "solveLAETropic", "solveLAITropic", "BellmanEquation", "BellmanInequality",
                "findTheShortestPath", "searchLeastDistances", "SimplexMax", "SimplexMin", "solve"):
        assert f"\\{cmd}(" in text, cmd


def test_recorded_lp_optima_agree_with_vertex_enumeration_at_small_sizes():
    checked = 0
    for block in _bank()["blocks"]:
        lp = block.get("lp")
        rows = len(lp["a_le"]) + len(lp["a_eq"]) + len(lp["a_ge"]) if lp else 99
        if lp is None or len(lp["c"]) > 4 or rows > 6:
            continue
        problem = tropalg.LpProblem(
            c=tuple(lp["c"]), a_le=tuple(map(tuple, lp["a_le"])), b_le=tuple(lp["b_le"]),
            a_eq=tuple(map(tuple, lp["a_eq"])), b_eq=tuple(lp["b_eq"]),
            a_ge=tuple(map(tuple, lp["a_ge"])), b_ge=tuple(lp["b_ge"]), sense=lp["sense"],
        )
        status, objective = lp_oracle(problem)
        assert status == lp["status"]
        if status == "optimal":
            assert objective == Fraction(lp["objective"])
        checked += 1
    assert checked >= 3


# ---- compare.py ----


def _sweep_file(path, seconds, value):
    rec = {"workload": "dense-closure", "seed": 1, "trace": 0,
           "meta": {"seconds": seconds, "unscaled": {"latency_ms_p50": 2 * value}},
           "result": {"metrics": {"latency_ms_p50": {"value": value, "unit": "ms"}}}}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    return str(path)


def test_compare_shows_unscaled_rows_and_refuses_mixed_run_lengths(tmp_path, capsys):
    import compare

    base = _sweep_file(tmp_path / "base.jsonl", 25.0, 10.0)
    compare.main([base, _sweep_file(tmp_path / "new.jsonl", 25.0, 11.0)])
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["latency_ms_p50"].endswith("same")
    assert rows["unscaled.latency_ms_p50"].endswith("(not gated)")
    with pytest.raises(SystemExit, match="run length"):
        compare.main([base, _sweep_file(tmp_path / "short.jsonl", 5.0, 10.0)])

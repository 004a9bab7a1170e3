"""End-to-end acceptance checks, one test per shipping criterion.

Every test funnels through ``_criterion``, which records a single
``ACCEPTANCE <label>: PASS|FAIL`` verdict and then asserts; the
conftest hook replays the collected verdicts as a scorecard after the
run summary. For a quick look:

    pytest tests/test_acceptance.py -q
"""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from tropalg import (
    ClosureUndefined,
    ExtScalar,
    LpProblem,
    NoSolution,
    Optimal,
    SimplexStats,
    TropMatrix,
    WeightedGraph,
    Z_MAX_PLUS,
    Z_MIN_PLUS,
    bellman_homogeneous,
    bellman_solve,
    closure_block,
    count_ops,
    diag,
    find_shortest_path,
    identity,
    mat_le,
    mat_mul,
    mat_oplus,
    pseudo_inverse,
    search_least_distances,
    simplex_solve,
    solve_lae_tropic,
    solve_lai_tropic,
    trop_add,
    trop_mul,
)
from tropalg.mathpar.cli import run_cli

import conftest
from oracles import (
    INF,
    closure_iterative,
    floyd_warshall,
    lp_oracle,
    minplus_matrix_to_grid,
    rand_closure_friendly,
    rand_lp_problem,
    rand_matrix,
    rand_scalar,
)

GOLDEN = Path(__file__).parent / "golden"


def _criterion(label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {label}: {verdict}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---- 1. golden scripts ----


def test_criterion_1_golden_scripts_byte_exact():
    scripts = sorted(GOLDEN.glob("*.mp"))
    mismatches = []
    start = time.perf_counter()
    for script in scripts:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run_cli(["run", str(script)])
        expected = script.with_suffix(".out").read_text()
        if code != 0 or buf.getvalue() != expected:
            mismatches.append(script.name)
    elapsed = time.perf_counter() - start
    ok = len(scripts) == 9 and not mismatches and elapsed < 1.0
    _criterion(
        "1 golden-scripts",
        ok,
        f"{len(scripts)} scripts, {elapsed:.2f}s"
        + (f", mismatches: {mismatches}" if mismatches else ""),
    )


# ---- 2. closure oracle equivalence ----


def _closure_outcome(fn, m):
    try:
        return fn(m)
    except ClosureUndefined:
        return "undefined"


def test_criterion_2_closure_block_matches_iterative():
    rng = random.Random(200)
    pool = (
        [1] * 6 + [2] * 6 + [3] * 5 + [4] * 5 + [5] * 4 + [6] * 4
        + [7] * 3 + [8] * 3 + [9, 10, 11, 12, 13, 14, 15, 16]
    )
    checked = diverged = 0
    start = time.perf_counter()
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        draws = list(range(1, 17)) + [rng.choice(pool) for _ in range(244)]
        for n in draws:
            if rng.random() < 0.8:
                m = rand_closure_friendly(rng, alg, n)
            else:
                m = rand_matrix(rng, alg, n, n, lo=-4, hi=4, p_inf=0.25)
            fast = _closure_outcome(closure_block, m)
            slow = _closure_outcome(closure_iterative, m)
            assert fast == slow, f"disagreement on a {n}x{n} {alg.name} matrix"
            checked += 1
            if fast == "undefined":
                diverged += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 500 and elapsed < 30.0
    _criterion(
        "2 closure-oracle",
        ok,
        f"{checked} matrices, {diverged} undefined, {elapsed:.1f}s",
    )


# ---- 3. closure multiplication count ----


def test_criterion_3_closure_op_count_bound():
    rng = random.Random(300)
    measured = []
    for n in (8, 16, 32, 64):
        m = rand_closure_friendly(rng, Z_MAX_PLUS, n, p_inf=0.1)
        with count_ops() as c:
            closure_block(m)
        measured.append((n, c.muls))
    target = 5 / 6
    bounds = {n: target * n**3 + 8 * n**2 for n, _ in measured}
    bound_ok = all(muls <= bounds[n] for n, muls in measured)
    gaps = [abs(muls / n**3 - target) for n, muls in measured]
    approaching = all(b <= a for a, b in zip(gaps, gaps[1:]))
    within = gaps[-1] <= 0.10 * target
    counts = ", ".join(f"n={n}: {muls}" for n, muls in measured)
    ratios = ", ".join(f"{muls / n**3:.4f}" for n, muls in measured)
    _criterion(
        "3 closure-op-count",
        bound_ok and approaching and within,
        f"multiplications {counts}; ratios to n^3 are {ratios}; "
        f"allowed at n=64 is {bounds[64]:.0f}",
    )


# ---- 4. residuation ----


def _column_fixed(rng, alg, m, n):
    """Random matrix where every column keeps at least one finite entry."""
    grid = [
        [rand_scalar(rng, alg, p_inf=0.3) for _ in range(n)] for _ in range(m)
    ]
    for k in range(n):
        if all(not grid[j][k].is_finite for j in range(m)):
            grid[rng.randrange(m)][k] = ExtScalar.of(rng.randint(-9, 9))
    return TropMatrix.from_rows(grid, alg)


def test_criterion_4_residuation_properties():
    rng = random.Random(400)
    sound = 0
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        for _ in range(600):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, alg, m, n, p_inf=0.15)
            b = rand_matrix(rng, alg, m, 1, p_inf=0.1)
            x, _ = solve_lai_tropic(a, b)
            assert mat_le(mat_mul(a, x), b)
            sound += 1

    solved = 0
    for _ in range(1000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _column_fixed(rng, Z_MAX_PLUS, m, n)
        x0 = rand_matrix(rng, Z_MAX_PLUS, n, 1)
        b = mat_mul(a, x0)
        x = solve_lae_tropic(a, b)
        assert mat_mul(a, x) == b
        assert mat_le(x0, x)
        solved += 1

    shapes = ((1, 1), (2, 7), (5, 5), (8, 3), (12, 12), (16, 4))
    op_ok = True
    for m, n in shapes:
        a = rand_matrix(rng, Z_MAX_PLUS, m, n, p_inf=0.1)
        b = rand_matrix(rng, Z_MAX_PLUS, m, 1)
        with count_ops() as c:
            solve_lai_tropic(a, b)
        op_ok = op_ok and c.total <= 8 * m * n + 16

    ok = sound >= 1000 and solved >= 1000 and op_ok
    _criterion(
        "4 residuation",
        ok,
        f"{sound} inequality systems sound, {solved} equation systems exact "
        f"and maximal, operation count linear in m*n over {len(shapes)} shapes",
    )


# ---- 5. Bellman fixed points ----


def test_criterion_5_bellman_fixed_points():
    rng = random.Random(500)
    fixed = 0
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        for _ in range(260):
            n, k = rng.randint(1, 6), rng.randint(1, 3)
            a = rand_closure_friendly(rng, alg, n)
            b = rand_matrix(rng, alg, n, k, p_inf=0.1)
            x = bellman_solve(a, b)
            assert mat_oplus(mat_mul(a, x), b) == x
            fixed += 1

    columns = 0
    for _ in range(300):
        alg = rng.choice((Z_MAX_PLUS, Z_MIN_PLUS))
        a = rand_closure_friendly(rng, alg, rng.randint(1, 6), p_inf=0.3)
        try:
            h = bellman_homogeneous(a)
        except NoSolution:
            continue
        for j in range(h.cols):
            c = TropMatrix.column(h.entries[j :: h.cols], h.alg)
            assert mat_mul(a, c) == c
            columns += 1

    ok = fixed >= 500 and columns > 0
    _criterion(
        "5 bellman",
        ok,
        f"{fixed} inhomogeneous fixed points, {columns} homogeneous columns",
    )


# ---- 6. shortest paths ----


def _rand_graph_with_grid(rng):
    n = rng.randint(2, 12)
    density = 0.1 + 0.8 * rng.random()
    grid = [
        [
            0 if i == j else (rng.randint(0, 9) if rng.random() < density else INF)
            for j in range(n)
        ]
        for i in range(n)
    ]
    rows = [
        [
            Z_MIN_PLUS.zero() if w == INF else ExtScalar.of(int(w))
            for w in row
        ]
        for row in grid
    ]
    return WeightedGraph(TropMatrix.from_rows(rows, Z_MIN_PLUS)), grid


def test_criterion_6_shortest_path_oracle():
    rng = random.Random(600)
    graphs = witnesses = 0
    for _ in range(200):
        g, grid = _rand_graph_with_grid(rng)
        d = search_least_distances(g)
        assert minplus_matrix_to_grid(d) == floyd_warshall(grid)
        graphs += 1
        n = g.order
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j or not d.get(i, j).is_finite:
                continue
            path = find_shortest_path(g, i, j)
            total = sum(
                grid[u][v] for u, v in zip(path, path[1:])
            )
            assert total == d.get(i, j).finite
            witnesses += 1
    ok = graphs >= 200 and witnesses > 0
    _criterion(
        "6 shortest-paths",
        ok,
        f"{graphs} graphs match the reference distances, "
        f"{witnesses} path witnesses sum correctly",
    )


# ---- 7. simplex ----


def test_criterion_7_simplex_oracle():
    rng = random.Random(700)
    agreed = 0
    for _ in range(300):
        p = rand_lp_problem(rng)
        verdict, best = lp_oracle(p)
        out = simplex_solve(p)
        if isinstance(out, Optimal):
            assert verdict == "optimal" and out.objective == best, p
        else:
            assert verdict == type(out).__name__.lower(), p
        agreed += 1

    cycling = LpProblem(
        c=(Fraction(3, 4), -150, Fraction(1, 50), -6),
        a_le=(
            (Fraction(1, 4), -60, Fraction(-1, 25), 9),
            (Fraction(1, 2), -90, Fraction(-1, 50), 3),
            (0, 0, 1, 0),
        ),
        b_le=(0, 0, 1),
    )
    stats = SimplexStats()
    out = simplex_solve(cycling, stats)
    terminated = (
        isinstance(out, Optimal)
        and out.objective == Fraction(1, 20)
        and stats.pivots < 1000
    )
    ok = agreed >= 300 and terminated
    _criterion(
        "7 simplex-oracle",
        ok,
        f"{agreed} programs agree with vertex enumeration, "
        f"degenerate instance finished in {stats.pivots} pivots",
    )


# ---- 8. algebra laws ----


def test_criterion_8_algebra_law_suites():
    rng = random.Random(800)

    laws = 0
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        zero, one = alg.zero(), alg.one()
        for _ in range(500):
            a = rand_scalar(rng, alg, p_inf=0.2)
            b = rand_scalar(rng, alg, p_inf=0.2)
            c = rand_scalar(rng, alg, p_inf=0.2)
            assert trop_add(a, a, alg) == a
            assert trop_add(a, b, alg) == trop_add(b, a, alg)
            assert trop_add(trop_add(a, b, alg), c, alg) == trop_add(
                a, trop_add(b, c, alg), alg
            )
            assert trop_mul(trop_mul(a, b, alg), c, alg) == trop_mul(
                a, trop_mul(b, c, alg), alg
            )
            assert trop_mul(a, trop_add(b, c, alg), alg) == trop_add(
                trop_mul(a, b, alg), trop_mul(a, c, alg), alg
            )
            assert trop_add(a, zero, alg) == a
            assert trop_mul(a, one, alg) == a
            assert trop_mul(a, zero, alg) == zero
            laws += 1

    involutions = 0
    for i in range(1000):
        alg = (Z_MAX_PLUS, Z_MIN_PLUS)[i % 2]
        m = rand_matrix(rng, alg, rng.randint(1, 5), rng.randint(1, 5), p_inf=0.25)
        assert pseudo_inverse(pseudo_inverse(m)) == m
        involutions += 1

    diagonals = 0
    for i in range(1000):
        alg = (Z_MAX_PLUS, Z_MIN_PLUS)[i % 2]
        n = rng.randint(1, 6)
        v = [rand_scalar(rng, alg) for _ in range(n)]
        d = diag(v, alg)
        assert mat_mul(d, pseudo_inverse(d)) == identity(n, alg)
        diagonals += 1

    closures = 0
    for i in range(1000):
        alg = (Z_MAX_PLUS, Z_MIN_PLUS)[i % 2]
        n = rng.randint(1, 4)
        a = rand_closure_friendly(rng, alg, n)
        c = closure_block(a)
        eye = identity(n, alg)
        assert mat_oplus(eye, mat_mul(a, c)) == c
        assert mat_oplus(eye, mat_mul(c, a)) == c
        assert mat_mul(c, c) == c
        closures += 1

    ok = min(laws, involutions, diagonals, closures) >= 1000
    _criterion(
        "8 algebra-laws",
        ok,
        f"{laws} scalar law cases, {involutions} double negations, "
        f"{diagonals} diagonal inverses, {closures} closure fixed points",
    )

import random
from fractions import Fraction

import pytest

from tropalg import (
    DimensionMismatch,
    Infeasible,
    Interval,
    LpProblem,
    Optimal,
    SimplexStats,
    SizeLimit,
    Unbounded,
    simplex_solve,
    solve_univariate_linear,
)

import tropalg.lp
from tropalg.mathpar.cli import run_cli
from oracles import lp_oracle, rand_lp_problem, rand_rational_lp_problem, ref_simplex_solve

F = Fraction


# ---- known instances ----


def test_production_plan_instance():
    p = LpProblem(
        c=(3, 1, 2),
        a_le=((1, 1, 3), (2, 2, 5), (4, 1, 2)),
        b_le=(30, 24, 36),
    )
    out = simplex_solve(p)
    assert isinstance(out, Optimal)
    assert out.x == (F(8), F(4), F(0))
    assert out.objective == F(28)


def test_unconstrained_maximum_is_unbounded():
    assert isinstance(simplex_solve(LpProblem(c=(1,))), Unbounded)


def test_conflicting_bound_is_infeasible():
    p = LpProblem(c=(1,), a_le=((1,),), b_le=(-1,))
    assert isinstance(simplex_solve(p), Infeasible)


def test_minimisation_flips_the_goal():
    p = LpProblem(c=(1, 1), a_ge=((1, 1),), b_ge=(3,), sense="min")
    out = simplex_solve(p)
    assert isinstance(out, Optimal)
    assert out.objective == F(3)


def test_equalities_are_honoured_exactly():
    p = LpProblem(
        c=(1, 2),
        a_eq=((1, 1),),
        b_eq=(10,),
        a_le=((1, 0),),
        b_le=(4,),
    )
    out = simplex_solve(p)
    assert isinstance(out, Optimal)
    assert out.x[0] + out.x[1] == F(10)
    assert out.objective == F(20) - out.x[0]
    assert out.x == (F(0), F(10))


def test_fractional_data_stays_exact():
    p = LpProblem(c=(F(1, 3),), a_le=((F(2, 7),),), b_le=(F(5, 11),))
    out = simplex_solve(p)
    assert out.x == (F(35, 22),)
    assert out.objective == F(35, 66)


def test_degenerate_cycling_instance_terminates():
    # The classic 4-variable tableau that cycles under naive most-negative
    # pivoting; Bland's rule must finish it quickly.
    p = LpProblem(
        c=(F(3, 4), -150, F(1, 50), -6),
        a_le=(
            (F(1, 4), -60, F(-1, 25), 9),
            (F(1, 2), -90, F(-1, 50), 3),
            (0, 0, 1, 0),
        ),
        b_le=(0, 0, 1),
    )
    stats = SimplexStats()
    out = simplex_solve(p, stats)
    assert isinstance(out, Optimal)
    assert out.objective == F(1, 20)
    assert out.x == (F(1, 25), F(0), F(1), F(0))
    assert stats.pivots < 1000


# One program per branch of simplex_solve, with the answer, the pivot count
# and the final reduced costs it gave before the tableau became one list of
# constraint rows. Bland's rule fixes the pivot sequence, and on degenerate
# programs the vertex returned depends on it, so all three are pinned. The
# count includes the pivots that drive an artificial out after phase 1.
@pytest.mark.parametrize(
    "problem, answer, pivots, reduced_costs",
    [
        (
            LpProblem(
                c=(F(3, 4), -150, F(1, 50), -6),
                a_le=((F(1, 4), -60, F(-1, 25), 9), (F(1, 2), -90, F(-1, 50), 3), (0, 0, 1, 0)),
                b_le=(0, 0, 1),
            ),
            "Optimal(x=(Fraction(1, 25), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)),"
            " objective=Fraction(1, 20))",
            6,
            "0 -15 0 -21/2 0 -3/2 -1/20",
        ),
        (
            LpProblem(c=(1, 2), a_eq=((1, 1), (2, 2)), b_eq=(2, 4)),
            "Optimal(x=(Fraction(0, 1), Fraction(2, 1)), objective=Fraction(4, 1))",
            2,
            "-1 0",
        ),
        (
            LpProblem(c=(-4, -9), a_le=((5, 7),), b_le=(5,), a_eq=((-5, -6),), b_eq=(-5,)),
            "Optimal(x=(Fraction(1, 1), Fraction(0, 1)), objective=Fraction(-4, 1))",
            3,  # two by Bland's rule and the one that drives the artificial out
            "0 -21/5 0",
        ),
        (
            LpProblem(c=(1, 2), a_le=((1, 1),), b_le=(4,), a_ge=((1, -1),), b_ge=(-1,)),
            "Optimal(x=(Fraction(3, 2), Fraction(5, 2)), objective=Fraction(13, 2))",
            2,
            "0 0 -3/2 -1/2",
        ),
        (
            LpProblem(c=(-1, -2), a_le=((-1, -1), (1, 0), (0, 1)), b_le=(-2, 3, 3)),
            "Optimal(x=(Fraction(2, 1), Fraction(0, 1)), objective=Fraction(-2, 1))",
            1,
            "0 -1 -1 0 0",
        ),
        (
            LpProblem(c=(1, 1), a_le=((1, 1),), b_le=(1,), a_ge=((1, 1),), b_ge=(3,)),
            "Infeasible()",
            1,
            "",
        ),
        (LpProblem(c=(1, 1), a_le=((1, -1),), b_le=(1,)), "Unbounded()", 1, ""),
        (
            LpProblem(c=(2, 3), a_ge=((1, 1), (1, -1)), b_ge=(3, 1), sense="min"),
            "Optimal(x=(Fraction(3, 1), Fraction(0, 1)), objective=Fraction(6, 1))",
            3,
            "0 -1 -2 0",
        ),
    ],
    ids=[
        "cycling",
        "redundant-equality-row-dropped",
        "artificial-driven-out",
        "ge-row-negative-rhs-surplus-starts-basic",
        "le-row-negative-rhs",
        "infeasible",
        "unbounded",
        "min",
    ],
)
def test_each_branch_keeps_its_pivot_sequence(problem, answer, pivots, reduced_costs):
    stats = SimplexStats()
    assert repr(simplex_solve(problem, stats)) == answer
    assert stats.pivots == pivots
    assert stats.reduced_costs == tuple(F(v) for v in reduced_costs.split())


def test_reduced_costs_certify_optimality():
    p = LpProblem(
        c=(3, 1, 2),
        a_le=((1, 1, 3), (2, 2, 5), (4, 1, 2)),
        b_le=(30, 24, 36),
    )
    stats = SimplexStats()
    out = simplex_solve(p, stats)
    assert isinstance(out, Optimal)
    assert stats.reduced_costs
    assert all(rc <= 0 for rc in stats.reduced_costs)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        LpProblem(c=(1, 2), a_le=((1,),), b_le=(1,))
    with pytest.raises(DimensionMismatch):
        LpProblem(c=(1,), a_le=((1,),), b_le=(1, 2))
    with pytest.raises(DimensionMismatch):
        LpProblem(c=())


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, 2, 3), {}, "Optimal() takes 2 arguments, 3 given"),
    ((1,), {"x": 2}, "Optimal() got an unexpected or repeated argument 'x'"),
    ((1,), {}, "Optimal() missing argument 'objective'"),
])
def test_a_record_refuses_malformed_arguments(args, kwargs, message):
    with pytest.raises(TypeError) as e:
        Optimal(*args, **kwargs)
    assert str(e.value) == message


# ---- randomized comparison against vertex enumeration ----


def test_simplex_matches_vertex_enumeration():
    rng = random.Random(40)
    checked = 0
    for _ in range(120):
        p = rand_lp_problem(rng)
        verdict, best = lp_oracle(p)
        out = simplex_solve(p)
        if verdict == "infeasible":
            assert isinstance(out, Infeasible)
        elif verdict == "unbounded":
            assert isinstance(out, Unbounded)
        else:
            assert isinstance(out, Optimal)
            assert out.objective == best
        checked += 1
    assert checked == 120


# ---- the integer tableau against the Fraction simplex ----


def _agrees_with_the_fraction_simplex(p):
    ours, ref = SimplexStats(), SimplexStats()
    assert repr(simplex_solve(p, ours)) == repr(ref_simplex_solve(p, ref)), p
    assert repr(ours) == repr(ref), p


def test_random_programs_match_the_fraction_simplex():
    rng = random.Random(3200)
    for _ in range(3000):
        _agrees_with_the_fraction_simplex(rand_rational_lp_problem(rng))


def _q(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 7))


def _through(rng, p, point):
    """p with each right-hand side moved so that point satisfies its row,
    about half of the inequalities tightly."""
    slack = lambda: abs(_q(rng)) if rng.random() < 0.5 else 0
    rhs = lambda rows, sign: tuple(sum(a * x for a, x in zip(row, point)) + sign * slack() for row in rows)
    return LpProblem(p.c, p.a_le, rhs(p.a_le, 1), p.a_eq, rhs(p.a_eq, 0), p.a_ge, rhs(p.a_ge, -1), p.sense)


def _feasible(rng, extra_eq=lambda point: ()):
    """A random program with the equality rows extra_eq(point) added, all of
    it made feasible at a nonnegative point with about half its coordinates
    0, so its vertex there is degenerate."""
    p = rand_rational_lp_problem(rng)
    point = [abs(_q(rng)) if rng.random() < 0.5 else 0 for _ in p.c]
    rows = p.a_eq + tuple(extra_eq(point))
    p = LpProblem(p.c, p.a_le, p.b_le, rows, (0,) * len(rows), p.a_ge, p.b_ge, p.sense)
    return _through(rng, p, point)


def _redundant_equalities(rng):
    """Two equality rows and a rational combination of them, so phase 1
    ends on a row it drops."""
    def rows(point):
        e1, e2 = (tuple(_q(rng) for _ in point) for _ in range(2))
        lam, mu = _q(rng), _q(rng)
        return [e1, e2, tuple(lam * u + mu * v for u, v in zip(e1, e2))]
    return _feasible(rng, rows)


def _nonpositive_equality(rng):
    """An equality row with rhs 0 and negative entries where the point is 0:
    no phase-1 pivot reaches its artificial, which the drive-out then pivots
    out on a negative entry, so the denominator turns negative."""
    return _feasible(rng, lambda point: [tuple(0 if x else -abs(_q(rng)) for x in point)])


_EXTREMES = (10**400, -(10**400), F(1, 2**64 + 1), F(-1, 2**64 + 1))


def _extreme_coefficients(rng):
    """A feasible program with about one entry in five replaced by +-10^400
    or +-1/(2^64 + 1), and right-hand sides through a point of such entries."""
    p = rand_rational_lp_problem(rng)
    pick = lambda v: rng.choice(_EXTREMES) if rng.random() < 0.2 else v
    vec = lambda vs: tuple(map(pick, vs))
    mat = lambda rows: tuple(map(vec, rows))
    p = LpProblem(vec(p.c), mat(p.a_le), p.b_le, mat(p.a_eq), p.b_eq, mat(p.a_ge), p.b_ge, p.sense)
    return _through(rng, p, [abs(pick(0)) for _ in p.c])


@pytest.mark.parametrize("family", [_redundant_equalities, _nonpositive_equality, _extreme_coefficients])
def test_degenerate_families_match_the_fraction_simplex(family, monkeypatch):
    denominators, pivot = [], tropalg.lp._pivot

    def recorded(*args):
        denominators.append(pivot(*args))
        return denominators[-1]

    monkeypatch.setattr(tropalg.lp, "_pivot", recorded)
    rng = random.Random(3201)
    for _ in range(300):
        _agrees_with_the_fraction_simplex(family(rng))
    if family is _nonpositive_equality:  # the family must reach a negative denominator
        assert sum(d < 0 for d in denominators) > 100


# Beale's program as a minimum (its maximum is the pinned "cycling" case
# above) and Chvatal's smaller variant: each cycles under the
# largest-coefficient rule.
@pytest.mark.parametrize("problem", [
    LpProblem(c=(F(-3, 4), 150, F(-1, 50), 6),
              a_le=((F(1, 4), -60, F(-1, 25), 9), (F(1, 2), -90, F(-1, 50), 3), (0, 0, 1, 0)),
              b_le=(0, 0, 1), sense="min"),
    LpProblem(c=(10, -57, -9, -24),
              a_le=((F(1, 2), F(-11, 2), F(-5, 2), 9), (F(1, 2), F(-3, 2), F(-1, 2), 1), (1, 0, 0, 0)),
              b_le=(0, 0, 1)),
], ids=["beale-min", "chvatal"])
def test_cycling_programs_match_the_fraction_simplex(problem):
    _agrees_with_the_fraction_simplex(problem)


def _klee_minty(n):
    """max sum 2^(n-j) x_j subject to 2 sum_{j<i} 2^(i-j) x_j + x_i <= 5^i."""
    a = tuple(tuple(2 ** (i - j + 1) if j < i else int(j == i) for j in range(n)) for i in range(n))
    return LpProblem(c=tuple(2 ** (n - 1 - j) for j in range(n)), a_le=a,
                     b_le=tuple(5 ** (i + 1) for i in range(n)))


# Bland's rule visits exponentially many vertices of the Klee-Minty cube;
# the counts pin that growth, and each pivot works on ints of polynomial size.
@pytest.mark.parametrize("n, pivots", [(4, 9), (6, 25), (8, 67), (10, 177), (12, 465)])
def test_klee_minty_pivot_counts_grow_exponentially(n, pivots):
    stats = SimplexStats()
    out = simplex_solve(_klee_minty(n), stats)
    assert stats.pivots == pivots
    assert out.objective == 5**n
    assert out.x == (0,) * (n - 1) + (5**n,)


def test_the_pivot_limit_is_a_typed_error_positioned_at_the_call(monkeypatch, capsys):
    # Klee-Minty at n = 8 takes 67 pivots, more than a limit of 50.
    monkeypatch.setattr(tropalg.lp, "_PIVOT_LIMIT", 50)
    problem = _klee_minty(8)
    with pytest.raises(SizeLimit, match="^the simplex exceeded its limit of 50 pivots$"):
        simplex_solve(problem)
    rows = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in problem.a_le)
    script = (f"A = [{rows}];\nb = [{', '.join(map(str, problem.b_le))}];\n"
              f"c = [{', '.join(map(str, problem.c))}];\n  \\SimplexMax(A, b, c);")
    assert run_cli(["eval", script]) == 1
    assert capsys.readouterr() == ("", "error: 4:3: the simplex exceeded its limit of 50 pivots\n")


# ---- univariate inequality systems ----


def test_open_interval_between_two_bounds():
    out = solve_univariate_linear([(1, -6, ">"), (1, -7, "<")])
    assert (out.lo, out.hi) == (F(6), F(7))
    assert not out.lo_closed and not out.hi_closed
    assert not out.is_empty


def test_single_point_needs_both_ends_closed():
    out = solve_univariate_linear([(1, 0, ">="), (-1, 0, ">=")])
    assert (out.lo, out.hi) == (F(0), F(0))
    assert out.lo_closed and out.hi_closed
    out = solve_univariate_linear([(1, 0, ">="), (1, 0, "<")])
    assert out.is_empty
    assert solve_univariate_linear([(1, 0, ">"), (1, 0, "<=")]).is_empty


def test_disjoint_half_lines_are_empty():
    assert solve_univariate_linear([(1, -1, ">"), (1, 0, "<")]).is_empty


def test_negative_coefficient_flips_the_side():
    out = solve_univariate_linear([(-2, 6, ">")])
    assert out.hi == F(3) and not out.hi_closed and out.lo is None


def test_constant_inequalities_decide_everything_or_nothing():
    out = solve_univariate_linear([(0, -1, "<")])
    assert (out.lo, out.hi, out.is_empty) == (None, None, False)
    assert solve_univariate_linear([(0, 1, "<")]).is_empty


def test_equal_bounds_intersect_closedness():
    out = solve_univariate_linear([(1, -2, ">="), (1, -2, ">")])
    assert out.lo == F(2) and not out.lo_closed


def test_no_inequalities_means_the_whole_line():
    out = solve_univariate_linear([])
    assert out == Interval.all_reals()


@pytest.mark.parametrize("ineqs", [
    [(1, 0, "?")],
    [(1, 0, "<"), (1, 0, "=")],
    [(0, 1, "<"), (1, 0, "?")],
    [(1, -1, ">"), (1, 0, "<"), (0, 0, "!=")],
    [(0, 1, "<"), (0, 1, "<"), (2, 3, "=<")],
    [(0, 1, "<"), (1, 0, ["<"])],
], ids=["alone", "after-a-row", "after-a-false-constant", "after-an-empty-pair", "last",
        "unhashable"])
def test_an_unknown_relation_is_refused_wherever_it_sits(ineqs):
    with pytest.raises(ValueError, match="unknown relation"):
        solve_univariate_linear(ineqs)


def _member(out, x):
    if out.is_empty:
        return False
    above = out.lo is None or x > out.lo or (x == out.lo and out.lo_closed)
    below = out.hi is None or x < out.hi or (x == out.hi and out.hi_closed)
    return above and below


_HOLDS = {"<": lambda v: v < 0, "<=": lambda v: v <= 0, ">": lambda v: v > 0,
          ">=": lambda v: v >= 0}


def test_interval_contains_exactly_the_points_that_satisfy_every_row():
    # The solution set can only change at a bound, so the bounds, the
    # midpoints between them and a point beyond each end decide it.
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(3000):
        ineqs = [
            (rng.randint(-3, 3), F(rng.randint(-6, 6), rng.randint(1, 3)),
             rng.choice(["<", "<=", ">", ">="]))
            for _ in range(rng.randint(0, 5))
        ]
        out = solve_univariate_linear(ineqs)
        for end in (out.lo, out.hi):
            assert end is None or type(end) is Fraction
        bounds = sorted({-b / a for a, b, _ in ineqs if a})
        points = bounds + [(u + v) / 2 for u, v in zip(bounds, bounds[1:])]
        points += [bounds[0] - 1, bounds[-1] + 1] if bounds else [F(0)]
        found = False
        for x in points:
            expect = all(_HOLDS[op](a * x + b) for a, b, op in ineqs)
            assert _member(out, x) == expect, (ineqs, x)
            found = found or expect
        assert out.is_empty == (not found), ineqs
        # An open and a closed end of opposite sides at one bound.
        ends = {(-b / a, (a > 0) == (op[0] == "<"), op[-1] == "=") for a, b, op in ineqs if a}
        kinds |= {(closed, other) for bound, upper, closed in ends
                  for b2, u2, other in ends if b2 == bound and u2 != upper}
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_interval_against_brute_force_scan():
    rng = random.Random(41)
    for _ in range(200):
        ineqs = [
            (rng.randint(-4, 4), rng.randint(-4, 4), rng.choice(["<", "<=", ">", ">="]))
            for _ in range(rng.randint(1, 4))
        ]
        out = solve_univariate_linear(ineqs)
        holds = lambda a, b, op, x: {
            "<": a * x + b < 0,
            "<=": a * x + b <= 0,
            ">": a * x + b > 0,
            ">=": a * x + b >= 0,
        }[op]
        for numer in range(-40, 41):
            x = F(numer, 4)
            expect = all(holds(a, b, op, x) for a, b, op in ineqs)
            if out.is_empty:
                member = False
            else:
                member = True
                if out.lo is not None:
                    member = member and (x > out.lo or (x == out.lo and out.lo_closed))
                if out.hi is not None:
                    member = member and (x < out.hi or (x == out.hi and out.hi_closed))
            assert member == expect, (ineqs, x)

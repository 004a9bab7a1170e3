import random
from fractions import Fraction

import pytest

import tropalg.solvers
from tropalg import (
    Algebra,
    AlgebraMismatch,
    ClosureUndefined,
    DimensionMismatch,
    ExtScalar,
    NEG_INF,
    NoSolution,
    POS_INF,
    Q_CLASSICAL,
    Q_MAX_PLUS,
    Q_MIN_PLUS,
    R64_MAX_PLUS,
    R64_MIN_PLUS,
    TropMatrix,
    Z_MAX_PLUS,
    Z_MIN_PLUS,
    bellman_homogeneous,
    bellman_inequality,
    bellman_solve,
    closure_block,
    count_ops,
    identity,
    mat_le,
    mat_mul,
    mat_oplus,
    semiring_le,
    solve_lae_tropic,
    solve_lai_tropic,
    zero_matrix,
)

from tropalg.trmatrix import _least_solution

from oracles import rand_closure_friendly, rand_matrix


def s(v):
    return ExtScalar.of(v)


def mk(rows, alg=Z_MAX_PLUS):
    return TropMatrix.from_rows([[s(v) for v in row] for row in rows], alg)


def col(values, alg=Z_MAX_PLUS):
    return TropMatrix.column([s(v) for v in values], alg)


# ---- greatest sub-solutions of A x <= b ----


def test_principal_solution_of_the_known_inequality_system():
    a = mk([[2, 0], [3, 1]])
    b = col([1, 1])
    x, bounds = solve_lai_tropic(a, b)
    assert x.to_lists() == [[s(-2)], [s(0)]]
    assert [(ib.lower, ib.upper) for ib in bounds] == [
        (NEG_INF, s(-2)),
        (NEG_INF, s(0)),
    ]
    assert all(not ib.lower_closed and ib.upper_closed for ib in bounds)


def test_identity_system_bounds_by_b():
    x, _ = solve_lai_tropic(identity(2, Z_MAX_PLUS), col([0, 0]))
    assert x.to_lists() == [[s(0)], [s(0)]]


def test_minplus_bounds_open_on_the_other_side():
    a = mk([[0]], Z_MIN_PLUS)
    b = col([3], Z_MIN_PLUS)
    x, bounds = solve_lai_tropic(a, b)
    assert x.to_lists() == [[s(3)]]
    (ib,) = bounds
    assert (ib.lower, ib.upper) == (s(3), POS_INF)
    assert ib.lower_closed and not ib.upper_closed


def test_principal_solution_is_sound_and_greatest():
    rng = random.Random(20)
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        for _ in range(50):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, alg, m, n, p_inf=0.25)
            b = TropMatrix.column(
                [s(rng.randint(-9, 9)) for _ in range(m)], alg
            )
            x, _ = solve_lai_tropic(a, b)
            assert mat_le(mat_mul(a, x), b)
            if alg is Z_MAX_PLUS:
                # Bumping any finite coordinate up breaks the inequality
                # unless its column is all -inf and unconstrained.
                for k in range(n):
                    xk = x.get(k, 0)
                    if not xk.is_finite:
                        continue
                    bumped = TropMatrix.column(
                        [
                            s(x.get(i, 0).finite + 1) if i == k and x.get(i, 0).is_finite
                            else x.get(i, 0)
                            for i in range(n)
                        ],
                        alg,
                    )
                    if any(a.get(j, k).is_finite for j in range(m)):
                        assert not mat_le(mat_mul(a, bumped), b)


def test_lai_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_lai_tropic(mk([[1, 2]]), col([1, 2]))


def test_lai_over_a_classical_algebra_is_refused():
    a = mk([[1]], Q_CLASSICAL)
    with pytest.raises(AlgebraMismatch) as e:
        solve_lai_tropic(a, a)
    assert str(e.value) == "solve_lai_tropic requires a tropical algebra"


def test_a_right_hand_side_over_an_equal_algebra_built_apart_is_accepted():
    twin = Algebra(Z_MAX_PLUS.kind, Z_MAX_PLUS.domain)
    assert twin is not Z_MAX_PLUS
    x, _ = solve_lai_tropic(mk([[1, 2]]), col([3], twin))
    assert x == col([2, 1])


# ---- exact systems A x = b ----


def test_known_equation_system_solves_exactly():
    a = mk([[1, 2], [3, 0]])
    b = col([5, 7])
    x = solve_lae_tropic(a, b)
    assert x.to_lists() == [[s(4)], [s(3)]]
    assert mat_mul(a, x) == b


def test_identity_equation_returns_b():
    b = col([4, -2, 0])
    assert solve_lae_tropic(identity(3, Z_MAX_PLUS), b) == b


def test_unsolvable_equation_raises():
    a = mk([[0, 0], [0, 0]])
    b = col([0, 5])
    with pytest.raises(NoSolution):
        solve_lae_tropic(a, b)


def test_lae_right_hand_side_must_be_a_column():
    with pytest.raises(DimensionMismatch) as e:
        solve_lae_tropic(mk([[1]]), mk([[1, 2]]))
    assert str(e.value) == "the right-hand side must be a column"


def test_constructed_systems_solve_and_dominate_the_seed():
    rng = random.Random(21)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, Z_MAX_PLUS, m, n, p_inf=0.2)
        x0 = TropMatrix.column([s(rng.randint(-9, 9)) for _ in range(n)], Z_MAX_PLUS)
        b = mat_mul(a, x0)
        try:
            x = solve_lae_tropic(a, b)
        except NoSolution:
            # b has a -inf coordinate exactly when a row of a is all -inf;
            # such systems can still be solvable, but x0 itself witnesses
            # solvability, so reaching here is a failure.
            pytest.fail("a constructed system must be solvable")
        assert mat_mul(a, x) == b
        for k in range(n):
            if any(a.get(j, k).is_finite for j in range(m)):
                assert semiring_le(x0.get(k, 0), x.get(k, 0), Z_MAX_PLUS)
            else:
                # A column of -inf entries constrains nothing, so there is
                # no greatest choice; the solver pins the coordinate at the
                # bottom element.
                assert x.get(k, 0) == NEG_INF


# ---- Bellman systems ----


def test_bellman_solution_from_the_closure():
    a = mk([[-1, -2], [-3, -4]])
    b = col([0, 0])
    x = bellman_solve(a, b)
    assert x.to_lists() == [[s(0)], [s(0)]]
    assert mat_oplus(mat_mul(a, x), b) == x


def test_bellman_with_zero_matrix_returns_b():
    b = col([3, 1])
    assert bellman_solve(zero_matrix(2, 2, Z_MAX_PLUS), b) == b


def test_bellman_fixed_point_on_random_instances():
    rng = random.Random(22)
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        for _ in range(40):
            n = rng.randint(1, 6)
            a = rand_closure_friendly(rng, alg, n)
            b = TropMatrix.column([s(rng.randint(-9, 9)) for _ in range(n)], alg)
            x = bellman_solve(a, b)
            assert mat_oplus(mat_mul(a, x), b) == x


def test_homogeneous_generators_are_verified_columns():
    a = mk([[0, 1], [2, 0]], Z_MIN_PLUS)
    g = bellman_homogeneous(a)
    assert g == closure_block(a)
    for k in range(g.cols):
        c = TropMatrix.column(g.entries[k :: g.cols], g.alg)
        assert mat_mul(a, c) == c


def test_homogeneous_columns_are_compared_by_value():
    # A A* reduces to the denominator 3 and A* to 1, so their stored rows
    # differ in column 1 although its values agree.
    a = TropMatrix.from_rows([[0, -1, -2], [0, 0, 0], [0, NEG_INF, Fraction(-1, 3)]], Q_MAX_PLUS)
    assert bellman_homogeneous(a) == TropMatrix.from_rows([[0, -1], [0, 0], [0, -1]], Q_MAX_PLUS)


def test_homogeneous_identity_keeps_all_columns():
    i = identity(3, Z_MAX_PLUS)
    assert bellman_homogeneous(i) == i


def test_homogeneous_with_no_finite_generator_raises():
    with pytest.raises(NoSolution):
        bellman_homogeneous(mk([[-1]]))


def test_inequality_returns_closure_or_closure_times_b():
    a = mk([[-1, -2], [-3, -4]])
    assert bellman_inequality(a) == mk([[0, -2], [-3, 0]])
    b = col([0, 0])
    x = bellman_inequality(a, b)
    assert x.to_lists() == [[s(0)], [s(0)]]
    assert mat_le(mat_oplus(mat_mul(a, x), b), x)


def test_inequality_solutions_dominate_on_random_instances():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = rand_closure_friendly(rng, Z_MAX_PLUS, n)
        b = TropMatrix.column([s(rng.randint(-9, 9)) for _ in range(n)], Z_MAX_PLUS)
        x = bellman_inequality(a, b)
        assert mat_le(mat_oplus(mat_mul(a, x), b), x)


# a_12 = -3/7 improves on the unit, on no improving cycle, so A^x b is
# eliminated, and over R64 min-plus its sums run in another order than
# those of A x + b: x_2 = -1.7142857142857142, one step of x <- A x + b
# gives -1.7142857142857144, and that step is a fixed point.
ROUNDED_A = [[0.0, 2 / 7, 2 / 7], [5 / 7, 0.0, -3 / 7], [2 / 3, 1.0, 0.0]]
ROUNDED_B = [-1 / 3, -8 / 3, -1 / 3]
ROUNDED_X = [[-2.380952380952381], [-2.6666666666666665], [-1.7142857142857144]]


@pytest.mark.parametrize("solve", [bellman_solve, bellman_inequality])
def test_float_rounding_of_the_closure_is_refined_away(solve):
    a, b = mk(ROUNDED_A, R64_MIN_PLUS), col(ROUNDED_B, R64_MIN_PLUS)
    first = _least_solution(a, b)
    assert first.to_lists()[2] == [s(-1.7142857142857142)]
    assert mat_oplus(mat_mul(a, first), b) != first
    x = solve(a, b)
    assert [[e.finite for e in row] for row in x.to_lists()] == ROUNDED_X
    assert mat_oplus(mat_mul(a, x), b) == x


@pytest.mark.parametrize(
    "solve, alg, one, error, counts",
    [
        (bellman_solve, R64_MAX_PLUS, 1.0, ClosureUndefined, (4, 2)),
        (bellman_inequality, R64_MAX_PLUS, 1.0, ClosureUndefined, (6, 2)),
        (bellman_solve, Z_MAX_PLUS, 1, AssertionError, (2, 1)),
        (bellman_inequality, Z_MAX_PLUS, 1, AssertionError, (3, 1)),
    ],
    ids=["R64-equation", "R64-inequality", "Z-equation", "Z-inequality"],
)
def test_a_check_that_never_passes_is_refined_over_r64_only(solve, alg, one, error, counts,
                                                            monkeypatch):
    # A stand-in for A^x b with A = [[1]], which has no closure: x <- A x + b
    # climbs by 1 each round. R64 pays the check and one round, n = 1; Z
    # checks once. Each check costs A x + b, and the inequality's one more
    # sum for <=; the stand-in itself costs nothing.
    a, b = mk([[one]], alg), col([one - one], alg)
    monkeypatch.setattr(tropalg.solvers, "_least_solution", lambda a, b: b)
    with count_ops() as c, pytest.raises(error) as e:
        solve(a, b)
    assert ("float rounding" if error is ClosureUndefined else "closure produced") in str(e.value)
    assert (c.adds, c.muls) == counts


BELLMAN_TEXTS = ((bellman_solve, 1, "closure produced a non-fixed-point"),
                 (bellman_inequality, 2, "closure produced a non-solution of the inequality"))


@pytest.mark.parametrize("change", ["down", "infinite"])
@pytest.mark.parametrize(
    "alg, step",
    [(Z_MAX_PLUS, 1), (Z_MIN_PLUS, -1), (Q_MAX_PLUS, Fraction(1, 6)),
     (Q_MIN_PLUS, Fraction(-1, 6)), (R64_MAX_PLUS, 0.25), (R64_MIN_PLUS, -0.25)],
    ids=lambda v: v.name if isinstance(v, Algebra) else str(v),
)
def test_bellman_checks_refuse_a_last_column_below_the_least_solution(alg, step, change,
                                                                      monkeypatch):
    # A stand-in for _least_solution returns A^x B at n = 8, m = 3 with one
    # entry of the last column moved one step down in the natural order, or
    # to the infinite element. Every solution of X = A X + B, and of
    # A X + B <= X, lies above A^x B, so the column is neither. Each entry
    # of A is a step or more worse than the unit, so the moved entry, the
    # one where b beats every a_ij x_j, still has A X <= X there. Over Z and
    # Q both solvers raise their texts after one check of n n m
    # multiplications; over R64 the step X <- A X + B climbs back to A^x B,
    # exact on quarters, which they return after more checks. A^x B itself
    # passes at once. So a check that reads column 0 only, ignores b, or
    # takes < for <= fails here.
    rng = random.Random(f"bellman check {alg.name} {change}")
    n, m = 8, 3
    worse = {Z_MAX_PLUS.domain: lambda: rng.randint(1, 9),
             Q_MAX_PLUS.domain: lambda: Fraction(rng.randint(6, 54), 6),
             R64_MAX_PLUS.domain: lambda: rng.randint(4, 40) / 4}[alg.domain]
    a = TropMatrix.from_rows([[alg.zero() if rng.random() < 0.25 else -alg.sign * worse()
                               for _ in range(n)] for _ in range(n)], alg)
    b = TropMatrix.from_rows([[alg.sign * worse() * rng.choice((1, -1)) for _ in range(m)]
                              for _ in range(n)], alg)
    least = mat_mul(closure_block(a), b)
    rows = least.to_lists()
    i = max(range(n), key=lambda i: alg.sign * b.get(i, m - 1).finite)
    assert rows[i][m - 1] == b.get(i, m - 1)
    rows[i][m - 1] = alg.zero() if change == "infinite" else s(rows[i][m - 1].finite - step)
    wrong = TropMatrix.from_rows(rows, alg)
    for solve, sums, text in BELLMAN_TEXTS:
        one = (n * n * m + sums * n * m, n * n * m)
        with monkeypatch.context() as patch:
            patch.setattr(tropalg.solvers, "_least_solution", lambda a, b: least)
            with count_ops() as c:
                assert solve(a, b) == least
            assert (c.adds, c.muls) == one
            patch.setattr(tropalg.solvers, "_least_solution", lambda a, b: wrong)
            with count_ops() as c:
                if alg.domain is R64_MAX_PLUS.domain:
                    assert solve(a, b) == least
                else:
                    with pytest.raises(AssertionError, match=f"^{text}$"):
                        solve(a, b)
            checks = c.muls // one[1]
            assert (c.adds, c.muls) == (checks * one[0], checks * one[1])
            assert checks >= 2 if alg.domain is R64_MAX_PLUS.domain else checks == 1


@pytest.mark.parametrize(
    "alg, step",
    [(Z_MAX_PLUS, 1), (Z_MIN_PLUS, -1), (Q_MAX_PLUS, Fraction(1, 6)),
     (Q_MIN_PLUS, Fraction(-1, 6)), (R64_MAX_PLUS, 0.25), (R64_MIN_PLUS, -0.25)],
    ids=lambda v: v.name if isinstance(v, Algebra) else str(v),
)
def test_residuation_checks_refuse_a_column_above_the_principal_solution(alg, step,
                                                                         monkeypatch):
    # A stand-in for _residuate moves each entry of the principal solution
    # one step up in the natural order (quarter sums are exact over R64).
    # Every solution of A x <= b lies below the principal one, so the
    # column is none, and both residuation solvers' checks must say so,
    # on systems A x = b that do have a solution.
    rng = random.Random(f"residuation check {alg.name}")
    value = {Z_MAX_PLUS.domain: lambda: rng.randint(-9, 9),
             Q_MAX_PLUS.domain: lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
             R64_MAX_PLUS.domain: lambda: rng.randint(-40, 40) / 4}[alg.domain]
    residuate = tropalg.solvers._residuate

    def above(a, b):
        return TropMatrix.from_rows([[s(e.finite + step) for e in r]
                                     for r in residuate(a, b).to_lists()], alg)

    for n, m in ((1, 1), (3, 2), (8, 8)):
        a = mk([[value() for _ in range(m)] for _ in range(n)], alg)
        b = mat_mul(a, col([value() for _ in range(m)], alg))
        assert mat_mul(a, solve_lae_tropic(a, b)) == b
        with monkeypatch.context() as patch:
            patch.setattr(tropalg.solvers, "_residuate", above)
            with pytest.raises(AssertionError, match="^residuation produced a non-solution$"):
                solve_lai_tropic(a, b)
            with pytest.raises(NoSolution, match="^the system A x = b has no solution$"):
                solve_lae_tropic(a, b)


@pytest.mark.parametrize(
    "a, b",
    [(None, col([0] * 33)), (None, col([0] * 32, Z_MIN_PLUS)),
     (mk([[0, 1, 2], [3, 4, 5]]), col([0, 0])), (mk([[0], [1]]), mk([[0, 1], [2, 3]]))],
    ids=["too-many-rows", "other-algebra", "wide-a", "tall-a"],
)
def test_both_bellman_solvers_reject_b_before_any_closure(a, b):
    # A non-square A is refused with the closure's own text.
    if a is None:
        a = rand_closure_friendly(random.Random(25), Z_MAX_PLUS, 32)
    errors = []
    for solve in (bellman_inequality, bellman_solve):
        with count_ops() as c, pytest.raises((AlgebraMismatch, DimensionMismatch)) as e:
            solve(a, b)
        assert c.total == 0
        errors.append((type(e.value), str(e.value)))
    assert errors[0] == errors[1]
    if a.rows != a.cols:
        assert errors[0] == (DimensionMismatch, "the closure is defined for square matrices only")


# ---- operation counts ----


def test_lai_cost_is_linear_in_the_system_size():
    rng = random.Random(24)
    for m, n in ((1, 1), (3, 5), (8, 8), (12, 4)):
        a = rand_matrix(rng, Z_MAX_PLUS, m, n, p_inf=0.2)
        b = TropMatrix.column([s(rng.randint(-9, 9)) for _ in range(m)], Z_MAX_PLUS)
        with count_ops() as c:
            solve_lai_tropic(a, b)
        assert c.total <= 8 * m * n + 16

import dataclasses
import math
import pickle
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropalg import (
    ALGEBRAS_BY_NAME,
    Algebra,
    AlgebraMismatch,
    ClosureUndefined,
    Domain,
    DimensionMismatch,
    ExtScalar,
    IllegalElement,
    IndexOutOfRange,
    IntervalBound,
    NEG_INF,
    NoSolution,
    POS_INF,
    Q_CLASSICAL,
    Q_MAX_PLUS,
    Q_MIN_PLUS,
    R64_CLASSICAL,
    R64_MAX_PLUS,
    R64_MIN_PLUS,
    SemiringKind,
    TropMatrix,
    TropalgError,
    Z_MAX_PLUS,
    Z_MIN_PLUS,
    bellman_homogeneous,
    bellman_inequality,
    bellman_solve,
    closure_block,
    count_ops,
    diag,
    identity,
    mat_le,
    mat_mul,
    mat_oplus,
    pseudo_inverse,
    semiring_le,
    solve_lae_tropic,
    solve_lai_tropic,
    trop_add,
    trop_closure_scalar,
    trop_mul,
    zero_matrix,
)
from tropalg import trmatrix
from tropalg.trmatrix import _residuate

from oracles import (
    SISTER,
    closure_iterative,
    exact_bellman_homogeneous,
    exact_solve_lae_tropic,
    exact_solve_lai_tropic,
    exactly,
    mirror_matrix,
    mirror_scalar,
    rand_closure_friendly,
    rand_matrix,
    to_exact,
    _ref_eliminate,
    ref_closure_block,
    ref_mat_mul,
    ref_mat_oplus,
    ref_principal,
    ref_pseudo_inverse,
    ref_solve_lai_tropic,
)


def s(v):
    return ExtScalar.of(v)


def mk(rows, alg=Z_MAX_PLUS):
    return TropMatrix.from_rows([[s(v) for v in row] for row in rows], alg)


def grid(m):
    return [
        [None if e.inf_sign else e.finite for e in row] for row in m.to_lists()
    ]


# ---- construction ----


def test_ragged_rows_are_rejected():
    with pytest.raises(DimensionMismatch):
        mk([[1, 2], [3]])


def test_empty_matrix_is_rejected():
    with pytest.raises(DimensionMismatch):
        TropMatrix.from_rows([], Z_MAX_PLUS)


@pytest.mark.parametrize(
    "rows, cols, entries, message",
    [
        (0, 1, (), "matrices need at least one row and one column"),
        (1, 2, (ExtScalar(0),), "expected 2 entries, got 1"),
    ],
)
def test_constructor_checks_the_shape_against_the_entries(rows, cols, entries, message):
    with pytest.raises(DimensionMismatch) as e:
        TropMatrix(rows, cols, entries, Z_MAX_PLUS)
    assert str(e.value) == message


@pytest.mark.parametrize("alg", list(ALGEBRAS_BY_NAME.values()), ids=lambda a: a.name)
def test_the_constructor_reads_entries_as_from_rows_does(alg):
    # Plain numbers, ExtScalars and what is no number give the same matrix,
    # or the same typed error, either way.
    for v in (3, -0.0, 0.5, Fraction(1, 2), Fraction(4, 2), math.inf, -math.inf, math.nan,
              True, None, "x", s(2), NEG_INF, POS_INF):
        assert _outcome(TropMatrix, 1, 1, (v,), alg) == _outcome(TropMatrix.from_rows, [[v]], alg)


def test_a_plain_entry_is_read_and_a_missing_one_refused():
    assert TropMatrix(1, 1, (3,), Z_MAX_PLUS) == mk([[3]])
    with pytest.raises(IllegalElement) as e:
        TropMatrix(1, 1, (None,), Z_MAX_PLUS)
    assert str(e.value) == "cannot interpret None as a semiring element"


def test_illegal_entry_is_rejected():
    with pytest.raises(Exception):
        TropMatrix.from_rows([[POS_INF]], Z_MAX_PLUS)


def test_column_constructor():
    b = TropMatrix.column([s(5), s(7)], Z_MAX_PLUS)
    assert (b.rows, b.cols) == (2, 1)
    assert grid(b) == [[5], [7]]


# ---- products and sums ----


def test_product_takes_row_maxima_of_sums():
    a = mk([[1, 2], [3, 0]])
    x = TropMatrix.column([s(4), s(3)], Z_MAX_PLUS)
    assert grid(mat_mul(a, x)) == [[5], [7]]


def test_identity_is_neutral_for_the_product():
    rng = random.Random(1)
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        a = rand_matrix(rng, alg, 4, 4, p_inf=0.3)
        i = identity(4, alg)
        assert mat_mul(i, a) == a
        assert mat_mul(a, i) == a


def test_sum_is_entrywise_and_idempotent():
    a = TropMatrix.from_rows([[s(1), NEG_INF], [s(2), s(0)]], Z_MAX_PLUS)
    z = mk([[0, 0], [0, 0]])
    assert grid(mat_oplus(a, z)) == [[1, 0], [2, 0]]
    assert mat_oplus(a, a) == a


def test_sum_with_the_zero_matrix_is_neutral():
    rng = random.Random(2)
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        a = rand_matrix(rng, alg, 3, 5, p_inf=0.3)
        assert mat_oplus(a, zero_matrix(3, 5, alg)) == a


@pytest.mark.parametrize("op", [mat_mul, mat_oplus, mat_le])
def test_operands_of_different_algebras_are_refused(op):
    with pytest.raises(AlgebraMismatch) as e:
        op(mk([[1]]), mk([[1]], Z_MIN_PLUS))
    assert str(e.value) == "operands live in different algebras (ZMaxPlus vs ZMinPlus)"


@pytest.mark.parametrize("op", [mat_mul, mat_oplus, mat_le], ids=lambda f: f.__name__)
def test_an_equal_algebra_built_apart_is_the_same_algebra(op):
    twin = Algebra(SemiringKind.MAX_PLUS, Domain.Z)
    assert twin is not Z_MAX_PLUS
    assert op(mk([[1]]), mk([[2]], twin)) == op(mk([[1]]), mk([[2]]))
    assert mk([[1]], twin) == mk([[1]])


def test_shape_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        mat_mul(mk([[1, 2]]), mk([[1, 2]]))
    for op in (mat_oplus, mat_le):
        with pytest.raises(DimensionMismatch, match="^cannot add 1x2 and 2x1$"):
            op(mk([[1, 2]]), mk([[1], [2]]))


def test_natural_order_on_matrices():
    a = mk([[0, -5], [1, 2]])
    b = mk([[0, 0], [1, 3]])
    assert mat_le(a, b)
    assert not mat_le(b, a)


@pytest.mark.parametrize("alg, two", [(Q_CLASSICAL, 2), (R64_CLASSICAL, 2.0)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_the_natural_order_is_refused_over_classical_algebras(alg, two):
    # A classical sum is not idempotent, so a + b == b is no order there:
    # it would find B <= B false for B = [[2]].
    b = TropMatrix.from_rows([[two]], alg)
    for le, args in ((mat_le, (b, b)), (semiring_le, (b.get(0, 0), b.get(0, 0), alg))):
        with pytest.raises(AlgebraMismatch) as e:
            le(*args)
        assert str(e.value) == "the natural order is defined over tropical algebras only"
    # The algebra and shape checks come first, with their own texts.
    with pytest.raises(AlgebraMismatch, match="^operands live in different algebras"):
        mat_le(b, mk([[2]]))
    with pytest.raises(DimensionMismatch, match="^cannot add 1x1 and 1x2$"):
        mat_le(b, TropMatrix.from_rows([[two, two]], alg))


# ---- pseudo-inverse and diagonals ----


def test_pseudo_inverse_is_the_negated_transpose():
    col = TropMatrix.column([s(5), s(7)], Z_MAX_PLUS)
    assert grid(pseudo_inverse(col)) == [[-5, -7]]


def test_pseudo_inverse_is_an_involution():
    rng = random.Random(3)
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        for _ in range(20):
            a = rand_matrix(rng, alg, rng.randint(1, 5), rng.randint(1, 5), p_inf=0.3)
            assert pseudo_inverse(pseudo_inverse(a)) == a


def test_finite_diagonal_times_its_pseudo_inverse_is_identity():
    d = diag([s(1), s(2)], Z_MAX_PLUS)
    assert mat_mul(d, pseudo_inverse(d)) == identity(2, Z_MAX_PLUS)


def test_diag_and_identity_layouts():
    assert grid(identity(2, Z_MAX_PLUS)) == [[0, None], [None, 0]]
    assert grid(diag([s(1), s(2)], Z_MIN_PLUS)) == [[1, None], [None, 2]]
    assert grid(zero_matrix(1, 2, Z_MAX_PLUS)) == [[None, None]]


# ---- closure ----


def test_closure_of_a_non_square_matrix_is_refused():
    with pytest.raises(DimensionMismatch) as e:
        closure_block(mk([[0, 1]]))
    assert str(e.value) == "the closure is defined for square matrices only"


@pytest.mark.parametrize("alg, one", [(Q_CLASSICAL, 1), (R64_CLASSICAL, 1.0)],
                         ids=lambda v: getattr(v, "name", str(v)))
@pytest.mark.parametrize("op, what", [(pseudo_inverse, "the pseudo-inverse"),
                                      (closure_block, "the closure")],
                         ids=["pseudo_inverse", "closure_block"])
def test_classical_algebras_have_no_pseudo_inverse_or_closure(alg, one, op, what):
    with pytest.raises(AlgebraMismatch) as e:
        op(TropMatrix.from_rows([[one]], alg))
    assert str(e.value) == f"{what} is defined over tropical algebras only"


def test_closure_keeps_the_direct_distances_when_already_closed():
    a = mk([[0, 1], [2, 0]], Z_MIN_PLUS)
    assert closure_iterative(a) == a
    assert closure_block(a) == a


def test_closure_restores_the_diagonal_to_zero():
    a = mk([[-1, -2], [-3, -4]])
    want = mk([[0, -2], [-3, 0]])
    assert closure_iterative(a) == want
    assert closure_block(a) == want


def test_closure_of_a_positive_scalar_matrix_diverges():
    with pytest.raises(ClosureUndefined):
        closure_iterative(mk([[1]]))
    with pytest.raises(ClosureUndefined):
        closure_block(mk([[1]]))


@pytest.mark.parametrize("alg, entry", [(Q_MAX_PLUS, Fraction(1, 2)), (Q_MIN_PLUS, Fraction(-2, 7))],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_divergent_rational_closure_names_the_entry_as_given(alg, entry):
    # The other entries make the common denominator a proper multiple of the entry's.
    a = TropMatrix.from_rows([[alg.one(), alg.zero()], [Fraction(1, 3), entry]], alg)
    with pytest.raises(ClosureUndefined) as e:
        closure_block(a)
    assert str(e.value) == f"closure of {entry} does not exist over {alg.name}"


def test_closure_of_the_zero_matrix_is_identity():
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        for n in (1, 2, 3, 5):
            assert closure_block(zero_matrix(n, n, alg)) == identity(n, alg)


def test_block_closure_equals_iterative_closure_on_random_instances():
    rng = random.Random(4)
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        for _ in range(40):
            a = rand_closure_friendly(rng, alg, rng.randint(1, 8))
            assert closure_block(a) == closure_iterative(a)


def test_block_closure_agrees_with_iterative_on_divergence():
    rng = random.Random(5)
    seen = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, Z_MAX_PLUS, n, n, lo=-3, hi=3, p_inf=0.2)
        try:
            want = closure_iterative(a)
        except ClosureUndefined:
            seen += 1
            with pytest.raises(ClosureUndefined):
                closure_block(a)
        else:
            assert closure_block(a) == want
    assert seen > 10


def test_closure_satisfies_the_fixed_point_identities():
    rng = random.Random(6)
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS):
        for _ in range(25):
            n = rng.randint(1, 6)
            a = rand_closure_friendly(rng, alg, n)
            c = closure_block(a)
            i = identity(n, alg)
            assert mat_oplus(i, mat_mul(a, c)) == c
            assert mat_oplus(i, mat_mul(c, a)) == c
            assert mat_mul(c, c) == c


def test_closure_is_monotone():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = rand_closure_friendly(rng, Z_MAX_PLUS, n)
        b = rand_closure_friendly(rng, Z_MAX_PLUS, n)
        ab = mat_oplus(a, b)
        assert mat_le(closure_block(a), closure_block(ab))


def _mirror(value):
    """The image under x -> -x of an argument or a result: a scalar, a
    matrix, an algebra, solve_lai_tropic's pair, or an undefined closure."""
    if isinstance(value, ExtScalar):
        return mirror_scalar(value)
    if isinstance(value, TropMatrix):
        return mirror_matrix(value)
    if isinstance(value, tuple):
        x, bounds = value
        return mirror_matrix(x), tuple(
            IntervalBound(mirror_scalar(b.upper), mirror_scalar(b.lower),
                          b.upper_closed, b.lower_closed)
            for b in bounds
        )
    return SISTER.get(value, value)


def _counted(f, *args):
    """f(*args) with its operation counts; an undefined closure, a system
    with no solution and an illegal element each stand for themselves,
    since a message may name an entry and the algebra."""
    with count_ops() as ops:
        try:
            value = f(*args)
        except (ClosureUndefined, NoSolution, IllegalElement) as e:
            value = type(e)
    return value, ops.adds, ops.muls


def test_the_two_semirings_mirror_each_other():
    # x -> -x carries each max-plus algebra onto its min-plus sister and
    # back, so every operation commutes with it, counts included. A
    # min-plus matrix is stored as the max-plus matrix of its negated
    # values, so a matrix and its mirror store the same rows.
    rng = random.Random(8)
    huge = (1e308, 1.5e308, sys.float_info.max)

    def value(alg, lo, hi):
        if alg.domain is Domain.F64:
            if rng.random() < 0.3:
                # Near the largest float, on a side the range allows.
                return rng.choice(huge) * rng.choice([side for side in (-1, 1) if lo <= side <= hi])
            return rng.randint(lo, hi) / 4
        return Fraction(rng.randint(lo, hi), rng.randint(1, 4 if alg.domain is Domain.Q else 1))

    def matrix(alg, rows, cols, lo=-9, hi=9):
        return TropMatrix.from_rows(
            [[alg.zero() if rng.random() < 0.2 else value(alg, lo, hi) for _ in range(cols)]
             for _ in range(rows)],
            alg,
        )

    seen = Counter()
    for alg in (Z_MAX_PLUS, Z_MIN_PLUS, Q_MAX_PLUS, Q_MIN_PLUS, R64_MAX_PLUS, R64_MIN_PLUS):
        friendly = (-9, 0) if alg.kind is SemiringKind.MAX_PLUS else (0, 9)
        for _ in range(25):
            n, m, p = (rng.randint(1, 6) for _ in range(3))
            x, y = matrix(alg, 1, 2).entries
            a, c = matrix(alg, n, m), matrix(alg, n, m)
            square = matrix(alg, n, n, *rng.choice([friendly, (-2, 2)]))
            column = matrix(alg, n, 1)
            # A right-hand side A x attains, where no sum overflows.
            attained, _, _ = _counted(mat_mul, a, matrix(alg, m, 1))
            if not isinstance(attained, TropMatrix):
                attained = column
            for f, *args in [
                (trop_add, x, y, alg),
                (trop_mul, x, y, alg),
                (trop_closure_scalar, x, alg),
                (mat_mul, a, matrix(alg, m, p)),
                (mat_oplus, a, c),
                (mat_le, a, c),
                (mat_le, a, mat_oplus(a, c)),
                (pseudo_inverse, a),
                (closure_block, square),
                (solve_lai_tropic, a, column),
                (solve_lae_tropic, a, column),
                (solve_lae_tropic, a, attained),
                (bellman_solve, square, matrix(alg, n, p)),
                (bellman_inequality, square),
                (bellman_inequality, square, matrix(alg, n, p)),
                (bellman_homogeneous, square),
            ]:
                got, adds, muls = _counted(f, *args)
                mirrored = _counted(f, *map(_mirror, args))
                assert mirrored == (_mirror(got), adds, muls), (f.__name__, args)
                for operand in (*args, got):
                    if isinstance(operand, TropMatrix):
                        twin = _mirror(operand)
                        assert (twin._raw, twin._den) == (operand._raw, operand._den), f.__name__
                seen[got if isinstance(got, type) else "answer"] += 1
    assert seen[NoSolution] >= 100 and seen[ClosureUndefined] >= 50, seen
    assert seen[IllegalElement] >= 10 and seen["answer"] >= 1500, seen


# ---- isolated vertices ----


def test_closure_of_padded_matrix_restricts_to_the_original():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice([3, 5, 6, 7])
        a = rand_closure_friendly(rng, Z_MAX_PLUS, n)
        # Pad to the next power of two with an all-zero border: the added
        # vertices are isolated, so no path through them changes the closure.
        m = 1 << (n - 1).bit_length()
        rows = [row + [NEG_INF] * (m - n) for row in a.to_lists()]
        rows += [[NEG_INF] * m for _ in range(m - n)]
        p = closure_block(TropMatrix.from_rows(rows, Z_MAX_PLUS))
        c = closure_iterative(a)
        top = [row[:n] for row in p.to_lists()[:n]]
        assert top == c.to_lists()


# ---- operation counting ----


def test_block_closure_multiplication_count_follows_its_recurrence():
    # One elimination at every size and over every domain: n (n - 1) adds
    # and muls for each of its n pivots, n^2 (n - 1) in all.
    rng = random.Random(10)
    for alg in (Z_MAX_PLUS, Q_MIN_PLUS, R64_MIN_PLUS):
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 24, 25, 49):
            a = _edge_matrix(rng, alg, n, n, closable=True)
            with count_ops() as c:
                closure_block(a)
            assert (c.adds, c.muls) == (n * n * (n - 1),) * 2, (alg.name, n)


def test_matrix_product_multiplication_count_is_exact():
    rng = random.Random(11)
    a = rand_matrix(rng, Z_MAX_PLUS, 3, 4, p_inf=0.5)
    b = rand_matrix(rng, Z_MAX_PLUS, 4, 5, p_inf=0.5)
    with count_ops() as c:
        mat_mul(a, b)
    assert c.muls == 3 * 4 * 5


# ---- the kernel against the per-entry reference ----

# Values that test the kernel's number handling: signed float zeros,
# floats whose sums overflow either way, integers far beyond float range
# next to the infinite element, halves that add up to integers, and
# coprime denominators, which the integer scaling of tropical Q must
# divide out again.
EDGE_VALUES = {
    Domain.Z: (0, 1, -2, 5, 10**400, -(10**400)),
    Domain.Q: (0, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), 10**400,
               Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)),
    Domain.F64: (0.0, -0.0, 0.1, 1.5, -2.0, 1e308, -1e308),
}


def _edge_matrix(rng, alg, rows, cols, closable=False):
    """A matrix of edge values; closable keeps cycle weights from improving."""
    pool = EDGE_VALUES[alg.domain]
    if closable:
        good = (lambda v: v <= 0) if alg.kind is SemiringKind.MAX_PLUS else (lambda v: v >= 0)
        pool = [v for v in pool if good(v)]
    p_inf = 0.25 if alg.is_tropical else 0.0
    return TropMatrix.from_rows(
        [[alg.zero() if rng.random() < p_inf else rng.choice(pool) for _ in range(cols)]
         for _ in range(rows)],
        alg,
    )


def _outcome(fn, *args):
    """Shape, entries with their exact types, and operation counts; or the error."""
    with count_ops() as c:
        try:
            m = fn(*args)
        except TropalgError as e:
            return type(e).__name__, str(e)
    entries = tuple((type(e.finite).__name__, repr(e.finite), e.inf_sign) for e in m.entries)
    return m.rows, m.cols, entries, c.adds, c.muls


def _closed_or_error(fn, a):
    """The matrix fn returns, or its error's type name and text."""
    try:
        return fn(a)
    except TropalgError as e:
        return type(e).__name__, str(e)


def _quarters(rng, alg, n, closable=False):
    """An n x n R64 matrix of quarter-integers, whose float sums are exact
    in any order; closable keeps cycle weights from improving."""
    def entry():
        if rng.random() < 0.25:
            return alg.zero()
        v = rng.randint(0 if closable else -40, 40) / 4
        return -alg.sign * v if closable else v
    return TropMatrix.from_rows([[entry() for _ in range(n)] for _ in range(n)], alg)


def _assert_the_split_agrees(rng, sq, closable):
    """The block recursion down to 1 x 1 blocks gives closure_block's
    values or error: over Z and Q on sq, entry types included (its counts
    differ), and over R64 by == on quarter-integers of sq's size instead,
    since its float sums run in another order."""
    if sq.alg.domain is Domain.F64:
        q = _quarters(rng, sq.alg, sq.rows, closable)
        assert _closed_or_error(closure_block, q) == _closed_or_error(ref_closure_block, q), q
    else:
        assert _outcome(closure_block, sq)[:3] == _outcome(ref_closure_block, sq)[:3], sq


def _lai(a, b):
    return solve_lai_tropic(a, b)[0]


def _rounds_past_b(a, b):
    """Whether the per-entry principal solution of A x <= b fails it,
    which float rounding of b - a can cause over R64."""
    try:
        ref_solve_lai_tropic(a, b)
    except AssertionError:
        return True
    except TropalgError:
        pass
    return False


@pytest.mark.parametrize("alg", list(ALGEBRAS_BY_NAME.values()), ids=lambda a: a.name)
def test_matrix_operations_match_the_per_entry_reference(alg):
    # Over tropical R64 the reference is the exact one: the Q references on
    # the operands' dyadic values, each entry rounded once, residuation's
    # caps toward the infinite element. Classical R64 keeps the float folds.
    rng = random.Random(f"kernel {alg.name}")
    errors = set()
    for _ in range(200):
        n, m, p = (rng.randint(1, 4) for _ in range(3))
        a = _edge_matrix(rng, alg, n, m)
        cases = [
            (mat_mul, exactly(ref_mat_mul), a, _edge_matrix(rng, alg, m, p)),
            (mat_oplus, exactly(ref_mat_oplus), a, _edge_matrix(rng, alg, n, m)),
        ]
        if alg.is_tropical:
            k, closable = rng.randint(2, 6), rng.random() < 0.3
            sq = _edge_matrix(rng, alg, k, k, closable)
            _assert_the_split_agrees(rng, sq, closable)
            rhs = _edge_matrix(rng, alg, n, 1)
            cases += [
                (pseudo_inverse, exactly(ref_pseudo_inverse), a),
                (closure_block, exactly(_ref_eliminate), sq),
                (bellman_homogeneous, exact_bellman_homogeneous, sq),
                (_lai, exact_solve_lai_tropic, a, rhs),
                (solve_lae_tropic, exact_solve_lae_tropic, a, rhs),
            ]
        for fn, ref, *args in cases:
            got, want = _outcome(fn, *args), _outcome(ref, *args)
            if fn is bellman_homogeneous and len(got) == 5:
                # The oracle multiplies every column of the closure by A,
                # n^2 (n-1) + n^3; the library forms only the diagonal of
                # A A* and checks the kept columns: n^2 (n-1) + n^2 + n^2 |kept|.
                n, kept = got[0], got[1]
                assert want[3:] == (n * n * (n - 1) + n ** 3,) * 2, args
                assert got[3:] == (n * n * (n - 1) + n * n + n * n * kept,) * 2, args
                got, want = got[:3], want[:3]
            assert got == want, (fn.__name__, args)
            if len(got) == 2:
                errors.add(got[0])
    if alg.domain is Domain.F64:
        assert "IllegalElement" in errors
    if alg.is_tropical:
        assert "ClosureUndefined" in errors


def _planted_cycle(rng, alg, n):
    """A closable n x n matrix, n >= 2, with one improving 2-cycle between
    two random vertices, so that the closure may diverge at any pivot."""
    a = _edge_matrix(rng, alg, n, n, closable=True).to_lists()
    i, j = rng.sample(range(n), 2)
    up = 1.5 if alg.domain is Domain.F64 else rng.choice((1, 10**400))
    a[i][j], a[j][i] = s(alg.sign * up), s(-alg.sign * (up - 1))
    return TropMatrix.from_rows(a, alg)


def _chain(rng, alg, n):
    """The path through the n vertices in a random order, each edge of the
    largest magnitude edge value, toward the infinite element."""
    big = max(abs(v) for v in EDGE_VALUES[alg.domain])
    order = rng.sample(range(n), n)
    a = [[alg.zero()] * n for _ in range(n)]
    for i, j in zip(order, order[1:]):
        a[i][j] = -alg.sign * big
    return TropMatrix.from_rows(a, alg)


def _assert_stored_real(m, walk, *operands):
    """Every value m stores is None or real: over R64 an int over m's
    denominator that is a finite float exactly, and over Z and Q at most
    walk times the operands' largest magnitude."""
    bound = walk * max((abs(e.finite) for x in operands for e in x.entries if e.is_finite),
                       default=0)
    for x in (x for r in m._raw for x in r if x is not None):
        if m.alg.domain is Domain.F64:
            assert type(x) is int and Fraction(x / m._den) == Fraction(x, m._den)
        else:
            assert type(x) is int and abs(Fraction(x, m._den)) <= bound


@pytest.mark.parametrize("alg", list(SISTER), ids=lambda a: a.name)
def test_kernels_match_the_per_entry_reference_at_every_size_up_to_33(alg):
    # The operands mix 10**400 with small ints (so the sentinel must scale
    # with the largest magnitude), rationals over the denominators 1-6,
    # float sums of +-1e308 that overflow either way, signed zeros that
    # tie, and improving cycles closed at any pivot.
    rng = random.Random(f"sentinel {alg.name}")
    seen = Counter()
    for n in range(1, 34):
        p = rng.randint(1, 4)
        draw = (_fractions if alg.domain is Domain.Q and n % 2 else _edge_matrix)
        a = draw(rng, alg, n, n)
        # At odd sizes an improving cycle planted anywhere; at even sizes a
        # chain, whose closure is real down to n - 1 times the largest
        # magnitude, where a sentinel too small would be taken for real.
        squares = [draw(rng, alg, n, n, closable=True),
                   _planted_cycle(rng, alg, n) if n % 2 and n > 1 else _chain(rng, alg, n)]
        # Over R64 the references are the exact ones, rounded once.
        cases = [(mat_mul, exactly(ref_mat_mul), 2, a, draw(rng, alg, n, p)),
                 (mat_mul, exactly(ref_mat_mul), 2, draw(rng, alg, p, n), a),
                 (mat_oplus, exactly(ref_mat_oplus), 1, a, draw(rng, alg, n, n))]
        cases += [(closure_block, exactly(_ref_eliminate), n, sq) for sq in squares]
        for sq, closable in zip(squares, (True, False)):
            _assert_the_split_agrees(rng, sq, closable)
        for fn, ref, walk, *args in cases:
            got = _outcome(fn, *args)
            assert got == _outcome(ref, *args), (fn.__name__, n, args)
            if len(got) == 2:
                seen[got[0]] += 1
                continue
            seen[fn.__name__] += 1
            _assert_stored_real(fn(*args), walk, *args)
    assert seen["closure_block"] >= 45 and seen["ClosureUndefined"] >= 12
    if alg.domain is Domain.F64:
        assert seen["IllegalElement"] >= 20


def _at_the_field_width(rng, alg, rows, cols, walk, closable=False, wide=True):
    """A matrix of values at a packed field's width boundary, with an
    all-infinite row and an all-infinite column; over Q every value is
    over the denominator 3.

    When wide, its largest stored magnitude M puts 5 walk M + 1, the top of
    a field's range, just below a power of two past 10**400, so that a
    field one bit narrower would carry the values near zero into the next
    field; it holds M, 10**400, small values and the infinite element,
    each negated toward the infinite element when closable. Otherwise
    every value is 0 or infinite: M = 0, and each field holds one bit,
    which a sum of two sentinels less a real value fills.
    """
    top = (2 ** (1340 + (5 * walk).bit_length()) - 2) // (5 * walk) if wide else 0
    pool = (top, top - 1, 10**400, 1, 0, -1, -(10**400), -top) if wide else (0,)
    if closable:
        pool = [v for v in pool if v >= 0]
    m = [[None if rng.random() < 0.2 else rng.choice(pool) for _ in range(cols)]
         for _ in range(rows)]
    m[rng.randrange(rows)][rng.randrange(cols)] = top
    if rows > 1 and cols > 1:
        i, j = rng.randrange(rows), rng.randrange(cols)
        m[i] = [None] * cols
        for r in m:
            r[j] = None
    sign = -alg.sign if closable else 1
    den = 3 if alg.domain is Domain.Q else 1
    return TropMatrix.from_rows([[alg.zero() if v is None else s(Fraction(sign * v, den))
                                  for v in r] for r in m], alg)


@pytest.mark.parametrize("alg", [Z_MAX_PLUS, Z_MIN_PLUS, Q_MAX_PLUS, Q_MIN_PLUS],
                         ids=lambda a: a.name)
def test_packed_fields_hold_values_at_their_width_boundary(alg):
    # The closure, A^x B read off the elimination on [A | B], which an
    # entry of A better than the unit selects, and a product by several
    # columns, each on operands at the packed field's width boundary,
    # against the per-entry references: entries with their types, or the
    # error's type and text. The closure and the product also run on
    # one-bit fields, of 0 and the infinite element only.
    rng = random.Random(f"field width {alg.name}")
    for n in (1, 2, 33, 64):
        for wide in (True, False):
            sq = _at_the_field_width(rng, alg, n, n, n, True, wide)
            assert _outcome(closure_block, sq)[:3] == _outcome(_ref_eliminate, sq)[:3], n
            for p in (2, 3):
                a = _at_the_field_width(rng, alg, n, n, 2, False, wide)
                b = _at_the_field_width(rng, alg, n, p, 2, False, wide)
                assert _outcome(mat_mul, a, b) == _outcome(ref_mat_mul, a, b), (n, p)
            if not wide:
                continue
            # Column 0 loses its edges in, and row 0 gains the entry M,
            # better than the unit, so that no cycle improves: A^x B is
            # eliminated.
            rows = sq.to_lists()
            for r in rows:
                r[0] = alg.zero()
            if n > 1:
                rows[0][1] = s(alg.sign * max(abs(e.finite) for e in sq.entries if e.is_finite))
            a = TropMatrix.from_rows(rows, alg)
            assert _improves(a) == (n > 1), n
            b = _at_the_field_width(rng, alg, n, 2, n)
            want = _outcome(lambda a, b: ref_mat_mul(_ref_eliminate(a), b), a, b)[:3]
            assert _outcome(bellman_solve, a, b)[:3] == want, n


def _cycle_at_pivot(rng, alg, n, k, draw=_edge_matrix):
    """A closable n x n matrix with one improving cycle, which pivot k
    closes: a loop at vertex 0 when k is 0, else a 2-cycle between vertex 0
    and vertex k."""
    a = draw(rng, alg, n, n, closable=True).to_lists()
    if k:
        a[0][k], a[k][0] = s(alg.sign * 10**400), s(-alg.sign * (10**400 - 1))
    else:
        a[0][0] = s(alg.sign)
    return TropMatrix.from_rows(a, alg)


@pytest.mark.parametrize("alg", [Z_MAX_PLUS, Z_MIN_PLUS, Q_MAX_PLUS, Q_MIN_PLUS],
                         ids=lambda a: a.name)
@pytest.mark.parametrize("k", [0, 23, 24, 47])
def test_divergence_at_pivot_k_raises_as_the_split_to_1x1_does(alg, k):
    n = 48
    a = _cycle_at_pivot(random.Random(f"pivot {alg.name} {k}"), alg, n, k)
    got = _outcome(closure_block, a)
    assert got[0] == "ClosureUndefined"
    assert got == _outcome(_ref_eliminate, a) == _outcome(ref_closure_block, a)
    # The k pivots passed before the raise, n (n - 1) multiplications each.
    with count_ops() as c, pytest.raises(ClosureUndefined):
        closure_block(a)
    assert c.muls == k * n * (n - 1)


def _closure_times_b(a, b):
    return mat_mul(closure_block(a), b)


def _pivot_cost(n, m, pivots):
    """The adds, and the muls, of the first pivots of the closure's
    elimination on an n x (n + m) [A | B]: every other row gains a multiple
    of the pivot row, B's columns included."""
    return pivots * (n - 1) * (n + m)


def _eliminated(a, b):
    """A^x B read off the closure's elimination on [A | B]."""
    ra, rb, den = trmatrix._common(a, b)
    closed = trmatrix._closure([[*r, *s] for r, s in zip(ra, rb)], a.alg, den)
    return trmatrix._result([r[a.rows:] for r in closed], a.alg, den)


def _settle_cost(a, x):
    """The adds, and the muls, of settling X = A^x B by labels: the finite
    off-diagonal entries of A in the column of each vertex whose x is
    finite, summed over the columns of X."""
    rows = a.to_lists()
    into = [sum(rows[v][u].is_finite for v in range(a.rows) if v != u) for u in range(a.rows)]
    return sum(into[u] for u in range(x.rows) for c in range(x.cols) if x.get(u, c).is_finite)


def _improves(a):
    """Whether some finite entry of a, its diagonal included, is better than the unit."""
    return any(e.is_finite and a.alg.sign * e.finite > 0 for e in a.entries)


def _shifted(rng, alg, a):
    """a_ij + p_i - p_j for a random potential p, over the domain's values:
    every cycle keeps its weight, so none improves where none did, while an
    entry off the diagonal may improve on the unit."""
    if alg.domain is Domain.F64:
        p = [rng.randint(-40, 40) / 4 for _ in range(a.rows)]
    elif alg.domain is Domain.Q:
        p = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(a.rows)]
    else:
        p = [rng.randint(-9, 9) for _ in range(a.rows)]
    return TropMatrix.from_rows([[e if not e.is_finite else s(e.finite + p[i] - p[j])
                                  for j, e in enumerate(r)] for i, r in enumerate(a.to_lists())],
                                alg)


@pytest.mark.parametrize("alg", [Z_MAX_PLUS, Z_MIN_PLUS, Q_MAX_PLUS, Q_MIN_PLUS],
                         ids=lambda a: a.name)
def test_bellman_solvers_match_the_closure_times_b_at_every_size_up_to_33(alg):
    # A^x B against the closure times B and the references' split route
    # times B: entries with their types, or the error's type and text. Each
    # square is closable, or a chain, or closable and shifted by a
    # potential, or has an improving cycle that pivot k = 0, n // 2 or
    # n - 1 closes. A chain times a B whose one real row, at the chain's
    # end, has the largest magnitude is real down to n times it. The slow
    # split route runs on all but the chain and the shifted square, and
    # multiplies by B of at most 2 columns. An A with no entry better than
    # the unit is settled by labels, any other by the closure's elimination
    # on [A | B], at (n - 1) (n + m) a pivot.
    rng = random.Random(f"bellman {alg.name}")
    big = -alg.sign * max(abs(v) for v in EDGE_VALUES[alg.domain])
    seen = Counter()
    for n in range(1, 34):
        draw = _fractions if alg.domain is Domain.Q and n % 2 else _edge_matrix
        closable = draw(rng, alg, n, n, closable=True)
        squares = [(None, "closable", closable), (None, "chain", _chain(rng, alg, n)),
                   (None, "shifted", _shifted(rng, alg, closable))]
        squares += [(k, "cycle", _cycle_at_pivot(rng, alg, n, k, draw))
                    for k in sorted({0, n // 2, n - 1})]
        for k, kind, a in squares:
            chain = kind == "chain"
            split = (None if kind in ("chain", "shifted")
                     else _closed_or_error(ref_closure_block, a))
            for m in sorted({1, 2, n}):
                b = (TropMatrix.from_rows([[alg.zero() if any(e.is_finite for e in r) else big]
                                           * m for r in a.to_lists()], alg)
                     if chain else draw(rng, alg, n, m))
                want = _outcome(_closure_times_b, a, b)[:3]
                if isinstance(split, tuple):
                    assert want == split, (n, m, k)
                elif split is not None and m <= 2:
                    assert want == _outcome(ref_mat_mul, split, b)[:3], (n, m, k)
                # The solve, n n m more of each for the check A X + B, n m
                # more adds for its sum, and n m more for the inequality's <=.
                if _improves(a):
                    cost = _pivot_cost(n, m, n)
                else:
                    cost = _settle_cost(a, _closure_times_b(a, b))
                for solve, sums in ((bellman_solve, 1), (bellman_inequality, 2)):
                    got = _outcome(solve, a, b)
                    assert got[:3] == want, (solve.__name__, n, m, k)
                    if k is None:
                        assert got[3:] == (cost + n * n * m + sums * n * m, cost + n * n * m)
                        seen["eliminated" if _improves(a) else "settled"] += 1
                        continue
                    assert got[0] == "ClosureUndefined", (n, m, k)
                    # The k pivots passed before the raise, and no check.
                    with count_ops() as c, pytest.raises(ClosureUndefined):
                        solve(a, b)
                    assert (c.adds, c.muls) == (_pivot_cost(n, m, k),) * 2
                    seen["raised"] += 1
    assert seen["settled"] >= 380 and seen["eliminated"] >= 170 and seen["raised"] >= 500


def _bellman_outcomes(a, b):
    """bellman_solve's and bellman_inequality's answers, or their errors."""
    return [_closed_or_error(lambda a: solve(a, b), a)
            for solve in (bellman_solve, bellman_inequality)]


def _exact_closure_times_b(a, b):
    """A^x B by the exact reference, rounded once, or the closure's error."""
    return exactly(lambda a, b: ref_mat_mul(_ref_eliminate(a), b))(a, b)


@pytest.mark.parametrize("alg", [R64_MAX_PLUS, R64_MIN_PLUS], ids=lambda a: a.name)
def test_float_bellman_solves_keep_the_closure_times_b_outcome(alg):
    # Quarter-integer sums are exact, so both routes agree with the closure
    # times b by ==. On thirds and sevenths the exact sums round: every
    # answer, settled or eliminated, is the exact A^x B rounded once, as
    # the exact reference gives it, and A x + b recomputed on the rounded
    # answer may miss it by an ulp.
    rng = random.Random(f"float bellman {alg.name}")
    seen = Counter()
    for n in range(1, 25):
        for m in sorted({1, n}):
            closable = rng.random() < 0.7
            shift = closable and rng.random() < 0.5
            a, b = _quarters(rng, alg, n, closable), _quarters(rng, alg, n)
            b = TropMatrix.from_rows([r[:m] for r in b.to_lists()], alg)
            q = _shifted(rng, alg, a) if shift else a
            want = _closed_or_error(lambda a: _closure_times_b(a, b), q)
            assert _bellman_outcomes(q, b) == [want] * 2, (n, m)
            seen["answered" if isinstance(want, TropMatrix) else "raised"] += 1
            a = TropMatrix.from_rows([[e if not e.is_finite else s(e.finite / rng.choice((3, 7)))
                                       for e in r] for r in a.to_lists()], alg)
            if shift:
                a = _shifted(rng, alg, a)
            want = _closed_or_error(lambda a: _exact_closure_times_b(a, b), a)
            x, y = _bellman_outcomes(a, b)
            assert x == y == want, (n, m)
            if not isinstance(want, TropMatrix):
                continue
            seen["eliminated" if _improves(a) else "settled"] += 1
            seen["off by an ulp"] += mat_oplus(mat_mul(a, x), b) != x
    assert seen["answered"] >= 20 and seen["raised"] >= 5, seen
    assert seen["settled"] >= 10 and seen["eliminated"] >= 10 and seen["off by an ulp"] >= 1, seen


SPARSE_SHAPES = ("lower", "split", "isolated", "chain", "sparse")


def _sparse(rng, alg, n, rows_, cols_, shape, closable):
    """An rows_ x cols_ matrix whose missing edges follow a planted shape on
    the n vertices, taken in a random order: "lower" is block
    lower-triangular, with no edge from the first block into the second;
    "split" is two components; "isolated" has a vertex with no edge in or
    out; "chain" is one path through every vertex, each edge of the
    largest magnitude toward the infinite element, so that its closure is
    real down to n - 1 times it; "sparse" is at least 80 % infinite. Other
    values are small or 10**400 over Z, over the denominators 1-6 too over
    Q, and quarter-integers up to 10 over R64, whose float sums are exact
    in any order; closable keeps cycle weights from improving. Columns
    past n have edges by the fill rate alone."""
    order = rng.sample(range(n), n)
    first = set(order[:rng.randint(0, n)])
    step = {(i, j) for i, j in zip(order, order[1:])}
    allowed = {
        "lower": lambda i, j: j >= n or i not in first or j in first,
        "split": lambda i, j: j >= n or (i in first) == (j in first),
        "isolated": lambda i, j: i == j or order[0] not in (i, j),
        "chain": lambda i, j: (i, j) in step,
        "sparse": lambda i, j: True,
    }[shape]
    fill = rng.uniform(0.0, 0.2) if shape == "sparse" else rng.choice((0.3, 0.7, 1.0))

    def value():
        if shape == "chain":
            return -alg.sign * (10.0 if alg.domain is Domain.F64 else 10**400)
        if alg.domain is Domain.F64:
            v = rng.randint(-40, 40) / 4
        elif rng.random() < 0.1:
            v = rng.choice((1, -1)) * 10**400
        elif alg.domain is Domain.Q:
            v = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        else:
            v = rng.randint(-9, 9)
        return -alg.sign * abs(v) if closable else v

    return TropMatrix.from_rows(
        [[value() if allowed(i, j) and (shape == "chain" or rng.random() < fill) else alg.zero()
          for j in range(cols_)] for i in range(rows_)], alg)


@pytest.mark.parametrize("alg", list(SISTER), ids=lambda a: a.name)
def test_sparse_closures_and_solves_match_the_references_and_keep_their_counts(alg):
    # The kernels keep a row whole when its multiplier is the infinite
    # element, which these matrices make common; answers, error texts and
    # counts must be those of every row updated. Entries are compared with
    # their types, except over R64 against routes that add in another
    # order, where a zero's sign may differ: there by ==.
    rng = random.Random(f"sparse {alg.name}")
    floats = alg.domain is Domain.F64
    seen = Counter()

    def answer(fn, *args):
        with count_ops() as c:
            try:
                m = fn(*args)
            except TropalgError as e:
                return (type(e).__name__, str(e)), c.adds, c.muls
        return m if floats else _outcome(lambda: m)[:3], c.adds, c.muls

    for n in range(1, 34):
        # A closable matrix, the same shifted by a potential, whose entries
        # may improve on the unit though no cycle does, and one of any sign.
        shape, other = (SPARSE_SHAPES[i % len(SPARSE_SHAPES)] for i in (n, n + 2))
        closable = _sparse(rng, alg, n, n, n, shape, True)
        for shape, a in ((shape, closable), (shape, _shifted(rng, alg, closable)),
                         (other, _sparse(rng, alg, n, n, n, other, False))):
            got = _outcome(closure_block, a)
            assert got == _outcome(_ref_eliminate, a), (shape, n)
            closed, adds, muls = answer(closure_block, a)
            assert closed == answer(ref_closure_block, a)[0], (shape, n)
            # The closure costs n^2 (n - 1); one that raises passed k pivots.
            k = n if len(got) > 2 else muls // max(n * (n - 1), 1)
            assert adds == muls == k * n * (n - 1), (shape, n)
            seen[got[0] if k < n else "closed"] += 1
            for m in (1, 2):
                b = _sparse(rng, alg, n, n, m, shape, False)
                want = answer(_closure_times_b, a, b)[0]
                # An A with no entry better than the unit is settled by
                # labels; any other is eliminated, and may raise.
                if not _improves(a):
                    cost = _settle_cost(a, _closure_times_b(a, b))
                    seen["settled"] += 1
                elif k == n:
                    cost = _pivot_cost(n, m, n)
                    seen["eliminated"] += 1
                else:
                    cost = _pivot_cost(n, m, k)
                for solve, sums in ((bellman_solve, 1), (bellman_inequality, 2)):
                    # The solve, and when it answers the check A X + B: n n m
                    # more of each, n m more adds for its sum and n m more for
                    # the inequality's <=.
                    check = (n * n * m + sums * n * m, n * n * m) if k == n else (0, 0)
                    assert answer(solve, a, b) == (want, cost + check[0], cost + check[1]), (
                        solve.__name__, shape, n, m)
    assert seen["closed"] >= 70 and seen["ClosureUndefined"] >= 10
    assert seen["settled"] >= 80 and seen["eliminated"] >= 40


def _spy_on_the_routes(monkeypatch) -> list:
    """The names of the A^x B kernels run from now on, in call order."""
    ran = []
    for name in ("_label_setting", "_closure"):
        def spy(*args, kernel=getattr(trmatrix, name)):
            ran.append(kernel.__name__)
            return kernel(*args)
        monkeypatch.setattr(trmatrix, name, spy)
    return ran


@pytest.mark.parametrize("alg", [Z_MAX_PLUS, Z_MIN_PLUS, Q_MAX_PLUS, Q_MIN_PLUS],
                         ids=lambda a: a.name)
def test_settling_and_elimination_agree_where_no_entry_improves(alg, monkeypatch):
    # Where no entry of A improves on the unit, A^x B settled by labels is
    # A^x B eliminated, entry by entry with types, on the sparse shapes and
    # their 10**400 values, and _least_solution settles it. One improving
    # entry a_vj on an acyclic part, where no edge leads back into v, or
    # one improving loop a_vv, sends A to the elimination: the first
    # answers as the closure times B does, the second raises as it does.
    rng = random.Random(f"routes {alg.name}")
    ran = _spy_on_the_routes(monkeypatch)
    up = {Domain.Z: (1, 10**400), Domain.Q: (Fraction(1, 6), 10**400)}[alg.domain]
    seen = Counter()
    for n in range(1, 34):
        for shape in (SPARSE_SHAPES[n % 5], SPARSE_SHAPES[(n + 2) % 5]):
            a = _sparse(rng, alg, n, n, n, shape, closable=True)
            v, j = rng.randrange(n), rng.randrange(n)
            rows = a.to_lists()
            rows[v][v] = s(alg.sign * rng.choice(up))
            loop = TropMatrix.from_rows(rows, alg)
            rows = [[alg.zero() if k == v and i != v else e for k, e in enumerate(r)]
                    for i, r in enumerate(a.to_lists())]
            rows[v][j] = s(alg.sign * rng.choice(up))
            acyclic = TropMatrix.from_rows(rows, alg) if j != v else None
            for m in sorted({1, 2, n}):
                b = _sparse(rng, alg, n, n, m, shape, False)
                ra, rb, den = trmatrix._common(a, b)
                settled = _outcome(trmatrix._result, list(
                    zip(*trmatrix._label_setting(ra, list(zip(*rb))))), alg, den)[:3]
                assert settled == _outcome(_eliminated, a, b)[:3], (shape, n, m)
                ran.clear()
                assert _outcome(trmatrix._least_solution, a, b)[:3] == settled, (shape, n, m)
                assert ran == ["_label_setting"], (shape, n, m)
                seen["settled"] += 1
                for improving in (loop, acyclic):
                    if improving is None:
                        continue
                    want = _outcome(_closure_times_b, improving, b)[:3]
                    ran.clear()
                    got = _outcome(trmatrix._least_solution, improving, b)
                    assert got[:3] == want and ran == ["_closure"], (shape, n, m)
                    seen[got[0] if len(got) == 2 else "eliminated"] += 1
    assert seen["settled"] >= 190 and seen["eliminated"] >= 150
    assert seen["ClosureUndefined"] >= 190


@pytest.mark.parametrize("alg", [R64_MAX_PLUS, R64_MIN_PLUS], ids=lambda a: a.name)
def test_a_settled_float_solve_passes_its_check_with_no_refinement(alg):
    # Weights uniform over [0, 60) toward the infinite element, a tenth of
    # them missing, and a 0.0 diagonal: A^x B settled and A^x B eliminated
    # are the same exact value, rounded once, though A X + B recomputed on
    # the rounded answer misses it. The solve costs the settling and one
    # exact check of n n m multiplications, and n m more adds for its sum.
    rng = random.Random(f"settled floats {alg.name}")
    n = 32
    z = alg.zero()
    a = TropMatrix.from_rows([[0.0 if i == j else z if rng.random() < 0.1
                               else -alg.sign * rng.uniform(0, 60) for j in range(n)]
                              for i in range(n)], alg)
    b = TropMatrix.from_rows([[z if rng.random() < 0.1 else rng.uniform(-60, 60)
                               for _ in range(n)] for _ in range(n)], alg)
    eliminated = _eliminated(a, b)
    assert mat_oplus(mat_mul(a, eliminated), b) != eliminated
    with count_ops() as c:
        x = bellman_solve(a, b)
    settle = _settle_cost(a, x)
    assert (c.adds, c.muls) == (settle + n * n * n + n * n, settle + n * n * n)
    assert x == eliminated


@pytest.mark.parametrize("alg", [R64_MAX_PLUS, R64_MIN_PLUS], ids=lambda a: a.name)
def test_float_sums_that_overflow_fold_or_raise_as_the_reference_does(alg):
    # Each operation rounds its exact entries once: one past the largest
    # float toward the infinite element is that element, and one past it
    # the other way raises IllegalElement, or names a divergent pivot's
    # value that does.
    big = -alg.sign * 1e308  # sums of two lie past the largest float
    toward = TropMatrix.from_rows([[big, 0.0], [alg.zero(), big]], alg)
    away = TropMatrix.from_rows([[0.0, -big], [-big, 0.0]], alg)
    z = alg.zero()
    path = TropMatrix.from_rows([[0.0, -big, z], [z, 0.0, -big], [z, z, 0.0]], alg)
    # Min-plus is stored negated, so both algebras store the same rows.
    assert mat_mul(toward, toward)._raw == ((None, int(-1e308)), (None, None))
    assert closure_block(toward)._raw == ((0, 0), (None, 0))
    for fn, ref, args in ((mat_mul, ref_mat_mul, (toward, toward)),
                          (mat_mul, ref_mat_mul, (away, away)),
                          (closure_block, _ref_eliminate, (toward,)),
                          (closure_block, _ref_eliminate, (away,)),
                          (closure_block, _ref_eliminate, (path,)),
                          (closure_block, ref_closure_block, (path,))):
        assert _outcome(fn, *args) == _outcome(exactly(ref), *args)
    # Pivot 0 adds the two off-diagonal entries into a_11, 2e308 away from
    # the infinite element, and pivot 1 names it. The walk 0 -> 1 -> 2 of
    # path weighs 2e308 too, though no cycle improves and no pivot raises.
    assert _outcome(closure_block, away)[0] == _outcome(closure_block, path)[0] == "IllegalElement"
    # The Bellman solvers on a right-hand side of units fold or raise alike.
    for a, folds in ((toward, True), (away, False), (path, False)):
        b = TropMatrix.column([0.0] * a.rows, alg)
        want = _closed_or_error(lambda a: _closure_times_b(a, b), a)
        assert isinstance(want, TropMatrix) is folds
        assert _bellman_outcomes(a, b) == [want] * 2
    # A^x B is one operation, rounded once: the walk 0 -> 1 -> 2 of path
    # leads to the infinite element of b, so the solvers answer where the
    # closure, which holds its 2e308, raises.
    b = TropMatrix.column([0.0, 0.0, z], alg)
    assert _closed_or_error(lambda a: _closure_times_b(a, b), path)[0] == "IllegalElement"
    want = _exact_closure_times_b(path, b)
    assert want.to_lists() == [[s(-big)], [s(0.0)], [z]]
    assert _bellman_outcomes(path, b) == [want] * 2
    # So does the walk 1 -> 0 -> 2 that pivot 0 adds into a_12, as x_2 is
    # the infinite element.
    formed = TropMatrix.from_rows([[0.0, z, -big], [-big, 0.0, z], [z, z, 0.0]], alg)
    b = TropMatrix.column([z, 0.0, z], alg)
    assert _closed_or_error(lambda a: _closure_times_b(a, b), formed)[0] == "IllegalElement"
    assert _bellman_outcomes(formed, b) == [_exact_closure_times_b(formed, b)] * 2
    # A sum past the largest float in B's column alone leaves the divergent
    # pivot's error, which the closure raises before any product by B.
    cycle = TropMatrix.from_rows([[0.0, big + alg.sign * 1e300], [-big, 0.0]], alg)
    b = TropMatrix.column([-big, z], alg)
    want = _closed_or_error(lambda a: _closure_times_b(a, b), cycle)
    assert want[0] == "ClosureUndefined"
    assert _bellman_outcomes(cycle, b) == [want] * 2


@pytest.mark.parametrize("alg", [R64_MAX_PLUS, R64_MIN_PLUS], ids=lambda a: a.name)
def test_float_residuation_never_rounds_past_b(alg):
    rng = random.Random(f"rounding {alg.name}")
    rounded = 0
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a, b = (
            TropMatrix.from_rows([[rng.randint(-50, 50) / 10 for _ in range(cols)]
                                  for _ in range(n)], alg)
            for cols in (m, 1)
        )
        if not _rounds_past_b(a, b):
            continue
        rounded += 1
        x = _lai(a, b)
        assert mat_le(mat_mul(a, x), b)
        assert mat_le(x, ref_principal(a, b))
        try:
            y = solve_lae_tropic(a, b)
        except NoSolution:
            pass
        else:
            assert mat_mul(a, y) == b
    assert rounded > 10


# Both ends of the float range: the least subnormal beside the largest
# magnitudes, so that an exact value spans over 2000 bits.
FLOAT_ENDS = (5e-324, -5e-324, 1e-300, -1e-300, 1.5e308, -1.5e308, 0.0)


def _at_the_float_ends(rng, alg, rows, cols, side=None):
    """An R64 matrix of FLOAT_ENDS and the infinite element. side "toward"
    keeps every value at or toward the infinite element from 0, so that no
    cycle improves; "tiny" also allows the subnormal and 1e-300 away from
    it, so that no sum of two passes the largest float that way."""
    keep = {None: lambda v: True, "toward": lambda v: alg.sign * v <= 0,
            "tiny": lambda v: alg.sign * v < 1}[side]
    pool = [v for v in FLOAT_ENDS if keep(v)]
    return TropMatrix.from_rows([[alg.zero() if rng.random() < 0.2 else rng.choice(pool)
                                  for _ in range(cols)] for _ in range(rows)], alg)


@pytest.mark.parametrize("alg", [R64_MAX_PLUS, R64_MIN_PLUS], ids=lambda a: a.name)
def test_values_at_both_ends_of_the_float_range_match_the_exact_reference(alg):
    # The closure, A^x B settled by labels and eliminated on [A | B],
    # products by 1 and 3 columns and residuation, on operands that mix
    # 5e-324, 1e-300, +-1.5e308 and the infinite element, against the exact
    # reference rounded once: entries with their types and counts, or the
    # error. The packed fields hold values scaled by 2^1074.
    rng = random.Random(f"float ends {alg.name}")
    seen = Counter()

    def check(fn, ref, *args, counts=True):
        got, want = _outcome(fn, *args), _outcome(ref, *args)
        assert (got if counts else got[:3]) == (want if counts else want[:3]), (fn.__name__, n)
        seen[got[0] if len(got) == 2 else fn.__name__] += 1

    for n in (1, 2, 9, 33):
        sq = _at_the_float_ends(rng, alg, n, n, "toward")
        check(closure_block, exactly(_ref_eliminate), sq)
        for p in (1, 3):
            check(mat_mul, exactly(ref_mat_mul), _at_the_float_ends(rng, alg, n, n, "tiny"),
                  _at_the_float_ends(rng, alg, n, p))
            check(mat_mul, exactly(ref_mat_mul), *(_at_the_float_ends(rng, alg, n, k)
                                                   for k in (n, p)))
        # Settled: no entry improves. Eliminated: column 0 loses its edges
        # in, and a_01 = 1.5e308 improves on the unit on no cycle.
        rows = sq.to_lists()
        for r in rows:
            r[0] = alg.zero()
        if n > 1:
            rows[0][1] = s(alg.sign * 1.5e308)
        improving = TropMatrix.from_rows(rows, alg)
        for a in (sq, improving):
            assert _improves(a) == (a is improving and n > 1)
            b = _at_the_float_ends(rng, alg, n, 2)
            for solve in (bellman_solve, bellman_inequality):
                check(solve, _exact_closure_times_b, a, b, counts=False)
        a, b = _at_the_float_ends(rng, alg, n, n), _at_the_float_ends(rng, alg, n, 1)
        check(_lai, exact_solve_lai_tropic, a, b)
        check(solve_lae_tropic, exact_solve_lae_tropic, a, mat_mul(a, _at_the_float_ends(
            rng, alg, n, 1, "tiny")) if rng.random() < 0.5 else b)
    assert seen["closure_block"] >= 3 and seen["mat_mul"] >= 8, seen
    assert seen["bellman_solve"] >= 6 and seen["_lai"] >= 3, seen
    # One result past the largest float on each side: toward the infinite
    # element it is that element, the other way it raises.
    big = s(1.5e308)
    toward, away = (TropMatrix.from_rows([[sign * big.finite]], alg) for sign in (-alg.sign, alg.sign))
    assert mat_mul(toward, toward).entries == (alg.zero(),)
    with pytest.raises(IllegalElement, match="^float overflow produced an illegal infinity$"):
        mat_mul(away, away)


def _public_check(a, x, b, target, le):
    """The verdict, the step A x + b (A x when b is None) and the counts of
    the route through the public operations: mat_mul, mat_oplus, and ==,
    or the natural order's defining identity step + target == target."""
    with count_ops() as c:
        try:
            step = mat_mul(a, x)
            if b is not None:
                step = mat_oplus(step, b)
            verdict = mat_oplus(step, target) == target if le else step == target
        except TropalgError as e:
            return (type(e).__name__, str(e)), c.adds, c.muls
    return (verdict, _outcome(lambda: step)[:3]), c.adds, c.muls


def _kernel_check(a, x, b, target, le):
    """The same, from the check kernel, its step read over the operands' least
    common denominator."""
    with count_ops() as c:
        try:
            verdict, rows = trmatrix._holds(a, x, b, target, le)
        except TropalgError as e:
            return (type(e).__name__, str(e)), c.adds, c.muls
    den = math.lcm(a._den, x._den, target._den, 1 if b is None else b._den)
    return (verdict, _outcome(trmatrix._result, rows, a.alg, den)[:3]), c.adds, c.muls


def _folds(a, x):
    """Whether a sum a_ik + x_kj of R64 values lies past the largest float
    on the infinite element's side."""
    big, sign = Fraction(sys.float_info.max), a.alg.sign
    return any(u.is_finite and v.is_finite and -sign * (Fraction(u.finite) + Fraction(v.finite)) > big
               for r in a.to_lists() for c in zip(*x.to_lists()) for u, v in zip(r, c))


def _reference_step(a, x, b):
    """A x + b, or A x when b is None, by the per-entry reference."""
    step = ref_mat_mul(a, x)
    return step if b is None else ref_mat_oplus(step, b)


@pytest.mark.parametrize("alg", list(SISTER), ids=lambda a: a.name)
def test_the_check_kernel_answers_as_the_public_route_does(alg):
    # Systems of edge values (10**400, -0.0, R64 sums past the largest
    # float on either side) or of small ones, with 0, a quarter or 60 % of
    # the entries infinite, so that columns of x with and without None both
    # occur, and x over other denominators than A's over Q. The target is
    # x, the public step itself, that step with one entry replaced, or
    # drawn apart. Verdict, step with its entry types, and counts must
    # agree. Over R64 the check is exact: its verdict and counts are the
    # public route's on the same values over Q, and its step, rounded once,
    # is the exact reference's, or the IllegalElement of a value past the
    # largest float away from the infinite element.
    rng = random.Random(f"check kernel {alg.name}")
    small = {Domain.Z: lambda: rng.randint(-9, 9),
             Domain.Q: lambda: Fraction(rng.randint(-12, 12), rng.choice((5, 7, 9))),
             Domain.F64: lambda: rng.randint(-40, 40) / 4}[alg.domain]

    def draw(rows, cols, edges):
        p_inf = rng.choice((0.0, 0.25, 0.6))
        return TropMatrix.from_rows(
            [[alg.zero() if rng.random() < p_inf else
              rng.choice(EDGE_VALUES[alg.domain]) if edges else small()
              for _ in range(cols)] for _ in range(rows)], alg)

    seen = Counter()
    for _ in range(450):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        edges = rng.random() < 0.5
        a, x = draw(n, k, edges), draw(k, m, edges)
        b = draw(n, m, edges) if rng.random() < 0.7 else None
        try:
            step = mat_mul(a, x) if b is None else mat_oplus(mat_mul(a, x), b)
        except IllegalElement:
            step = None
        if step is None or n == k and rng.random() < 0.2:
            target = x if n == k else draw(n, m, edges)
        else:
            rows = step.to_lists()
            if rng.random() < 0.6:
                rows[rng.randrange(n)][rng.randrange(m)] = rng.choice((alg.zero(), s(small())))
            target = TropMatrix.from_rows(rows, alg)
        seen["other denominators"] += a._den != x._den
        # The check and the public route share _product and _oplus, so the
        # step is also judged by the reference, signs of zeros included.
        reference = _outcome(exactly(_reference_step), a, x, b)[:3]
        exact = [to_exact(m) for m in (a, x, b, target)]
        for le in (False, True):
            (verdict, step_exact), *counts = _public_check(*exact, le)
            assert _kernel_check(a, x, b, target, le) == ((verdict, reference), *counts), (
                a, x, b, target, le)
            seen[le, verdict] += 1
            if alg.domain is not Domain.F64:
                assert step_exact == reference
                if le:
                    assert mat_le(step, target) is verdict
                continue
            seen["IllegalElement"] += reference[0] == "IllegalElement"
            seen["folded"] += _folds(a, x)
    assert all(seen[le, v] >= 100 for le in (False, True) for v in (False, True)), seen
    if alg.domain is Domain.F64:
        assert seen["IllegalElement"] >= 40 and seen["folded"] >= 20, seen
    if alg.domain is Domain.Q:
        assert seen["other denominators"] >= 100, seen


def _negative_zero(e):
    return e.is_finite and e.finite == 0 and math.copysign(1, e.finite) < 0


def _flip_zeros(rng, m):
    """m with some of its float zeros negated, which compare equal."""
    return TropMatrix.from_rows(
        [[-e.finite if e.is_finite and e.finite == 0 and rng.random() < 0.5 else e for e in r]
         for r in m.to_lists()], m.alg)


@pytest.mark.parametrize("alg", list(SISTER), ids=lambda a: a.name)
def test_the_order_is_the_sum_compared_with_its_right_operand(alg):
    # mat_le(a, b) decides a + b == b without forming the sum, and counts
    # its n m additions. Edge values (None, 10**400, float zeros of either
    # sign, coprime denominators) at every size up to 24, b over other
    # denominators than a's over Q. Random pairs are rarely ordered, so
    # half the cases take b = a + c, some with the signs of its zeros
    # flipped, which over R64 are read as the int 0 on entry.
    rng = random.Random(f"order {alg.name}")
    pool = EDGE_VALUES[alg.domain]

    def draw(rows, cols):
        # Each matrix draws from its own part of the pool, so that two of
        # them over Q seldom share a denominator.
        part = rng.sample(pool, rng.randint(2, len(pool)))
        return TropMatrix.from_rows([[alg.zero() if rng.random() < 0.25 else rng.choice(part)
                                      for _ in range(cols)] for _ in range(rows)], alg)

    seen = Counter()
    for n in range(1, 25):
        for _ in range(6):
            m = rng.randint(1, 24)
            a, b = draw(n, m), draw(n, m)
            if rng.random() < 0.5:
                b = _flip_zeros(rng, mat_oplus(a, b))
            with count_ops() as c:
                verdict = mat_le(a, b)
            assert verdict is (mat_oplus(a, b) == b), (a, b)
            assert (c.adds, c.muls) == (n * m, 0)
            # == sees no zero's sign, so the sum is judged by the reference.
            assert _outcome(mat_oplus, a, b) == _outcome(ref_mat_oplus, a, b), (a, b)
            seen[verdict] += 1
            seen["other denominators"] += a._den != b._den
            seen["signed zeros"] += any(map(_negative_zero, b.entries))
    assert seen[True] >= 50 and seen[False] >= 50, seen
    if alg.domain is Domain.Q:
        assert seen["other denominators"] >= 50, seen
    if alg.domain is Domain.F64:
        # A zero of either sign is stored as the int 0 and read back as 0.0.
        assert seen["signed zeros"] == 0, seen


@pytest.mark.parametrize("alg", list(SISTER), ids=lambda a: a.name)
def test_a_product_by_one_column_folds_and_a_wider_one_lifts(alg, monkeypatch):
    # mat_mul and the check kernel run one product: by one column a fold
    # over the stored rows, with no packing, and by two or more columns the
    # packed kernel, packed once, over every domain. Each answers as the
    # per-entry reference does, exact and rounded once over R64, entry
    # types included, with n k p adds and muls, or raises its error after
    # counting them; the check, exact, finds A x equal to the public
    # product wherever rounding left it as it was. Sizes 1-24; half the
    # operands hold edge values (10**400 beside small ints, float zeros of
    # either sign, R64 sums past the largest float toward the infinite
    # element or away from it), and some rows and columns are wholly
    # infinite.
    rng = random.Random(f"product shapes {alg.name}")
    lifts = []

    def pack_spy(*args, packer=trmatrix._packer):
        lifts.append(f"packed, walk {args[0]}")
        return packer(*args)

    monkeypatch.setattr(trmatrix, "_packer", pack_spy)
    wider = ["packed, walk 2"]
    small = {Domain.Z: lambda: rng.randint(-9, 9),
             Domain.Q: lambda: Fraction(rng.randint(-12, 12), rng.choice((5, 7, 9))),
             Domain.F64: lambda: rng.choice((0.0, -0.0, rng.randint(-40, 40) / 4))}[alg.domain]

    def draw(rows, cols, edges):
        p_inf, z = rng.choice((0.0, 0.25, 0.6)), alg.zero()
        m = [[z if rng.random() < p_inf else
              rng.choice(EDGE_VALUES[alg.domain]) if edges else small()
              for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [z] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for r in m:
                r[j] = z
        return TropMatrix.from_rows(m, alg)

    seen = Counter()
    for n in range(1, 25):
        for p in (1, 1, 2, rng.randint(3, 24)):
            k, edges = rng.randint(1, 24), rng.random() < 0.5
            a, x = draw(n, k, edges), draw(k, p, edges)
            want, work = _outcome(exactly(ref_mat_mul), a, x), n * k * p
            answered = len(want) > 2
            lifts.clear()
            assert _outcome(mat_mul, a, x) == want, (a, x)
            assert lifts == wider * (p > 1), (n, k, p)
            target = mat_mul(a, x) if answered else draw(n, p, edges)
            exact = ref_mat_mul(to_exact(a), to_exact(x)) == to_exact(target)
            lifts.clear()
            got = _kernel_check(a, x, None, target, False)
            assert lifts == wider * (p > 1), (n, k, p)
            assert got == ((exact, want[:3]), work, work), (a, x)
            if not answered:
                seen[want[0]] += 1
                continue
            assert want[3:] == (work, work)
            seen["by one column" if p == 1 else "wider"] += 1
            seen["rounded"] += not exact
            seen["folded"] += alg.domain is Domain.F64 and _folds(a, x)
            seen["signed zeros"] += any(map(_negative_zero, target.entries))
    assert seen["by one column"] >= 25 and seen["wider"] >= 25, seen
    assert seen["signed zeros"] == 0, seen
    if alg.domain is Domain.F64:
        assert seen["IllegalElement"] >= 10 and seen["folded"] >= 4, seen
        assert seen["rounded"] >= 10, seen
    else:
        assert seen["rounded"] == 0, seen


# ---- the stored form ----

# Integral Fractions are demoted on the way in, in Z as in Q.
INTEGRAL_FRACTIONS = {Domain.Z: (Fraction(4, 2),), Domain.Q: (Fraction(-6, 3),), Domain.F64: ()}


def _plain_matrix(rng, alg, rows, cols, closable=False):
    """A matrix built from plain numbers: the edge values, integral
    Fractions and the algebra's infinity as a float."""
    pool = EDGE_VALUES[alg.domain] + INTEGRAL_FRACTIONS[alg.domain]
    if closable:
        pool = [v for v in pool if alg.sign * v <= 0]
    p_inf = 0.25 if alg.is_tropical else 0.0
    rows = [[-alg.sign * math.inf if rng.random() < p_inf else rng.choice(pool)
             for _ in range(cols)] for _ in range(rows)]
    m = TropMatrix.from_rows(rows, alg)
    # Plain numbers are read as ExtScalar.of reads them.
    assert repr(m) == repr(TropMatrix.from_rows([[s(v) for v in r] for r in rows], alg))
    return m


def _assert_same_matrix(m, other):
    """m equals other, and hashes, prints, pickles and replaces as it does."""
    assert m == other and not m != other
    assert (hash(m), repr(m)) == (hash(other), repr(other))
    copies = (pickle.loads(pickle.dumps(m)), dataclasses.replace(m),
              dataclasses.replace(other, entries=m.entries))
    for copy in copies:
        assert copy == m and (hash(copy), repr(copy)) == (hash(m), repr(m))


@pytest.mark.parametrize("alg", list(ALGEBRAS_BY_NAME.values()), ids=lambda a: a.name)
def test_kernel_results_are_the_matrices_the_constructors_build(alg):
    rng = random.Random(f"stored form {alg.name}")
    built = 0
    for _ in range(60):
        n, m, p = (rng.randint(1, 5) for _ in range(3))
        a = _plain_matrix(rng, alg, n, m)
        calls = [(mat_mul, a, _plain_matrix(rng, alg, m, p)),
                 (mat_oplus, a, _plain_matrix(rng, alg, n, m))]
        if alg.is_tropical:
            k = rng.randint(1, 9)
            calls += [(pseudo_inverse, a),
                      (closure_block, _plain_matrix(rng, alg, k, k, rng.random() < 0.7)),
                      (_residuate, a, _plain_matrix(rng, alg, n, 1))]
        for fn, *args in calls:
            try:
                got = fn(*args)
            except TropalgError:
                continue
            built += 1
            _assert_same_matrix(got, TropMatrix(got.rows, got.cols, got.entries, got.alg))
            # Rebuilt from plain numbers, which from_rows normalises itself.
            plain = [[e.finite if e.is_finite else e.inf_sign * math.inf for e in row]
                     for row in got.to_lists()]
            _assert_same_matrix(got, TropMatrix.from_rows(plain, alg))
    assert built >= 40


def test_only_trmatrix_reads_the_stored_rows():
    # The stored form, raw rows over a denominator, is known to one module;
    # every other reads matrices through trmatrix's functions.
    package = Path(trmatrix.__file__).parent
    readers = sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py")
                     if re.search(r"\._(raw|den)\b", p.read_text(encoding="utf-8")))
    assert readers == ["trmatrix.py"]


def test_equality_compares_the_algebra_and_the_raw_rows():
    assert mk([[0]]) != mk([[0]], Z_MIN_PLUS)
    assert mk([[1]]) != mk([[1]], Q_MAX_PLUS) and mk([[1]]) != mk([[2]])
    zero, negative_zero = mk([[0.0]], R64_MAX_PLUS), mk([[-0.0]], R64_MAX_PLUS)
    assert zero == negative_zero and hash(zero) == hash(negative_zero)


def test_get_refuses_an_index_outside_the_matrix():
    # Row-major storage would read get(0, 5) of a 2 x 3 matrix as entry
    # (1, 2), and get(-1, 0) as entry (1, 0).
    m = mk([[1, 2, 3], [4, 5, 6]])
    assert [m.get(j, k).finite for j in range(2) for k in range(3)] == [1, 2, 3, 4, 5, 6]
    for j, k in ((0, 3), (0, 5), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(IndexOutOfRange, match=rf"entry \({j}, {k}\) is outside a 2x3 matrix"):
            m.get(j, k)


def _least_form(m):
    """The least common denominator of m's entries, and its rows scaled by
    it, negated over min-plus, as a min-plus matrix stores them."""
    den = math.lcm(*(e.finite.denominator for e in m.entries if e.is_finite))
    scale = -den if m.alg.kind is SemiringKind.MIN_PLUS else den
    return den, tuple(tuple(None if e.inf_sign else int(e.finite * scale) for e in r)
                      for r in m.to_lists())


def _fractions(rng, alg, rows, cols, closable=False):
    """A tropical-Q matrix of entries over the denominators 1 to 6."""
    def entry():
        if rng.random() < 0.2:
            return alg.zero()
        v = Fraction(rng.randint(0 if closable else -12, 12), rng.randint(1, 6))
        return -alg.sign * v if closable else v
    return TropMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)], alg)


@pytest.mark.parametrize("alg", [Q_MAX_PLUS, Q_MIN_PLUS], ids=lambda a: a.name)
def test_tropical_q_kernels_run_on_ints_over_the_least_denominator(alg, monkeypatch):
    calls = Counter()

    def ints_only(kernel):
        def wrapped(*args):
            rows = [x for arg in args if isinstance(arg, (list, tuple)) for r in arg for x in r]
            assert all(x is None or type(x) is int for x in rows), kernel.__name__
            calls[kernel.__name__] += 1
            return kernel(*args)
        return wrapped

    kernels = {"_product", "_oplus", "_below", "_closure", "_label_setting", "_residual"}
    for name in kernels:
        monkeypatch.setattr(trmatrix, name, ints_only(getattr(trmatrix, name)))
    rng = random.Random(f"least denominator {alg.name}")
    reduced = 0
    for _ in range(80):
        n, m, p = (rng.randint(1, 5) for _ in range(3))
        a, b, c = (_fractions(rng, alg, *shape) for shape in ((n, m), (m, p), (n, m)))
        sq, rhs = _fractions(rng, alg, n, n, closable=True), _fractions(rng, alg, n, 1)
        shifted = _shifted(rng, alg, sq)  # eliminated where an entry improves
        ac = mat_oplus(a, c)
        assert mat_le(a, ac)
        for got, *operands in [(a, a), (mat_mul(a, b), a, b), (pseudo_inverse(a), a),
                               (ac, a, c), (_residuate(a, rhs), a, rhs),
                               (closure_block(sq), sq), (bellman_solve(sq, rhs), sq, rhs),
                               (bellman_solve(shifted, rhs), shifted, rhs),
                               (bellman_inequality(sq, rhs), sq, rhs)]:
            assert (got._den, got._raw) == _least_form(got)
            # Counts the results a gcd pass reduced below their operands' lcm.
            reduced += got._den < math.lcm(*(x._den for x in operands))
    assert set(calls) == kernels
    assert reduced > 100


def test_classical_q_kernels_run_on_ints_over_the_least_denominator(monkeypatch):
    # The classical twin: a product runs on the stored int rows, over the
    # product of their denominators, and a sum over their lcm; each result
    # is stored over its least denominator, and matches the per-entry
    # Fraction reference, entries with their types and counts, at sizes
    # 1-16, with numerators of 10**30 among the entries.
    calls = Counter()

    def ints_only(kernel):
        def wrapped(a, b, alg):
            assert all(type(x) is int for rows in (a, b) for r in rows for x in r)
            calls[kernel.__name__] += 1
            return kernel(a, b, alg)
        return wrapped

    for name in ("_product", "_oplus"):
        monkeypatch.setattr(trmatrix, name, ints_only(getattr(trmatrix, name)))
    rng = random.Random("classical least denominator")

    def matrix(rows, cols):
        def entry():
            r = rng.random()
            if r < 0.2:
                return rng.randint(-9, 9)
            if r < 0.3:
                return Fraction(rng.choice((1, -1)) * 10**30 + rng.randint(-9, 9),
                                rng.randint(1, 7))
            return Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        return TropMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)],
                                    Q_CLASSICAL)

    reduced = integral = 0
    for n in range(1, 17):
        m, p = rng.randint(1, 16), rng.randint(1, 16)
        a, b, c = matrix(n, m), matrix(m, p), matrix(n, m)
        for fn, ref, *args in ((mat_mul, ref_mat_mul, a, b), (mat_oplus, ref_mat_oplus, a, c)):
            got = fn(*args)
            assert _outcome(fn, *args) == _outcome(ref, *args), (fn.__name__, n, m, p)
            assert (got._den, got._raw) == _least_form(got), (fn.__name__, n, m, p)
            reduced += got._den < math.prod(x._den for x in args)
            integral += sum(type(e.finite) is int for e in got.entries)
    assert calls == {"_product": 32, "_oplus": 32}
    assert reduced >= 10 and integral >= 50


def test_a_sum_that_loses_its_fractions_is_stored_over_one():
    half, one = (TropMatrix.from_rows([[v]], Q_MAX_PLUS) for v in (Fraction(1, 2), 1))
    got = mat_oplus(half, one)
    assert got == one and (hash(got), repr(got)) == (hash(one), repr(one))
    assert (got._den, got._raw) == (1, ((1,),))


@pytest.mark.parametrize("alg", [Q_MAX_PLUS, Q_MIN_PLUS], ids=lambda a: a.name)
def test_operands_over_the_denominators_2_and_3_meet_over_6(alg):
    a = TropMatrix.from_rows([[Fraction(1, 2), alg.zero()], [0, Fraction(1, 2)]], alg)
    b = TropMatrix.column([Fraction(1, 3), Fraction(2, 3)], alg)
    with count_ops() as c:
        product = mat_mul(a, b)
    assert (c.adds, c.muls) == (4, 4)
    with count_ops() as c:
        residual = _residuate(a, b)
    assert (c.adds, c.muls) == (1, 3)
    want = {Q_MAX_PLUS: ([Fraction(5, 6), Fraction(7, 6)], [Fraction(-1, 6), Fraction(1, 6)]),
            Q_MIN_PLUS: ([Fraction(5, 6), Fraction(1, 3)], [Fraction(2, 3), Fraction(1, 6)])}
    assert (product, residual) == tuple(TropMatrix.column(v, alg) for v in want[alg])
    assert product._den == residual._den == 6


class Rechecked(Exception):
    pass


@pytest.mark.parametrize("alg", list(SISTER), ids=lambda a: a.name)
def test_matrices_built_from_outside_are_checked_once(alg, monkeypatch):
    rng = random.Random(f"checked once {alg.name}")
    a, b = (_plain_matrix(rng, alg, 6, 6, closable=True) for _ in range(2))
    rhs = mat_mul(a, _plain_matrix(rng, alg, 6, 1, closable=True))

    def recheck(self, e):
        raise Rechecked(e)

    monkeypatch.setattr(Algebra, "require_member", recheck)
    assert closure_block(mat_mul(a, b)).entries
    assert bellman_solve(a, rhs).entries
    try:
        assert solve_lae_tropic(a, rhs).entries
    except NoSolution:
        # Over R64 the residual can round off an attainable right-hand side.
        assert alg.domain is Domain.F64


# ---- randomized laws ----

dims = st.integers(min_value=1, max_value=4)


@st.composite
def maxplus_matrix(draw, rows=None, cols=None):
    r = rows or draw(dims)
    c = cols or draw(dims)
    entries = st.one_of(
        st.just(NEG_INF), st.integers(min_value=-9, max_value=9).map(ExtScalar.of)
    )
    data = draw(
        st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return TropMatrix.from_rows(data, Z_MAX_PLUS)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_distributes_over_sum(data):
    n, m, p = data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(maxplus_matrix(rows=n, cols=m))
    b = data.draw(maxplus_matrix(rows=m, cols=p))
    c = data.draw(maxplus_matrix(rows=m, cols=p))
    left = mat_mul(a, mat_oplus(b, c))
    right = mat_oplus(mat_mul(a, b), mat_mul(a, c))
    assert left == right


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_is_associative(data):
    n, m, p, q = data.draw(dims), data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(maxplus_matrix(rows=n, cols=m))
    b = data.draw(maxplus_matrix(rows=m, cols=p))
    c = data.draw(maxplus_matrix(rows=p, cols=q))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

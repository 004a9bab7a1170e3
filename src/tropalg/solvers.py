"""Solvers for tropical linear systems built on residuation, elimination and closures.

For A x <= b residuation gives a principal solution: on a finite right
hand side it is (b- A)- where minus denotes the pseudo-inverse, and in
general each coordinate takes the tightest cap any row imposes on it.
Each row with a finite a_jk caps x_k at b_j - a_jk; the cap least in the
natural order wins. Rows whose a_jk is the zero element never constrain
x_k, and a coordinate no row touches
is pinned at the zero element, the one value that keeps every product
harmless. On a finite b this agrees with the negated-transpose product
(b- A)-, but a zero entry of b forces its row's coordinates down to
zero, which that product formula would silently drop. Every column below
the principal solution in the natural order of the semiring is a
solution, which makes the solution set of each coordinate a half-line.
For A x = b the same column is the greatest sub-solution, so the system
is solvable iff the principal solution satisfies it exactly.

Residuation runs in trmatrix's raw-row kernel, on integers for tropical
Q and R64 as the products do. Over R64 each exact cap b_j - a_jk is
rounded toward the infinite element, down over max-plus and up over
min-plus, so that a_jk plus it never passes b_j (0.2 - 3.3 rounds to
nearest as -3.0999999999999996, which 3.3 plus passes 0.2, and down as
-3.1), and the principal solution stays a solution.

The Bellman equation X = A X + B has the least solution A^x B, and the
columns of A^x generate solutions of the homogeneous system A x = x.
A^x B is computed in trmatrix with no separate product: settled by
labels when no entry of A is better than the unit, and otherwise read
off the closure's own Gauss-Jordan elimination run on [A | B], n (n-1)
(n+m) multiplications for an n x n A and an n x m B. That route raises
at the pivot where the closure raises, with the same text. Both routes
give the exact A^x B, over R64 too, which the Bellman solvers check and
only then round once to floats: their R64 answer is the exact least
solution rounded, and A X + B recomputed in floats on it may differ from
it by an ulp.

Every solver re-verifies its defining identity before returning:
A X + B == X for bellman_solve, A X + B <= X for bellman_inequality,
A G == G for bellman_homogeneous, A x <= b for solve_lai_tropic and
A x == b for solve_lae_tropic. Each runs trmatrix's check, the covering
test of Cuninghame-Green (1979) and Butkovic (2010): A x, or A x + b,
by the kernels of mat_mul and mat_oplus on the stored rows, compared
with x or b by == or by the natural order, building no matrix. A x by
one column is a fold over the rows of A with no packing, as every
product by one column is. The check reads only A, x and b, nothing the
solve computed, and tallies what the product, the sum and the
comparison count. Over R64 it reads the exact values, so
solve_lae_tropic finds A x = b only where it holds exactly on the floats
of x, not where a float sum would absorb the difference.
bellman_homogeneous keeps the columns k of the exact A^x whose (A A^x)_kk
is the unit, n^2 multiplications beyond the closure, and checks them
before it rounds them.
"""

from __future__ import annotations

from ._record import Record
from .errors import AlgebraMismatch, DimensionMismatch, NoSolution
from .trmatrix import (TropMatrix, _fixed_columns, _holds, _least_solution, _reduced,
                       _residuate, closure_block, mat_mul)  # mat_mul: bench/test_bench.py traces it

__all__ = [
    "IntervalBound",
    "solve_lai_tropic",
    "solve_lae_tropic",
    "bellman_solve",
    "bellman_homogeneous",
    "bellman_inequality",
]


class IntervalBound(Record):
    """One coordinate's solution interval for a system A x <= b."""

    __slots__ = ("lower", "upper", "lower_closed", "upper_closed")

    def __init__(self, lower, upper, lower_closed: bool, upper_closed: bool):
        # solve_lai_tropic builds one per coordinate, so the slots are written
        # through their descriptors, not the generic constructor.
        _set_lower(self, lower)
        _set_upper(self, upper)
        _set_lower_closed(self, lower_closed)
        _set_upper_closed(self, upper_closed)


_set_lower, _set_upper, _set_lower_closed, _set_upper_closed = (
    getattr(IntervalBound, n).__set__ for n in IntervalBound.__slots__)


def _require_system(a: TropMatrix, b: TropMatrix | None, what: str, column: bool = True):
    """Check A and its right-hand side b, when there is one, before any work;
    b must be a column unless column is False."""
    if not a.alg.is_tropical:
        raise AlgebraMismatch(f"{what} requires a tropical algebra")
    if b is None:
        return
    if a.alg is not b.alg and a.alg != b.alg:
        raise AlgebraMismatch("matrix and right-hand side live in different algebras")
    if column and b.cols != 1:
        raise DimensionMismatch("the right-hand side must be a column")
    if a.rows != b.rows:
        raise DimensionMismatch(
            f"matrix has {a.rows} rows but the right-hand side has {b.rows}"
        )


def solve_lai_tropic(a: TropMatrix, b: TropMatrix):
    """Solve A x <= b; returns (principal solution, per-coordinate intervals).

    The solution set is exactly the set of columns below the principal
    solution in the natural order, so over max-plus each coordinate
    ranges over (-inf, x_k] and over min-plus, where the order is
    reversed, over [x_k, +inf). Residuation plus the verification costs
    O(m n) semiring operations.
    """
    _require_system(a, b, "solve_lai_tropic")
    x = _residuate(a, b)
    if not _holds(a, x, None, b, le=True)[0]:
        raise AssertionError("residuation produced a non-solution")
    # The max-plus interval (zero, x_k], its ends swapped over min-plus.
    zero = a.alg.zero()
    if a.alg.sign > 0:
        return x, tuple([IntervalBound(zero, v, False, True) for v in x.entries])
    return x, tuple([IntervalBound(v, zero, True, False) for v in x.entries])


def solve_lae_tropic(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Solve A x = b exactly, or raise NoSolution.

    The principal solution of the relaxation A x <= b is the greatest
    sub-solution, so the equation is solvable iff it attains b.
    """
    _require_system(a, b, "solve_lae_tropic")
    x = _residuate(a, b)
    if not _holds(a, x, None, b)[0]:
        raise NoSolution("the system A x = b has no solution")
    return x


def bellman_solve(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """The least solution X = A^x B of the equation X = A X + B, settled by
    labels or read off the closure's elimination on [A | B]."""
    _require_system(a, b, "bellman_solve", column=False)
    return _verified(a, b, _least_solution(a, b), False, "non-fixed-point")


def bellman_homogeneous(a: TropMatrix) -> TropMatrix:
    """Columns of A^x that solve the homogeneous equation A x = x.

    The qualifying columns are returned side by side; NoSolution is
    raised when none qualifies.
    """
    _require_system(a, None, "bellman_homogeneous")
    g = _fixed_columns(a)
    if g is None:
        raise NoSolution("no column of the closure solves A x = x")
    return _verified(a, None, g, False, "non-fixed-point")


def bellman_inequality(a: TropMatrix, b: TropMatrix | None = None) -> TropMatrix:
    """Solve the Bellman inequality A x + b <= x.

    Without b the generator A^x of solutions of A x <= x is returned;
    with b the particular solution A^x b, computed as in bellman_solve, is
    returned, verified against the inequality before being handed back.
    """
    _require_system(a, b, "bellman_inequality", column=False)
    if b is None:
        return closure_block(a)
    return _verified(a, b, _least_solution(a, b), True, "non-solution of the inequality")


def _verified(a: TropMatrix, b, x: TropMatrix, le: bool, failure: str) -> TropMatrix:
    """x, exact, once the check kernel finds A x + b == x, or A x + b <= x
    when le is set, b possibly None; then reduced, and over R64 rounded once."""
    if not _holds(a, x, b, x, le)[0]:
        raise AssertionError(f"closure produced a {failure}")
    return _reduced(x)

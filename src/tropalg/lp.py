"""Exact-rational linear programming and univariate linear inequalities.

simplex_solve runs the textbook two-phase primal simplex on one tableau of
Fractions. Problems are stated over nonnegative variables with three
optional constraint groups A x <= b, A x = b and A x >= b. The tableau's
rows are the <=, = and >= groups in input order, each negated when its
right-hand side is negative, and the objective row comes last. Its columns
are the variables, one slack per <= row, one surplus per >= row, the
artificials (phase 1 only, one per row whose slack does not start basic),
then the right-hand side. Pivot selection follows Bland's rule (smallest
eligible index entering, smallest basic index leaving on ratio ties),
which rules out cycling, so no perturbation and no epsilon appear
anywhere; every comparison is exact.

solve_univariate_linear intersects half-lines a*x + b REL 0 into a single
interval with open or closed endpoints, or reports the empty set; every
relation is checked before an answer is given.
"""

from __future__ import annotations

from fractions import Fraction
from operator import ge, gt, le, lt

from ._record import MutableRecord, Record
from .errors import DimensionMismatch

__all__ = ["LpProblem", "Optimal", "Infeasible", "Unbounded", "SimplexStats", "simplex_solve",
           "Interval", "solve_univariate_linear"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _frac_vec(values) -> tuple[Fraction, ...]:
    return tuple(_frac(v) for v in values)


# The constraint groups in tableau order: the fields holding their rows and
# right-hand sides, the relation, and the sign of each row's slack column
# (+1 a slack, -1 a surplus, 0 none).
_GROUPS = (("a_le", "b_le", "<=", 1), ("a_eq", "b_eq", "=", 0), ("a_ge", "b_ge", ">=", -1))


class LpProblem(Record):
    """max or min of c.x over {x >= 0, A_le x <= b_le, A_eq x = b_eq, A_ge x >= b_ge}."""

    __slots__ = ("c", "a_le", "b_le", "a_eq", "b_eq", "a_ge", "b_ge", "sense")
    _defaults = {"a_le": (), "b_le": (), "a_eq": (), "b_eq": (), "a_ge": (), "b_ge": (),
                 "sense": "max"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "c", _frac_vec(self.c))
        for a, b, _, _ in _GROUPS:
            object.__setattr__(self, a, tuple(map(_frac_vec, getattr(self, a))))
            object.__setattr__(self, b, _frac_vec(getattr(self, b)))
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', not {self.sense!r}")
        n = len(self.c)
        if n == 0:
            raise DimensionMismatch("the objective needs at least one variable")
        for a, b, tag, _ in _GROUPS:
            a, b = getattr(self, a), getattr(self, b)
            if len(a) != len(b):
                raise DimensionMismatch(
                    f"{tag} group has {len(a)} rows but {len(b)} right-hand sides"
                )
            for row in a:
                if len(row) != n:
                    raise DimensionMismatch(
                        f"a {tag} row has {len(row)} coefficients for {n} variables"
                    )


def _constraints(p: LpProblem):
    """Every constraint of p as a (row, rhs, slack sign) triple, in tableau order."""
    return [(row, rhs, sign) for a, b, _, sign in _GROUPS
            for row, rhs in zip(getattr(p, a), getattr(p, b))]


class Optimal(Record):
    __slots__ = ("x", "objective")


class Infeasible(Record):
    __slots__ = ()


class Unbounded(Record):
    __slots__ = ()


class SimplexStats(MutableRecord):
    """Optional instrumentation collected by simplex_solve."""

    __slots__ = ("pivots", "reduced_costs")
    _defaults = {"pivots": 0, "reduced_costs": ()}


_PIVOT_LIMIT = 200_000


def _pivot(tab, basis, r, j, stats):
    piv = tab[r][j]
    row = [v / piv for v in tab[r]]
    tab[r] = row
    for i in range(len(tab)):
        if i != r:
            f = tab[i][j]
            if f:
                tab[i] = [x - f * y for x, y in zip(tab[i], row)]
    basis[r] = j
    if stats is not None:
        stats.pivots += 1


def _priced(cost, tab, basis):
    """The objective row of cost: every basic column priced out by its row."""
    for r, bv in enumerate(basis):
        f = cost[bv]
        if f:
            cost = [x - f * y for x, y in zip(cost, tab[r])]
    return cost


def _optimize(tab, basis, width, stats):
    """Maximize with Bland's rule; tab[-1] holds reduced costs and -z last."""
    for _ in range(_PIVOT_LIMIT):
        zrow = tab[-1]
        enter = next((j for j in range(width) if zrow[j] > 0), None)
        if enter is None:
            return "optimal"
        leave = best = None
        for r in range(len(basis)):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if leave is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave is None:
            return "unbounded"
        _pivot(tab, basis, leave, enter, stats)
    raise RuntimeError("pivot limit exceeded")


def simplex_solve(problem: LpProblem, stats: SimplexStats | None = None):
    """Solve an LpProblem exactly; returns Optimal, Infeasible or Unbounded."""
    n = len(problem.c)
    rows = _constraints(problem)
    slacks = [_ZERO] * sum(1 for _, _, sign in rows if sign)
    width = n + len(slacks)

    # Each row gets its slack or surplus column and is negated when its rhs
    # is negative. Its slack starts basic if that leaves it at +1; every
    # other row gets an artificial column, numbered in row order.
    tab, basis = [], []
    col, arts = n, 0
    for row, rhs, sign in rows:
        line = [*row, *slacks, rhs]
        if sign:
            line[col] = _ONE if sign > 0 else -_ONE
            col += 1
        if rhs < 0:
            line = [-v for v in line]
        if sign and line[col - 1] == 1:
            basis.append(col - 1)
        else:
            basis.append(width + arts)
            arts += 1
        tab.append(line)
    for line, bv in zip(tab, basis):
        line[-1:-1] = [_ONE if j == bv else _ZERO for j in range(width, width + arts)]

    if arts:
        tab.append(_priced([_ZERO] * width + [-_ONE] * arts + [_ZERO], tab, basis))
        if _optimize(tab, basis, width + arts, stats) != "optimal":
            raise RuntimeError("phase 1 objective is bounded by construction")
        if tab[-1][-1] != 0:
            return Infeasible()
        # Drive each artificial left basic at zero out of the basis; a row
        # with no other nonzero entry is redundant and is dropped, and so
        # are the artificial columns and the phase-1 objective row.
        for r, bv in enumerate(basis):
            if bv >= width:
                j = next((j for j in range(width) if tab[r][j]), None)
                if j is not None:
                    _pivot(tab, basis, r, j, stats)
        kept = [(line[:width] + line[-1:], bv) for line, bv in zip(tab, basis) if bv < width]
        tab, basis = [line for line, _ in kept], [bv for _, bv in kept]

    cost = list(problem.c) if problem.sense == "max" else [-v for v in problem.c]
    tab.append(_priced(cost + slacks + [_ZERO], tab, basis))
    if _optimize(tab, basis, width, stats) == "unbounded":
        return Unbounded()

    values = {bv: line[-1] for bv, line in zip(basis, tab)}
    xs = tuple(values.get(j, _ZERO) for j in range(n))
    if stats is not None:
        stats.reduced_costs = tuple(tab[-1][:width])
    _check_solution(problem, xs)
    objective = sum((ci * xi for ci, xi in zip(problem.c, xs)), _ZERO)
    return Optimal(xs, objective)


def _check_solution(p: LpProblem, x):
    if any(xi < 0 for xi in x):
        raise RuntimeError("simplex returned a negative coordinate")
    for row, rhs, sign in _constraints(p):
        lhs = sum((a * v for a, v in zip(row, x)), _ZERO)
        # The slack sign indexes the relation: 0 is =, 1 is <= and -1 is >=.
        if (lhs != rhs, lhs > rhs, lhs < rhs)[sign]:
            relation = ("an =", "a <=", "a >=")[sign]
            raise RuntimeError(f"simplex violated {relation} constraint")


class Interval(Record):
    """A subset of the rational line: empty, a point, or an interval.

    lo is None for minus infinity and hi is None for plus infinity;
    infinite ends are always open.
    """

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed", "is_empty")
    _defaults = {"is_empty": False}

    @classmethod
    def empty(cls) -> "Interval":
        return cls(None, None, False, False, True)

    @classmethod
    def all_reals(cls) -> "Interval":
        return cls(None, None, False, False)


# Each relation, applied as rel(a*x + b, 0).
_RELATIONS = {"<": lt, "<=": le, ">": gt, ">=": ge}


def solve_univariate_linear(ineqs) -> Interval:
    """Intersect the solutions of a*x + b REL 0 over exact rationals.

    Each inequality is a triple (a, b, op) with op one of <, <=, >, >=, and
    every row is checked before an answer is given. Constant rows (a = 0)
    either hold everywhere or make the set empty. An upper end is the pair
    (bound, closed) and a lower end the pair (bound, open), so the tightest
    ends are the least upper and the greatest lower pair, the open end
    winning at an equal bound, and the set is empty exactly when lo >= hi.
    """
    lowers, uppers = [], []
    holds = True
    for a, b, op in ineqs:
        rel = _RELATIONS.get(op) if isinstance(op, str) else None
        if rel is None:
            raise ValueError(f"unknown relation {op!r}")
        a = _frac(a)
        b = _frac(b)
        if a == 0:
            holds = rel(b, 0) and holds
        elif rel(-a, 0):  # the row holds just below its bound, and at it if closed
            uppers.append((-b / a, rel(0, 0)))
        else:
            lowers.append((-b / a, not rel(0, 0)))
    lo = max(lowers, default=None)
    hi = min(uppers, default=None)
    if not holds or (lo and hi and lo >= hi):
        return Interval.empty()
    lo, lo_open = lo or (None, True)
    hi, hi_closed = hi or (None, False)
    return Interval(lo, hi, not lo_open, hi_closed)

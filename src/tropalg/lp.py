"""Exact-rational linear programming and univariate linear inequalities.

simplex_solve runs the textbook two-phase primal simplex on one integer
tableau T whose true entries are T / d, d being the previous pivot
(fraction-free pivoting: Edmonds 1967, Bareiss 1968). Every entry stays a
minor of the starting tableau, so bit sizes stay polynomial and no gcd is
taken; Fractions appear only at the boundary, in the problem read in and
in the answer and reduced costs given back. Problems are stated over
nonnegative variables with three optional constraint groups A x <= b,
A x = b and A x >= b. The tableau's rows are the <=, = and >= groups in
input order, each scaled to ints and negated when its right-hand side is
negative, and the objective row comes last. Its columns are the
variables, one slack per <= row, one surplus per >= row, the artificials
(phase 1 only, one per row whose slack does not start basic), then the
right-hand side. Pivot selection follows Bland's rule (smallest eligible
index entering, smallest basic index leaving on ratio ties), which rules
out cycling, so no perturbation and no epsilon appear anywhere; every
comparison is exact.

solve_univariate_linear intersects half-lines a*x + b REL 0 into a single
interval with open or closed endpoints, or reports the empty set; every
relation is checked before an answer is given.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import ge, gt, le, lt

from ._record import MutableRecord, Record
from .errors import DimensionMismatch

__all__ = ["LpProblem", "Optimal", "Infeasible", "Unbounded", "SimplexStats", "simplex_solve",
           "Interval", "solve_univariate_linear"]

_ZERO = Fraction(0)


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


def _ints(values) -> tuple[list[int], int]:
    """Fractions scaled to ints by the LCM of their denominators, and that LCM."""
    m = lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values], m


def _pivot(tab, basis, r, j, d, stats):
    """Pivot on (r, j) of the tableau tab / d; returns the new denominator, the pivot.

    Row r stays as it is. Every other row, the objective row included and a
    row with 0 in column j too, becomes (p*row - row[j]*tab[r]) // d, an
    exact division, since each entry is a minor of the starting tableau.
    """
    prow = tab[r]
    p = prow[j]
    for i, line in enumerate(tab):
        if i != r:
            f = line[j]
            tab[i] = [(p * x - f * y) // d for x, y in zip(line, prow)] if f else [p * x // d for x in line]
    basis[r] = j
    if stats is not None:
        stats.pivots += 1
    return p


def _priced(cost, tab, basis, d):
    """d times the objective row of cost: every basic column priced out by its row."""
    z = [d * v for v in cost]
    for line, bv in zip(tab, basis):
        f = cost[bv]
        if f:
            z = [x - f * y for x, y in zip(z, line)]
    return z


def _optimize(tab, basis, width, d, stats):
    """Maximize with Bland's rule; tab[-1] / d holds reduced costs and -z last.

    Returns the final denominator, or None when the objective is unbounded.
    Every sign is read relative to d's, which a drive-out pivot can make
    negative; the ratios b / a of the rows whose a has d's sign are compared
    by cross-multiplication.
    """
    for _ in range(_PIVOT_LIMIT):
        pos = d > 0
        zrow = tab[-1]
        enter = next((j for j in range(width) if zrow[j] and (zrow[j] > 0) == pos), None)
        if enter is None:
            return d
        leave = None
        for r in range(len(basis)):
            a = tab[r][enter]
            if a and (a > 0) == pos:
                b = tab[r][-1]
                if leave is not None:
                    lhs, rhs = b * best_a, best_b * a
                if leave is None or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    best_b, best_a, leave = b, a, r
        if leave is None:
            return None
        d = _pivot(tab, basis, leave, enter, d, stats)
    raise RuntimeError("pivot limit exceeded")


def simplex_solve(problem: LpProblem, stats: SimplexStats | None = None):
    """Solve an LpProblem exactly; returns Optimal, Infeasible or Unbounded."""
    n = len(problem.c)
    rows = _constraints(problem)
    nslack = sum(1 for _, _, sign in rows if sign)
    width = n + nslack

    # Each row is scaled to ints by its LCM, gets its slack or surplus column
    # and is negated when its rhs is negative. A slack or artificial column
    # has one nonzero entry, kept at +-1: its variable is scaled by the row's
    # LCM, which `scale` records to undo. A slack starts basic if it is +1;
    # every other row gets an artificial column, numbered in row order.
    tab, basis, scale, arts = [], [], [1] * n, []
    col = n
    for row, rhs, sign in rows:
        line, m = _ints((*row, rhs))
        line[-1:-1] = [0] * nslack
        if sign:
            line[col] = sign
            scale.append(m)
            col += 1
        if rhs < 0:
            line = [-v for v in line]
        if sign and line[col - 1] == 1:
            basis.append(col - 1)
        else:
            basis.append(width + len(arts))
            arts.append(m)
        tab.append(line)
    for line, bv in zip(tab, basis):
        line[-1:-1] = [int(j == bv) for j in range(width, width + len(arts))]

    d = 1
    if arts:
        m = lcm(*arts)
        tab.append(_priced([0] * width + [-m // a for a in arts] + [0], tab, basis, d))
        d = _optimize(tab, basis, width + len(arts), d, stats)
        if d is None:
            raise RuntimeError("phase 1 objective is bounded by construction")
        if tab.pop()[-1]:
            return Infeasible()
        # Drive each artificial left basic at zero out of the basis; a row
        # with no other nonzero entry is redundant and is dropped, and so
        # are the artificial columns.
        for r, bv in enumerate(basis):
            if bv >= width:
                j = next((j for j in range(width) if tab[r][j]), None)
                if j is not None:
                    d = _pivot(tab, basis, r, j, d, stats)
        kept = [(line[:width] + line[-1:], bv) for line, bv in zip(tab, basis) if bv < width]
        tab, basis = [line for line, _ in kept], [bv for _, bv in kept]

    c, m = _ints(problem.c)
    tab.append(_priced((c if problem.sense == "max" else [-v for v in c]) + [0] * (nslack + 1),
                       tab, basis, d))
    d = _optimize(tab, basis, width, d, stats)
    if d is None:
        return Unbounded()

    values = {bv: line[-1] for bv, line in zip(basis, tab)}
    xs = tuple(Fraction(values[j], d) if j in values else _ZERO for j in range(n))
    if stats is not None:
        stats.reduced_costs = tuple(Fraction(z * s, d * m) for z, s in zip(tab[-1], scale))
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

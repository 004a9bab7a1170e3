"""Exact-rational linear programming and univariate linear inequalities.

simplex_solve runs the textbook two-phase primal simplex on tableaux of
Fractions. Pivot selection follows Bland's rule (smallest eligible index
entering, smallest basic index leaving on ratio ties), which rules out
cycling, so no perturbation and no epsilon appear anywhere; every
comparison is exact. Problems are stated over nonnegative variables with
three optional constraint groups A x <= b, A x = b and A x >= b.

solve_univariate_linear intersects half-lines a*x + b REL 0 into a single
interval with open or closed endpoints, or reports the empty set.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import MutableRecord, Record
from .errors import DimensionMismatch

__all__ = [
    "LpProblem",
    "Optimal",
    "Infeasible",
    "Unbounded",
    "SimplexStats",
    "simplex_solve",
    "Interval",
    "solve_univariate_linear",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _frac_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(_frac(v) for v in row) for row in rows)


def _frac_vec(values) -> tuple[Fraction, ...]:
    return tuple(_frac(v) for v in values)


class LpProblem(Record):
    """max or min of c.x over {x >= 0, A_le x <= b_le, A_eq x = b_eq, A_ge x >= b_ge}."""

    __slots__ = ("c", "a_le", "b_le", "a_eq", "b_eq", "a_ge", "b_ge", "sense")
    _defaults = {"a_le": (), "b_le": (), "a_eq": (), "b_eq": (), "a_ge": (), "b_ge": (),
                 "sense": "max"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "c", _frac_vec(self.c))
        for name in ("a_le", "a_eq", "a_ge"):
            object.__setattr__(self, name, _frac_rows(getattr(self, name)))
        for name in ("b_le", "b_eq", "b_ge"):
            object.__setattr__(self, name, _frac_vec(getattr(self, name)))
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', not {self.sense!r}")
        n = len(self.c)
        if n == 0:
            raise DimensionMismatch("the objective needs at least one variable")
        for a, b, tag in (
            (self.a_le, self.b_le, "<="),
            (self.a_eq, self.b_eq, "="),
            (self.a_ge, self.b_ge, ">="),
        ):
            if len(a) != len(b):
                raise DimensionMismatch(
                    f"{tag} group has {len(a)} rows but {len(b)} right-hand sides"
                )
            for row in a:
                if len(row) != n:
                    raise DimensionMismatch(
                        f"a {tag} row has {len(row)} coefficients for {n} variables"
                    )


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


def _pivot(tab, zrow, basis, r, j):
    piv = tab[r][j]
    row = [v / piv for v in tab[r]]
    tab[r] = row
    for i in range(len(tab)):
        if i != r:
            f = tab[i][j]
            if f:
                tab[i] = [x - f * y for x, y in zip(tab[i], row)]
    f = zrow[j]
    if f:
        zrow[:] = [x - f * y for x, y in zip(zrow, row)]
    basis[r] = j


def _optimize(tab, zrow, basis, width, stats):
    """Maximize with Bland's rule; zrow holds reduced costs and -z last."""
    for _ in range(_PIVOT_LIMIT):
        enter = None
        for j in range(width):
            if zrow[j] > 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for r in range(len(tab)):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
        if leave is None:
            return "unbounded"
        _pivot(tab, zrow, basis, leave, enter)
        if stats is not None:
            stats.pivots += 1
    raise RuntimeError("pivot limit exceeded")


def simplex_solve(problem: LpProblem, stats: SimplexStats | None = None):
    """Solve an LpProblem exactly; returns Optimal, Infeasible or Unbounded."""
    p = problem
    n = len(p.c)
    m1, m3 = len(p.a_le), len(p.a_ge)
    width = n + m1 + m3

    body = []
    rhs = []
    for i, (row, b) in enumerate(zip(p.a_le, p.b_le)):
        r = list(row) + [_ZERO] * (m1 + m3)
        r[n + i] = _ONE
        body.append(r)
        rhs.append(b)
    for row, b in zip(p.a_eq, p.b_eq):
        body.append(list(row) + [_ZERO] * (m1 + m3))
        rhs.append(b)
    for i, (row, b) in enumerate(zip(p.a_ge, p.b_ge)):
        r = list(row) + [_ZERO] * (m1 + m3)
        r[n + m1 + i] = -_ONE
        body.append(r)
        rhs.append(b)
    for r in range(len(body)):
        if rhs[r] < 0:
            body[r] = [-v for v in body[r]]
            rhs[r] = -rhs[r]

    # A row whose slack or surplus column survived normalisation with
    # coefficient +1 starts basic; every other row gets an artificial.
    basis = []
    art_rows = []
    for r in range(len(body)):
        ready = None
        for j in range(n, width):
            if body[r][j] == 1:
                ready = j
                break
        if ready is None:
            art_rows.append(r)
            basis.append(width + len(art_rows) - 1)
        else:
            basis.append(ready)
    n_art = len(art_rows)

    tab = []
    for r in range(len(body)):
        art = [_ZERO] * n_art
        if basis[r] >= width:
            art[basis[r] - width] = _ONE
        tab.append(body[r] + art + [rhs[r]])

    if n_art:
        zrow = [_ZERO] * width + [-_ONE] * n_art + [_ZERO]
        for r, bv in enumerate(basis):
            f = zrow[bv]
            if f:
                zrow = [x - f * y for x, y in zip(zrow, tab[r])]
        status = _optimize(tab, zrow, basis, width + n_art, stats)
        if status != "optimal":
            raise RuntimeError("phase 1 objective is bounded by construction")
        if zrow[-1] != 0:
            return Infeasible()
        for r in range(len(tab)):
            if basis[r] >= width:
                for j in range(width):
                    if tab[r][j] != 0:
                        _pivot(tab, zrow, basis, r, j)
                        break
        keep = [r for r in range(len(tab)) if basis[r] < width]
        tab = [tab[r][:width] + [tab[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]

    cost = list(p.c) if p.sense == "max" else [-v for v in p.c]
    zrow = cost + [_ZERO] * (m1 + m3) + [_ZERO]
    for r, bv in enumerate(basis):
        f = zrow[bv]
        if f:
            zrow = [x - f * y for x, y in zip(zrow, tab[r])]
    zrow = list(zrow)
    status = _optimize(tab, zrow, basis, width, stats)
    if status == "unbounded":
        return Unbounded()

    x = [_ZERO] * width
    for r, bv in enumerate(basis):
        x[bv] = tab[r][-1]
    xs = tuple(x[:n])
    if stats is not None:
        stats.reduced_costs = tuple(zrow[:width])
    _check_solution(p, xs)
    objective = sum((ci * xi for ci, xi in zip(p.c, xs)), _ZERO)
    return Optimal(xs, objective)


def _check_solution(p: LpProblem, x):
    for xi in x:
        if xi < 0:
            raise RuntimeError("simplex returned a negative coordinate")
    for row, b in zip(p.a_le, p.b_le):
        if sum((a * v for a, v in zip(row, x)), _ZERO) > b:
            raise RuntimeError("simplex violated a <= constraint")
    for row, b in zip(p.a_eq, p.b_eq):
        if sum((a * v for a, v in zip(row, x)), _ZERO) != b:
            raise RuntimeError("simplex violated an = constraint")
    for row, b in zip(p.a_ge, p.b_ge):
        if sum((a * v for a, v in zip(row, x)), _ZERO) < b:
            raise RuntimeError("simplex violated a >= constraint")


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


_REL_OPS = ("<", "<=", ">", ">=")


def solve_univariate_linear(ineqs) -> Interval:
    """Intersect the solutions of a*x + b REL 0 over exact rationals.

    Each inequality is a triple (a, b, op) with op one of <, <=, >, >=.
    Constant rows (a = 0) either hold everywhere or make the set empty.
    """
    lo = hi = None
    lo_closed = hi_closed = False
    for a, b, op in ineqs:
        if op not in _REL_OPS:
            raise ValueError(f"unknown relation {op!r}")
        a = _frac(a)
        b = _frac(b)
        if a == 0:
            holds = {"<": b < 0, "<=": b <= 0, ">": b > 0, ">=": b >= 0}[op]
            if not holds:
                return Interval.empty()
            continue
        bound = -b / a
        upper = op in ("<", "<=")
        if a < 0:
            upper = not upper
        closed = op in ("<=", ">=")
        if upper:
            if hi is None or bound < hi:
                hi, hi_closed = bound, closed
            elif bound == hi:
                hi_closed = hi_closed and closed
        else:
            if lo is None or bound > lo:
                lo, lo_closed = bound, closed
            elif bound == lo:
                lo_closed = lo_closed and closed
    if lo is not None and hi is not None:
        if lo > hi:
            return Interval.empty()
        if lo == hi and not (lo_closed and hi_closed):
            return Interval.empty()
    return Interval(lo, hi, lo_closed, hi_closed)

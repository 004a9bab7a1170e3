"""Reference implementations and random-instance generators for the tests.

Everything here recomputes answers by a route different from the library:
matrix arithmetic and residuation folded entry by entry from the scalar
trop_add and trop_mul, the defining power expansion for the Kleene
closure, plain triple-loop relaxation for distances, depth-first search
with backtracking and the tight-edge walk over the full closure for
shortest-path witnesses, Gaussian elimination plus brute-force vertex
enumeration for linear programs, the two-phase simplex on a tableau of
Fractions, direct negation for the max-plus/min-plus mirror, and the
evaluator's former routes, one ExtScalar an entry, for negating, scaling
and printing matrices and for reading literals. Over tropical R64 the
per-entry references run over Q on the operands' exact values, each
entry rounded once through Decimal. Slow and obvious on
purpose. A printer from the script AST back to source text lets the
parser tests round-trip.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

from tropalg import (
    ClosureUndefined,
    Domain,
    ExtScalar,
    IllegalElement,
    IndexOutOfRange,
    Infeasible,
    LpProblem,
    NoPath,
    NoSolution,
    Optimal,
    Q_CLASSICAL,
    Q_MAX_PLUS,
    Q_MIN_PLUS,
    R64_CLASSICAL,
    R64_MAX_PLUS,
    R64_MIN_PLUS,
    SemiringKind,
    SimplexStats,
    TropMatrix,
    Unbounded,
    Z_MAX_PLUS,
    Z_MIN_PLUS,
    identity,
    search_least_distances,
    semiring_le,
    trop_add,
    trop_closure_scalar,
    trop_mul,
    trop_neg,
)
from tropalg.lp import _check_solution, _constraints
from tropalg.semiring import _number_text
from tropalg.mathpar.parser import (
    Assign,
    BinOp,
    Call,
    EmptyLit,
    ExprStmt,
    Ineq,
    InfinityLit,
    ListLit,
    MatrixLit,
    NumberRow,
    ScalarLit,
    SpaceDecl,
    UnaryNeg,
    Var,
)

INF = float("inf")


# ---- per-entry matrix arithmetic ----
#
# Every entry is a left fold of the scalar operations, so these share no
# arithmetic with the library's matrix kernel. Operands are assumed to
# have matching algebras and shapes.


def ref_mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    alg = a.alg
    out = []
    for j in range(a.rows):
        for k in range(b.cols):
            acc = alg.zero()
            for i in range(a.cols):
                acc = trop_add(acc, trop_mul(a.get(j, i), b.get(i, k), alg), alg)
            out.append(acc)
    return TropMatrix(a.rows, b.cols, tuple(out), alg)


def ref_mat_oplus(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    out = tuple(trop_add(x, y, a.alg) for x, y in zip(a.entries, b.entries))
    return TropMatrix(a.rows, a.cols, out, a.alg)


def ref_pseudo_inverse(a: TropMatrix) -> TropMatrix:
    out = []
    for k in range(a.cols):
        for j in range(a.rows):
            e = a.get(j, k)
            out.append(e if e.inf_sign else ExtScalar.of(-e.finite))
    return TropMatrix(a.cols, a.rows, tuple(out), a.alg)


def _block(a: TropMatrix, r0, r1, c0, c1) -> TropMatrix:
    ent = tuple(a.get(j, k) for j in range(r0, r1) for k in range(c0, c1))
    return TropMatrix(r1 - r0, c1 - c0, ent, a.alg)


def ref_closure_block(a: TropMatrix) -> TropMatrix:
    """The closure by block recursion down to 1 x 1 blocks, on per-entry products.

    Splitting A after row and column h = n // 2 into quadrants E, F / G, H,
    the closure is assembled from S = E^x, B = G S, R4 = (H + B F)^x,
    R3 = R4 B, V = S F, R2 = V R4 and R1 = S + V R3, n^3 - n
    multiplications in all. It passes the pivots in the library's order,
    so it raises at the same pivot with the same text, but its float sums
    run in another order and its counts differ.
    """
    n = a.rows
    if n == 1:
        return _ref_eliminate(a)
    h = n // 2
    e, f = _block(a, 0, h, 0, h), _block(a, 0, h, h, n)
    g, hh = _block(a, h, n, 0, h), _block(a, h, n, h, n)
    s = ref_closure_block(e)
    b = ref_mat_mul(g, s)
    r4 = ref_closure_block(ref_mat_oplus(hh, ref_mat_mul(b, f)))
    r3 = ref_mat_mul(r4, b)
    v = ref_mat_mul(s, f)
    r2 = ref_mat_mul(v, r4)
    r1 = ref_mat_oplus(s, ref_mat_mul(v, r3))
    rows = [x + y for x, y in zip(r1.to_lists(), r2.to_lists())]
    rows += [x + y for x, y in zip(r3.to_lists(), r4.to_lists())]
    return TropMatrix(n, n, tuple(e for row in rows for e in row), a.alg)


def _ref_eliminate(a: TropMatrix) -> TropMatrix:
    """Gauss-Jordan elimination, one scalar operation at a time, in the
    library's order: pivot k replaces a_kk by its scalar closure, which
    raises when it diverges, then adds a_ik a_kj to a_ij in every other
    row i. So its values, float sums included, its operation counts and
    its errors match closure_block's exactly."""
    alg, rows = a.alg, a.to_lists()
    for k, rk in enumerate(rows):
        rk[k] = trop_closure_scalar(rk[k], alg)
        for i, ri in enumerate(rows):
            if i != k:
                aik = ri[k]
                rows[i] = [trop_add(x, trop_mul(aik, y, alg), alg) for x, y in zip(ri, rk)]
    return TropMatrix(a.rows, a.cols, tuple(e for row in rows for e in row), a.alg)


def ref_bellman_homogeneous(a: TropMatrix) -> TropMatrix:
    """Columns of the closure kept one column product at a time."""
    closed = _ref_eliminate(a)
    columns = (TropMatrix.column(closed.entries[k :: a.cols], a.alg) for k in range(a.cols))
    kept = [c for c in columns if ref_mat_mul(a, c) == c]
    if not kept:
        raise NoSolution("no column of the closure solves A x = x")
    ent = tuple(c.entries[j] for j in range(a.rows) for c in kept)
    return TropMatrix(a.rows, len(kept), ent, a.alg)


def ref_principal(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Residuation bound for A x <= b, one scalar cap at a time.

    Each row with a finite a_jk caps x_k at b_j (-a_jk); a cap at or
    below the best so far in the natural order replaces it, so the last
    of equals wins. A coordinate no row caps is the zero element.
    """
    alg = a.alg
    zero = alg.zero()
    out = []
    for k in range(a.cols):
        best = None
        for j in range(a.rows):
            ajk = a.get(j, k)
            if ajk == zero:
                continue
            cap = trop_mul(b.get(j, 0), trop_neg(ajk), alg)
            if best is None or semiring_le(cap, best, alg):
                best = cap
        out.append(zero if best is None else best)
    return TropMatrix.column(out, alg)


def ref_solve_lai_tropic(a: TropMatrix, b: TropMatrix, x: TropMatrix | None = None) -> TropMatrix:
    """The principal solution of A x <= b, or the given x, checked as
    solve_lai_tropic checks it."""
    x = ref_principal(a, b) if x is None else x
    if ref_mat_oplus(ref_mat_mul(a, x), b) != b:
        raise AssertionError("residuation produced a non-solution")
    return x


def ref_solve_lae_tropic(a: TropMatrix, b: TropMatrix, x: TropMatrix | None = None) -> TropMatrix:
    x = ref_principal(a, b) if x is None else x
    if ref_mat_mul(a, x) != b:
        raise NoSolution("the system A x = b has no solution")
    return x


# ---- the exact R64 reference ----
#
# An R64 matrix operation, tropical or classical, is its exact value on
# the operands' dyadic values, rounded once per entry: a classical
# product is the exact dot product rounded once (Kulisch and Miranker
# 1981), not a float fold. These run the Q references on those values
# over QMaxPlus, QMinPlus or classical Q and round each entry of the
# answer through Decimal, whose decimal string float() reads correctly
# rounded, a route apart from the library's int division.

EXACT_OF = {R64_MAX_PLUS: Q_MAX_PLUS, R64_MIN_PLUS: Q_MIN_PLUS, R64_CLASSICAL: Q_CLASSICAL}


def to_exact(m: TropMatrix) -> TropMatrix:
    """An R64 matrix as the Q matrix of the same values; any other
    matrix, or None, as it is."""
    if m is None or m.alg not in EXACT_OF:
        return m
    return TropMatrix(m.rows, m.cols, tuple(e if e.inf_sign else ExtScalar.of(Fraction(e.finite))
                                            for e in m.entries), EXACT_OF[m.alg])


def round_float(v: Fraction, alg, toward: bool = False) -> ExtScalar:
    """The dyadic v rounded to the nearest float, or when toward is set to
    the nearest float on the infinite element's side of v. A value past the
    largest float is the infinite element on that side and illegal on the
    other, and illegal on both sides over classical R64, as a float sum
    that overflows is."""
    k = v.denominator.bit_length() - 1
    f = float(Decimal(f"{v.numerator * 5 ** k}E-{k}"))
    if toward and math.isfinite(f) and alg.sign * (Fraction(f) - v) > 0:
        f = math.nextafter(f, -alg.sign * INF)
    if math.isinf(f):
        if f == -alg.sign * INF:
            return alg.zero()
        raise IllegalElement("float overflow produced an illegal infinity")
    return ExtScalar(f)


def exactly(ref, toward: bool = False):
    """ref as it stands over Z and Q; over R64 ref run on the exact
    values, each entry of its answer rounded once by round_float. A
    ClosureUndefined names the exact pivot, and is raised again naming its
    float, or IllegalElement where that overflows."""
    def run(*args):
        alg = args[0].alg
        if alg not in EXACT_OF:
            return ref(*args)
        try:
            m = ref(*map(to_exact, args))
        except ClosureUndefined as e:
            value = re.fullmatch(r"closure of (\S+) does not exist over \w+", str(e))[1]
            trop_closure_scalar(round_float(Fraction(value), alg), alg)
            raise AssertionError(f"the pivot {value} does not improve as a float") from e
        return TropMatrix(m.rows, m.cols, tuple(round_float(e.finite, alg, toward) if e.is_finite
                                                else alg.zero() for e in m.entries), alg)
    return run


def exact_solve_lai_tropic(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """ref_solve_lai_tropic over R64: the exact principal solution, its caps
    rounded toward the infinite element, checked on exact values."""
    x = exactly(ref_principal, toward=True)(a, b)
    ref_solve_lai_tropic(to_exact(a), to_exact(b), to_exact(x))
    return x


def exact_solve_lae_tropic(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    x = exactly(ref_principal, toward=True)(a, b)
    ref_solve_lae_tropic(to_exact(a), to_exact(b), to_exact(x))
    return x


# ref_bellman_homogeneous over R64: the exact closure, its columns kept by
# exact products, each entry rounded once.
exact_bellman_homogeneous = exactly(ref_bellman_homogeneous)


# ---- closure oracle ----


def closure_iterative(a: TropMatrix) -> TropMatrix:
    """Closure by the defining power expansion I + A + ... + A^(n-1).

    The result is checked against the fixed-point equation
    I + A B = B; if it fails, no closure exists. Takes a square matrix
    over a tropical algebra; O(n^4), so keep n small.
    """
    n = a.rows
    alg = a.alg
    ident = identity(n, alg)
    acc = ident
    power = ident
    for _ in range(1, n):
        power = ref_mat_mul(power, a)
        acc = ref_mat_oplus(acc, power)
    if ref_mat_oplus(ident, ref_mat_mul(a, acc)) != acc:
        raise ClosureUndefined("the closure of the matrix does not exist")
    return acc


# ---- shortest-path oracle ----


def floyd_warshall(weights):
    """All-pairs least path sums; weights is a square grid of numbers/INF."""
    n = len(weights)
    d = [[min(weights[i][j], 0 if i == j else INF) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return d


def shortest_path_dfs(g, start: int, goal: int) -> list[int]:
    """The lexicographically smallest simple shortest path, by backtracking.

    Walks tight edges (w(u, v) + dist(v, goal) = dist(u, goal)) depth
    first, trying successors in index order. Exponential on zero-weight
    plateaus, so keep graphs small. Takes in-range vertices with a
    finite distance between them.
    """
    dist = search_least_distances(g)
    adj = g.adjacency
    alg = adj.alg
    n = g.order
    path = [start]
    on_path = [False] * n
    on_path[start] = True
    pending = [iter(range(n))]
    while pending:
        u = path[-1]
        stepped = False
        for v in pending[-1]:
            if on_path[v]:
                continue
            w = adj.get(u, v)
            if w.inf_sign:
                continue
            if trop_mul(w, dist.get(v, goal), alg) != dist.get(u, goal):
                continue
            path.append(v)
            if v == goal:
                return path
            on_path[v] = True
            pending.append(iter(range(n)))
            stepped = True
            break
        if not stepped:
            pending.pop()
            on_path[path.pop()] = False
    raise AssertionError("a tight path must exist when the distance is finite")


def ref_find_shortest_path_closure(g, start: int, goal: int) -> list[int]:
    """find_shortest_path as it was before the one-column distances: the
    same tight-edge walk, read off the full closure's goal column."""
    n = g.order
    for idx in (start, goal):
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < n:
            raise IndexOutOfRange(f"vertex {idx!r} is outside 0..{n - 1}")
    if start == goal:
        return [start]
    dist = search_least_distances(g)
    if dist.get(start, goal).inf_sign:
        raise NoPath(f"no path from {start} to {goal}")
    adj = g.adjacency
    to_goal = [dist.get(v, goal) for v in range(n)]

    def tight(u: int, v: int) -> bool:
        w = adj.get(u, v)
        return not w.inf_sign and trop_mul(w, to_goal[v], adj.alg) == to_goal[u]

    barred = {start}

    def leads_to_goal(v: int, level) -> bool:
        seen, stack = {v}, [v]
        while stack:
            x = stack.pop()
            if x == goal or to_goal[x] != level:
                return True
            for y in range(n):
                if y not in seen and y not in barred and tight(x, y):
                    seen.add(y)
                    stack.append(y)
        barred.update(seen)
        return False

    path = [start]
    while path[-1] != goal:
        u = path[-1]
        for v in range(n):
            if v not in barred and tight(u, v) and leads_to_goal(v, to_goal[u]):
                break
        else:
            raise AssertionError("a tight path must exist when the distance is finite")
        path.append(v)
        barred.add(v)
    return path


def minplus_matrix_to_grid(m: TropMatrix):
    return [
        [INF if e.inf_sign > 0 else e.finite for e in row] for row in m.to_lists()
    ]


# ---- exact linear algebra ----


def gauss_solve(a, b):
    """Solve a square rational system exactly; None when singular."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(row[-1] for row in m)


# ---- vertex-enumeration LP oracle ----


def _feasible(p: LpProblem, x) -> bool:
    if any(v < 0 for v in x):
        return False
    dot = lambda row: sum(a * v for a, v in zip(row, x))
    return (
        all(dot(r) <= b for r, b in zip(p.a_le, p.b_le))
        and all(dot(r) == b for r, b in zip(p.a_eq, p.b_eq))
        and all(dot(r) >= b for r, b in zip(p.a_ge, p.b_ge))
    )


def _vertices(rows, n):
    """Basic solutions of every nonsingular n-subset of rows (coef, rhs)."""
    out = []
    for subset in combinations(range(len(rows)), n):
        x = gauss_solve([rows[i][0] for i in subset], [rows[i][1] for i in subset])
        if x is not None:
            out.append(x)
    return out


def lp_oracle(p: LpProblem):
    """Returns ('infeasible', None), ('unbounded', None) or ('optimal', obj)."""
    n = len(p.c)
    unit = lambda i: tuple(Fraction(int(j == i)) for j in range(n))

    rows = (
        [(r, b) for r, b in zip(p.a_le, p.b_le)]
        + [(r, b) for r, b in zip(p.a_eq, p.b_eq)]
        + [(r, b) for r, b in zip(p.a_ge, p.b_ge)]
        + [(unit(i), Fraction(0)) for i in range(n)]
    )
    values = [
        sum(c * v for c, v in zip(p.c, x))
        for x in _vertices(rows, n)
        if _feasible(p, x)
    ]
    if not values:
        return "infeasible", None

    # A ray d of the feasible cone improving the objective means unbounded;
    # scaling to sum(d)=1 makes the cone section a polytope, so checking its
    # vertices is enough.
    ones = tuple(Fraction(1) for _ in range(n))
    zero = Fraction(0)
    ray_rows = (
        [(r, zero) for r in p.a_le]
        + [(r, zero) for r in p.a_eq]
        + [(r, zero) for r in p.a_ge]
        + [(unit(i), zero) for i in range(n)]
    )
    for subset in combinations(range(len(ray_rows)), n - 1):
        coefs = [ones] + [ray_rows[i][0] for i in subset]
        rhs = [Fraction(1)] + [ray_rows[i][1] for i in subset]
        d = gauss_solve(coefs, rhs)
        if d is None or any(v < 0 for v in d):
            continue
        dot = lambda row: sum(a * v for a, v in zip(row, d))
        if not all(dot(r) <= 0 for r in p.a_le):
            continue
        if not all(dot(r) == 0 for r in p.a_eq):
            continue
        if not all(dot(r) >= 0 for r in p.a_ge):
            continue
        gain = sum(c * v for c, v in zip(p.c, d))
        if (p.sense == "max" and gain > 0) or (p.sense == "min" and gain < 0):
            return "unbounded", None
    best = max(values) if p.sense == "max" else min(values)
    return "optimal", best


# ---- the Fraction simplex ----
#
# The two-phase simplex on one tableau of Fractions, each pivot dividing the
# pivot row through and updating every other row: the same Bland's rule and
# branches as simplex_solve without its integer tableau, so the answer, the
# pivot count and the reduced costs must match it exactly.

_ZERO = Fraction(0)
_ONE = Fraction(1)
_REF_PIVOT_LIMIT = 200_000


def _ref_pivot(tab, basis, r, j, stats):
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


def _ref_priced(cost, tab, basis):
    """The objective row of cost: every basic column priced out by its row."""
    for r, bv in enumerate(basis):
        f = cost[bv]
        if f:
            cost = [x - f * y for x, y in zip(cost, tab[r])]
    return cost


def _ref_optimize(tab, basis, width, stats):
    """Maximize with Bland's rule; tab[-1] holds reduced costs and -z last."""
    for _ in range(_REF_PIVOT_LIMIT):
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
        _ref_pivot(tab, basis, leave, enter, stats)
    raise RuntimeError("pivot limit exceeded")


def ref_simplex_solve(problem: LpProblem, stats: SimplexStats | None = None):
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
        tab.append(_ref_priced([_ZERO] * width + [-_ONE] * arts + [_ZERO], tab, basis))
        if _ref_optimize(tab, basis, width + arts, stats) != "optimal":
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
                    _ref_pivot(tab, basis, r, j, stats)
        kept = [(line[:width] + line[-1:], bv) for line, bv in zip(tab, basis) if bv < width]
        tab, basis = [line for line, _ in kept], [bv for _, bv in kept]

    cost = list(problem.c) if problem.sense == "max" else [-v for v in problem.c]
    tab.append(_ref_priced(cost + slacks + [_ZERO], tab, basis))
    if _ref_optimize(tab, basis, width, stats) == "unbounded":
        return Unbounded()

    values = {bv: line[-1] for bv, line in zip(basis, tab)}
    xs = tuple(values.get(j, _ZERO) for j in range(n))
    if stats is not None:
        stats.reduced_costs = tuple(tab[-1][:width])
    _check_solution(problem, xs)
    objective = sum((ci * xi for ci, xi in zip(problem.c, xs)), _ZERO)
    return Optimal(xs, objective)


# ---- random instances ----


def rand_lp_problem(rng) -> LpProblem:
    """Small rational program with a mixed bag of constraint senses."""
    n = rng.randint(1, 4)
    a_le, b_le, a_eq, b_eq, a_ge, b_ge = [], [], [], [], [], []
    for _ in range(rng.randint(0, 5)):
        row = tuple(rng.randint(-9, 9) for _ in range(n))
        b = rng.randint(-9, 9)
        kind = rng.random()
        if kind < 0.6:
            a_le.append(row)
            b_le.append(b)
        elif kind < 0.8:
            a_ge.append(row)
            b_ge.append(b)
        else:
            a_eq.append(row)
            b_eq.append(b)
    return LpProblem(
        c=tuple(rng.randint(-9, 9) for _ in range(n)),
        a_le=tuple(a_le),
        b_le=tuple(b_le),
        a_eq=tuple(a_eq),
        b_eq=tuple(b_eq),
        a_ge=tuple(a_ge),
        b_ge=tuple(b_ge),
        sense=rng.choice(["max", "min"]),
    )


def rand_rational_lp_problem(rng) -> LpProblem:
    """A program over up to 5 variables and 6 rows, each row in any group.

    Entries are p/q with |p| <= 9 and 1 <= q <= 7. About 30 % of the
    right-hand sides are 0, so degenerate vertices are common.
    """
    n = rng.randint(1, 5)
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    groups = ([], [], [])
    for _ in range(rng.randint(0, 6)):
        rhs = Fraction(0) if rng.random() < 0.3 else q()
        rng.choice(groups).append((tuple(q() for _ in range(n)), rhs))
    rows = [part for g in groups for part in (tuple(r for r, _ in g), tuple(b for _, b in g))]
    return LpProblem(tuple(q() for _ in range(n)), *rows, sense=rng.choice(["max", "min"]))


def rand_scalar(rng, alg, lo=-9, hi=9, p_inf=0.0) -> ExtScalar:
    """An int in [lo, hi], or over R64 that many tenths; the algebra's zero
    with probability p_inf."""
    if p_inf and rng.random() < p_inf:
        return alg.zero()
    v = rng.randint(lo, hi)
    return ExtScalar.of(v / 10 if alg.domain is Domain.F64 else v)


def rand_matrix(rng, alg, rows, cols, lo=-9, hi=9, p_inf=0.0) -> TropMatrix:
    return TropMatrix.from_rows(
        [[rand_scalar(rng, alg, lo, hi, p_inf) for _ in range(cols)] for _ in range(rows)],
        alg,
    )


def rand_closure_friendly(rng, alg, n, p_inf=0.2) -> TropMatrix:
    """Random square matrix whose closure exists: no improving cycles."""
    if alg.kind is SemiringKind.MAX_PLUS:
        lo, hi = -9, 0
    else:
        lo, hi = 0, 9
    return rand_matrix(rng, alg, n, n, lo, hi, p_inf)


# ---- max-plus / min-plus mirror ----

SISTER = {
    Z_MAX_PLUS: Z_MIN_PLUS,
    Z_MIN_PLUS: Z_MAX_PLUS,
    Q_MAX_PLUS: Q_MIN_PLUS,
    Q_MIN_PLUS: Q_MAX_PLUS,
    R64_MAX_PLUS: R64_MIN_PLUS,
    R64_MIN_PLUS: R64_MAX_PLUS,
}


def mirror_scalar(e: ExtScalar) -> ExtScalar:
    if e.is_finite:
        return ExtScalar.of(-e.finite)
    return ExtScalar(None, -e.inf_sign)


def mirror_matrix(m: TropMatrix) -> TropMatrix:
    """Negate every entry and move the matrix to the dual semiring."""
    rows = [[mirror_scalar(e) for e in row] for row in m.to_lists()]
    return TropMatrix.from_rows(rows, SISTER[m.alg])


# ---- the per-entry routes out of a matrix ----
#
# The evaluator negates a matrix, multiplies it by a scalar and prints it
# on its raw rows. These are the routes it took before, one ExtScalar an
# entry: the entries read off the raw rows, then trop_neg, trop_mul or
# the scalar printer on each.


def ref_entries(m: TropMatrix) -> tuple:
    """The entries row-major as ExtScalars, read off the raw rows directly."""
    den, raw, zero = m._den, m._raw, m.alg.zero()
    if m.alg.sign < 0:
        raw = [[x if x is None else -x for x in r] for r in raw]
    if m.alg.domain is Domain.F64:
        return tuple(zero if x is None else ExtScalar(x / den) for r in raw for x in r)
    return tuple(zero if x is None else ExtScalar(Fraction(x, den) if x % den else x // den)
                 for r in raw for x in r)


def ref_negate(m: TropMatrix) -> TropMatrix:
    return TropMatrix(m.rows, m.cols, tuple(trop_neg(e) for e in ref_entries(m)), m.alg)


def ref_scale(s: ExtScalar, m: TropMatrix) -> TropMatrix:
    return TropMatrix(m.rows, m.cols, tuple(trop_mul(s, e, m.alg) for e in ref_entries(m)), m.alg)


def ref_render_scalar(e: ExtScalar) -> str:
    if e.inf_sign:
        return "-\\infty" if e.inf_sign < 0 else "\\infty"
    v = e.finite
    if isinstance(v, float):
        if v.is_integer():
            return _number_text(int(v))
        text = repr(v)
        return format(Decimal(text), "f") if "e" in text else text
    return _number_text(v)


def ref_render_matrix(m: TropMatrix, fmt: str) -> str:
    e = ref_entries(m)
    rows = [[ref_render_scalar(x) for x in e[i * m.cols : (i + 1) * m.cols]] for i in range(m.rows)]
    if fmt == "latex":
        return "\\begin{pmatrix} " + " \\\\ ".join(map(" & ".join, rows)) + " \\end{pmatrix}"
    if m.cols == 1:
        return "[" + ", ".join(r[0] for r in rows) + "]"
    return "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"


def ref_rational_rows(m: TropMatrix) -> tuple:
    e = ref_entries(m)
    return tuple(tuple(Fraction(x.finite) for x in e[i * m.cols : (i + 1) * m.cols])
                 for i in range(m.rows))


def ref_literal(text: str, kind: str, domain: Domain):
    """A number literal's scalar in a domain, through Decimal, or the text
    of the error it raises."""
    if domain is Domain.Z and kind != "int":
        return f"{text} is not an element of an integer space"
    num, _, den = text.partition("/")
    value = (Fraction(int(Decimal(num)), int(Decimal(den))) if den
             else Fraction(Decimal(num)) if "." in num else int(Decimal(num)))
    if domain is Domain.F64:
        try:
            value = float(Fraction(value))
        except OverflowError:
            return f"{text} is not in the number domain F64"
    return ExtScalar.of(value)


# ---- script printer ----

_PREC = {"+": 1, "-": 1, "*": 2}


def unparse_expr(node, parent_prec: int = 0) -> str:
    if isinstance(node, ScalarLit):
        s = node.value
        return s if parent_prec < 3 or not s.startswith("-") else f"({s})"
    if isinstance(node, InfinityLit):
        s = "\\infty" if node.sign > 0 else "-\\infty"
        return s if parent_prec < 3 or node.sign > 0 else f"({s})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, EmptyLit):
        return "[]"
    if isinstance(node, MatrixLit):
        return "[" + ", ".join(map(_unparse_items, node.rows)) + "]"
    if isinstance(node, ListLit):
        return _unparse_items(node.items)
    if isinstance(node, UnaryNeg):
        signs = 0
        while isinstance(node, UnaryNeg):
            signs += 1
            node = node.operand
        return "-" * signs + unparse_expr(node, 3)
    if isinstance(node, BinOp):
        # Operator chains lean left as deep as they are long, so the left
        # spine is walked in a loop and the text built from its bottom up.
        spine = []
        while isinstance(node, BinOp):
            spine.append((node, parent_prec))
            parent_prec = _PREC[node.op]
            node = node.left
        s = unparse_expr(node, parent_prec)
        for op, outer in reversed(spine):
            prec = _PREC[op.op]
            # +, - and * all associate to the left here, so a right child at
            # equal precedence needs parentheses to survive a round trip.
            s = f"{s} {op.op} {unparse_expr(op.right, prec + 1)}"
            if prec < outer:
                s = f"({s})"
        return s
    if isinstance(node, Call):
        return f"\\{node.command}(" + ", ".join(unparse_expr(a) for a in node.args) + ")"
    if isinstance(node, Ineq):
        return f"{unparse_expr(node.left)} {node.op} {unparse_expr(node.right)}"
    raise TypeError(f"not an expression node: {node!r}")


def _unparse_items(items) -> str:
    """A bracket of expressions, or of a NumberRow's entries as spelled."""
    if isinstance(items, NumberRow):
        return "[" + ", ".join(items.entries) + "]"
    return "[" + ", ".join(unparse_expr(e) for e in items) + "]"


def unparse(stmt) -> str:
    """Source text that parses back to stmt."""
    if isinstance(stmt, SpaceDecl):
        return f"SPACE = {stmt.name}[{', '.join(stmt.vars)}];"
    if isinstance(stmt, Assign):
        return f"{stmt.name} = {unparse_expr(stmt.expr)};"
    if isinstance(stmt, ExprStmt):
        return f"{unparse_expr(stmt.expr)};"
    raise TypeError(f"not a statement node: {stmt!r}")

"""Dense matrices over a scalar algebra, with the Kleene closure.

A TropMatrix is a plain value, safe to share between threads: a shape,
an algebra and raw rows over a denominator L, a tuple of row tuples
holding None for the algebra's infinite element and L x for each other
entry x. Entries are checked once, by one reader, when a matrix is built
from outside (the constructor, from_rows, column, diag); ExtScalars are
built only at the boundary, by entries, get and to_lists on first use,
and kept. The operations are the semiring matrix product, entrywise
addition, the pseudo-inverse, and the closure A^x = I + A + ... +
A^(n-1), the solution of I + A A^x = A^x = I + A^x A. The closure is
Gauss-Jordan elimination, the algebraic path algorithm of Carre (1971)
and Lehmann (1977), Floyd-Warshall over min-plus: pivot k sets a_kk to
the unit and adds a_ik a_kj to every a_ij with i != k, n (n-1)
multiplications a pivot, so an n x n closure costs C(n) = n^2 (n-1).
A^x B, the least solution of the Bellman equation X = A X + B for an
n x n A and an n x m B, never takes a separate product, by one of two
routes. When some real entry of A, its diagonal included, is better than
the unit (a_ij > 0 over max-plus, a_ij < 0 over min-plus, on the stored
rows, whose scaling by L keeps the sign), it is the closure's own
elimination run on [A | B] (Carre 1971): the pivots are A's n columns,
and B's m columns are carried along and never pivoted on, so the rows
end as [A^x | A^x B]. A pivot costs (n-1) (n+m) multiplications, and
A^x B n (n-1) (n+m): 13800 at n = 24, m = 1, against C(n) + n^2 m =
13824 for the closure and then the product. The pivots are the
closure's, so it raises at the same pivot with the same text.

Without such an entry A^x B is settled by labels, by Dijkstra's method
(1959), which Carre (1971) treats in the same algebra. For each
column of B, x starts as that column; the best unsettled x_u is settled
in turn and relaxes x_v + a_vu x_u into each unsettled x_v, at most
n (n-1) multiplications a column against the elimination's n (n-1) (n+m)
in all.
This is exact. No entry improves, so no cycle does: A^x exists and
nothing raises. Every walk weighs no more than its own suffix, so the
settled values never get better in settle order and no later relaxation
betters a settled x_u: each is final, and over Z and Q the answer is the
elimination's exactly. Over R64 the same holds of the float sums, as
fl(a + x) <= x when a <= 0 (rounding is monotone; min-plus mirrors it):
each x_i = max(b_i, max over j of fl(a_ij + x_j)), since a j settled
before i was relaxed into x_i and any other has fl(a_ij + x_j) <= x_j
<= x_i. That is the check A x + b, summed entry by entry, so a settled
answer passes it with no round of refinement; it may differ from the
eliminated answer by a few ulps or a zero's sign.
find_shortest_path runs the same kernel on the goal's unit column.

Each operation runs one kernel (_product, _oplus, _closure, _residual,
and _closure or _label_setting for A^x B), shared by max-plus and
min-plus through semiring's sign rule, on the stored rows, and keeps the
rows it returns unchecked: a chain of operations converts nothing in
between. Counts are tallied in bulk: an n x m by m x p product is n m p
of each.

The tropical product, sum and closure never test for None. On entry,
_lifted replaces each None in the operands by one sentinel S; the kernel
runs max (min over min-plus) and + on plain numbers, as
max(map(add, r, c)) per entry of a product; on exit each value at or
beyond a cut C, on the infinite element's side, is None again. Every
pivot of a closure runs on rows lifted once. Over R64, S = C = -sign
inf, which + absorbs and max or min passes over, exactly as the kernel
would treat None. A float sum that overflows toward it is the infinite
element already; one that overflows away is sign inf, which stays where
it lands and raises IllegalElement when the product or the closure
ends, or before a pivot raises (A's columns only, so an overflow in B's
columns alone leaves the divergent pivot's error), as a scalar fold
would have at that sum. An eliminated A^x B forms all of A^x, so it
raises wherever the closure raises. A sum only compares, and Python
compares an int with a float exactly (10**400 > -inf holds), so a sum
takes S = C = -sign inf over every domain. For a product, a closure or
A^x B over Z and scaled Q, with M the largest magnitude among the
operands' values and w a bound on the edges of the walks a result
optimises over (2 for a product, n for an n x n closure and for A^x B
with A n x n), S = -sign (2 w M + 1) and C = -sign (w M + 1).

Why no value derived from S is taken for a real one, over max-plus
(min-plus mirrors it): give every missing edge of the operands' graph
the weight S. A product entry is an optimum over walks of w edges. A
closure computes on ints exactly, so only the values it decides on
matter: a pivot, the best closed walk through its vertex, and an entry
of the result. Each value a row update computes is an optimum over a
set of walks between two vertices whose inner vertices lie in the set K
of pivots already passed, a set holding every such walk without a
repeated inner vertex; setting a_kk to the unit adds the empty walk at
k. K has no improving cycle: one of real edges would have made a pivot
raise, and one with an S edge weighs at most S + (n-1)M < 0. Removing a
cycle within K never lowers a walk, and leaves a real walk real, so each
optimum is reached on a walk of at most w edges. A value that is real
without sentinels is therefore at least -wM > C; one over walks that
all hold an S edge is at most S + (w-1)M = -(w+1)M - 1 <= C, and a walk
through S never beats a real optimum. So each pivot sees a value <= 0
exactly when it saw None or one <= 0, raises on the same value, and
lowering gives every entry back exactly. The value at pivot k is the
best closed walk through k over the pivots before it, the value a block
recursion down to 1 x 1 blocks sees at k, so both raise at the same
pivot, with the same text. For A^x B, give the graph one more vertex
t_c for each column c of B, with an edge of weight b_ic from each vertex
i and none out, and never pivot on it: [A | B] holds the edges out of
A's vertices, and its elimination is the closure's on that graph,
pivoting on A's vertices only, so its pivots are the closure's. Each
x_ic is the optimum over all walks from i to t_c, reached, as no cycle
improves, on one without a repeated vertex: at most n - 1 edges of A
and one of B, so w = n bounds it as it bounds a pivot. No value from S
equals a real one, so ties among equal real values still keep the
first, signed zeros included.

A row update of the closure keeps row i whole when its multiplier a_ik
is at or beyond the cut, which over R64 means a_ik is -sign inf itself.
This is exact. Such an a_ik is an optimum over walks to k that each hold
an S edge (a real one would make a_ik real), so every walk the update
would add to row i holds one too, as None times x is None: the set of
real walks each value optimises over does not change, and neither does
a real value. A value at or beyond the cut stays there, as it is still
an optimum over walks that each hold an S edge, only over fewer of
them. So a pivot sees the same value where it is real and one that
cannot raise where it is not, the elimination raises at the same pivot
with the same text, and lowering gives back the same entries. Over R64
the kept row is the one the update would give: -sign inf + t is
-sign inf, or NaN where t = sign inf, and neither replaces u, so
_overflow_checked still raises on a sum that overflowed away. The tally
still counts (n-1) (n+m) multiply-adds a pivot, m = 0 for a closure:
products by the zero element are counted, as the bulk tally of a
product has always counted them.

L is the least common multiple of the entries' denominators over Q and
1 elsewhere. For L > 0, x -> L x is an automorphism of max-plus and
min-plus, so the tropical kernels run on ints: an operation on two
matrices rescales the one whose L differs from their least common
multiple, and one gcd pass reduces the result to its least L. The map
does not preserve classical products, and none needs it: a product of
rows over L_a and L_b is a sum of integer products over L_a L_b, which
the same gcd pass reduces. Equal values have equal least denominators,
so == compares rows and L.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul

from ._record import Record
from .errors import AlgebraMismatch, DimensionMismatch
from .semiring import (
    Algebra, ExtScalar, _F64, _Q, _finite_result, _tally, trop_closure_scalar,
)

__all__ = [
    "TropMatrix",
    "mat_mul",
    "mat_oplus",
    "mat_le",
    "pseudo_inverse",
    "diag",
    "identity",
    "zero_matrix",
    "closure_block",
]


class TropMatrix(Record):
    """An immutable rows x cols matrix over one algebra."""

    __slots__ = ("alg", "_raw", "_den", "_entries")
    _names = ("rows", "cols", "entries", "alg")
    rows = property(lambda self: len(self._raw))
    cols = property(lambda self: len(self._raw[0]))

    def __init__(self, rows: int, cols: int, entries: tuple[ExtScalar, ...], alg: Algebra):
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrices need at least one row and one column")
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(entries)}")
        _checked(list(zip(*[iter(entries)] * cols)), alg, self)

    @classmethod
    def from_rows(cls, rows, alg: Algebra) -> "TropMatrix":
        """Build from an iterable of equal-length rows of numbers."""
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionMismatch("matrix literal has no rows")
        return _checked(rows, alg)

    @classmethod
    def column(cls, values, alg: Algebra) -> "TropMatrix":
        return _checked([[v] for v in values], alg)

    @property
    def entries(self) -> tuple[ExtScalar, ...]:
        """The entries row-major, as ExtScalars."""
        ext = getattr(self, "_entries", None)  # unset until first read
        if ext is None:
            zero, den = self.alg.zero(), self._den
            ext = tuple([zero if x is None else ExtScalar(x if den == 1 else Fraction(x, den)
                         if x % den else x // den) for r in self._raw for x in r])
            _set_entries(self, ext)
        return ext

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def get(self, j: int, k: int) -> ExtScalar:
        return self.entries[j * self.cols + k]

    def to_lists(self) -> list[list[ExtScalar]]:
        return [
            list(self.entries[j * self.cols : (j + 1) * self.cols])
            for j in range(self.rows)
        ]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._raw == other._raw and self._den == other._den
                and (self.alg is other.alg or self.alg == other.alg))

    __hash__ = Record.__hash__


_set_alg, _set_raw, _set_den, _set_entries = (
    getattr(TropMatrix, n).__set__ for n in TropMatrix.__slots__)


def _fill(m: TropMatrix, raw: tuple, alg: Algebra, den: int) -> TropMatrix:
    """m, its slots set to alg and the rows of raw over den."""
    _set_alg(m, alg)
    _set_raw(m, raw)
    _set_den(m, den)
    return m


def _entry(v, alg: Algebra):
    """An entry given from outside, raw: an int, or a Fraction over Q, is read
    directly, anything else as ExtScalar.of and Algebra.require_member read it."""
    t, d = type(v), alg.domain
    if t is int and d is not _F64 or t is Fraction and d is _Q:
        return v if t is int or v.denominator != 1 else v.numerator
    e = alg.require_member(ExtScalar.of(v))
    return None if e.inf_sign else e.finite


def _checked(rows: list, alg: Algebra, m: TropMatrix | None = None) -> TropMatrix:
    """m, or a new matrix, on rows of numbers or ExtScalars checked once, over their least L."""
    if any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("matrix rows have unequal lengths")
    if not rows or not rows[0]:
        raise DimensionMismatch("matrices need at least one row and one column")
    rows, den = [[_entry(v, alg) for v in r] for r in rows], 1
    if alg.domain is _Q:
        den = math.lcm(*{x.denominator for r in rows for x in r if type(x) is Fraction})
        rows = [[x if x is None else x.numerator * (den // x.denominator) for x in r] for r in rows]
    return _fill(m or object.__new__(TropMatrix), tuple([tuple(r) for r in rows]), alg, den)


def _result(rows: list, alg: Algebra, den: int = 1) -> TropMatrix:
    """A matrix on kernel rows over den, reduced to the least one."""
    if den != 1:
        g = math.gcd(den, *[x for r in rows for x in r if x is not None])
        if g != 1:
            den //= g
            rows = [[x if x is None else x // g for x in r] for r in rows]
    return _fill(object.__new__(TropMatrix), tuple([tuple(r) for r in rows]), alg, den)


def _common(a: TropMatrix, b: TropMatrix) -> tuple:
    """The raw rows of a and b over the lcm of their denominators, and that lcm."""
    if a._den == b._den:
        return a._raw, b._raw, a._den
    den = math.lcm(a._den, b._den)
    return (*[m._raw if m._den == den else
              [[x if x is None else x * (den // m._den) for x in r] for r in m._raw]
              for m in (a, b)], den)


def _require_same_algebra(a: TropMatrix, b: TropMatrix):
    if a.alg is not b.alg and a.alg != b.alg:
        raise AlgebraMismatch(
            f"operands live in different algebras ({a.alg.name} vs {b.alg.name})"
        )


def _require_tropical(a: TropMatrix, what: str):
    if not a.alg.is_tropical:
        raise AlgebraMismatch(f"{what} is defined over tropical algebras only")


def _settle(rows: list, alg: Algebra) -> list:
    """Fold float overflow onto the infinite element, or raise; left to a
    later step, it could turn into a NaN or a ClosureUndefined."""
    if alg.domain is not _F64:
        return rows
    return [[x if x is None or math.isfinite(x) else _finite_result(x, alg).finite for x in r]
            for r in rows]


def _lifted(kernel, walk: int, alg: Algebra, *operands: list) -> list:
    """Raw rows of kernel(*operands, alg) over a tropical algebra, run on
    lifted rows: each None is replaced by one sentinel on entry, and each
    value at or beyond the cut returns to None on exit. walk bounds the
    edges of the walks a value is an optimum over (see the module docstring);
    walk 0 marks a kernel that only compares. The kernel is also handed the
    cut, at or beyond which no value is real; only the closure uses it."""
    sign = alg.sign
    if alg.domain is _F64 or not walk:
        sentinel = cut = -sign * math.inf
    else:
        real = set().union(*chain.from_iterable(operands)) - {None}
        m = max(max(real), -min(real)) if real else 0
        sentinel, cut = -sign * (2 * walk * m + 1), -sign * (walk * m + 1)
    out = kernel(*[[r if None not in r else [sentinel if x is None else x for x in r]
                    for r in rows] for rows in operands], alg, cut)
    if sign > 0:
        return [r if min(r) > cut else [x if x > cut else None for x in r] for r in out]
    return [r if max(r) < cut else [x if x < cut else None for x in r] for r in out]


def _mul(a: list, b: list, alg: Algebra, cut=None) -> list:
    """The semiring product of lifted rows, or of raw rows over a classical algebra.

    Ties keep the first of equals, and classical sums add left to right
    (reduce, not sum, which may compensate rounding), as a scalar fold does.
    A lifted float sum that overflows to -sign inf is the sentinel already.
    """
    sign, cols = alg.sign, list(zip(*b))
    if sign:
        pick = max if sign > 0 else min
        out = [[pick(map(add, r, c)) for c in cols] for r in a]
    else:
        zero = alg.zero().finite
        out = [[reduce(add, map(mul, r, c), zero) for c in cols] for r in a]
    work = len(a) * len(b) * len(cols)
    _tally(work, work)
    return _overflow_checked(out, alg) if sign else _settle(out, alg)


def _overflow_checked(rows: list, alg: Algebra) -> list:
    """Lifted tropical rows, unless a float sum in them overflowed away from
    the infinite element: that sum is sign inf, which no later max (min
    over min-plus) replaces, and raises IllegalElement as a scalar fold
    would."""
    if alg.domain is _F64:
        pick = max if alg.sign > 0 else min
        if alg.sign * math.inf in map(pick, rows):
            _finite_result(alg.sign * math.inf, alg)  # raises IllegalElement
    return rows


def _add(a: list, b: list, alg: Algebra, cut=None) -> list:
    """The entrywise semiring sum of equal-shape lifted rows, or of raw rows
    over a classical algebra; ties keep a's entry."""
    _tally(len(a) * len(a[0]), 0)
    if alg.sign > 0:
        return [[y if y > x else x for x, y in zip(r, s)] for r, s in zip(a, b)]
    if alg.sign < 0:
        return [[y if y < x else x for x, y in zip(r, s)] for r, s in zip(a, b)]
    return _settle([[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], alg)


def _product(a: list, b: list, alg: Algebra) -> list:
    """Raw rows of the semiring product of n x m and m x p raw rows."""
    return _lifted(_mul, 2, alg, a, b) if alg.sign else _mul(a, b, alg)


def _oplus(a: list, b: list, alg: Algebra) -> list:
    """Raw rows of the entrywise semiring sum of equal-shape raw rows."""
    return _lifted(_add, 0, alg, a, b) if alg.sign else _add(a, b, alg)


def _residual(a: list, b: list, alg: Algebra) -> list:
    """Raw column of the principal solution of A x <= b (see solvers).

    Ties keep the last of equal caps, as a fold that replaces its best on
    a tie does. Each finite a_jk costs one multiplication and, after the
    first in its column, one addition.
    """
    sign = alg.sign
    pick = min if sign > 0 else max
    floats = alg.domain is _F64
    rhs = [r[0] for r in b]
    out = []
    muls = adds = 0
    for col in zip(*a):
        rows = [(x, y) for x, y in zip(col, rhs) if x is not None]
        caps = [None if y is None else y - x for x, y in rows]
        if floats:
            caps = _settle([[_float_cap(x, y, c, sign) for (x, y), c in zip(rows, caps)]],
                           alg)[0]
        out.append([None if None in caps else pick(reversed(caps), default=None)])
        muls += len(caps)
        adds += max(len(caps) - 1, 0)
    _tally(adds, muls)
    return out


def _float_cap(x: float, y: float | None, cap: float | None, sign: int):
    """The cap y - x, moved one float at a time toward the infinite element
    until x + cap no longer passes y; infinite caps are left to _settle."""
    if cap is None or not math.isfinite(cap):
        return cap
    while sign * (x + cap) > sign * y:
        cap = math.nextafter(cap, -sign * math.inf)
    return cap


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """The semiring matrix product."""
    _require_same_algebra(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    # A classical product of rows over L_a and L_b is one over L_a L_b.
    ra, rb, den = _common(a, b) if a.alg.sign else (a._raw, b._raw, a._den * b._den)
    return _result(_product(ra, rb, a.alg), a.alg, den)


def mat_oplus(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Entrywise semiring addition."""
    _require_same_algebra(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )
    ra, rb, den = _common(a, b)
    return _result(_oplus(ra, rb, a.alg), a.alg, den)


def mat_le(a: TropMatrix, b: TropMatrix) -> bool:
    """Entrywise natural order of the semiring: a <= b iff a + b == b."""
    return mat_oplus(a, b) == b


def pseudo_inverse(a: TropMatrix) -> TropMatrix:
    """The negated transpose; the infinite element maps to itself."""
    _require_tropical(a, "the pseudo-inverse")
    return _result([[None if x is None else -x for x in c] for c in zip(*a._raw)], a.alg, a._den)


def _residuate(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """The principal solution of A x <= b, for a system the caller has checked."""
    ra, rb, den = _common(a, b)
    return _result(_residual(ra, rb, a.alg), a.alg, den)


def _least_solution(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """A^x B, the least solution of X = A X + B, for a system the caller has
    checked; A must be square, as for its closure. It is settled by labels
    when no entry of A improves on the unit, and otherwise read off the
    closure's elimination run on [A | B]."""
    if not a.is_square:
        raise DimensionMismatch("the closure is defined for square matrices only")
    ra, rb, den = _common(a, b)
    alg = a.alg
    real = set().union(*ra) - {None}
    if real and (max(real) > 0 if alg.sign > 0 else min(real) < 0):
        closed = _closure([[*r, *s] for r, s in zip(ra, rb)], alg, den)
        return _result([r[a.rows:] for r in closed], alg, den)
    return _result(list(zip(*_label_setting(ra, list(zip(*rb)), alg))), alg, den)


def diag(values, alg: Algebra) -> TropMatrix:
    """Square matrix with the given diagonal, zero elsewhere."""
    values, zero = list(values), alg.zero()
    return _checked([[v if i == j else zero for j in range(len(values))]
                     for i, v in enumerate(values)], alg)


def identity(n: int, alg: Algebra) -> TropMatrix:
    """The multiplicative identity matrix."""
    return diag([alg.one()] * n, alg)


def zero_matrix(rows: int, cols: int, alg: Algebra) -> TropMatrix:
    """The additive identity matrix (all entries the algebra's zero)."""
    return TropMatrix(rows, cols, (alg.zero(),) * (rows * cols), alg)


def _closure(rows: list, alg: Algebra, den: int) -> list:
    """Raw rows of the closure A^x of square raw rows A over den, or of
    [A^x | A^x B] for the raw rows [A | B], by Gauss-Jordan elimination on
    rows lifted once; only A's columns are pivoted on."""
    sign, one, n = alg.sign, alg.one().finite, len(rows)

    def eliminate(rows: list, alg: Algebra, cut) -> list:
        # Pivot k has a_kk* = one, then a_ij += a_ik a_kj for every row
        # i != k and every column j, B's included: (n - 1) (n + m)
        # multiply-adds a pivot; a tie keeps a_ij, and a row whose a_ik is
        # at or beyond the cut is kept whole.
        a = [list(r) for r in rows]
        work = (n - 1) * len(a[0])
        for k in range(n):
            rk = a[k]
            x = rk[k]
            if sign * x > 0:
                _tally(k * work, k * work)
                # An earlier overflow in A's columns raises first.
                _overflow_checked([r[:n] for r in a], alg)
                # Divergent: the scalar closure raises, naming the entry's value.
                trop_closure_scalar(_result([[x]], alg, den).entries[0], alg)
            rk[k] = one
            col = [r[k] for r in a]
            if sign > 0:
                a = [r if r is rk or c <= cut else
                     [v if (v := c + t) > u else u for u, t in zip(r, rk)]
                     for r, c in zip(a, col)]
            else:
                a = [r if r is rk or c >= cut else
                     [v if (v := c + t) < u else u for u, t in zip(r, rk)]
                     for r, c in zip(a, col)]
        _tally(n * work, n * work)
        return _overflow_checked(a, alg)

    return _lifted(eliminate, n, alg, rows)


def _label_setting(a: list, b: list, alg: Algebra) -> list:
    """The raw columns of A^x B, for square raw rows a of which no real
    entry improves on the unit and the raw columns b of B, by Dijkstra's
    label-setting method, in the dense O(n^2) form, column by column.

    x starts as the column of B, with -sign inf for the infinite element
    while it runs. It settles the best unsettled vertex u, picked by max
    (min over min-plus) over the unsettled set, stops when that one is
    infinite, and relaxes the unsettled vertices through column u of A:
    x_v gains a_vu x_u. Every finite off-diagonal a_vu of a settled u is
    tallied as one addition and one multiplication, whether v is settled
    or not, so a column costs the finite off-diagonal entries in the
    columns of the vertices it reaches, whatever order they settle in.
    Ints compare with inf exactly, however large; over R64 a sum that
    overflows toward the infinite element improves nothing.
    """
    sign, n = alg.sign, len(a)
    zero = -sign * math.inf
    pick = max if sign > 0 else min
    into = list(zip(*a))
    out, relaxed = [], 0
    for c in b:
        x = [zero if v is None else v for v in c]
        unsettled = set(range(n))
        while unsettled:
            u = pick(unsettled, key=x.__getitem__)
            xu = x[u]
            if xu == zero:
                break
            unsettled.remove(u)
            col = into[u]
            relaxed += n - col.count(None) - (col[u] is not None)
            if sign > 0:
                for v in unsettled:
                    if (w := col[v]) is not None and (d := w + xu) > x[v]:
                        x[v] = d
            else:
                for v in unsettled:
                    if (w := col[v]) is not None and (d := w + xu) < x[v]:
                        x[v] = d
        out.append([None if v == zero else v for v in x])
    _tally(relaxed, relaxed)
    return out


def closure_block(a: TropMatrix) -> TropMatrix:
    """The closure A^x = I + A + A^2 + ..., by Gauss-Jordan elimination.

    For each pivot k in turn, a_kk becomes the unit and every other row i
    gains a_ik times row k: n (n-1) multiplications a pivot, n^2 (n-1) in
    all, at every size and over every domain. Over min-plus this is
    Floyd-Warshall, and over R64 the float sums follow its order. Raises
    ClosureUndefined, from the first pivot whose best closed walk
    improves, exactly when the power sums diverge.
    """
    _require_tropical(a, "the closure")
    if not a.is_square:
        raise DimensionMismatch("the closure is defined for square matrices only")
    return _result(_closure(a._raw, a.alg, a._den), a.alg, a._den)

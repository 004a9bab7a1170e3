"""Dense matrices over a scalar algebra, with the Kleene closure.

A TropMatrix is a plain value, safe to share between threads: a shape,
an algebra and raw rows over a denominator L, a tuple of row tuples
holding None for the algebra's infinite element and L x for each other
entry x. Entries are checked once, by one reader, when a matrix is built
from outside (the constructor, from_rows, column, diag); ExtScalars are
built only at the boundary, by entries, get and to_lists on first use,
and kept. The operations are the semiring matrix product, entrywise
addition, the pseudo-inverse, and the closure A^x = I + A + ... +
A^(n-1), the solution of I + A A^x = A^x = I + A^x A, by block
recursion in exactly n^3 - n multiplications. Each runs one kernel
(_product, _oplus, _closure, _residual), shared by max-plus and min-plus
through semiring's sign rule, on the stored rows, and keeps the rows it
returns unchecked: a chain of operations converts nothing in between.
Counts are tallied in bulk: an n x m by m x p product is n m p of each.

L is the least common multiple of the entries' denominators over
tropical Q and 1 elsewhere; classical Q, whose products x -> L x does
not preserve, keeps its Fractions. For L > 0 that map is an automorphism
of max-plus and min-plus, so the tropical kernels run on ints: an
operation on two matrices rescales the one whose L differs from their
least common multiple, and one gcd pass reduces the result to its least
L. Equal values have equal least denominators, so == compares rows and L.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
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
    if alg.domain is _Q and alg.sign:
        den = math.lcm(*{x.denominator for r in rows for x in r if type(x) is Fraction})
        rows = [[x if x is None else x.numerator * (den // x.denominator) for x in r] for r in rows]
    return _fill(m or object.__new__(TropMatrix), tuple([tuple(r) for r in rows]), alg, den)


def _result(rows: list, alg: Algebra, den: int = 1) -> TropMatrix:
    """A matrix on kernel rows over den, reduced to the least one; integral classical Q as int."""
    if den != 1:
        g = math.gcd(den, *[x for r in rows for x in r if x is not None])
        if g != 1:
            den //= g
            rows = [[x if x is None else x // g for x in r] for r in rows]
    elif alg.domain is _Q and not alg.sign:
        rows = [[x if x.denominator != 1 else x.numerator for x in r] for r in rows]
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


def _product(a: list, b: list, alg: Algebra) -> list:
    """Raw rows of the semiring product of n x m and m x p raw rows.

    Ties keep the first of equals, and classical sums add left to right
    (reduce, not sum, which may compensate rounding), as a scalar fold does.
    """
    cols = list(zip(*b))
    sign = alg.sign
    if sign:
        pick = max if sign > 0 else min
        out = [[pick([x + y for x, y in zip(r, c) if x is not None and y is not None], default=None)
                for c in cols] for r in a]
    else:
        zero = alg.zero().finite
        out = [[reduce(add, map(mul, r, c), zero) for c in cols] for r in a]
    work = len(a) * len(b) * len(cols)
    _tally(work, work)
    return _settle(out, alg)


def _oplus(a: list, b: list, alg: Algebra) -> list:
    """Raw rows of the entrywise semiring sum of equal-shape raw rows."""
    sign = alg.sign
    if sign:
        pick = max if sign > 0 else min
        out = [[y if x is None else x if y is None else pick(x, y) for x, y in zip(r, s)]
               for r, s in zip(a, b)]
    else:
        out = [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
    _tally(len(a) * len(a[0]), 0)
    return _settle(out, alg)


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
    ra, rb, den = _common(a, b)
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
    """Raw rows of the closure of square raw rows over den, by the block recursion."""
    n = len(rows)
    if n == 1:
        x = rows[0][0]
        if x is None or alg.sign * x <= 0:
            return [[alg.one().finite]]
        # Divergent: the scalar closure raises, naming the entry's value.
        return [[trop_closure_scalar(_result(rows, alg, den).entries[0], alg).finite]]
    h = n // 2
    top, bottom = rows[:h], rows[h:]
    s = _closure([r[:h] for r in top], alg, den)
    f = [r[h:] for r in top]
    b = _product([r[:h] for r in bottom], s, alg)
    r4 = _closure(_oplus([r[h:] for r in bottom], _product(b, f, alg), alg), alg, den)
    r3 = _product(r4, b, alg)
    v = _product(s, f, alg)
    r2 = _product(v, r4, alg)
    r1 = _oplus(s, _product(v, r3, alg), alg)
    return [x + y for x, y in zip(r1, r2)] + [x + y for x, y in zip(r3, r4)]


def closure_block(a: TropMatrix) -> TropMatrix:
    """Closure by block recursion on the quadrants of a split at h = n // 2.

    Splitting A after row and column h into quadrants E, F / G, H, where E
    is h x h and H is (n-h) x (n-h), the result is assembled from S = E^x,
    B = G S, R4 = (H + B F)^x, R3 = R4 B, V = S F, R2 = V R4 and
    R1 = S + V R3. The quadrants need not be equal, so every size is split
    directly, and the six products cost 3 h (n-h) n multiplications; over
    the whole recursion that sums to exactly n^3 - n at every n. Raises
    ClosureUndefined, which surfaces from a scalar base case, exactly when
    the power sums I + A + A^2 + ... diverge.
    """
    _require_tropical(a, "the closure")
    if not a.is_square:
        raise DimensionMismatch("the closure is defined for square matrices only")
    return _result(_closure(a._raw, a.alg, a._den), a.alg, a._den)

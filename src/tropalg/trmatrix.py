"""Dense matrices over a scalar algebra, with the Kleene closure.

A TropMatrix stores its entries row-major as an immutable tuple of
ExtScalar values together with its algebra, so matrices are plain values
and safe to share between threads; membership is checked once, when a
matrix is built. The operations are the semiring matrix product,
entrywise semiring addition, the pseudo-inverse (negated transpose,
infinities fixed), and the closure A^x = I + A + A^2 + ... + A^(n-1),
the solution of I + A A^x = A^x = I + A^x A, which closure_block
computes by block recursion in exactly n^3 - n multiplications.

All of them run on raw rows, which never leave this module: lists of
plain numbers with None for the algebra's infinite element. Each
operation checks its operands, lowers them to raw rows, runs the kernel
(_product, _oplus, _closure, _residual) and lifts the result back
through semiring._finite_result. Max-plus and min-plus share every
kernel by semiring's sign rule. Counts are tallied in bulk: an n x m by
m x p product is n m p additions and n m p multiplications.

Tropical Q is computed on integers. For L > 0 the map x -> L x is a
semiring automorphism of max-plus and of min-plus, so products, closures
and residuals commute with it: mat_mul, closure_block and the solvers'
residuation take L, the least common multiple of their operands'
denominators, lower every finite entry to the exact integer L x, and
divide by L once per distinct value when lifting. Fraction arithmetic
never runs between the two. Entrywise sums (mat_oplus, mat_le) and the
pseudo-inverse stay unscaled: their work is linear in the entries, so
scaling would only add cost. Classical Q is never scaled, since
x -> L x does not preserve products, and Z and R64 have L = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add, mul

from ._record import Record
from .errors import AlgebraMismatch, DimensionMismatch
from .semiring import (
    Algebra, Domain, ExtScalar, _finite_result, _tally, trop_closure_scalar,
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

    __slots__ = ("rows", "cols", "entries", "alg")

    def __init__(self, rows: int, cols: int, entries: tuple[ExtScalar, ...], alg: Algebra):
        # Every result of the kernel is built here, so the slots are
        # written through their descriptors.
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrices need at least one row and one column")
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            alg.require_member(e)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)
        _set_alg(self, alg)

    @classmethod
    def from_rows(cls, rows, alg: Algebra) -> "TropMatrix":
        """Build from an iterable of equal-length rows of numbers."""
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionMismatch("matrix literal has no rows")
        width = len(rows[0])
        entries = []
        for r in rows:
            if len(r) != width:
                raise DimensionMismatch("matrix rows have unequal lengths")
            entries.extend(ExtScalar.of(v) for v in r)
        return cls(len(rows), width, tuple(entries), alg)

    @classmethod
    def column(cls, values, alg: Algebra) -> "TropMatrix":
        values = list(values)
        return cls(len(values), 1, tuple(ExtScalar.of(v) for v in values), alg)

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


_set_rows = TropMatrix.rows.__set__
_set_cols = TropMatrix.cols.__set__
_set_entries = TropMatrix.entries.__set__
_set_alg = TropMatrix.alg.__set__


def _require_same_algebra(a: TropMatrix, b: TropMatrix):
    if a.alg != b.alg:
        raise AlgebraMismatch(
            f"operands live in different algebras ({a.alg.name} vs {b.alg.name})"
        )


def _require_tropical(a: TropMatrix, what: str):
    if not a.alg.is_tropical:
        raise AlgebraMismatch(f"{what} is defined over tropical algebras only")


def _scale(alg: Algebra, *mats: TropMatrix) -> int:
    """L for the operands of a tropical-Q product, closure or residual; else 1."""
    if alg.domain is not Domain.Q or not alg.is_tropical:
        return 1
    return math.lcm(*{e.finite.denominator for m in mats for e in m.entries if not e.inf_sign})


def _lower(a: TropMatrix, scale: int = 1) -> list:
    """The raw rows of a matrix, each finite entry multiplied by scale."""
    if scale == 1:
        flat = [None if e.inf_sign else e.finite for e in a.entries]
    else:
        flat = [None if e.inf_sign else e.finite.numerator * (scale // e.finite.denominator)
                for e in a.entries]
    return [flat[j : j + a.cols] for j in range(0, len(flat), a.cols)]


def _lift(rows: list, alg: Algebra, scale: int = 1) -> TropMatrix:
    """A matrix from raw rows divided by scale, normalising each entry as
    _finite_result does; a scaled value is divided once however often it
    occurs."""
    zero = alg.zero()
    if scale == 1:
        ent = tuple([zero if x is None else _finite_result(x, alg) for r in rows for x in r])
    else:
        lifted = {x: zero if x is None else ExtScalar.of(Fraction(x, scale))
                  for x in set().union(*rows)}
        ent = tuple([lifted[x] for r in rows for x in r])
    return TropMatrix(len(rows), len(rows[0]), ent, alg)


def _settle(rows: list, alg: Algebra) -> list:
    """Fold float overflow onto the infinite element, or raise; left to a
    later step, it could turn into a NaN or a ClosureUndefined."""
    if alg.domain is not Domain.F64:
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
    floats = alg.domain is Domain.F64
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
    alg = a.alg
    scale = _scale(alg, a, b)
    return _lift(_product(_lower(a, scale), _lower(b, scale), alg), alg, scale)


def mat_oplus(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Entrywise semiring addition."""
    _require_same_algebra(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )
    return _lift(_oplus(_lower(a), _lower(b), a.alg), a.alg)


def mat_le(a: TropMatrix, b: TropMatrix) -> bool:
    """Entrywise natural order of the semiring: a <= b iff a + b == b."""
    return mat_oplus(a, b) == b


def pseudo_inverse(a: TropMatrix) -> TropMatrix:
    """The negated transpose; the infinite element maps to itself."""
    _require_tropical(a, "the pseudo-inverse")
    cols = zip(*_lower(a))
    return _lift([[None if x is None else -x for x in c] for c in cols], a.alg)


def _residuate(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """The principal solution of A x <= b, for a system the caller has checked."""
    alg = a.alg
    scale = _scale(alg, a, b)
    return _lift(_residual(_lower(a, scale), _lower(b, scale), alg), alg, scale)


def diag(values, alg: Algebra) -> TropMatrix:
    """Square matrix with the given diagonal, zero elsewhere."""
    values = [ExtScalar.of(v) for v in values]
    n = len(values)
    zero = alg.zero()
    out = [zero] * (n * n)
    for i, v in enumerate(values):
        out[i * n + i] = v
    return TropMatrix(n, n, tuple(out), alg)


def identity(n: int, alg: Algebra) -> TropMatrix:
    """The multiplicative identity matrix."""
    return diag([alg.one()] * n, alg)


def zero_matrix(rows: int, cols: int, alg: Algebra) -> TropMatrix:
    """The additive identity matrix (all entries the algebra's zero)."""
    return TropMatrix(rows, cols, (alg.zero(),) * (rows * cols), alg)


def _closure(rows: list, alg: Algebra, scale: int) -> list:
    """Raw rows of the closure of square raw rows, by the block recursion;
    the rows are scaled by scale."""
    n = len(rows)
    if n == 1:
        x = rows[0][0]
        if x is None or alg.sign * x <= 0:
            return [[alg.one().finite]]
        # Divergent: the scalar closure raises, naming the unscaled entry.
        return [[trop_closure_scalar(_lift(rows, alg, scale).entries[0], alg).finite]]
    h = n // 2
    top, bottom = rows[:h], rows[h:]
    s = _closure([r[:h] for r in top], alg, scale)
    f = [r[h:] for r in top]
    b = _product([r[:h] for r in bottom], s, alg)
    r4 = _closure(_oplus([r[h:] for r in bottom], _product(b, f, alg), alg), alg, scale)
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
    scale = _scale(a.alg, a)
    return _lift(_closure(_lower(a, scale), a.alg, scale), a.alg, scale)

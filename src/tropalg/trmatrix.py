"""Dense matrices over a scalar algebra, with the Kleene closure.

A TropMatrix stores its entries row-major as an immutable tuple together
with its algebra, so matrices are plain values and safe to share between
threads. The operations are the semiring matrix product, entrywise
semiring addition, the pseudo-inverse (negated transpose, infinities
fixed), and the closure

    A^x = I + A + A^2 + ... + A^(n-1)

computed by block-recursive divide and conquer (closure_block). Each
level splits the matrix at half its size, unequal halves included, so
no size is padded and an n x n closure costs exactly n^3 - n semiring
multiplications. The result satisfies the fixed-point equations
I + A A^x = A^x = I + A^x A; ClosureUndefined is raised when no closure
exists, which over max-plus happens exactly when some cycle weight is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraMismatch, DimensionMismatch
from .semiring import Algebra, ExtScalar, trop_add, trop_closure_scalar, trop_mul

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


@dataclass(frozen=True, slots=True)
class TropMatrix:
    """An immutable rows x cols matrix over one algebra."""

    rows: int
    cols: int
    entries: tuple[ExtScalar, ...]
    alg: Algebra

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatch("matrices need at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            self.alg.require_member(e)

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

    def col(self, k: int) -> "TropMatrix":
        """The k-th column as an n x 1 matrix."""
        ent = tuple(self.entries[j * self.cols + k] for j in range(self.rows))
        return TropMatrix(self.rows, 1, ent, self.alg)

    def to_lists(self) -> list[list[ExtScalar]]:
        return [
            list(self.entries[j * self.cols : (j + 1) * self.cols])
            for j in range(self.rows)
        ]

    def __matmul__(self, other):
        return mat_mul(self, other)


def _require_same_algebra(a: TropMatrix, b: TropMatrix):
    if a.alg != b.alg:
        raise AlgebraMismatch(
            f"operands live in different algebras ({a.alg.name} vs {b.alg.name})"
        )


def _require_tropical(a: TropMatrix, what: str):
    if not a.alg.is_tropical:
        raise AlgebraMismatch(f"{what} is defined over tropical algebras only")


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """The semiring matrix product."""
    _require_same_algebra(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    alg = a.alg
    zero = alg.zero()
    ae, be = a.entries, b.entries
    n, m, p = a.rows, a.cols, b.cols
    out = []
    for j in range(n):
        off = j * m
        for k in range(p):
            acc = zero
            for i in range(m):
                acc = trop_add(acc, trop_mul(ae[off + i], be[i * p + k], alg), alg)
            out.append(acc)
    return TropMatrix(n, p, tuple(out), alg)


def mat_oplus(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Entrywise semiring addition."""
    _require_same_algebra(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )
    alg = a.alg
    out = tuple(trop_add(x, y, alg) for x, y in zip(a.entries, b.entries))
    return TropMatrix(a.rows, a.cols, out, alg)


def mat_le(a: TropMatrix, b: TropMatrix) -> bool:
    """Entrywise natural order of the semiring: a <= b iff a + b == b."""
    return mat_oplus(a, b) == b


def pseudo_inverse(a: TropMatrix) -> TropMatrix:
    """The negated transpose; the infinite element maps to itself."""
    _require_tropical(a, "the pseudo-inverse")
    out = []
    for k in range(a.cols):
        for j in range(a.rows):
            e = a.entries[j * a.cols + k]
            out.append(e if e.inf_sign else ExtScalar.of(-e.finite))
    return TropMatrix(a.cols, a.rows, tuple(out), a.alg)


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


def _split(a: TropMatrix):
    """The quadrants E, F / G, H of a square matrix, split after row and
    column h = n // 2, so E is h x h and H is (n - h) x (n - h)."""
    n = a.rows
    h = n // 2
    ent = a.entries
    quads = []
    for r0, r1 in ((0, h), (h, n)):
        for c0, c1 in ((0, h), (h, n)):
            block = []
            for j in range(r0, r1):
                block.extend(ent[j * n + c0 : j * n + c1])
            quads.append(TropMatrix(r1 - r0, c1 - c0, tuple(block), a.alg))
    return quads


def _join(r1: TropMatrix, r2: TropMatrix, r3: TropMatrix, r4: TropMatrix) -> TropMatrix:
    """Reassemble the quadrants R1, R2 / R3, R4 into one square matrix."""
    out = []
    for left, right in ((r1, r2), (r3, r4)):
        for j in range(left.rows):
            out.extend(left.entries[j * left.cols : (j + 1) * left.cols])
            out.extend(right.entries[j * right.cols : (j + 1) * right.cols])
    n = r1.rows + r3.rows
    return TropMatrix(n, n, tuple(out), r1.alg)


def _closure(a: TropMatrix) -> TropMatrix:
    if a.rows == 1:
        return TropMatrix(1, 1, (trop_closure_scalar(a.entries[0], a.alg),), a.alg)
    e, f, g, h = _split(a)
    s = _closure(e)
    b = mat_mul(g, s)
    r4 = _closure(mat_oplus(h, mat_mul(b, f)))
    r3 = mat_mul(r4, b)
    v = mat_mul(s, f)
    r2 = mat_mul(v, r4)
    r1 = mat_oplus(s, mat_mul(v, r3))
    return _join(r1, r2, r3, r4)


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
    return _closure(a)

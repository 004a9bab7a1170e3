"""Dense matrices over a scalar algebra, with the Kleene closure.

A TropMatrix is a plain value, safe to share between threads: a shape,
an algebra and raw rows over a denominator L, a tuple of row tuples
holding None for the algebra's infinite element and L x for each other
entry x, or -L x over min-plus. Entries are checked once, by one reader,
when a matrix is built from outside (the constructor, from_rows, column,
diag), and leave by one reader, _values, as plain numbers; ExtScalars are
built from those only at the boundary, by entries, get and to_lists on
first use, and kept. The operations are the semiring matrix
product, entrywise addition, the pseudo-inverse, and the closure A^x = I
+ A + ... + A^(n-1), the solution of I + A A^x = A^x = I + A^x A. The
closure is Gauss-Jordan elimination, the algebraic path algorithm of
Carre (1971) and Lehmann (1977), Floyd-Warshall over min-plus: pivot k
sets a_kk to the unit and adds a_ik a_kj to every a_ij with i != k, n
(n-1) multiplications a pivot, so an n x n closure costs C(n) = n^2
(n-1). A^x B, the least solution of the Bellman equation X = A X + B for
an n x n A and an n x m B, never takes a separate product, by one of two
routes. When some real entry of A, its diagonal included, is better than
the unit (a stored a_ij > 0, as the scaling by L keeps the sign), it is
the closure's own elimination run on [A | B] (Carre 1971): the pivots
are A's n columns, and B's m columns are carried along and never pivoted
on, so the rows end as [A^x | A^x B]. A pivot costs (n-1) (n+m)
multiplications, and A^x B n (n-1) (n+m): 13800 at n = 24, m = 1,
against C(n) + n^2 m = 13824 for the closure and then the product. The
pivots are the closure's, so it raises at the same pivot with the same
text.

Without such an entry A^x B is settled by labels, by Dijkstra's method
(1959), which Carre (1971) treats in the same algebra. For each
column of B, x starts as that column; the best unsettled x_u is settled
in turn and relaxes x_v + a_vu x_u into each unsettled x_v, at most
n (n-1) multiplications a column against the elimination's n (n-1) (n+m)
in all.
This is exact. No entry improves, so no cycle does: A^x exists and
nothing raises. Every walk weighs no more than its own suffix, so the
settled values never get better in settle order and no later relaxation
betters a settled x_u: each is final, and the answer is the
elimination's exactly, over every domain. _path_query runs the same
kernel on the goal's unit column for find_shortest_path.

Min-plus is max-plus by the isomorphism x -> -x (Cuninghame-Green 1979),
and every stored value is an int, so negation is exact: a min-plus
matrix is stored as the max-plus matrix of its negated values. _checked
negates each value once on the way in, _values negates it back once on
the way out, and _times negates the scalar it adds; no kernel and no
other module reads the orientation or the stored rows, and each kernel
is written once, for max-plus. Each operation runs one kernel (_product,
_oplus for the sum, _below for the natural order, _closure, _residual,
_closure or _label_setting for A^x B) on the stored rows, and keeps the
rows it returns unchecked: a chain of operations converts nothing in
between. The solvers' checks A x + b == x and A x + b <= x, b possibly
absent, are _holds, which composes _product, _oplus and _below. Counts
are tallied in bulk: an n x m by m x p product is n m p of each. The
sum, the order and a tropical product by one column, _fold, skip None on
the stored rows; _product picks that fold by the number of columns, and
the packed kernel for a wider product.

Tropical R64 is stored exactly, as Q is. Every float is a dyadic
rational, so _checked reads each one through as_integer_ratio as an int
over a power of two, L being the largest denominator among the entries
(2^1074 at most), and every tropical kernel runs on ints in all six
algebras. _result rounds each value of an R64 result once, to the
nearest float: x / L, which Python's int division rounds correctly. One
overflow rule, that of _finite_result, meets a value past the largest
float: below, on the infinite element's side, it is that element, and
above it raises IllegalElement, as a scalar float sum does. A rounded
value is a multiple of 1/L again, as rounding moves a value only where
the floats lie further apart than 1/L and their spacing is a power of
two, so it is stored over L and the gcd pass reduces it. An int below
2^53 in magnitude is its own rounding. Residuation rounds its caps down,
toward the infinite element, instead, by _toward_infinite, so that A x
<= b holds of the rounded answer. The solvers' checks run on the exact
values: the Bellman solvers check their exact answer and then round it,
so A x + b recomputed in floats on their answer may differ from it by an
ulp. A zero's sign is not kept. Classical R64 keeps rows of floats over
1, where _settle rules a sum or product that overflows: an infinity, or
the NaN where overflows of both signs meet, raises IllegalElement.

A tropical product by two or more columns and the closure never test
for None, as their kernels outweigh converting the rows once. The rows
are packed, after Lamport's multiple byte processing with full-word
instructions (1975): _packer holds each row as one int of fixed-width
fields, packed once on entry and unpacked once on exit, so a handful of
big-int operations updates a whole row. Let M be the largest magnitude
among the operands' values and w a bound on the edges of the walks a
result optimises over (2 for a product, n for an n x n closure and for
A^x B with A n x n). The sentinel is S = -(2 w M + 1) and the cut
C = -(w M + 1). A stored value stays in [S, wM]: it is the maximum of
values that were, and an optimum over walks of at most w edges (below).
A temporary c + t, a_ik plus a stored a_kj, stays in [S - wM, 2wM],
because a closure keeps row i whole when a_ik is at or below C, so the
c it adds is at least -wM, and a product adds only real a_ik, at least
-M. A value v is the field v + base, base = 3wM + 1, so every field lies
in [0, 5wM + 1]; it holds W value bits, W the bit length of 5wM + 1, and
a guard bit above them, which a stored row leaves clear. Adding c times
ONES, the int with 1 in every field, adds c to each field: every sum
stays in [0, 2^W), so the int is exactly the packed row of the sums, and
nothing carries or borrows between fields. The copy c ONES is one
multiplication while a field spans at most five digits of Python's
ints; a wider field is copied by doubling instead, ORing the int with
itself shifted by 1, 2, 4, ... fields, since a multiplication would
pass over ONES once for each digit of c. The maximum of packed rows u
and v, ties keeping u, is v + (D & (G - (G >> W))), where H holds the
guard bits, D = (u | H) - v and G = D & H. Field by field, u + 2^W - v
lies in [1, 2^(W+1)), so the subtraction never borrows across fields,
and its guard bit is set exactly where u >= v; there D holds u - v, and
G - (G >> W) fills just those fields' value bits, so the sum is max(u,
v) in every field, again without a carry. All of it is exact at any
magnitude, 10^400 included. On exit each value at or below C is None
again. A product by two or more columns folds packed rows: out row i is
the maximum of B_k + a_ik over the k where a_ik is real, starting from
the row of sentinels, with no lift of A. A closure packs and unpacks
once; pivot k reads a_ik from each row with a shift and a mask.

Why no value derived from S is taken for a real one: give every missing
edge of the operands' graph the weight S. A product entry is an optimum
over walks of w edges. A closure computes on ints exactly, so only the
values it decides on matter: a pivot, the best closed walk through its
vertex, and an entry of the result. Each value a row update computes is
an optimum over a set of walks between two vertices whose inner vertices
lie in the set K of pivots already passed, a set holding every such walk
without a repeated inner vertex; setting a_kk to the unit adds the empty
walk at k. K has no improving cycle: one of real edges would have made a
pivot raise, and one with an S edge weighs at most S + (n-1)M < 0.
Removing a cycle within K never lowers a walk, and leaves a real walk
real, so each optimum is reached on a walk of at most w edges. A value
that is real without sentinels is therefore at least -wM > C; one over
walks that all hold an S edge is at most S + (w-1)M = -(w+1)M - 1 <= C,
and a walk through S never beats a real optimum. So each pivot sees a
value <= 0 exactly when it saw None or one <= 0, raises on the same
value, and lowering gives every entry back exactly. The value at pivot k
is the best closed walk through k over the pivots before it, the value a
block recursion down to 1 x 1 blocks sees at k, so both raise at the
same pivot, with the same text. For A^x B, give the graph one more
vertex t_c for each column c of B, with an edge of weight b_ic from each
vertex i and none out, and never pivot on it: [A | B] holds the edges
out of A's vertices, and its elimination is the closure's on that graph,
pivoting on A's vertices only, so its pivots are the closure's. Each
x_ic is the optimum over all walks from i to t_c, reached, as no cycle
improves, on one without a repeated vertex: at most n - 1 edges of A and
one of B, so w = n bounds it as it bounds a pivot.

A row update of the closure keeps row i whole when its multiplier a_ik
is at or below the cut. This is exact. Such an a_ik is an optimum over
walks to k that each hold an S edge (a real one would make a_ik real),
so every walk the update would add to row i holds one too, as None times
x is None: the set of real walks each value optimises over does not
change, and neither does a real value. A value at or below the cut stays
there, as it is still an optimum over walks that each hold an S edge,
only over fewer of them. So a pivot sees the same value where it is real
and one that cannot raise where it is not, the elimination raises at the
same pivot with the same text, and lowering gives back the same entries.
The skip also keeps each packed temporary within its field. The tally
still counts (n-1) (n+m) multiply-adds a pivot, m = 0 for a closure:
products by the zero element are counted, as the bulk tally of a product
has always counted them.

L is the least common multiple of the entries' denominators over Q and
tropical R64, and 1 over Z and classical R64. For L > 0, x -> L x is an
automorphism of max-plus and min-plus, so the tropical kernels run on
ints: an operation on two
matrices rescales the one whose L differs from their least common
multiple, and one gcd pass reduces the result to its least L. The map
does not preserve classical products, and none needs it: a product of
rows over L_a and L_b is a sum of integer products over L_a L_b, which
the same gcd pass reduces. Equal values have equal least denominators,
so == compares rows and L.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, lshift, mul

from ._record import Record
from .errors import AlgebraMismatch, DimensionMismatch, IndexOutOfRange, NoInverse
from .semiring import (
    R64_MAX_PLUS, Algebra, ExtScalar, _F64, _Q, _finite_result, _tally, trop_closure_scalar,
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
            zero = self.alg.zero()
            ext = tuple([zero if x is None else ExtScalar(x) for r in _values(self) for x in r])
            _set_entries(self, ext)
        return ext

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def get(self, j: int, k: int) -> ExtScalar:
        if not (0 <= j < self.rows and 0 <= k < self.cols):
            raise IndexOutOfRange(f"entry ({j}, {k}) is outside a {self.rows}x{self.cols} matrix")
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


def _fill(m: TropMatrix | None, rows, alg: Algebra, den: int) -> TropMatrix:
    """m, or a new matrix, its slots set to alg and the raw rows over den."""
    m = m or object.__new__(TropMatrix)
    _set_alg(m, alg)
    _set_raw(m, tuple([tuple(r) for r in rows]))
    _set_den(m, den)
    return m


def _values(m: TropMatrix) -> list:
    """The rows of m as plain numbers, the one way out of the raw rows: ints,
    Fractions over Q in lowest terms and floats over R64, and None for the
    infinite element."""
    den, raw = m._den, m._raw
    if m.alg.sign < 0:
        raw = [[x if x is None else -x for x in r] for r in raw]
    if m.alg.domain is _F64:
        return [[x if x is None else x / den for x in r] for r in raw]
    if den == 1:
        return raw
    return [[x if x is None else Fraction(x, den) if x % den else x // den for x in r] for r in raw]


def _entry(v, alg: Algebra):
    """An entry given from outside, raw: an int, a Fraction over Q or a finite
    float over F64 is read directly, anything else as ExtScalar.of and
    Algebra.require_member read it."""
    t, d = type(v), alg.domain
    if t is int and d is not _F64 or t is Fraction and d is _Q:
        return v if t is int or v.denominator != 1 else v.numerator
    if t is float and d is _F64 and math.isfinite(v):
        return v
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
    elif alg.is_tropical and alg.domain is _F64:
        rows = [[x if x is None else x.as_integer_ratio() for x in r] for r in rows]
        den = max([x[1] for r in rows for x in r if x is not None], default=1)
        rows = [[x if x is None else x[0] * (den // x[1]) for x in r] for r in rows]
    if alg.sign < 0:
        rows = [[x if x is None else -x for x in r] for r in rows]
    return _fill(m, rows, alg, den)


def _result(rows: list, alg: Algebra, den: int = 1) -> TropMatrix:
    """A matrix on kernel rows over den, reduced to the least one; over
    tropical R64 each value is first rounded once, by _nearest."""
    if alg.is_tropical and alg.domain is _F64:
        rows = [[x if x is None or -_EXACT < x < _EXACT else _nearest(x, den) for x in r]
                for r in rows]
    if den != 1:
        g = math.gcd(den, *[x for r in rows for x in r if x is not None])
        if g != 1:
            den //= g
            rows = [[x if x is None else x // g for x in r] for r in rows]
    return _fill(None, rows, alg, den)


def _scaled(m: TropMatrix, den: int):
    """The raw rows of m over den, a multiple of its denominator."""
    if m._den == den:
        return m._raw
    f = den // m._den
    return [[x if x is None else x * f for x in r] for r in m._raw]


def _common(a: TropMatrix, b: TropMatrix) -> tuple:
    """The raw rows of a and b over the lcm of their denominators, and that lcm."""
    if a._den == b._den:
        return a._raw, b._raw, a._den
    den = math.lcm(a._den, b._den)
    return _scaled(a, den), _scaled(b, den), den


def _require_same_algebra(a: TropMatrix, b: TropMatrix):
    if a.alg is not b.alg and a.alg != b.alg:
        raise AlgebraMismatch(
            f"operands live in different algebras ({a.alg.name} vs {b.alg.name})"
        )


def _require_tropical(a: TropMatrix, what: str):
    if not a.alg.is_tropical:
        raise AlgebraMismatch(f"{what} is defined over tropical algebras only")


def _settle(rows: list, alg: Algebra) -> list:
    """Raw classical rows, where an infinity or NaN, the overflow of a
    classical R64 sum or product, raises IllegalElement as a scalar fold
    would; left to a later step, it could turn into a NaN."""
    if alg.domain is not _F64:
        return rows
    return [[x if math.isfinite(x) else _finite_result(x, alg).finite for x in r] for r in rows]


# An int below 2^53 in magnitude over a power of two up to 2^1074 is a float exactly.
_EXACT = 1 << 53


def _nearest(x: int, den: int) -> int | None:
    """The stored tropical R64 value x / den rounded to the nearest float
    and read back over den, which the float's denominator divides; a value
    past the largest float is the infinite element below, and raises
    IllegalElement above, as _finite_result rules over max-plus."""
    try:
        f = x / den
    except OverflowError:
        return _finite_result(math.inf if x > 0 else -math.inf, R64_MAX_PLUS).finite
    p, q = f.as_integer_ratio()
    return p * (den // q)


def _toward_infinite(x: int, den: int) -> int | None:
    """x / den rounded as _nearest rounds it, then one float down, toward
    the infinite element, where that passed x: a residuation cap that
    never rounds past b."""
    y = _nearest(x, den)
    if y is None or y <= x:
        return y
    f = math.nextafter(y / den, -math.inf)
    if not math.isfinite(f):
        return None
    p, q = f.as_integer_ratio()
    return p * (den // q)


def _packer(walk: int, count: int, *operands: list) -> tuple:
    """Packed rows of count values, for a kernel on the raw tropical rows
    operands, ints, whose values are optima over walks of at most walk
    edges (see the module docstring): pack, unpack, spread, width, base
    and cut.

    pack(r) is one int holding each value v of r as the field v + base,
    and each None as the field of the sentinel S.
    A field is width + 1 bits wide, its top bit a guard that stored rows
    leave clear, so field j of p is p >> j (width + 1) & (2^width - 1).
    spread(f) holds f, at most 2^(width + 1) - 1, in every field. A field
    at or below cut holds no real value, and unpack(p) gives it back as
    None, every other field v + base as v.
    """
    real = set().union(*chain.from_iterable(operands)) - {None}
    wm = walk * max(max(real), -min(real)) if real else 0
    base, width = 3 * wm + 1, (5 * wm + 1).bit_length()
    mask, step, cut = (1 << width) - 1, width + 1, 2 * wm
    shifts = range(0, count * step, step)

    def pack(r):
        # S = -(2 wm + 1) is the field wm.
        return sum(map(lshift, [wm if x is None else base + x for x in r], shifts))

    def unpack(p):
        return [None if (f := p >> s & mask) <= cut else f - base for s in shifts]

    # f times ones passes over ones once for each digit of f, so a field
    # wider than a few digits is copied instead by doubling, a handful of
    # passes whatever its width.
    ones = ((1 << count * step) - 1) // ((1 << step) - 1)
    if width <= 5 * sys.int_info.bits_per_digit:
        return pack, unpack, ones.__mul__, width, base, cut
    doublings, full = [step << j for j in range((count - 1).bit_length())], (1 << count * step) - 1

    def spread(f):
        for t in doublings:
            f |= f << t
        return f & full

    return pack, unpack, spread, width, base, cut


def _oplus(a: list, b: list, alg: Algebra) -> list:
    """Raw rows of the entrywise semiring sum of equal-shape raw rows: the
    tropical sum is the maximum, None being the infinite element."""
    _tally(len(a) * len(a[0]), 0)
    if alg.is_tropical:
        return [[y if y is not None and (x is None or y > x) else x for x, y in zip(r, s)]
                for r, s in zip(a, b)]
    return _settle([[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], alg)


def _fold(a: list, c: list) -> list:
    """The raw column of the tropical product of n x k raw rows a by the
    raw column c: each entry is the maximum of a_ij + c_j over the j where
    both are real, and None where there is no such j. Its n k multiply-adds
    cost less than packing the operands would."""
    out = [max(t) if (t := [v + w for v, w in zip(r, c) if v is not None and w is not None])
           else None for r in a]
    _tally(len(a) * len(c), len(a) * len(c))
    return out


def _product(a: list, b: list, alg: Algebra) -> list:
    """Raw rows of the semiring product of n x k and k x p raw rows.

    A tropical product by one column is _fold. A wider one folds packed
    rows: out row i is the maximum of B_k + a_ik over the k where a_ik is
    real, starting from the row of sentinels, with one guard-bit maximum a
    term. A classical product adds left to right (reduce, not sum, which
    may compensate rounding), as a scalar fold does.
    """
    tropical, p = alg.is_tropical, len(b[0])
    if p == 1 and tropical:
        return [[x] for x in _fold(a, [r[0] for r in b])]
    _tally(len(a) * len(b) * p, len(a) * len(b) * p)
    if not tropical:
        zero = alg.zero().finite
        return _settle([[reduce(add, map(mul, r, c), zero) for c in zip(*b)] for r in a], alg)
    pack, unpack, spread, width, base, _ = _packer(2, p, a, b)
    guards, none, lower = spread(1 << width), pack([None] * p), spread(base)
    rows = [pack(r) - lower for r in b]
    # a_ik, the field a_ik + base less base, in every field.
    spreads = {x: spread(x + base) for x in set().union(*a) - {None}}
    out = []
    for r in a:
        u = none
        for x, q in zip(r, rows):
            if x is not None:
                # Where u >= v the guard bit of u's field survives the
                # subtraction, and the field keeps u.
                d = (u | guards) - (v := q + spreads[x])
                u = v + (d & ((g := d & guards) - (g >> width)))
        out.append(unpack(u))
    return out


def _residual(a: list, b: list) -> list:
    """Raw column of the principal solution of A x <= b (see solvers): each
    x_k is the least cap b_j - a_jk. Each finite a_jk costs one
    multiplication and, after the first in its column, one addition.
    """
    rhs = [r[0] for r in b]
    out = []
    muls = adds = 0
    for col in zip(*a):
        caps = [None if y is None else y - x for x, y in zip(col, rhs) if x is not None]
        out.append([None if None in caps else min(caps, default=None)])
        muls += len(caps)
        adds += max(len(caps) - 1, 0)
    _tally(adds, muls)
    return out


def _below(p, q) -> bool:
    """Whether raw tropical rows p lie entrywise below raw rows q in the
    natural order, u <= v iff u + v == v, as _oplus sums: None, the
    infinite element, lies below every value."""
    return all(u is None or v is not None and u <= v for r, t in zip(p, q) for u, v in zip(r, t))


def _holds(a: TropMatrix, x: TropMatrix, b: TropMatrix | None, target: TropMatrix,
           le: bool = False) -> tuple:
    """Whether A x + b, or A x when b is None, equals target, or lies below
    it when le is set; and the raw rows of A x + b over the operands' least
    common denominator, for a tropical system whose shapes the caller has
    checked.

    This is the check every solver runs on its answer, built from the
    kernels of the public route with no gcd pass and no matrix: A x by
    _product, a fold when x is one column, + b by _oplus, and the order
    by _below or == on raw rows. The sum and the comparison run on
    columns, which an entrywise rule allows: they pay per row, and most
    checks are of one column. It tallies what mat_mul, mat_oplus and
    mat_le would: n k m of each for an n x k A times a k x m x, n m adds
    for + b, and n m more for <=.
    """
    alg = a.alg
    den = math.lcm(a._den, x._den, target._den, 1 if b is None else b._den)
    ra, rx = _scaled(a, den), _scaled(x, den)
    step = ([_fold(ra, [r[0] for r in rx])] if x.cols == 1
            else list(zip(*_product(ra, rx, alg))))
    if b is not None:
        step = _oplus(step, list(zip(*_scaled(b, den))), alg)
    targets = list(zip(*_scaled(target, den)))
    if le:
        _tally(a.rows * x.cols, 0)
        verdict = _below(step, targets)
    else:
        verdict = all(tuple(c) == t for c, t in zip(step, targets))
    return verdict, list(zip(*step))


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """The semiring matrix product."""
    _require_same_algebra(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    # A classical product of rows over L_a and L_b is one over L_a L_b.
    ra, rb, den = _common(a, b) if a.alg.is_tropical else (a._raw, b._raw, a._den * b._den)
    return _result(_product(ra, rb, a.alg), a.alg, den)


def _require_summable(a: TropMatrix, b: TropMatrix):
    _require_same_algebra(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )


def mat_oplus(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Entrywise semiring addition."""
    _require_summable(a, b)
    ra, rb, den = _common(a, b)
    return _result(_oplus(ra, rb, a.alg), a.alg, den)


def mat_le(a: TropMatrix, b: TropMatrix) -> bool:
    """Entrywise natural order of a tropical semiring, a <= b iff a + b == b,
    decided without forming the sum; it counts the sum's n m additions."""
    _require_summable(a, b)
    _require_tropical(a, "the natural order")
    ra, rb, _ = _common(a, b)
    _tally(a.rows * a.cols, 0)
    return _below(ra, rb)


def pseudo_inverse(a: TropMatrix) -> TropMatrix:
    """The negated transpose; the infinite element maps to itself."""
    _require_tropical(a, "the pseudo-inverse")
    return _result([[None if x is None else -x for x in c] for c in zip(*a._raw)], a.alg, a._den)


def _negated(a: TropMatrix) -> TropMatrix:
    """-A entrywise, over every algebra: the pseudo-inverse without the
    transpose, save that an infinite entry, which has no inverse, raises
    NoInverse. Negation is exact and keeps the least L."""
    if any(None in r for r in a._raw):
        raise NoInverse("the infinite element has no multiplicative inverse")
    return _fill(None, [[-x for x in r] for r in a._raw], a.alg, a._den)


def _times(s: ExtScalar, a: TropMatrix) -> TropMatrix:
    """s A for a scalar s of A's algebra, each entry times s as trop_mul
    multiplies it, rounded once; it tallies one multiplication an entry.

    Tropically the infinite s gives the zero matrix, and a real s = p / q
    adds L s to every real stored value over L, the lcm of A's L and q,
    negated over min-plus. Classically each stored value is multiplied by
    p over L q, or by s over classical R64, where an overflow raises.
    """
    alg = a.alg
    _tally(0, a.rows * a.cols)
    if s.inf_sign:
        return _fill(None, [[None] * a.cols] * a.rows, alg, 1)
    if alg.domain is _F64 and not alg.is_tropical:
        return _fill(None, _settle([[x * s.finite for x in r] for r in a._raw], alg), alg, 1)
    p, q = s.finite.as_integer_ratio()
    if not alg.is_tropical:
        return _result([[x * p for x in r] for r in a._raw], alg, a._den * q)
    den = math.lcm(a._den, q)
    t = alg.sign * p * (den // q)
    return _result([[x if x is None else x + t for x in r] for r in _scaled(a, den)], alg, den)


def _residuate(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """The principal solution of A x <= b, for a system the caller has checked."""
    ra, rb, den = _common(a, b)
    rows = _residual(ra, rb)
    if a.alg.domain is _F64:
        rows = [[x if x is None else _toward_infinite(x, den) for x in r] for r in rows]
    return _result(rows, a.alg, den)


def _least_solution(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """A^x B, the least solution of X = A X + B, for a system the caller has
    checked; A must be square, as for its closure. It is settled by labels
    when no entry of A improves on the unit, and otherwise read off the
    closure's elimination run on [A | B]. The matrix holds the kernel's
    exact rows, not reduced and over R64 not rounded, for the solvers'
    check; _result(x._raw, alg, x._den) gives the answer."""
    if not a.is_square:
        raise DimensionMismatch("the closure is defined for square matrices only")
    ra, rb, den = _common(a, b)
    alg = a.alg
    real = set().union(*ra) - {None}
    if real and max(real) > 0:
        rows = [r[a.rows:] for r in _closure([[*r, *s] for r, s in zip(ra, rb)], alg, den)]
    else:
        rows = list(zip(*_label_setting(ra, list(zip(*rb)))))
    return _fill(None, rows, alg, den)


def _fixed_columns(a: TropMatrix) -> TropMatrix | None:
    """The exact columns of A^x that solve A x = x, or None. As A A^x <=
    A^x, and a closed walk of weight unit at k lifts every walk into k,
    column k does exactly when (A A^x)_kk is the unit (Butkovic 2010,
    4.3): n^2 multiplications beyond the closure."""
    if not a.is_square:
        raise DimensionMismatch("the closure is defined for square matrices only")
    n, rows = a.rows, a._raw
    closed = _closure(rows, a.alg, a._den)
    _tally(n * n, n * n)
    kept = [k for k, (r, c) in enumerate(zip(rows, zip(*closed)))
            if max([x + y for x, y in zip(r, c) if None not in (x, y)], default=None) == 0]
    return _fill(None, [[r[k] for k in kept] for r in closed], a.alg, a._den) if kept else None


def _reduced(x: TropMatrix) -> TropMatrix:
    """x, on a kernel's exact rows, reduced and over R64 rounded once."""
    return _result(x._raw, x.alg, x._den)


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
    rows packed once; only A's columns are pivoted on.

    Pivot k has a_kk* = one, then a_ij += a_ik a_kj for every row i != k
    and every column j, B's included: (n - 1) (n + m) multiply-adds a
    pivot. A row whose a_ik is at or below the cut is kept whole.
    """
    n = len(rows)
    work = (n - 1) * len(rows[0])
    pack, unpack, spread, width, base, cut = _packer(n, len(rows[0]), rows)
    guards, mask, lower = spread(1 << width), (1 << width) - 1, spread(base)
    a = [pack(r) for r in rows]
    for k in range(n):
        s = k * (width + 1)
        rk = a[k]
        x = (rk >> s & mask) - base
        if x > 0:
            # Pivot k sees a value better than the unit, and the scalar
            # closure raises, naming it.
            _tally(k * work, k * work)
            trop_closure_scalar(_result([[x]], alg, den).entries[0], alg)
        a[k] = rk = rk - (x << s)
        # Row i gains row k plus a_ik, its field f less base, in every
        # field; where u >= v the guard bit of u's field survives the
        # subtraction, and the field keeps u. Row k gains nothing, as its
        # a_kk is the unit.
        rk -= lower
        a = [r if (f := r >> s & mask) <= cut else
             (v := rk + spread(f)) + ((d := (r | guards) - v) & ((g := d & guards) - (g >> width)))
             for r in a]
    _tally(n * work, n * work)
    return [unpack(r) for r in a]


def _label_setting(a: list, b: list) -> list:
    """The raw columns of A^x B, for square raw rows a of which no real
    entry improves on the unit and the raw columns b of B, by Dijkstra's
    label-setting method, in the dense O(n^2) form, column by column.

    x starts as the column of B, with -inf for the infinite element while
    it runs. It settles the unsettled vertex u of greatest x_u, stops when
    that one is infinite, and relaxes the unsettled vertices through
    column u of A: x_v gains a_vu x_u. Every finite off-diagonal a_vu of
    a settled u is tallied as one addition and one multiplication, whether
    v is settled or not, so a column costs the finite off-diagonal entries
    in the columns of the vertices it reaches, whatever order they settle
    in. Ints compare with inf exactly, however large.
    """
    n, zero = len(a), -math.inf
    into = list(zip(*a))
    out, relaxed = [], 0
    for c in b:
        x = [zero if v is None else v for v in c]
        unsettled = set(range(n))
        while unsettled:
            u = max(unsettled, key=x.__getitem__)
            xu = x[u]
            if xu == zero:
                break
            unsettled.remove(u)
            col = into[u]
            relaxed += n - col.count(None) - (col[u] is not None)
            for v in unsettled:
                if (w := col[v]) is not None and (d := w + xu) > x[v]:
                    x[v] = d
        out.append([None if v == zero else v for v in x])
    _tally(relaxed, relaxed)
    return out


def _path_query(a: TropMatrix, start: int, goal: int) -> tuple:
    """For a graph's adjacency matrix a: the goal's exact column of A^x,
    stored values to compare by == only; whether start reaches the goal
    once its distance is rounded as closure_block rounds it; and tight(u,
    v), w(u, v) + dist(v) == dist(u), one multiplication a real edge."""
    rows = a._raw
    unit = [None] * len(rows)
    unit[goal] = 0
    dist, = _label_setting(rows, [unit])
    reached = _result([[dist[start]]], a.alg, a._den)._raw[0][0] is not None

    def tight(u: int, v: int) -> bool:
        w, d = rows[u][v], dist[v]
        if w is None:
            return False
        _tally(0, 1)
        return d is not None and w + d == dist[u]

    return dist, reached, tight


def closure_block(a: TropMatrix) -> TropMatrix:
    """The closure A^x = I + A + A^2 + ..., by Gauss-Jordan elimination.

    For each pivot k in turn, a_kk becomes the unit and every other row i
    gains a_ik times row k: n (n-1) multiplications a pivot, n^2 (n-1) in
    all, at every size and over every domain. Over min-plus this is
    Floyd-Warshall. Raises
    ClosureUndefined, from the first pivot whose best closed walk
    improves, exactly when the power sums diverge.
    """
    _require_tropical(a, "the closure")
    if not a.is_square:
        raise DimensionMismatch("the closure is defined for square matrices only")
    return _result(_closure(a._raw, a.alg, a._den), a.alg, a._den)

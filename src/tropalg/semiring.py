"""Scalar arithmetic over the max-plus and min-plus semirings.

The max-plus semiring extends a number domain (exact integers, exact
rationals, or IEEE float64) with the single absorbing element -infinity,
and reads semiring addition as max and semiring multiplication as
ordinary +. The min-plus semiring is the order dual under x -> -x: it
adjoins +infinity and reads addition as min. Both are semifields, since
every finite x has the multiplicative inverse -x. Classical (plus/times)
arithmetic over Q and float64 sits behind the same entry points so matrix
code and the interpreter can stay algebra-generic.

The duality is one number, Algebra.sign: +1 for max-plus, -1 for
min-plus, 0 for classical algebras. Each scalar rule here is written
once, for max-plus, with its comparisons multiplied by sign, and the
infinite element is the infinity of sign -sign. No ExtScalar result is
computed on negated values: 0.0 + -0.0 is 0.0, but -((-0.0) + 0.0) is
-0.0. trmatrix, whose stored values are all ints, takes the duality
literally instead: it stores a min-plus matrix negated, as a max-plus
one, negating once on the way in and once on the way out, and its
kernels are written once, for max-plus, with no sign at all.

Exact domains never round: max, min and + of ints and Fractions are
exact, so no epsilon comparisons appear anywhere in the library.
Infinities are tagged states of ExtScalar, never sentinel numeric values
(trmatrix's kernels use one only inside a single call); IEEE infinities
are converted to the tagged state at the boundary by ExtScalar.of.

The operations here are pure apart from counting. Each thread keeps a
stack of counters: count_ops() pushes one for the length of a with
block, and every semiring addition and multiplication is tallied into
the innermost counter open in the calling thread. An outer counter
misses what a counter nested in it receives, and no counter sees
another thread's work. With no counter open, a tally costs one
attribute read. The complexity assertions in the test suite measure
work through it. The matrix kernel in trmatrix computes on exact ints in
every algebra, tallies a whole product or sum at once through _tally,
and rules float overflow through _finite_result on each R64 result,
rounded once per operation.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from ._record import MutableRecord, Record
from .errors import AlgebraMismatch, ClosureUndefined, IllegalElement, NoInverse

__all__ = [
    "SemiringKind",
    "Domain",
    "ExtScalar",
    "Algebra",
    "NEG_INF",
    "POS_INF",
    "Z_MAX_PLUS",
    "Z_MIN_PLUS",
    "Q_MAX_PLUS",
    "Q_MIN_PLUS",
    "R64_MAX_PLUS",
    "R64_MIN_PLUS",
    "Q_CLASSICAL",
    "R64_CLASSICAL",
    "ALGEBRAS_BY_NAME",
    "OpCounts",
    "count_ops",
    "trop_add",
    "trop_mul",
    "trop_neg",
    "trop_closure_scalar",
    "semiring_le",
]


class SemiringKind(Enum):
    MAX_PLUS = "max-plus"
    MIN_PLUS = "min-plus"
    CLASSICAL = "classical"


# The order of each kind: max-plus, its dual min-plus, or none. Keyed by
# the member's value, since hashing a member runs Enum.__hash__ in Python.
_SIGNS = {"max-plus": 1, "min-plus": -1, "classical": 0}


class Domain(Enum):
    Z = "Z"
    Q = "Q"
    F64 = "F64"


# Read once: an Enum member read off its class is slow. trmatrix and the
# evaluator import these too.
_Z, _Q, _F64 = Domain.Z, Domain.Q, Domain.F64


class ExtScalar(Record):
    """A finite number or the single infinite element of an algebra.

    finite holds an int, a Fraction (lowest terms, positive denominator,
    normalised to int when integral) or a float. It is None exactly when
    inf_sign is -1 (minus infinity) or +1 (plus infinity).
    """

    __slots__ = ("finite", "inf_sign")

    def __init__(self, finite: int | Fraction | float | None, inf_sign: int = 0):
        # Every matrix entry read as an ExtScalar is built here, so the
        # slots are written through their descriptors, not the generic
        # constructor.
        _set_finite(self, finite)
        _set_inf_sign(self, inf_sign)

    @staticmethod
    def of(value) -> "ExtScalar":
        """Wrap a plain number, normalising rationals and IEEE infinities."""
        if isinstance(value, ExtScalar):
            return value
        if isinstance(value, bool):
            raise IllegalElement("booleans are not semiring elements")
        if isinstance(value, int):
            return ExtScalar(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return ExtScalar(int(value))
            return ExtScalar(value)
        if isinstance(value, float):
            if math.isnan(value):
                raise IllegalElement("NaN is not a semiring element")
            if math.isinf(value):
                return NEG_INF if value < 0 else POS_INF
            return ExtScalar(value)
        raise IllegalElement(f"cannot interpret {value!r} as a semiring element")

    @property
    def is_finite(self) -> bool:
        return self.inf_sign == 0

    def __lt__(self, other):
        if not isinstance(other, ExtScalar):
            return NotImplemented
        if self.inf_sign != other.inf_sign:
            return self.inf_sign < other.inf_sign
        if self.inf_sign != 0:
            return False
        return self.finite < other.finite

    def __le__(self, other):
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return self == other or self < other

    def __str__(self):
        if self.inf_sign < 0:
            return "-inf"
        if self.inf_sign > 0:
            return "inf"
        return _number_text(self.finite)


def _number_text(v) -> str:
    """str(v), for a number of any length.

    Python refuses to write an int of more digits than
    sys.get_int_max_str_digits() allows; such an int goes through
    Decimal, whose conversion has no limit, and a Fraction is written as
    its two terms. The limit is left alone, since it is process-wide.
    """
    try:
        return str(v)
    except ValueError:
        if isinstance(v, Fraction):
            return f"{_number_text(v.numerator)}/{_number_text(v.denominator)}"
        return str(Decimal(v))


_set_finite = ExtScalar.finite.__set__
_set_inf_sign = ExtScalar.inf_sign.__set__

NEG_INF = ExtScalar(None, -1)
POS_INF = ExtScalar(None, +1)


class Algebra(Record):
    """A semiring kind crossed with a number domain.

    The tropical algebras are ZMaxPlus, ZMinPlus, QMaxPlus, QMinPlus,
    R64MaxPlus and R64MinPlus; the classical ones are Q and R64. A
    max-plus algebra contains -infinity only, a min-plus algebra contains
    +infinity only, and classical algebras contain no infinite element.
    """

    __slots__ = ("kind", "domain")

    @property
    def name(self) -> str:
        return _NAMES[self]

    @property
    def is_tropical(self) -> bool:
        return self.kind._value_ != "classical"

    @property
    def sign(self) -> int:
        """+1 for max-plus, -1 for min-plus, 0 for classical algebras."""
        return _SIGNS[self.kind._value_]

    def zero(self) -> ExtScalar:
        """The additive identity: the infinity of sign -sign, or the ordinary 0."""
        s = self.sign
        if s:
            return NEG_INF if s > 0 else POS_INF
        return ExtScalar(0.0) if self.domain is _F64 else ExtScalar(0)

    def one(self) -> ExtScalar:
        """The multiplicative identity: 0 tropically, 1 classically."""
        if self.is_tropical:
            return ExtScalar(0.0) if self.domain is _F64 else ExtScalar(0)
        return ExtScalar(1.0) if self.domain is _F64 else ExtScalar(1)

    def require_legal(self, a: ExtScalar) -> ExtScalar:
        """Reject the infinity this algebra does not contain."""
        s = a.inf_sign
        if s == 0:
            return a
        sign = self.sign
        if not sign:
            raise AlgebraMismatch("classical algebras contain no infinite element")
        if s == sign:
            raise IllegalElement(
                f"{'+' if s > 0 else '-'}infinity is not an element of a {self.kind.value} algebra"
            )
        return a

    def require_member(self, a: ExtScalar) -> ExtScalar:
        """require_legal plus the number-domain check on finite values."""
        self.require_legal(a)
        if a.inf_sign:
            return a
        f = a.finite
        d = self.domain
        if d is _Z:
            if isinstance(f, int) and not isinstance(f, bool):
                return a
        elif d is _Q:
            if isinstance(f, (int, Fraction)) and not isinstance(f, bool):
                return a
        else:
            if isinstance(f, float):
                return a
        raise IllegalElement(f"{f!r} is not in the number domain {d.value}")


Z_MAX_PLUS = Algebra(SemiringKind.MAX_PLUS, Domain.Z)
Z_MIN_PLUS = Algebra(SemiringKind.MIN_PLUS, Domain.Z)
Q_MAX_PLUS = Algebra(SemiringKind.MAX_PLUS, Domain.Q)
Q_MIN_PLUS = Algebra(SemiringKind.MIN_PLUS, Domain.Q)
R64_MAX_PLUS = Algebra(SemiringKind.MAX_PLUS, Domain.F64)
R64_MIN_PLUS = Algebra(SemiringKind.MIN_PLUS, Domain.F64)
Q_CLASSICAL = Algebra(SemiringKind.CLASSICAL, Domain.Q)
R64_CLASSICAL = Algebra(SemiringKind.CLASSICAL, Domain.F64)

ALGEBRAS_BY_NAME = {
    "ZMaxPlus": Z_MAX_PLUS,
    "ZMinPlus": Z_MIN_PLUS,
    "QMaxPlus": Q_MAX_PLUS,
    "QMinPlus": Q_MIN_PLUS,
    "R64MaxPlus": R64_MAX_PLUS,
    "R64MinPlus": R64_MIN_PLUS,
    "Q": Q_CLASSICAL,
    "R64": R64_CLASSICAL,
}

_NAMES = {alg: name for name, alg in ALGEBRAS_BY_NAME.items()}


class OpCounts(MutableRecord):
    """Running totals of semiring additions and multiplications."""

    __slots__ = ("adds", "muls")
    _defaults = {"adds": 0, "muls": 0}

    @property
    def total(self) -> int:
        return self.adds + self.muls


class _Counters(threading.local):
    """Each thread's stack of active counters, innermost last."""

    def __init__(self):
        self.stack = []


_ACTIVE = _Counters()


@contextmanager
def count_ops():
    """Count semiring operations performed by the current thread.

    Counters nest; only the innermost active counter receives tallies.
    """
    counts = OpCounts()
    stack = _ACTIVE.stack
    stack.append(counts)
    try:
        yield counts
    finally:
        stack.pop()


def _tally(adds: int, muls: int):
    """Add a batch of operations to the innermost active counter."""
    stack = _ACTIVE.stack
    if stack:
        stack[-1].adds += adds
        stack[-1].muls += muls


def _finite_result(value, alg: Algebra) -> ExtScalar:
    """Normalise a freshly computed finite-domain result.

    Rationals are demoted to int when integral, as ExtScalar.of does. A
    float that overflowed to the algebra's own infinity is folded onto
    the absorbing element; any other infinite float, and the NaN left
    where overflows of both signs meet in a classical sum, is illegal.
    """
    if type(value) is int:
        return ExtScalar(value)
    if isinstance(value, float) and not math.isfinite(value):
        if alg.sign and value == -alg.sign * math.inf:
            return alg.zero()
        raise IllegalElement("float overflow produced an illegal infinity")
    return ExtScalar.of(value)


def trop_add(a: ExtScalar, b: ExtScalar, alg: Algebra) -> ExtScalar:
    """Semiring addition: max (max-plus), min (min-plus), or ordinary +."""
    alg.require_legal(a)
    alg.require_legal(b)
    _tally(1, 0)
    s = alg.sign
    if s:
        # b wins only when strictly greater in the order of s; ties keep a.
        return b if s * ((a < b) - (b < a)) > 0 else a
    return _finite_result(a.finite + b.finite, alg)


def trop_mul(a: ExtScalar, b: ExtScalar, alg: Algebra) -> ExtScalar:
    """Semiring multiplication: ordinary + tropically, ordinary * classically.

    The infinite element absorbs tropically.
    """
    alg.require_legal(a)
    alg.require_legal(b)
    _tally(0, 1)
    if not alg.sign:
        return _finite_result(a.finite * b.finite, alg)
    if a.inf_sign or b.inf_sign:
        return alg.zero()
    return _finite_result(a.finite + b.finite, alg)


def trop_neg(a: ExtScalar) -> ExtScalar:
    """The tropical multiplicative inverse of a finite element: -a."""
    if a.inf_sign:
        raise NoInverse("the infinite element has no multiplicative inverse")
    return ExtScalar.of(-a.finite)


def trop_closure_scalar(a: ExtScalar, alg: Algebra) -> ExtScalar:
    """Scalar closure: the sum of all powers of a, including the 0th.

    Over max-plus it equals the multiplicative identity 0 whenever a <= 0
    and does not exist otherwise; over min-plus the condition is a >= 0,
    the order of the semiring being reversed.
    """
    if not alg.is_tropical:
        raise AlgebraMismatch("scalar closure is defined over tropical algebras only")
    alg.require_legal(a)
    if a.inf_sign or alg.sign * a.finite <= 0:
        return alg.one()
    raise ClosureUndefined(f"closure of {a} does not exist over {alg.name}")


def semiring_le(a: ExtScalar, b: ExtScalar, alg: Algebra) -> bool:
    """The natural order of a tropical semiring's idempotent addition:
    a <= b iff a + b == b. A classical sum is not idempotent, so there
    it is no order and is refused."""
    if not alg.is_tropical:
        raise AlgebraMismatch("the natural order is defined over tropical algebras only")
    return trop_add(a, b, alg) == b

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropalg import (
    ALGEBRAS_BY_NAME,
    AlgebraMismatch,
    ClosureUndefined,
    ExtScalar,
    IllegalElement,
    NEG_INF,
    NoInverse,
    POS_INF,
    Q_CLASSICAL,
    Q_MAX_PLUS,
    R64_CLASSICAL,
    R64_MAX_PLUS,
    Z_MAX_PLUS,
    Z_MIN_PLUS,
    count_ops,
    semiring_le,
    trop_add,
    trop_closure_scalar,
    trop_mul,
    trop_neg,
)


def s(v):
    return ExtScalar.of(v)


# ---- construction ----


def test_of_normalises_integral_fraction():
    assert s(Fraction(4, 2)) == s(2)
    assert isinstance(s(Fraction(4, 2)).finite, int)


def test_of_maps_ieee_infinities_to_tagged_values():
    assert s(float("inf")) is POS_INF
    assert s(float("-inf")) is NEG_INF


def test_of_rejects_bool_and_nan():
    with pytest.raises(IllegalElement):
        s(True)
    with pytest.raises(IllegalElement):
        s(float("nan"))


def test_of_rejects_what_is_not_a_number():
    with pytest.raises(IllegalElement) as e:
        s("x")
    assert str(e.value) == "cannot interpret 'x' as a semiring element"


def test_greater_than_is_less_than_reflected():
    assert POS_INF > s(10**20) >= s(10**20) > s(-0.0) >= s(0.0) > NEG_INF >= NEG_INF
    assert not NEG_INF > NEG_INF and not s(1) >= s(2)
    with pytest.raises(TypeError):
        s(1) > 1
    with pytest.raises(TypeError):
        1 >= s(1)


def test_ordering_puts_infinities_at_the_ends():
    assert NEG_INF < s(-(10**20)) < s(0) < s(10**20) < POS_INF
    assert not NEG_INF < NEG_INF


def test_legality_is_one_sided():
    assert Z_MAX_PLUS.require_legal(NEG_INF) is NEG_INF
    assert Z_MIN_PLUS.require_legal(POS_INF) is POS_INF
    with pytest.raises(IllegalElement):
        Z_MAX_PLUS.require_legal(POS_INF)
    with pytest.raises(IllegalElement):
        Z_MIN_PLUS.require_legal(NEG_INF)
    with pytest.raises(AlgebraMismatch):
        Q_CLASSICAL.require_legal(POS_INF)


def test_membership_checks_the_number_domain():
    with pytest.raises(IllegalElement):
        Z_MAX_PLUS.require_member(s(Fraction(1, 2)))
    assert Q_MAX_PLUS.require_member(s(Fraction(1, 2)))
    with pytest.raises(IllegalElement):
        R64_MAX_PLUS.require_member(s(1))
    assert R64_MAX_PLUS.require_member(s(1.0))


def test_all_eight_spaces_are_named():
    assert sorted(ALGEBRAS_BY_NAME) == [
        "Q",
        "QMaxPlus",
        "QMinPlus",
        "R64",
        "R64MaxPlus",
        "R64MinPlus",
        "ZMaxPlus",
        "ZMinPlus",
    ]
    for name, alg in ALGEBRAS_BY_NAME.items():
        assert alg.name == name


# ---- arithmetic ----


def test_addition_is_max_then_min_then_plus():
    assert trop_add(s(2), s(3), Z_MAX_PLUS) == s(3)
    assert trop_add(s(2), s(3), Z_MIN_PLUS) == s(2)
    assert trop_add(s(2), s(3), Q_CLASSICAL) == s(5)


def test_multiplication_is_plus_tropically():
    assert trop_mul(s(2), s(3), Z_MAX_PLUS) == s(5)
    assert trop_mul(s(2), s(3), Z_MIN_PLUS) == s(5)
    assert trop_mul(s(2), s(3), Q_CLASSICAL) == s(6)


def test_neutral_and_absorbing_elements():
    assert trop_add(NEG_INF, s(7), Z_MAX_PLUS) == s(7)
    assert trop_mul(NEG_INF, s(5), Z_MAX_PLUS) is NEG_INF
    assert trop_mul(POS_INF, s(-4), Z_MIN_PLUS) is POS_INF


def test_float_overflow_toward_the_absorbing_element_is_folded():
    low = s(-1.0e308)
    assert trop_mul(low, low, R64_MAX_PLUS) is NEG_INF


def test_float_overflow_the_other_way_is_illegal():
    big = s(1.0e308)
    with pytest.raises(IllegalElement):
        trop_mul(big, big, R64_MAX_PLUS)
    with pytest.raises(IllegalElement):
        trop_mul(big, big, R64_CLASSICAL)


def test_negation_inverts_finite_elements_only():
    assert trop_neg(s(5)) == s(-5)
    assert trop_neg(s(0)) == s(0)
    with pytest.raises(NoInverse):
        trop_neg(NEG_INF)


def test_scalar_closure_boundary():
    assert trop_closure_scalar(s(-1), Z_MAX_PLUS) == s(0)
    assert trop_closure_scalar(s(0), Z_MIN_PLUS) == s(0)
    assert trop_closure_scalar(NEG_INF, Z_MAX_PLUS) == s(0)
    with pytest.raises(ClosureUndefined):
        trop_closure_scalar(s(1), Z_MAX_PLUS)
    with pytest.raises(ClosureUndefined):
        trop_closure_scalar(s(-1), Z_MIN_PLUS)
    with pytest.raises(AlgebraMismatch):
        trop_closure_scalar(s(1), Q_CLASSICAL)


def test_op_counting_is_scoped_and_nested():
    with count_ops() as outer:
        trop_add(s(1), s(2), Z_MAX_PLUS)
        with count_ops() as inner:
            trop_mul(s(1), s(2), Z_MAX_PLUS)
        trop_add(s(1), s(2), Z_MAX_PLUS)
    assert (outer.adds, outer.muls) == (2, 0)
    assert (inner.adds, inner.muls) == (0, 1)
    assert inner.total == 1


def test_a_counter_sees_none_of_another_threads_operations():
    seen = {}

    def other_thread():
        trop_add(s(1), s(2), Z_MAX_PLUS)
        with count_ops() as own:
            trop_mul(s(1), s(2), Z_MAX_PLUS)
            trop_mul(s(1), s(2), Z_MAX_PLUS)
        seen["own"] = (own.adds, own.muls)

    with count_ops() as here:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=30)
        trop_add(s(1), s(2), Z_MAX_PLUS)
    assert not worker.is_alive()
    assert seen["own"] == (0, 2)
    assert (here.adds, here.muls) == (1, 0)


# ---- laws ----

finite_ints = st.integers(min_value=-50, max_value=50).map(s)
maxplus_elems = st.one_of(st.just(NEG_INF), finite_ints)
minplus_elems = st.one_of(st.just(POS_INF), finite_ints)


@given(maxplus_elems, maxplus_elems, maxplus_elems)
def test_maxplus_semiring_laws(a, b, c):
    alg = Z_MAX_PLUS
    assert trop_add(a, b, alg) == trop_add(b, a, alg)
    assert trop_add(a, a, alg) == a
    assert trop_add(trop_add(a, b, alg), c, alg) == trop_add(a, trop_add(b, c, alg), alg)
    assert trop_mul(trop_mul(a, b, alg), c, alg) == trop_mul(a, trop_mul(b, c, alg), alg)
    left = trop_mul(a, trop_add(b, c, alg), alg)
    right = trop_add(trop_mul(a, b, alg), trop_mul(a, c, alg), alg)
    assert left == right
    assert trop_add(a, alg.zero(), alg) == a
    assert trop_mul(a, alg.one(), alg) == a
    assert trop_mul(a, alg.zero(), alg) == alg.zero()


@given(minplus_elems, minplus_elems, minplus_elems)
def test_minplus_semiring_laws(a, b, c):
    alg = Z_MIN_PLUS
    assert trop_add(a, b, alg) == trop_add(b, a, alg)
    assert trop_add(a, a, alg) == a
    assert trop_add(trop_add(a, b, alg), c, alg) == trop_add(a, trop_add(b, c, alg), alg)
    left = trop_mul(a, trop_add(b, c, alg), alg)
    right = trop_add(trop_mul(a, b, alg), trop_mul(a, c, alg), alg)
    assert left == right
    assert trop_add(a, alg.zero(), alg) == a
    assert trop_mul(a, alg.one(), alg) == a


@given(finite_ints)
def test_negation_is_the_multiplicative_inverse(a):
    assert trop_mul(a, trop_neg(a), Z_MAX_PLUS) == Z_MAX_PLUS.one()
    assert trop_mul(a, trop_neg(a), Z_MIN_PLUS) == Z_MIN_PLUS.one()


@given(maxplus_elems, maxplus_elems)
def test_natural_order_matches_comparison_maxplus(a, b):
    assert semiring_le(a, b, Z_MAX_PLUS) == (a <= b)


@given(minplus_elems, minplus_elems)
def test_natural_order_reverses_under_minplus(a, b):
    assert semiring_le(a, b, Z_MIN_PLUS) == (b <= a)


@given(st.fractions(min_value=-5, max_value=5), st.fractions(min_value=-5, max_value=5))
def test_rational_arithmetic_stays_exact(x, y):
    a, b = s(x), s(y)
    out = trop_mul(a, b, Q_MAX_PLUS)
    assert out.finite == x + y
    out = trop_add(a, b, Q_CLASSICAL)
    assert out.finite == x + y


def test_string_forms():
    assert str(s(4)) == "4"
    assert str(s(Fraction(1, 3))) == "1/3"
    assert str(NEG_INF) == "-inf"
    assert str(POS_INF) == "inf"
    assert not math.isnan(float(str(s(2.5))))

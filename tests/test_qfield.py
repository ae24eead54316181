from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epwcalc.hodge_ring import ETA_SQUARE
from epwcalc.lagrangian import eta_coefficient
from epwcalc.qfield import ONE, ZERO, ParametricScalar

Q = ParametricScalar(1, 1)


def test_canonical_form_reduces_common_factors():
    assert Q / Q == ONE
    # 2q/(2q^2) and 1/q are the same element
    assert ParametricScalar(2, 1) / ParametricScalar(2, 2) == 1 / Q
    # zero sits at weight 0, so the form stays unique
    assert ParametricScalar(0, 3) == ZERO and ParametricScalar(0, 3).weight == 0
    assert (Q + Q) - Q == Q
    assert Q - Q == ZERO and 0 * Q ** 2 == ZERO


def test_terms_of_different_weight_do_not_add():
    for k in range(-3, 4):
        term = Fraction(-7, 3) * Q ** k
        assert ZERO + term == term and term + ZERO == term and 0 + term == term
        assert term - ZERO == term and ZERO - term == -term
    for total in (lambda: 15 * Q ** 3 + 108 * Q ** 2, lambda: 15 * Q ** 3 - 108 * Q ** 2):
        with pytest.raises(ValueError, match=r"^cannot add terms of weights 3 and 2 in q$"):
            total()
    # __radd__ is __add__, so the scalar's weight comes first either way
    for total in (lambda: Q + Fraction(1, 2), lambda: 1 + Q):
        with pytest.raises(ValueError, match=r"^cannot add terms of weights 1 and 0 in q$"):
            total()


def test_constant_embedding():
    half = ParametricScalar(Fraction(1, 2))
    assert half + half == ONE
    assert half == Fraction(1, 2)
    assert ZERO == 0
    assert not ZERO
    assert ONE


def test_field_operations():
    a = Fraction(-7, 3) * Q ** 2
    b = 5 * Q ** 2
    c = 2 / Q ** 3
    assert (a + b) * c == a * c + b * c
    assert a - a == ZERO
    assert (a * Q ** 2) / Q ** 2 == a
    assert a * b / (7 * Q) == (a / Q) * (b / 7)


def test_a_number_minus_a_scalar():
    """``int - ParametricScalar`` reaches ``__rsub__``: the number minus the
    term, not the term minus the number."""
    assert 2 - ParametricScalar(1) == ONE
    assert 0 - 3 * Q == ParametricScalar(-3, 1)
    assert Fraction(1, 2) - ParametricScalar(Fraction(3, 2)) == -1


def test_power():
    assert Q ** 0 == ONE
    assert Q ** 3 == Q * Q * Q
    assert Q ** -2 == 1 / (Q * Q)
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        Q / 0


def test_evaluate():
    x = 80 / (3 * Q)
    assert x.evaluate(4) == Fraction(20, 3)
    assert (Q ** 2).evaluate(Fraction(-3, 2)) == Fraction(9, 4)
    assert (Q ** 2).evaluate(0) == 0
    assert ONE.evaluate(0) == 1
    pole = 1 / Q ** 2
    with pytest.raises(ZeroDivisionError):
        pole.evaluate(0)


def test_scalar_value_semantics():
    """A scalar coerces its coefficient to Fraction, cannot be changed, and
    never equals the tuple (coeff, weight)."""
    x = ParametricScalar(Fraction(-1, 2), 3)
    assert type(ParametricScalar(3, 2).coeff) is Fraction
    for field in ("coeff", "weight"):
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert x != (x.coeff, x.weight) and (x.coeff, x.weight) != x
    assert x == ParametricScalar(Fraction(-1, 2), 3)  # nothing above changed it


_COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
#: two terms of one weight, either of them possibly zero
_SAME_WEIGHT = st.builds(lambda k, c, d: (ParametricScalar(c, k), ParametricScalar(d, k)),
                         st.integers(-4, 4), _COEFFS, _COEFFS)
_MONOMIAL = st.builds(ParametricScalar, _COEFFS.filter(bool), st.integers(-4, 4))
_POINT = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool)


@given(_SAME_WEIGHT, _MONOMIAL, _POINT)
def test_evaluate_is_a_ring_homomorphism(pair, m, x):
    a, b = pair
    ax, bx, mx = a.evaluate(x), b.evaluate(x), m.evaluate(x)
    assert (a + b).evaluate(x) == ax + bx
    assert (a - b).evaluate(x) == ax - bx
    assert (a * b).evaluate(x) == ax * bx
    assert (a / m).evaluate(x) == ax / mx


def _fraction_value(scalar, x):
    """Reference for ``evaluate``: c * x**k in Fraction arithmetic."""
    return scalar.coeff * x ** scalar.weight


_BIG = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
_WIDE = st.builds(ParametricScalar, _BIG, st.integers(-6, 6))
_SIGNED_POINT = st.one_of(st.just(Fraction(0)), _BIG.filter(lambda x: x > 0),
                          _BIG.filter(lambda x: x < 0))


@given(_WIDE, _SIGNED_POINT)
# k < 0 at q = 0 and at q < 0, k > 0 with 30-digit coefficients, k = 0 at
# q = 0, and zero
@example(ParametricScalar(Fraction(10 ** 29 + 7, 3), -6), Fraction(0))
@example(ParametricScalar(Fraction(-10 ** 30, 7), 0), Fraction(0))
@example(ParametricScalar(3, -5), Fraction(-10 ** 30, 3))
@example(ParametricScalar(Fraction(1, 10 ** 30), 6), Fraction(-10 ** 30, 3))
@example(ParametricScalar(Fraction(5, 7), -3), Fraction(0))
@example(ParametricScalar(Fraction(-5, 7), -3), Fraction(-10 ** 30 + 1, 3))
@example(ParametricScalar(Fraction(-10 ** 30 + 7, 10 ** 30 - 1), 5), Fraction(10 ** 29, 3))
@example(ParametricScalar(Fraction(-11, 10 ** 30), 0), Fraction(0))
@example(ParametricScalar(0), Fraction(-2, 3))
def test_evaluate_matches_the_fraction_sum(scalar, x):
    if x == 0 and scalar.weight < 0:
        with pytest.raises(ZeroDivisionError, match="negative power of q at q=0: weight -"):
            scalar.evaluate(x)
        return
    value = scalar.evaluate(x)
    assert type(value) is Fraction
    assert value == _fraction_value(scalar, x)
    if x == 0:
        assert value == (scalar.coeff if scalar.weight == 0 else 0)


_WIDE_INT = st.one_of(st.integers(-50, 50), st.integers(-10 ** 30, 10 ** 30))


@given(st.lists(st.tuples(_WIDE_INT, _WIDE_INT.filter(bool)), max_size=8),
       st.integers(-6, 6), _SIGNED_POINT.filter(bool))
@example([], 3, Fraction(1))
@example([(0, -3), (-7, 2), (10 ** 30, -(10 ** 30 - 1))], -2, Fraction(-10 ** 30, 3))
@example([(5, 7), (-5, 7)], 4, Fraction(2))
def test_rational_sum_matches_the_fraction_sum(pairs, k, x):
    """Terms (a/b)*q^k over integer pairs (a, b), either sign, summed from
    ``ZERO``: the coefficient is the Fraction sum, with a positive
    denominator, and the value at q = x is that sum times x^k."""
    expected = sum((Fraction(a, b) for a, b in pairs), Fraction(0))
    total = sum((ParametricScalar(Fraction(a, b), k) for a, b in pairs), ZERO)
    assert type(total.coeff) is Fraction and total.coeff.denominator > 0
    assert total == ParametricScalar(expected, k)
    assert total.evaluate(x) == expected * x ** k


def rational_sqrt(value):
    """Exact square root of a rational, or None: the root that
    ``lagrangian.eta_coefficient`` takes on integers, met at chi_top = 0,
    where c^2 = -base_square/eta^2."""
    return eta_coefficient(-ETA_SQUARE * Fraction(value), 0)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(225, 16)) == Fraction(15, 4)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(1) == 1
    assert rational_sqrt(Fraction(84)) is None
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epwcalc.qfield import ONE, ZERO, ParametricScalar, rational_sqrt

Q = ParametricScalar.q()


def test_canonical_form_reduces_common_factors():
    assert Q / Q == ONE
    # 2q/(2q^2) and 1/q are the same element
    assert ParametricScalar({1: 2}) / ParametricScalar({2: 2}) == 1 / Q
    # zero coefficients are dropped, so the form stays unique
    assert ParametricScalar({0: 1, 3: 0}) == ONE
    assert (Q + 1) - Q == ONE


def test_division_by_a_non_monomial_raises():
    with pytest.raises(ValueError):
        (Q ** 2 - 1) / (Q - 1)
    with pytest.raises(ValueError):
        1 / (Q - 2)
    with pytest.raises(ValueError):
        (Q + 1) ** -1


def test_constant_embedding():
    half = ParametricScalar(Fraction(1, 2))
    assert half + half == ONE
    assert half == Fraction(1, 2)
    assert ZERO == 0
    assert not ZERO
    assert ONE


def test_field_operations():
    a = 3 * Q ** 2 - Q + 1
    b = Q + 5
    c = 2 - Q ** 3
    assert (a + b) * c == a * c + b * c
    assert a - a == ZERO
    assert (a * Q ** 2) / Q ** 2 == a
    assert a * b / (7 * Q) == (a / Q) * (b / 7)


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
    assert (Q ** 2 + 1).evaluate(0) == 1
    pole = 1 / Q ** 2
    with pytest.raises(ZeroDivisionError):
        pole.evaluate(0)


def test_str_clears_denominators():
    assert str(-160 / Q ** 2) == "-160/q^2"
    assert str(80 / (3 * Q)) == "80/(3*q)"
    assert str(15 * Q ** 3) == "15*q^3"
    assert str(ZERO) == "0"


def test_hash_matches_equality():
    assert hash(Q / 2) == hash(ParametricScalar({1: Fraction(1, 2)}))
    assert len({Q, Q * 1, Q ** 1}) == 1
    for constant in (0, 3, Fraction(1, 2)):
        scalar = ParametricScalar(constant)
        assert scalar == constant and hash(scalar) == hash(constant)
        assert len({scalar, constant}) == 1
        assert constant in {scalar} and scalar in {constant}


_COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_LAURENT = st.dictionaries(st.integers(-4, 4), _COEFFS, max_size=4).map(ParametricScalar)
_MONOMIAL = st.builds(lambda k, c: ParametricScalar({k: c}), st.integers(-4, 4),
                      _COEFFS.filter(bool))
_POINT = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool)


@given(_LAURENT, _LAURENT, _MONOMIAL, _POINT)
def test_evaluate_is_a_ring_homomorphism(a, b, m, x):
    ax, bx, mx = a.evaluate(x), b.evaluate(x), m.evaluate(x)
    assert (a + b).evaluate(x) == ax + bx
    assert (a - b).evaluate(x) == ax - bx
    assert (a * b).evaluate(x) == ax * bx
    assert (a / m).evaluate(x) == ax / mx


def _fraction_sum(scalar, x):
    """Reference for ``evaluate``: one Fraction per term, added as Fractions."""
    return sum((c * x ** k for k, c in scalar.terms.items()), Fraction(0))


_BIG = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
_WIDE = st.dictionaries(st.integers(-6, 6), _BIG, max_size=13).map(ParametricScalar)
_SIGNED_POINT = st.one_of(st.just(Fraction(0)), _BIG.filter(lambda x: x > 0),
                          _BIG.filter(lambda x: x < 0))


@given(_WIDE, _SIGNED_POINT)
@example(ParametricScalar({-6: Fraction(10 ** 29 + 7, 3), 4: 1}), Fraction(0))
@example(ParametricScalar({0: Fraction(-10 ** 30, 7), 6: 2}), Fraction(0))
@example(ParametricScalar({-5: 3, 6: Fraction(1, 10 ** 30)}), Fraction(-10 ** 30, 3))
# one term c*q^k: k < 0 at q = 0 and at q < 0, k > 0 with 30-digit
# coefficients, k = 0 at q = 0, and the empty polynomial
@example(ParametricScalar({-3: Fraction(5, 7)}), Fraction(0))
@example(ParametricScalar({-3: Fraction(-5, 7)}), Fraction(-10 ** 30 + 1, 3))
@example(ParametricScalar({5: Fraction(-10 ** 30 + 7, 10 ** 30 - 1)}), Fraction(10 ** 29, 3))
@example(ParametricScalar({0: Fraction(-11, 10 ** 30)}), Fraction(0))
@example(ParametricScalar({}), Fraction(-2, 3))
def test_evaluate_matches_the_fraction_sum(scalar, x):
    if x == 0 and any(k < 0 for k in scalar.terms):
        with pytest.raises(ZeroDivisionError, match="negative power of q at q=0"):
            scalar.evaluate(x)
        return
    value = scalar.evaluate(x)
    assert type(value) is Fraction
    assert value == _fraction_sum(scalar, x)
    if x == 0:
        assert value == scalar.terms.get(0, 0)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(225, 16)) == Fraction(15, 4)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(1) == 1
    assert rational_sqrt(Fraction(84)) is None
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None

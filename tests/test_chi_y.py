"""Hirzebruch's chi_y genus ties the stored Chern numbers of K3^[3] to its
Hodge numbers.  By Hirzebruch-Riemann-Roch,

    sum_p chi^p y^p = integral of prod_i (1 + y e^(-x_i)) x_i / (1 - e^(-x_i))

over the six Chern roots x_i of the tangent bundle, where chi^p =
sum_q (-1)^q h^(p,q).  Write log f(x) = sum_k a_k x^k for the one-root
factor f; then the integrand is exp(sum_k a_k p_k) in the power sums p_k of
the roots, with p_0 = 6 and a_0 = log(1 + y), so the constant term is
(1 + y)^6.  With c1 = c3 = c5 = 0 the odd p_k vanish, and the degree-12 part
is (1 + y)^6 (a_6 p_6 + a_2 a_4 p_2 p_4 + a_2^3 p_2^3 / 6), where Newton's
identities give p_2 = -2 c2, p_4 = 2 c2^2 - 4 c4 and
p_6 = -2 c2^3 + 6 c2 c4 - 6 c6.  That is linear in (c2^3, c2*c4, c6), which
``hodge_ring`` reports, while the left side comes from the Goettsche-Soergel
Hodge numbers in ``test_llv``.  Series are cut at order 6, in Fractions."""

import functools
from fractions import Fraction
from math import factorial

import pytest
from test_llv import _goettsche_soergel_hodge

from epwcalc import hodge_ring, lagrangian

ORDER = 6
#: the points where both sides are compared, with the value they share
VALUES = {0: 4, 2: -8140, 3: -22400, 5: -63616, Fraction(1, 2): Fraction(-2035, 16)}


def _times(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(ORDER + 1)]


def _inverse(a):
    out = [1 / Fraction(a[0])]
    for k in range(1, ORDER + 1):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def _log_coefficients(f):
    """a_1..a_ORDER of log f(x), behind a_0 = 0: log(f / f(0)), as the
    integral of f'/f."""
    quotient = _times([(k + 1) * f[k + 1] for k in range(ORDER)] + [0], _inverse(f))
    return [0] + [quotient[k - 1] / k for k in range(1, ORDER + 1)]


def chi_y_from_chern_numbers(y, c2_cubed, c2_c4, c6):
    """The degree-12 part of the chi_y integrand at y, from (c2^3, c2*c4, c6)."""
    y = Fraction(y)
    exp_minus_x = [Fraction((-1) ** k, factorial(k)) for k in range(ORDER + 1)]
    # x / (1 - e^(-x)) is the inverse of (1 - e^(-x)) / x
    todd = _inverse([Fraction((-1) ** k, factorial(k + 1)) for k in range(ORDER + 1)])
    f = _times([int(k == 0) + y * e for k, e in enumerate(exp_minus_x)], todd)
    a = _log_coefficients(f)
    p6 = -2 * c2_cubed + 6 * c2_c4 - 6 * c6
    p2_p4 = -4 * c2_cubed + 8 * c2_c4  # (-2 c2)(2 c2^2 - 4 c4)
    p2_cubed = -8 * c2_cubed
    return f[0] ** 6 * (a[6] * p6 + a[2] * a[4] * p2_p4 + a[2] ** 3 * p2_cubed / 6)


@functools.cache
def _chi_p():
    return [sum((-1) ** q * h for q, h in enumerate(row)) for row in _goettsche_soergel_hodge(3)]


def chi_y_from_hodge_numbers(y):
    return sum(chi * Fraction(y) ** p for p, chi in enumerate(_chi_p()))


@pytest.mark.parametrize("y, value", VALUES.items())
def test_the_stored_chern_numbers_give_the_hodge_chi_y(y, value):
    numbers = hodge_ring.chern_numbers_from_ring(lagrangian.EPW_Q)
    assert numbers == (36800, 14720, 3200)
    assert chi_y_from_chern_numbers(y, *numbers) == chi_y_from_hodge_numbers(y) == value


@pytest.mark.parametrize("index", range(3))
def test_each_chern_number_moved_by_one_breaks_the_identity(index):
    numbers = list(hodge_ring.chern_numbers_from_ring(lagrangian.EPW_Q))
    numbers[index] += 1
    assert all(chi_y_from_chern_numbers(y, *numbers) != value for y, value in VALUES.items())


def test_c6_moved_by_one_at_y_2():
    assert chi_y_from_chern_numbers(2, 36800, 14720, 3201) == Fraction(-1823433, 224)


def test_the_identity_fixes_all_three_numbers():
    """The identity is linear in (c2^3, c2*c4, c6), and its rows at
    y = 2, 3, 5 have a nonzero determinant: only one triple satisfies it."""
    (a, b, c), (d, e, f), (g, h, i) = (
        [chi_y_from_chern_numbers(y, *unit) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for y in (2, 3, 5))
    assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) != 0

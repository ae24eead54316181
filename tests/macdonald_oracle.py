"""Macdonald's formulas for the third symmetric product C^(3) of a genus-g
curve, for the tests: the limit threefold of the degeneration in closed
form.

Cohomology classes are polynomials in theta (pulled back from the
Jacobian) and x (the class of C^(2) inside C^(3), the ``eta`` of
``degeneration.sym_prod_eval``), kept as dicts from (i, j), the exponents of
theta^i * x^j, to ``Fraction`` coefficients, and cut off above degree 3.
By Macdonald,

    c(T_{C^(d)}) = (1 + x)^(d - g + 1) * exp(-theta / (1 + x)),

and theta^i * x^(d - i) integrates to g!/(g - i)!, which is what
``sym_prod_eval`` computes at d = 3.  Macdonald also gives
h^(0,p)(C^(d)) = binom(g, p) for p <= d: H^(0,p) is the p-th exterior power
of the g-dimensional H^(0,1)(C).
"""

from fractions import Fraction
from math import comb, factorial, prod

from epwcalc.degeneration import sym_prod_eval

DIMENSION = 3


def _binomial(a: int, j: int) -> Fraction:
    """binom(a, j) for any integer a, negative included."""
    return Fraction(prod(a - i for i in range(j)), factorial(j))


def chern_classes(genus: int) -> list[dict]:
    """c_0 .. c_3 of T_{C^(3)}: the degree-k part of
    (1 + x)^(4 - g) * sum_m (-theta)^m / m! * (1 + x)^(-m), that is
    sum over m + j = k of (-1)^m / m! * binom(4 - g - m, j) theta^m x^j."""
    return [{(m, k - m): Fraction((-1) ** m, factorial(m))
             * _binomial(DIMENSION + 1 - genus - m, k - m)
             for m in range(k + 1)} for k in range(DIMENSION + 1)]


def multiply(a: dict, b: dict) -> dict:
    """Product of two classes, cut off above degree 3."""
    product = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if i + j + k + l <= DIMENSION:
                product[i + k, j + l] = product.get((i + k, j + l), 0) + x * y
    return product


def integrate(genus: int, cls: dict) -> Fraction:
    """The degree-3 part of a class against the fundamental class, through
    ``sym_prod_eval``'s g!/(g - i)! on theta^i * x^(3 - i)."""
    return sym_prod_eval(genus, tuple(cls.get((i, DIMENSION - i), 0)
                                      for i in range(DIMENSION + 1)))


def euler_characteristic(genus: int) -> Fraction:
    """chi_top = the integral of c_3."""
    return integrate(genus, chern_classes(genus)[3])


def structure_sheaf_euler(genus: int) -> Fraction:
    """chi(O) = the integral of the degree-3 Todd class c_1 c_2 / 24."""
    _, c1, c2, _ = chern_classes(genus)
    return integrate(genus, multiply(c1, c2)) / 24


def canonical_class(genus: int) -> dict:
    """K = -c_1."""
    return {monomial: -c for monomial, c in chern_classes(genus)[1].items()}


def cube(genus: int, cls: dict) -> Fraction:
    """The integral of the cube of a degree-1 class."""
    return integrate(genus, multiply(cls, multiply(cls, cls)))


def canonical_cube(genus: int) -> Fraction:
    return cube(genus, canonical_class(genus))


def holomorphic_forms(genus: int) -> list[int]:
    """h^(0,p) for p = 0 .. 3: dim of the p-th exterior power of H^(0,1)(C)."""
    return [comb(genus, p) for p in range(DIMENSION + 1)]

"""Exact scalars: single terms c*q^w in the BBF square q, over Q.

Every intersection number is a Fujiki constant times a power of q, so a
scalar is one term: a ``Fraction`` coefficient and an integer weight, with
zero at weight 0.  The form is unique, so equality is structural, which the
symbolic checks rely on.  ``ParametricScalar.pair_at`` gives the value at a
rational q as an integer pair, and ``evaluate`` reduces that pair to one
``Fraction``.  A scalar is computed with and evaluated, never printed,
hashed or pickled.

A ``ParametricScalar`` is immutable: its two fields are set once, in
``__init__``.  q itself is ``ParametricScalar(1, 1)``."""

from __future__ import annotations

from fractions import Fraction


def _lifted(method):
    """Binary operator on int, Fraction and ParametricScalar operands."""
    def apply(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParametricScalar(other)
        elif not isinstance(other, ParametricScalar):
            return NotImplemented
        return method(self, other)
    return apply


class ParametricScalar:
    """A single term coeff*q^weight: a Fraction coefficient and an integer
    weight, with zero at weight 0.  Zero adds to a term of any weight; two
    nonzero terms of different weights do not add.  Equality goes by
    (coeff, weight): a scalar equals the number it embeds, never a tuple."""

    __slots__ = ("coeff", "weight")

    def __init__(self, coeff: Fraction | int, weight: int = 0):
        coeff = Fraction(coeff)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "weight", weight if coeff else 0)

    def __setattr__(self, name, value=None):
        raise AttributeError("ParametricScalar is immutable")

    __delattr__ = __setattr__

    def pair_at(self, value: Fraction | int) -> tuple[int, int]:
        """The value at q = n/d as the integer pair
        (c.numerator*n^k, c.denominator*d^k) for c*q^k, with n and d swapped
        for k < 0; not reduced, and the second entry is nonzero but may be
        negative.  ZeroDivisionError at q = 0 if k < 0."""
        n, d = value.as_integer_ratio()
        c, k = self.coeff, self.weight
        if k < 0:
            if not n:
                raise ZeroDivisionError(f"negative power of q at q=0: weight {k}")
            n, d, k = d, n, -k
        return c.numerator * n ** k, c.denominator * d ** k

    def evaluate(self, value: Fraction | int) -> Fraction:
        """The value at q, ``pair_at`` reduced to one Fraction."""
        return Fraction(*self.pair_at(value))

    @_lifted
    def __add__(self, other):
        if self.coeff and other.coeff and self.weight != other.weight:
            raise ValueError(
                f"cannot add terms of weights {self.weight} and {other.weight} in q")
        weight = self.weight if self.coeff else other.weight
        return ParametricScalar(self.coeff + other.coeff, weight)

    __radd__ = __add__

    def __neg__(self):
        return ParametricScalar(-self.coeff, self.weight)

    @_lifted
    def __sub__(self, other):
        return self + (-other)

    @_lifted
    def __rsub__(self, other):
        return other + (-self)

    @_lifted
    def __mul__(self, other):
        return ParametricScalar(self.coeff * other.coeff, self.weight + other.weight)

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, other):
        if not other.coeff:
            raise ZeroDivisionError("division by zero")
        return ParametricScalar(self.coeff / other.coeff, self.weight - other.weight)

    @_lifted
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        return ParametricScalar(self.coeff ** exponent, self.weight * exponent)

    def __bool__(self):
        return bool(self.coeff)

    @_lifted
    def __eq__(self, other):
        return self.coeff == other.coeff and self.weight == other.weight


#: additive and multiplicative units, shared across the package
ZERO = ParametricScalar(0)
ONE = ParametricScalar(1)

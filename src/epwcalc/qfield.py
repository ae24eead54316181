"""Exact scalars: single terms c*q^w in the BBF square q, over Q.

Every intersection number is a Fujiki constant times a power of q, so a
scalar is one term: a ``Fraction`` coefficient and an integer weight, with
zero at weight 0.  The form is unique, so equality is structural, which the
symbolic checks rely on.  ``ParametricScalar.pair_at`` gives the value at a
rational q as an integer pair, and ``evaluate`` reduces that pair to one
``Fraction``; ``rational_sum`` adds such pairs as integers and reduces once,
the kernel of ``hodge_ring.verify_independence_degree6`` and
``lagrangian.self_intersection``.  ``ratio_sqrt`` takes the exact
square root of an integer pair, the kernel of
``lagrangian.eta_coefficient``.

A ``ParametricScalar`` is immutable: its two fields are set once, in
``__init__``, through which copy and pickle rebuild it."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Rational = Fraction | int


def _term(c: int, k: int) -> str:
    """The integer term c*q^k: 15*q^3, -q, 2."""
    power = "" if k == 0 else "q" if k == 1 else f"q^{k}"
    body = str(abs(c)) if not power else power if abs(c) == 1 else f"{abs(c)}*{power}"
    return "-" + body if c < 0 else body


def rational_sum(pairs) -> Fraction:
    """sum(a/b for a, b in pairs) over integer pairs (a, b), added as
    integers and reduced once, at the end."""
    num, den = 0, 1
    for a, b in pairs:
        num, den = num * b + a * den, den * b
    return Fraction(num, den)


def _lifted(method):
    """Binary operator on int, Fraction and ParametricScalar operands."""
    @functools.wraps(method)
    def apply(self, other):
        other = ParametricScalar._coerce(other)
        return NotImplemented if other is None else method(self, other)
    return apply


class ParametricScalar:
    """A single term coeff*q^weight: a Fraction coefficient and an integer
    weight, with zero at weight 0.  Zero adds to a term of any weight; two
    nonzero terms of different weights do not add.  Equality goes by
    (coeff, weight): a scalar equals the number it embeds, never a tuple."""

    __slots__ = ("coeff", "weight")

    def __init__(self, coeff: Rational = 0, weight: int = 0):
        coeff = Fraction(coeff)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "weight", weight if coeff else 0)

    def __setattr__(self, name, value=None):
        raise AttributeError("ParametricScalar is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return ParametricScalar, (self.coeff, self.weight)

    @classmethod
    def q(cls) -> "ParametricScalar":
        """The indeterminate itself."""
        return cls(1, 1)

    @staticmethod
    def _coerce(value):
        if isinstance(value, (int, Fraction)):
            return ParametricScalar(value)
        return value if isinstance(value, ParametricScalar) else None

    def pair_at(self, value: Rational) -> tuple[int, int]:
        """The value at q = n/d as the integer pair
        (c.numerator*n^k, c.denominator*d^k) for c*q^k, with n and d swapped
        for k < 0; not reduced, and the second entry is nonzero but may be
        negative.  ZeroDivisionError at q = 0 if k < 0."""
        n, d = value.as_integer_ratio()
        c, k = self.coeff, self.weight
        if k < 0:
            if not n:
                raise ZeroDivisionError(f"negative power of q at q=0 in {self}")
            n, d, k = d, n, -k
        return c.numerator * n ** k, c.denominator * d ** k

    def evaluate(self, value: Rational) -> Fraction:
        """The value at q, ``pair_at`` reduced to one Fraction."""
        return Fraction(*self.pair_at(value))

    @_lifted
    def __add__(self, other):
        if self.coeff and other.coeff and self.weight != other.weight:
            raise ValueError(f"cannot add {self} and {other}: terms of different weight in q")
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

    def __hash__(self):  # a constant equals its Fraction: hash alike
        return hash((self.coeff, self.weight) if self.weight else self.coeff)

    def __str__(self):
        """Integer numerator over integer denominator: 15*q^3, 1/2, -160/q^2,
        80/(3*q); the denominator is in parentheses only when it is a product."""
        if not self.coeff:
            return "0"
        shift = max(0, -self.weight)
        d = self.coeff.denominator
        top = _term(self.coeff.numerator, self.weight + shift)
        if shift == 0 and d == 1:
            return top
        bottom = _term(d, shift)
        return f"{top}/{bottom}" if d == 1 or shift == 0 else f"{top}/({bottom})"

    def __repr__(self):
        return f"ParametricScalar({self})"


#: additive and multiplicative units, shared across the package
ZERO = ParametricScalar(0)
ONE = ParametricScalar(1)


def ratio_sqrt(num: int, den: int) -> Fraction | None:
    """Exact square root of num/den (den nonzero, the pair not necessarily
    reduced), or None if it has none: the pair is reduced once and each
    part tested with ``isqrt``; the root is the one Fraction built."""
    if den < 0:
        num, den = -num, -den
    if num < 0:
        return None
    g = math.gcd(num, den)
    num, den = num // g, den // g
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


"""Exact scalars: Laurent polynomials in the BBF square q, over Q.

Every intersection number is a Fujiki constant times a power of q, so the
Hodge ring only ever divides by a single term; any other division raises.
The form (exponent -> nonzero ``Fraction``) is unique, so equality is
structural, which the symbolic checks rely on.  ``rational_sum`` is the
one integer-sum kernel, for values at q and for ``sym_prod_eval``.

``Value`` is the base of the package's immutable value types, this one
among them."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Rational = Fraction | int


def _pstr(terms: dict[int, Rational]) -> str:
    """Integer-coefficient terms, highest power first: 15*q^3 - q + 2."""
    parts = []
    for k in sorted(terms, reverse=True):
        c = terms[k]
        power = "" if k == 0 else "q" if k == 1 else f"q^{k}"
        body = str(abs(c)) if not power else power if abs(c) == 1 else f"{abs(c)}*{power}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


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


class Value:
    """An immutable value whose fields are its class's ``__slots__``.
    Equality and hash go by the fields and hold only within one class, so a
    value never equals the tuple of its fields (``ParametricScalar`` also
    equals the number it embeds)."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class ParametricScalar(Value):
    """A Laurent polynomial in q: exponent -> nonzero Fraction coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Rational] | Rational = 0):
        if isinstance(terms, (int, Fraction)):
            terms = {0: terms}
        object.__setattr__(self, "terms", {k: Fraction(c) for k, c in terms.items() if c})

    @classmethod
    def q(cls) -> "ParametricScalar":
        """The indeterminate itself."""
        return cls({1: 1})

    @staticmethod
    def _coerce(value):
        if isinstance(value, (int, Fraction)):
            return ParametricScalar(value)
        return value if isinstance(value, ParametricScalar) else None

    def evaluate(self, value: Rational) -> Fraction:
        """The value at q = n/d: ``rational_sum`` of the pairs
        (c.numerator*n^k, c.denominator*d^k) of the terms c*q^k, with n and d
        swapped for k < 0.  ZeroDivisionError at q = 0 if a power is negative."""
        n, d = value.as_integer_ratio()
        pairs = []
        for k, c in self.terms.items():
            if k >= 0:
                pairs.append((c.numerator * n ** k, c.denominator * d ** k))
            elif n:
                pairs.append((c.numerator * d ** -k, c.denominator * n ** -k))
            else:
                raise ZeroDivisionError(f"negative power of q at q=0 in {self}")
        return rational_sum(pairs)

    @_lifted
    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return ParametricScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return ParametricScalar({k: -c for k, c in self.terms.items()})

    @_lifted
    def __sub__(self, other):
        return self + (-other)

    @_lifted
    def __rsub__(self, other):
        return other + (-self)

    @_lifted
    def __mul__(self, other):
        out: dict[int, Fraction] = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return ParametricScalar(out)

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, other):
        if not other.terms:
            raise ZeroDivisionError("division by zero")
        if len(other.terms) > 1:
            raise ValueError(f"division by {other}, which is not a single term in q")
        (j, b), = other.terms.items()
        return ParametricScalar({k - j: c / b for k, c in self.terms.items()})

    @_lifted
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return ONE / self ** -exponent
        return functools.reduce(ParametricScalar.__mul__, [self] * exponent, ONE)

    def __bool__(self):
        return bool(self.terms)

    @_lifted
    def __eq__(self, other):
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:  # a constant equals its Fraction: hash alike
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        # num / (d * q^shift) with integer coefficients, d = lcm of denominators
        shift = max(0, -min(self.terms))
        d = math.lcm(*(c.denominator for c in self.terms.values()))
        top = _pstr({k + shift: c * d for k, c in self.terms.items()})
        if shift == 0 and d == 1:
            return top
        if len(self.terms) > 1:
            top = f"({top})"
        bottom = _pstr({shift: d})
        return f"{top}/{bottom}" if d == 1 else f"{top}/({bottom})"

    def __repr__(self):
        return f"ParametricScalar({self})"


#: additive and multiplicative units, shared across the package
ZERO = ParametricScalar(0)
ONE = ParametricScalar(1)


def rational_sqrt(value: Rational) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if it has none."""
    x = Fraction(value)
    if x >= 0:
        rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
    return None

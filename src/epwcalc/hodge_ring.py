"""The graded ring of Hodge classes of a very general polarized
hyper-Kähler sixfold of K3^[3] type, parametric in the BBF square q of the
polarization h: every coefficient is a single term c*q^w.

Basis by even degree (dimensions 1, 1, 2, 2, 2, 1, 1):

    0:  1
    2:  h
    4:  h^2, c2
    6:  h^3, h*c2
    8:  h^4, h^2*c2
    10: h^5
    12: h^6

Every basis label is a monomial h^i * c2^j, and the product of two basis
classes is the sum of their exponents, rewritten onto the basis of its
degree: c2^2 through the degree-8 relation and h^3*c2 through the
degree-10 relation.  Both relations are solved once, at import and
symbolically in q, from the Fujiki constants and the Chern number
c2*c4 = 14720, not copied in: ``DEGREE8_RELATION`` and
``DEGREE10_RELATIONS`` are the single source of ``_rewrite``, which puts a
monomial on the basis the first time a product meets it.

The degree-6 class eta lies outside this subring and is data: it is
orthogonal to h^3 and h*c2, with eta^2 = ``ETA_SQUARE``.
``DEGREE6_FORM``, the top pairing on (h^3, h*c2, eta), is stated from
``TOP_INTEGRALS`` and ``ETA_SQUARE``, and every pairing of degree-6 classes
reads it; the tests check its (h^3, h*c2) block against the ring.  The
Chern products c2^3 and c2*c4 are multiplied out once, on first use.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .fujiki import fujiki_constant
from .qfield import ONE, ZERO, ParametricScalar, Rational, Value, rational_sum

#: exponents of each basis label in (h, c2), in basis order
_EXPONENTS: dict[str, tuple[int, int]] = {
    "1": (0, 0),
    "h": (1, 0),
    "h^2": (2, 0), "c2": (0, 1),
    "h^3": (3, 0), "h*c2": (1, 1),
    "h^4": (4, 0), "h^2*c2": (2, 1),
    "h^5": (5, 0),
    "h^6": (6, 0),
}
_LABEL = {exponents: label for label, exponents in _EXPONENTS.items()}


def _degree(i: int, j: int) -> int:
    return 2 * i + 4 * j


BASIS: dict[int, tuple[str, ...]] = {
    d: tuple(label for label, e in _EXPONENTS.items() if _degree(*e) == d)
    for d in range(0, 13, 2)
}

#: Chern numbers that are inputs to the ring (the remaining ones are outputs).
CHERN_NUMBER_C2C4 = Fraction(14720)
CHERN_NUMBER_C6 = Fraction(3200)

#: C(c2^2)/C(c4): both degree-8 classes are multiples of c4 in the ring
C2_SQUARED_OVER_C4 = fujiki_constant("c2^2") / fujiki_constant("c4")

#: self-pairing of the degree-6 class eta
ETA_SQUARE = Fraction(4)

_Q = ParametricScalar.q()

#: integrals of the degree-12 monomials in h, c2, c4, each C(alpha) * q^(3-k)
TOP_INTEGRALS: dict[str, ParametricScalar] = {
    "h^6": fujiki_constant("1") * _Q ** 3,
    "h^4*c2": fujiki_constant("c2") * _Q ** 2,
    "h^2*c2^2": fujiki_constant("c2^2") * _Q,
    "h^2*c4": fujiki_constant("c4") * _Q,
}

#: the top pairing on (h^3, h*c2, eta): ((15q^3, 108q^2, 0),
#: (108q^2, 1200q, 0), (0, 0, 4)), eta being orthogonal to h^3 and h*c2
DEGREE6_FORM = ((TOP_INTEGRALS["h^6"], TOP_INTEGRALS["h^4*c2"], ZERO),
                (TOP_INTEGRALS["h^4*c2"], TOP_INTEGRALS["h^2*c2^2"], ZERO),
                (ZERO, ZERO, ParametricScalar(ETA_SQUARE)))


def positive_q(q: Rational) -> Fraction:
    """q as a Fraction, a Fraction argument itself; ValueError unless q > 0,
    as a polarization's BBF square."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q <= 0:
        raise ValueError("the BBF square of a polarization must be positive")
    return q


def solve_2x2(rows, rhs) -> tuple[ParametricScalar, ParametricScalar]:
    """(x, y) with rows[i][0]*x + rows[i][1]*y = rhs[i] for i = 0, 1, by
    Cramer's rule over single terms c*q^w: the two products in the
    determinant and in each numerator must share a weight."""
    (a11, a12), (a21, a22) = rows
    b1, b2 = rhs
    det = a11 * a22 - a12 * a21
    return (b1 * a22 - a12 * b2) / det, (a11 * b2 - a21 * b1) / det


#: (x, y) with c4 = x*h^4 + y*h^2*c2, from pairing both sides with h^2 and c2
DEGREE8_RELATION = solve_2x2(
    ((TOP_INTEGRALS["h^6"], TOP_INTEGRALS["h^4*c2"]),
     (TOP_INTEGRALS["h^4*c2"], TOP_INTEGRALS["h^2*c2^2"])),
    (TOP_INTEGRALS["h^2*c4"], CHERN_NUMBER_C2C4))

#: multiples of h^5 equal to h^3*c2, h*c2^2 and h*c4: pairing a degree-10
#: class with h lands in the one-dimensional top degree
DEGREE10_RELATIONS = tuple(TOP_INTEGRALS[m] / TOP_INTEGRALS["h^6"]
                           for m in ("h^4*c2", "h^2*c2^2", "h^2*c4"))


def derive_degree8_relation(q: Rational) -> tuple[Fraction, Fraction]:
    """``DEGREE8_RELATION`` at q > 0."""
    q = positive_q(q)
    return tuple(c.evaluate(q) for c in DEGREE8_RELATION)


def derive_degree10_relations(q: Rational) -> tuple[Fraction, Fraction, Fraction]:
    """``DEGREE10_RELATIONS`` at q > 0."""
    q = positive_q(q)
    return tuple(r.evaluate(q) for r in DEGREE10_RELATIONS)


class HodgeClass(Value):
    """A homogeneous Hodge class, as coefficients over BASIS[degree]."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: tuple[ParametricScalar, ...]):
        if degree not in BASIS:
            raise ValueError(f"no Hodge classes in degree {degree}")
        if len(coeffs) != len(BASIS[degree]):
            raise ValueError(f"degree {degree} needs {len(BASIS[degree])} coefficients")
        super().__init__(degree, coeffs)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "HodgeClass") -> "HodgeClass":
        if not isinstance(other, HodgeClass):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add classes of different degrees")
        return HodgeClass(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HodgeClass") -> "HodgeClass":
        return self + (-other)

    def __neg__(self) -> "HodgeClass":
        return self.scale(-1)

    def scale(self, scalar) -> "HodgeClass":
        s = ParametricScalar._coerce(scalar)
        if s is None:
            raise TypeError(f"cannot scale by {scalar!r}")
        return HodgeClass(self.degree, tuple(s * c for c in self.coeffs))

    __rmul__ = scale

    # -- queries --------------------------------------------------------------

    def coefficient(self, label: str) -> ParametricScalar:
        return self.coeffs[BASIS[self.degree].index(label)]

    def _nonzero(self):
        return [(label, c) for label, c in zip(BASIS[self.degree], self.coeffs) if c]


def basis_class(degree: int, label: str) -> HodgeClass:
    if label not in BASIS[degree]:
        raise ValueError(f"{label!r} is not a degree-{degree} basis label")
    return HodgeClass(degree, tuple(ONE if cur == label else ZERO for cur in BASIS[degree]))


def h_power(k: int) -> HodgeClass:
    """h^k as a basis class (k = 0..6)."""
    if not 0 <= k <= 6:
        raise ValueError("h powers live in degrees 0..6")
    return basis_class(2 * k, _LABEL[k, 0])


def c2_class() -> HodgeClass:
    return basis_class(4, "c2")


def c4_class() -> HodgeClass:
    """c4 written on the degree-8 basis through the degree-8 relation."""
    return HodgeClass(8, DEGREE8_RELATION)


def c2_squared_class() -> HodgeClass:
    """c2^2 = (C(c2^2)/C(c4)) * c4 on the degree-8 basis."""
    return c4_class().scale(C2_SQUARED_OVER_C4)


@functools.cache
def _rewrite(i: int, j: int) -> HodgeClass:
    """h^i * c2^j on the basis of its degree."""
    if (i, j) in _LABEL:
        return basis_class(_degree(i, j), _LABEL[i, j])
    if j >= 2:  # c2^2 = (C(c2^2)/C(c4)) * (x*h^4 + y*h^2*c2)
        c2_squared = c2_squared_class()
        return (c2_squared.coefficient("h^4") * _rewrite(i + 4, j - 2)
                + c2_squared.coefficient("h^2*c2") * _rewrite(i + 2, j - 1))
    return DEGREE10_RELATIONS[0] * h_power(i + 2)  # h^3*c2 = r*h^5, times h^(i-3)


def multiply(x: HodgeClass, y: HodgeClass) -> HodgeClass:
    """Product in the Hodge ring: each pair of basis monomials adds its
    exponents, and ``_rewrite`` puts the sum on the basis.

    Raises ValueError for total degree above 12, and when terms of
    different weight in q meet on one basis label: h^3*h^3 = h^6 and
    h^3*h*c2 = (36/(5q))*h^6, so (h^3 + h*c2)^2 has no single-term
    coefficient.
    """
    degree = x.degree + y.degree
    if degree > 12:
        raise ValueError(f"product degree {degree} exceeds the top degree 12")
    acc = [ZERO] * len(BASIS[degree])
    for la, ca in x._nonzero():
        for lb, cb in y._nonzero():
            rule = _rewrite(*(s + t for s, t in zip(_EXPONENTS[la], _EXPONENTS[lb])))
            for n, k in enumerate(rule.coeffs):
                if k:
                    acc[n] = acc[n] + ca * cb * k
    return HodgeClass(degree, tuple(acc))


def integrate(x: HodgeClass) -> ParametricScalar:
    """Integral of a degree-12 class over the sixfold, a single term c*q^w."""
    if x.degree != 12:
        raise ValueError("only degree-12 classes integrate to a number")
    return x.coefficient("h^6") * TOP_INTEGRALS["h^6"]


def verify_independence_degree6(q: Rational) -> tuple[bool, Fraction]:
    """Whether h^3 and h*c2 stay independent in the top pairing at q > 0,
    with the Gram determinant g11*g22 - g12^2 of their minor of
    ``DEGREE6_FORM`` as witness, added from the entries' integer pairs."""
    q = positive_q(q)
    (g11, g12, _), (_, g22, _), _ = DEGREE6_FORM
    (a, b), (c, d), (e, f) = (g.pair_at(q) for g in (g11, g22, g12))
    det = rational_sum(((a * c, b * d), (-e * e, f * f)))
    return det != 0, det


@functools.cache
def _chern_products() -> tuple[ParametricScalar, ParametricScalar]:
    """The integrals of c2^3 and c2*c4, single terms c*q^w that depend on no
    argument: multiplied out once, on first use rather than at import."""
    c2 = c2_class()
    return integrate(multiply(multiply(c2, c2), c2)), integrate(multiply(c2, c4_class()))


def chern_numbers_from_ring(q: Rational) -> tuple[Fraction, Fraction, Fraction]:
    """(c2^3, c2*c4, c6) at the given q, the first two from ``_chern_products``.

    None of the three can fail as a check, whatever the inputs.  c2*c4
    gives back ``CHERN_NUMBER_C2C4``, the second equation of the degree-8
    solve, and c2^3 is C(c2^2)/C(c4) times it.  c6 is the stored
    normalization (the top Chern class itself, not a product), which the
    tests check against the LLV total ``llv.SIXFOLD_EULER``.
    """
    q = positive_q(q)
    return (*(product.evaluate(q) for product in _chern_products()), CHERN_NUMBER_C6)

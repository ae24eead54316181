"""The graded ring of Hodge classes of a very general polarized
hyper-Kähler sixfold of K3^[3] type, parametric in the BBF square q of the
polarization h: every coefficient is a single term c*q^w.

A class is a plain dict from basis monomials to nonzero coefficients.  A
monomial (i, j) stands for h^i * c2^j, of degree 2i + 4j, and ``BASIS``
holds the ten monomials h^0, ..., h^6 and c2, h*c2, h^2*c2 (dimensions 1, 1,
2, 2, 2, 1, 1 in degrees 0, 2, ..., 12); the empty dict is 0.

The product of two basis monomials is the sum of their exponents, rewritten
onto the basis: c2^2 through the degree-8 relation and h^3*c2 through the
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
from .qfield import ONE, ZERO, ParametricScalar

#: the basis monomials (i, j) of h^i * c2^j: h^0..h^6 and h^0..h^2 times c2
BASIS = frozenset({(i, 0) for i in range(7)} | {(i, 1) for i in range(3)})

#: Chern numbers that are inputs to the ring (the remaining ones are outputs).
CHERN_NUMBER_C2C4 = Fraction(14720)
CHERN_NUMBER_C6 = Fraction(3200)

#: C(c2^2)/C(c4): both degree-8 classes are multiples of c4 in the ring
C2_SQUARED_OVER_C4 = fujiki_constant("c2^2") / fujiki_constant("c4")

#: self-pairing of the degree-6 class eta
ETA_SQUARE = Fraction(4)
#: BBF square of the polarization h of an EPW cube
EPW_Q = Fraction(4)

_Q = ParametricScalar(1, 1)  # the indeterminate q

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


def positive_q(q: Fraction | int) -> Fraction:
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


def derive_degree8_relation(q: Fraction | int) -> tuple[Fraction, Fraction]:
    """``DEGREE8_RELATION`` at q > 0."""
    q = positive_q(q)
    return tuple(c.evaluate(q) for c in DEGREE8_RELATION)


def derive_degree10_relations(q: Fraction | int) -> tuple[Fraction, Fraction, Fraction]:
    """``DEGREE10_RELATIONS`` at q > 0."""
    q = positive_q(q)
    return tuple(r.evaluate(q) for r in DEGREE10_RELATIONS)


def _combine(*terms) -> dict:
    """sum(s * x for s, x in terms) over classes x, with zero coefficients
    dropped.  The classes are only read: ``_rewrite`` shares its results."""
    acc = {}
    for s, x in terms:
        for monomial, c in x.items():
            acc[monomial] = acc.get(monomial, ZERO) + s * c
    return {monomial: c for monomial, c in acc.items() if c}


@functools.cache
def _rewrite(i: int, j: int) -> dict:
    """h^i * c2^j on the basis; every caller shares the one dict, so it is
    read and never changed."""
    if (i, j) in BASIS:
        return {(i, j): ONE}
    if j >= 2:  # c2^2 = (C(c2^2)/C(c4)) * (x*h^4 + y*h^2*c2)
        x, y = DEGREE8_RELATION
        return _combine((C2_SQUARED_OVER_C4 * x, _rewrite(i + 4, j - 2)),
                        (C2_SQUARED_OVER_C4 * y, _rewrite(i + 2, j - 1)))
    return {(i + 2, 0): DEGREE10_RELATIONS[0]}  # h^3*c2 = r*h^5, times h^(i-3)


def multiply(x: dict, y: dict) -> dict:
    """Product in the Hodge ring: each pair of basis monomials adds its
    exponents, and ``_rewrite`` puts the sum on the basis.

    Raises ValueError for a product monomial of degree above 12, and when
    terms of different weight in q meet on one monomial: h^3*h^3 = h^6 and
    h^3*h*c2 = (36/(5q))*h^6, so (h^3 + h*c2)^2 has no single-term
    coefficient.
    """
    products = []
    for (i1, j1), a in x.items():
        for (i2, j2), b in y.items():
            i, j = i1 + i2, j1 + j2
            if 2 * i + 4 * j > 12:
                raise ValueError(f"product degree {2 * i + 4 * j} exceeds the top degree 12")
            products.append((a * b, _rewrite(i, j)))
    return _combine(*products)


def integrate(x: dict) -> ParametricScalar:
    """Integral of a degree-12 class, a multiple of h^6 on the basis, over
    the sixfold: a single term c*q^w, and 0 for the empty class."""
    if x.keys() - {(6, 0)}:
        raise ValueError("only degree-12 classes integrate to a number")
    return x.get((6, 0), ZERO) * TOP_INTEGRALS["h^6"]


#: g11*g22 - g12^2 on (h^3, h*c2) in ``DEGREE6_FORM``: 15q^3*1200q - (108q^2)^2 = 6336q^4
_GRAM_DETERMINANT = DEGREE6_FORM[0][0] * DEGREE6_FORM[1][1] - DEGREE6_FORM[0][1] ** 2


def verify_independence_degree6(q: Fraction | int) -> tuple[bool, Fraction]:
    """Whether h^3 and h*c2 stay independent in the top pairing at q > 0,
    with the Gram determinant ``_GRAM_DETERMINANT`` at q as witness."""
    det = _GRAM_DETERMINANT.evaluate(positive_q(q))
    return det != 0, det


@functools.cache
def _chern_products() -> tuple[ParametricScalar, ParametricScalar]:
    """The integrals of c2^3 and c2*c4, single terms c*q^w that depend on no
    argument: multiplied out once, on first use rather than at import."""
    c2, c4 = {(0, 1): ONE}, dict(zip(((4, 0), (2, 1)), DEGREE8_RELATION))
    return integrate(multiply(multiply(c2, c2), c2)), integrate(multiply(c2, c4))


def chern_numbers_from_ring(q: Fraction | int) -> tuple[Fraction, Fraction, Fraction]:
    """(c2^3, c2*c4, c6) at the given q, the first two from ``_chern_products``.

    None of the three can fail as a check, whatever the inputs.  c2*c4
    gives back ``CHERN_NUMBER_C2C4``, the second equation of the degree-8
    solve, and c2^3 is C(c2^2)/C(c4) times it.  c6 is the stored
    normalization (the top Chern class itself, not a product), which the
    tests check against the LLV total ``llv.SIXFOLD_EULER``.
    """
    q = positive_q(q)
    return (*(product.evaluate(q) for product in _chern_products()), CHERN_NUMBER_C6)

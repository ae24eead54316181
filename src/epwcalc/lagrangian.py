"""Lagrangian-submanifold calculus on a polarized K3^[3]-type sixfold:
projection of the class of a Lagrangian threefold to the span of h^3 and
h*c2, its self-intersection, the choice between the two involution actions
through Euler characteristics, and the Chern / Riemann-Roch invariants of
the fixed locus of the EPW-cube involution.

A Lagrangian class pairs to zero against h*sigma*sigbar (sigma the
symplectic form), which together with the normalization h^3 . [W] = degree
pins its projection to  a*h^3 + b*h*c2  with b = -degree/(72 q^2) and
a = -12 b / q.  Whatever eta component c the full class carries enters
only through eta^2 (``hodge_ring.ETA_SQUARE``), so
[W]^2 = (a h^3 + b h c2)^2 + eta^2 c^2.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .hodge_ring import ETA_SQUARE, basis_class, eta_class, h_power, integrate, multiply
from .llv import CASES, euler_of_fixed_locus
from .qfield import Rational, rational_sqrt

#: h^3-degree of the fixed locus inside an EPW cube, and the BBF square of h
EPW_DEGREE = Fraction(720)
EPW_Q = Fraction(4)
#: k with canonical class K_W = k*h|_W on the fixed locus
CANONICAL_MULTIPLE = 2


def project_lagrangian_class(degree: Rational, q: Rational) -> tuple[Fraction, Fraction]:
    """Coefficients (a, b) of the projection a*h^3 + b*h*c2 of a Lagrangian
    class with h^3 . [W] = degree, at BBF square q(h) = q > 0."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("the BBF square of a polarization must be positive")
    b = -Fraction(degree) / (72 * q ** 2)
    a = -12 * b / q
    return a, b


def _degree6_class(a: Rational, b: Rational, c: Rational):
    cls = Fraction(a) * h_power(3) + Fraction(b) * basis_class(6, "h*c2")
    if c:
        cls = cls + Fraction(c) * eta_class()
    return cls


def self_intersection(a: Rational, b: Rational, c: Rational, q: Rational) -> Fraction:
    """(a*h^3 + b*h*c2 + c*eta)^2 integrated over the sixfold at q."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("the BBF square of a polarization must be positive")
    cls = _degree6_class(a, b, c)
    return integrate(multiply(cls, cls)).evaluate(q)


def eta_coefficient(base_square: Rational, chi_top: Rational) -> Fraction | None:
    """The nonnegative rational c with base_square + eta^2 c^2 = -chi_top,
    or None when no rational c exists.

    The square of the fixed locus' class equals minus its topological Euler
    characteristic, which forces eta^2 c^2 = -chi_top - base_square to be
    the square of a rational (times eta^2)."""
    c_sq = (-Fraction(chi_top) - Fraction(base_square)) / ETA_SQUARE
    if c_sq < 0:
        return None
    return rational_sqrt(c_sq)


def disambiguate_involution_case(degree: Rational = EPW_DEGREE,
                                 q: Rational = EPW_Q) -> tuple[str, Fraction, int]:
    """Pick the involution action whose fixed-locus Euler characteristic is
    compatible with a rational eta coefficient.

    Returns (case, eta coefficient, chi_top).  Raises when neither or both
    cases are admissible."""
    a, b = project_lagrangian_class(degree, q)
    base = self_intersection(a, b, 0, q)
    admissible = []
    for case in CASES:
        chi = euler_of_fixed_locus(case)
        c = eta_coefficient(base, chi)
        if c is not None:
            admissible.append((case, c, chi))
    if not admissible:
        raise ValueError("no involution case admits a rational eta coefficient")
    if len(admissible) > 1:
        raise ValueError("ambiguous: both involution cases admit a rational eta coefficient")
    return admissible[0]


class FixedLocusInvariants(namedtuple(
        "FixedLocusInvariants", "case eta c1c2 chi_structure chi_one_forms c3 canonical_cube")):
    """Chern and Riemann-Roch numbers of the fixed threefold (chi_structure is
    chi(O), chi_one_forms chi(Omega^1), c3 chi_top and canonical_cube K^3),
    with the involution case and the eta coefficient they were derived under."""

    __slots__ = ()

    def as_tuple(self):
        return (self.c1c2, self.chi_structure, self.chi_one_forms, self.c3,
                self.canonical_cube)


def fixed_locus_invariants(degree: Rational = EPW_DEGREE,
                           q: Rational = EPW_Q) -> FixedLocusInvariants:
    """Invariants of the fixed locus from its class a*h^3 + b*h*c2, under
    the involution case ``disambiguate_involution_case`` picks.

    With K_W = k*h| (k = ``CANONICAL_MULTIPLE``) and normal bundle Omega_W,
    the tangent Chern classes are c1 = -k*h|, c2 = (c2| + k^2*h^2|)/2 and
    c3 = chi_top, so every invariant is a pairing with the class itself:
    c1*c2 = -(k/2)*(h*c2 + k^2*h^3) . [W], chi(O) = c1*c2/24,
    chi(Omega^1) = chi(O) - chi_top/2 and K^3 = k^3*h^3 . [W].
    """
    case, eta, chi_top = disambiguate_involution_case(degree, q)
    q = Fraction(q)
    a, b = project_lagrangian_class(degree, q)
    w = _degree6_class(a, b, 0)
    h3_w = integrate(multiply(h_power(3), w)).evaluate(q)
    hc2_w = integrate(multiply(basis_class(6, "h*c2"), w)).evaluate(q)
    k = CANONICAL_MULTIPLE
    c1c2 = -Fraction(k, 2) * (hc2_w + k ** 2 * h3_w)
    chi_structure = c1c2 / 24
    chi_one_forms = chi_structure - Fraction(chi_top) / 2
    return FixedLocusInvariants(case, eta, c1c2, chi_structure, chi_one_forms,
                                Fraction(chi_top), k ** 3 * h3_w)


def hodge_symmetry_relation(chi_structure: Rational, chi_one_forms: Rational,
                            chi_top: Rational) -> bool:
    """Check chi_top/2 = chi(O) - chi(Omega^1), the Euler-characteristic
    shadow of Hodge symmetry on a threefold."""
    return Fraction(chi_top) / 2 == Fraction(chi_structure) - Fraction(chi_one_forms)

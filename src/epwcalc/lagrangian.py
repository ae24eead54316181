"""Lagrangian-submanifold calculus on a polarized K3^[3]-type sixfold:
projection of the class of a Lagrangian threefold to the span of h^3 and
h*c2, its self-intersection, the choice between the two involution actions
through Euler characteristics, and the Chern / Riemann-Roch invariants of
the fixed locus of the EPW-cube involution.  All of it is computed on the
degree-6 lattice: a class a*h^3 + b*h*c2 + c*eta is its vector (a, b, c),
and every pairing is a value of the form ``hodge_ring.DEGREE6_FORM``, read
through its nonzero entries only, as integer pairs.  The pairings of a
class with the basis, walked through the form in Fraction arithmetic, are
the tests' reference (``_pairings`` in ``tests/test_lagrangian.py``).

The projection  a*h^3 + b*h*c2  of a Lagrangian class [W] is pinned by two
linear conditions: [W] . h*sigma*sigbar = 0 (sigma the symplectic form) and
the normalization [W] . h^3 = degree.  Their coefficients are Fujiki
constants times powers of q (``fujiki.sigma_sigbar_integral`` and the h^3
row of ``DEGREE6_FORM``), so the system is solved once, symbolically in q,
at import; ``tests/fujiki_oracle.py`` holds the matching-sum reference, and
``tests/test_lagrangian.py`` checks the solution against it and against its
closed form.  Both conditions are linear in the class, so the projection
is ``degree`` times the degree-1 one, and its pairings and square are
degree^k times single terms in q, built once at import as well:
``_UNIT_PAIRINGS`` = (h^3 . W, h*c2 . W) = (1, 4/(3q)) and
``_UNIT_SQUARE`` = W^2 = 4/(27q^3) for the degree-1 projection W.  Each
value at a point (degree, q) is then one ``pair_at`` and one ``Fraction``;
an int or Fraction argument is read as it is, not copied.
Whatever eta component c the full class carries enters only through eta^2
(``hodge_ring.ETA_SQUARE``), so [W]^2 = (a h^3 + b h c2)^2 + eta^2 c^2, and
the involution case depends on the point (degree, q) only through the base
square (a h^3 + b h c2)^2, held against the Euler characteristics
``llv.FIXED_LOCUS_EULER``, which are constants.  The case is decided on
integers: the eta coefficient of each case is the square root of one
integer pair, reduced once and tested with ``isqrt`` in
``eta_coefficient``, and the fixed-locus invariants are integer
numerators over integer denominators, one Fraction per value.

[W]^2 = -chi_top(W) is a theorem, not a sign convention: [W]^2 is c3 of
the normal bundle, which for a Lagrangian is the cotangent bundle, and
c3(Omega_W) = -c3(T_W).  The eta coefficient is 0 for two reasons that do
not use the Euler characteristic.  Atomicity: W_A is an atomic Lagrangian,
by Beckmann the Mukai vector of an atomic object lies in the Verbitsky
component, and eta is the weight-0 image of alpha^beta in the second LLV
summand Lambda^2 H~.  Invariance: iota*[W] = [W], while in the "opposite"
case iota* sends eta to -eta.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .fujiki import sigma_sigbar_integral
from .hodge_ring import DEGREE6_FORM, EPW_Q, ETA_SQUARE, positive_q, solve_2x2
from .llv import FIXED_LOCUS_EULER
from .qfield import ParametricScalar

#: h^3-degree of the fixed locus inside an EPW cube (at q = ``EPW_Q``)
EPW_DEGREE = Fraction(720)
#: k with canonical class K_W = k*h|_W on the fixed locus
CANONICAL_MULTIPLE = 2

#: (a, b) at degree 1, monomials in q: the two conditions above, solved
_UNIT_PROJECTION = solve_2x2(
    ((sigma_sigbar_integral("1"), sigma_sigbar_integral("c2")), DEGREE6_FORM[0][:2]),
    (0, 1))
#: (h^3 . W, h*c2 . W) and W^2 for the degree-1 projection W, single terms
_UNIT_PAIRINGS = tuple(g0 * _UNIT_PROJECTION[0] + g1 * _UNIT_PROJECTION[1]
                       for g0, g1, _ in DEGREE6_FORM[:2])
_UNIT_SQUARE = sum(x * y for x, y in zip(_UNIT_PROJECTION, _UNIT_PAIRINGS))


def _scaled(s: ParametricScalar, degree: Fraction | int, k: int, q: Fraction) -> Fraction:
    """degree^k * s at q, as one Fraction: the value of a degree-1 quantity
    of homogeneous degree k in the class."""
    num, den = s.pair_at(q)
    n, d = degree.as_integer_ratio()
    return Fraction(num * n ** k, den * d ** k)


def project_lagrangian_class(degree: Fraction | int,
                             q: Fraction | int) -> tuple[Fraction, Fraction]:
    """Coefficients (a, b) of the projection a*h^3 + b*h*c2 of a Lagrangian
    class with h^3 . [W] = degree, at BBF square q(h) = q > 0."""
    q = positive_q(q)
    return tuple(_scaled(c, degree, 1, q) for c in _UNIT_PROJECTION)


def projection_square(degree: Fraction | int, q: Fraction | int) -> Fraction:
    """(a*h^3 + b*h*c2)^2 for the projection at (degree, q), q > 0:
    degree^2 times ``_UNIT_SQUARE``."""
    q = positive_q(q)
    return _scaled(_UNIT_SQUARE, degree, 2, q)


#: the nonzero entries (i, j, form[i][j]) of ``DEGREE6_FORM``
_FORM_ENTRIES = [(i, j, g) for i, row in enumerate(DEGREE6_FORM)
                 for j, g in enumerate(row) if g]


def self_intersection(a: Fraction | int, b: Fraction | int, c: Fraction | int,
                      q: Fraction | int) -> Fraction:
    """(a*h^3 + b*h*c2 + c*eta)^2 integrated over the sixfold at q: the sum
    of w_i*w_j*form[i][j] over the nonzero entries, kept as one running
    integer pair and reduced once, at the end."""
    q = positive_q(q)
    w = [x.as_integer_ratio() for x in (a, b, c)]
    num, den = 0, 1
    for i, j, g in _FORM_ENTRIES:
        (ni, di), (nj, dj) = w[i], w[j]
        if ni and nj:
            gn, gd = g.pair_at(q)
            d = di * dj * gd
            num, den = num * d + ni * nj * gn * den, den * d
    return Fraction(num, den)


def eta_coefficient(base_square: Fraction | int, chi_top: Fraction | int) -> Fraction | None:
    """The nonnegative rational c with base_square + eta^2 c^2 = -chi_top,
    or None when no rational c exists.

    The square of the fixed locus' class equals minus its topological Euler
    characteristic (a theorem: see the module docstring), which forces
    eta^2 c^2 = -chi_top - base_square to be the square of a rational
    (times eta^2).  Decided on integers: with base_square = n/d and
    chi_top = m/e, c^2 = -(m*d + n*e)/(eta^2*d*e) is one integer pair with
    a positive second entry (d, e and eta^2 are positive), reduced once and
    each part tested with ``isqrt``."""
    n, d = base_square.as_integer_ratio()
    m, e = chi_top.as_integer_ratio()
    s, t = ETA_SQUARE.as_integer_ratio()
    num, den = -(m * d + n * e) * t, s * d * e
    if num < 0:
        return None
    g = gcd(num, den)
    num, den = num // g, den // g
    rn, rd = isqrt(num), isqrt(den)
    return Fraction(rn, rd) if rn * rn == num and rd * rd == den else None


def disambiguate_involution_case(base_square: Fraction | int) -> tuple[str, Fraction, int]:
    """Pick the involution action whose fixed-locus Euler characteristic is
    compatible with a rational eta coefficient, given the square of the
    class with its eta part left out; each case is decided on integers by
    ``eta_coefficient``.

    Returns (case, eta coefficient, chi_top).  Raises when neither or both
    cases are admissible."""
    admissible = []
    for case, chi in FIXED_LOCUS_EULER.items():
        c = eta_coefficient(base_square, chi)
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


def fixed_locus_invariants(degree: Fraction | int = EPW_DEGREE,
                           q: Fraction | int = EPW_Q) -> FixedLocusInvariants:
    """Invariants of the fixed locus from its class [W] = a*h^3 + b*h*c2,
    under the involution case ``disambiguate_involution_case`` picks from
    the base square [W]^2 = degree^2 * ``_UNIT_SQUARE``.

    With K_W = k*h| (k = ``CANONICAL_MULTIPLE``) and normal bundle Omega_W,
    the tangent Chern classes are c1 = -k*h|, c2 = (c2| + k^2*h^2|)/2 and
    c3 = chi_top, so every invariant is a pairing with the class itself:
    c1*c2 = -(k/2)*(h*c2 + k^2*h^3) . [W], chi(O) = c1*c2/24,
    chi(Omega^1) = chi(O) - chi_top/2 and K^3 = k^3*h^3 . [W].  The
    projection is normalised by h^3 . [W] = degree, so only h*c2 . [W] is
    evaluated: with degree = n/d and (u, v) the pair of the second entry of
    ``_UNIT_PAIRINGS`` at q, h*c2 . [W] = n*u/(d*v), c1*c2 is the integer
    numerator -k*n*(u + k^2*v) over 2*d*v, and each field is one Fraction
    of integers.
    """
    q = positive_q(q)
    case, eta, chi_top = disambiguate_involution_case(_scaled(_UNIT_SQUARE, degree, 2, q))
    n, d = degree.as_integer_ratio()
    u, v = _UNIT_PAIRINGS[1].pair_at(q)
    k = CANONICAL_MULTIPLE
    num, den = -k * n * (u + k * k * v), 2 * d * v
    return FixedLocusInvariants(case, eta, Fraction(num, den), Fraction(num, 24 * den),
                                Fraction(num - 12 * chi_top * den, 24 * den),
                                Fraction(chi_top), Fraction(k ** 3 * n, d))


def hodge_symmetry_relation(chi_structure: Fraction | int, chi_one_forms: Fraction | int,
                            chi_top: Fraction | int) -> bool:
    """Check chi_top/2 = chi(O) - chi(Omega^1), the Euler-characteristic
    shadow of Hodge symmetry on a threefold, cross-multiplied over the
    (positive) denominators of the three values."""
    (a, b), (c, d), (e, f) = (x.as_integer_ratio()
                              for x in (chi_structure, chi_one_forms, chi_top))
    return e * b * d == 2 * f * (a * d - c * b)

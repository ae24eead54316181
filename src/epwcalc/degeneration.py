"""Arithmetic of the degeneration of an EPW cube to a moduli space on a
degree-2 K3 surface: the circular wall in the stability half-plane, the
Pell family of spherical classes on it, Ext dimensions at the contraction,
the Kuranishi-space identity for the singularity type (decided by its
factorisation, not by a general division), and the symmetric-product
intersection calculus on the limit threefold.

Central charges on the wall are evaluated exactly: a point has rational
beta and rational alpha^2, and every charge is re + i*im*alpha, so pairs
(re, im) with the extension rule alpha^2 = alpha_sq close under the field
operations that appear.  At beta = n/d the wall gives alpha^2 a denominator
dividing d^2, so a charge is computed on integers, re over d^2 and im over
d, and the ratio of two charges is one quotient of integer sums."""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import comb, perm

from .lagrangian import fixed_locus_invariants
from .mukai import MukaiVector, mukai_pairing
from .qfield import Rational, Value, rational_sum

#: the Hilbert cube of the surface, as a moduli space
HILB_VECTOR = MukaiVector(1, 0, -2)
#: the effective spherical class destabilizing along the wall
SPHERICAL_VECTOR = MukaiVector(1, -1, 2)
#: difference class; its moduli space is the fourfold the wall contracts to
FOURFOLD_VECTOR = HILB_VECTOR - SPHERICAL_VECTOR
#: the ray contracted on the Hilbert-cube side, mapping to 2L - delta
CONTRACTED_RAY_VECTOR = MukaiVector(1, -2, 2)


# ---------------------------------------------------------------------------
# the wall and exact central charges
# ---------------------------------------------------------------------------

class WallPoint(Value):
    """A point (alpha, beta) with (beta+2)^2 + alpha^2 = 2, alpha kept
    through its square; the relevant branch has beta < -1."""

    __slots__ = ("beta", "alpha_sq")

    def __init__(self, beta: Rational, alpha_sq: Rational):
        beta, alpha_sq = (x if type(x) is Fraction else Fraction(x) for x in (beta, alpha_sq))
        (n, d), (a, e) = beta.as_integer_ratio(), alpha_sq.as_integer_ratio()
        if (n + 2 * d) ** 2 * e + a * d * d != 2 * d * d * e:
            raise ValueError("point is not on the wall (beta+2)^2 + alpha^2 = 2")
        if alpha_sq <= 0:
            raise ValueError("wall points need alpha > 0")
        if beta >= -1:
            raise ValueError("the wall branch lives at beta < -1")
        super().__init__(beta, alpha_sq)

    @classmethod
    def from_beta(cls, beta: Rational) -> "WallPoint":
        """The point with alpha^2 = 2 - (beta+2)^2, over d^2 at beta = n/d;
        ``__init__`` makes beta a ``Fraction`` if it is not one."""
        n, d = beta.as_integer_ratio()
        return cls(beta, Fraction(2 * d * d - (n + 2 * d) ** 2, d * d))


class WallCharge(Value):
    """re + i*im*alpha with alpha^2 = alpha_sq fixed and rational."""

    __slots__ = ("re", "im", "alpha_sq")

    def _same_field(self, other: "WallCharge") -> None:
        if self.alpha_sq != other.alpha_sq:
            raise ValueError("charges live over different wall points")

    def __add__(self, other: "WallCharge") -> "WallCharge":
        self._same_field(other)
        return WallCharge(self.re + other.re, self.im + other.im, self.alpha_sq)

    def __sub__(self, other: "WallCharge") -> "WallCharge":
        self._same_field(other)
        return WallCharge(self.re - other.re, self.im - other.im, self.alpha_sq)

    def _dot(self, other: "WallCharge") -> Fraction:
        """Re(self * conj(other)) = re*re' + im*im'*alpha^2, summed as integer pairs."""
        (p, P), (r, R), (p2, P2), (r2, R2), (a, A) = (
            x.as_integer_ratio() for x in (self.re, self.im, other.re, other.im, self.alpha_sq))
        return rational_sum(((p * p2, P * P2), (r * r2 * a, R * R2 * A)))

    def norm_sq(self) -> Fraction:
        return self._dot(self)

    def ratio_real(self, other: "WallCharge") -> Fraction:
        """Real part of self/other; rational because alpha^2 is."""
        self._same_field(other)
        n = other.norm_sq()
        if n == 0:
            raise ValueError("cannot divide by a vanishing central charge")
        return self._dot(other) / n


def central_charge(v: MukaiVector, point: WallPoint) -> WallCharge:
    """Z(v) = 2c*(beta + i alpha) - s - r*(beta + i alpha)^2 at the point:
    at beta = n/d, re = (2c*n*d - s*d^2 - r*(n^2 - alpha^2*d^2))/d^2 and
    im = (2c*d - 2r*n)/d, where alpha^2*d^2 is an integer on the wall."""
    (n, d), (a, e) = point.beta.as_integer_ratio(), point.alpha_sq.as_integer_ratio()
    re = 2 * v.c * n * d - v.s * d * d - v.r * (n * n - a * (d * d // e))
    return WallCharge(Fraction(re, d * d), Fraction(2 * v.c * d - 2 * v.r * n, d),
                      point.alpha_sq)


def effectivity_ratio(u: MukaiVector, v: MukaiVector, point: WallPoint) -> Fraction:
    """Re(Z(u)/Z(v)); positivity of this ratio is the effectivity test for
    u against the class v defining the contraction."""
    return central_charge(u, point).ratio_real(central_charge(v, point))


# ---------------------------------------------------------------------------
# the Pell family of spherical classes on the wall
# ---------------------------------------------------------------------------

def pell_spherical_classes(bound: int) -> list[tuple[int, int]]:
    """All integer pairs (x, y) with 2x^2 - y^2 = -1 and |x| <= bound,
    sorted.

    The solutions with x > 0 and y > 0 are the images (2, 3), (12, 17), ...
    of the fundamental solution (0, 1) under the automorphism
    (x, y) -> (3x + 2y, 4x + 3y) of the form, in increasing x; one walk
    of that branch gives the list in order, with no set and no sort: the
    negative-x pairs in reverse, then (0, -1) and (0, 1), then the
    positive-x pairs, each x with -y before y."""
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    branch = []
    x, y = 2, 3
    while x <= bound:
        branch.append((x, y))
        x, y = 3 * x + 2 * y, 4 * x + 3 * y
    return ([p for x, y in reversed(branch) for p in ((-x, -y), (-x, y))]
            + [(0, -1), (0, 1)] + [p for x, y in branch for p in ((x, -y), (x, y))])


def effectivity_of_pell_class(x: int, y: int) -> Fraction:
    """The rational x + y/2, the effectivity ratio of the class with Pell
    coordinates (x, y) against the Hilbert-cube class on the wall."""
    if 2 * x * x - y * y != -1:
        raise ValueError(f"({x}, {y}) does not solve 2x^2 - y^2 = -1")
    return x + Fraction(y, 2)


# ---------------------------------------------------------------------------
# Ext dimensions at the polystable point of the contraction
# ---------------------------------------------------------------------------

def ext_dimensions() -> dict[str, int]:
    """Ext^1 dimensions at the polystable sheaf T + F the wall contracts to:
    between the spherical factor and F, of F with itself (+2), and the
    dimension of the ambient moduli space (+2)."""
    v, s, a = HILB_VECTOR, SPHERICAL_VECTOR, FOURFOLD_VECTOR
    return {
        "ext1(T,F)": mukai_pairing(s, a),
        "ext1(F,F)": mukai_pairing(a, a) + 2,
        "dim M(v)": mukai_pairing(v, v) + 2,
    }


# ---------------------------------------------------------------------------
# Kuranishi identity: membership in a principal ideal
# ---------------------------------------------------------------------------

@functools.cache
def kuranishi_identity_check(u2_sign: int = -1) -> bool:
    """Whether u1^2 - u2*u3 lies in the ideal (a1*b1 + a2*b2) after the
    substitution u1 = a1*b1, u2 = u2_sign*a1*b2, u3 = a2*b1.

    Membership is shown by the factorisation u1^2 - u2*u3 =
    a1*b1 * (a1*b1 + a2*b2): no variable has degree above 2 on either side,
    so agreement on the grid {0, 1, 2}^4 makes it an identity.  Otherwise
    the point (1, 1, 1, -1), where the generator vanishes, is a witness
    against membership if the form is nonzero there (it reads 1 + u2_sign).
    The sign is a parameter so that the failure of the perturbed identity
    is testable; the default matches the singularity type seen at the
    contraction.  The answer depends on the sign alone, so the grid is
    walked once per sign and process."""
    def form(a1, a2, b1, b2):
        u1, u2, u3 = a1 * b1, u2_sign * a1 * b2, a2 * b1
        return u1 * u1 - u2 * u3

    if all(form(a1, a2, b1, b2) == a1 * b1 * (a1 * b1 + a2 * b2)
           for a1, a2, b1, b2 in product(range(3), repeat=4)):
        return True
    if form(1, 1, 1, -1):
        return False
    raise ValueError("neither the factorisation nor the witness point decides membership")


# ---------------------------------------------------------------------------
# symmetric-product calculus on the limit threefold
# ---------------------------------------------------------------------------

#: the coefficients of each monomial theta^i * eta^(3-i), by i, built once
_UNIT_COEFFS = tuple(tuple(Fraction(int(i == j)) for i in range(4)) for j in range(4))


class SymProdClass(Value):
    """A degree-6 class on the third symmetric product of a genus-g curve,
    written on the monomials theta^i * eta^(3-i), i = 0..3.

    Here eta is the class of the second symmetric product inside the
    third; it is unrelated to the sixfold class of the same name."""

    __slots__ = ("genus", "coeffs")

    def __init__(self, genus: int, coeffs: tuple[Rational, Rational, Rational, Rational]):
        if genus < 3:
            raise ValueError("the calculus needs genus >= 3")
        if len(coeffs) != 4:
            raise ValueError("a class has four monomial coefficients")
        super().__init__(genus, tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs))

    @classmethod
    def monomial(cls, genus: int, theta_power: int) -> "SymProdClass":
        if theta_power not in (0, 1, 2, 3):
            raise ValueError("theta power must be 0..3")
        return cls(genus, _UNIT_COEFFS[theta_power])

    @classmethod
    def linear_form_cubed(cls, genus: int, theta_coeff: Rational,
                          eta_coeff: Rational) -> "SymProdClass":
        """(t*theta + e*eta)^3 expanded on the monomial basis, in integers
        when t and e are integers."""
        t, e = (x if isinstance(x, int) else Fraction(x) for x in (theta_coeff, eta_coeff))
        return cls(genus, tuple(comb(3, i) * t ** i * e ** (3 - i) for i in range(4)))

    def __add__(self, other: "SymProdClass") -> "SymProdClass":
        if self.genus != other.genus:
            raise ValueError("classes live on symmetric products of different curves")
        return SymProdClass(self.genus,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar) -> "SymProdClass":
        return SymProdClass(self.genus, tuple(Fraction(scalar) * c for c in self.coeffs))


def sym_prod_eval(cls: SymProdClass) -> Fraction:
    """Evaluate against the fundamental class: theta^i * eta^(3-i) counts
    g!/(g-i)! on the third symmetric product."""
    return rational_sum((c.numerator * perm(cls.genus, i), c.denominator)
                        for i, c in enumerate(cls.coeffs))


def jacobian_class_of_E(genus: int) -> int:
    """Coefficient t in [E] = t * theta^(g-2)/(g-2)! inside the Jacobian.

    E pushes forward to -6*[Gamma^(2)] + [Gamma^(3)]*theta with [Gamma^(i)]
    = theta^(g-i)/(g-i)!, which collapses to (g-8) by factorial algebra:
    theta^(g-3)/(g-3)! * theta = (g-2) * theta^(g-2)/(g-2)!."""
    if genus < 3:
        raise ValueError("the calculus needs genus >= 3")
    return genus - 8


# ---------------------------------------------------------------------------
# fixed-locus Hodge-number relations from the degeneration
# ---------------------------------------------------------------------------

def plane_curve_genus(degree: int) -> int:
    """Genus of a smooth plane curve of the given degree."""
    if degree < 1:
        raise ValueError("degree must be positive")
    return (degree - 1) * (degree - 2) // 2


#: genus of a plane sextic, the default curve of ``f3_hodge_relations``
SEXTIC_GENUS = plane_curve_genus(6)


class F3RelationTable(namedtuple(
        "F3RelationTable", "genus h1_structure h02_lower_bound h02_relation h03_relation"
                           " h03_minus_h02 h12_minus_h02_minus_h11")):
    """Relations among the Hodge numbers of the fixed threefold, with the
    two dimensions the degeneration does not determine kept symbolic."""

    __slots__ = ()


@functools.cache
def _epw_fixed_locus_invariants():
    """The fixed-locus invariants at the EPW point; they depend on no
    argument of ``f3_hodge_relations``, so they are computed once."""
    return fixed_locus_invariants()


def f3_hodge_relations(genus: int = SEXTIC_GENUS) -> F3RelationTable:
    """Hodge-number relations forced by degenerating the fixed threefold to
    the third symmetric product of a plane sextic (genus 10 by default).

    h^(0,1) vanishes; h^(0,2) is bounded below by the holomorphic 2-forms
    of the symmetric product that survive restriction; the differences
    involving h^(0,3) and h^(1,2) come from the two Euler characteristics,
    with the undetermined dimensions named rather than guessed."""
    if genus < 3:
        raise ValueError("the calculus needs genus >= 3")
    invariants = _epw_fixed_locus_invariants()
    return F3RelationTable(
        genus=genus,
        h1_structure=0,
        h02_lower_bound=comb(genus, 2),
        h02_relation=f"h^(0,2) = {comb(genus, 2)} + dim coker(res1)",
        h03_relation=f"h^(0,3) = {comb(genus, 3)} + dim H^2(W, R)",
        h03_minus_h02=1 - invariants.chi_structure,
        h12_minus_h02_minus_h11=invariants.chi_one_forms,
    )


def theta_characteristic_counts(genus: int) -> tuple[int, int]:
    """(odd, even) counts of theta characteristics on a genus-g curve."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return ((4 ** genus - 2 ** genus) // 2, (4 ** genus + 2 ** genus) // 2)

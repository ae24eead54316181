"""Arithmetic of the degeneration of an EPW cube to a moduli space on a
degree-2 K3 surface: the circular wall in the stability half-plane, the
Pell family of spherical classes on it, Ext dimensions at the contraction,
the Kuranishi-space identity for the singularity type, and the symmetric-
product intersection calculus on the limit threefold.

Central charges on the wall are evaluated exactly: a point has rational
beta and rational alpha^2, and every charge is re + i*im*alpha, so pairs
(re, im) with the extension rule alpha^2 = alpha_sq close under the field
operations that appear."""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import comb, perm

from .lagrangian import fixed_locus_invariants
from .mukai import MukaiVector, mukai_pairing
from .qfield import Rational, Value

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
        beta, alpha_sq = Fraction(beta), Fraction(alpha_sq)
        if (beta + 2) ** 2 + alpha_sq != 2:
            raise ValueError("point is not on the wall (beta+2)^2 + alpha^2 = 2")
        if alpha_sq <= 0:
            raise ValueError("wall points need alpha > 0")
        if beta >= -1:
            raise ValueError("the wall branch lives at beta < -1")
        super().__init__(beta, alpha_sq)

    @classmethod
    def from_beta(cls, beta: Rational) -> "WallPoint":
        beta = Fraction(beta)
        return cls(beta, 2 - (beta + 2) ** 2)


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

    def __neg__(self) -> "WallCharge":
        return WallCharge(-self.re, -self.im, self.alpha_sq)

    def norm_sq(self) -> Fraction:
        return self.re ** 2 + self.im ** 2 * self.alpha_sq

    def ratio_real(self, other: "WallCharge") -> Fraction:
        """Real part of self/other; rational because alpha^2 is."""
        self._same_field(other)
        n = other.norm_sq()
        if n == 0:
            raise ValueError("cannot divide by a vanishing central charge")
        return (self.re * other.re + self.im * other.im * self.alpha_sq) / n


def central_charge(v: MukaiVector, point: WallPoint) -> WallCharge:
    """Z(v) = 2c*(beta + i alpha) - s - r*(beta + i alpha)^2 at the point."""
    beta, a2 = point.beta, point.alpha_sq
    re = 2 * v.c * beta - v.s - v.r * (beta ** 2 - a2)
    im = 2 * v.c - 2 * v.r * beta
    return WallCharge(Fraction(re), Fraction(im), a2)


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

    Generated from the fundamental solution (0, 1) by the automorphism
    (x, y) -> (3x + 2y, 4x + 3y) of the form, plus the sign symmetries."""
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    solutions: set[tuple[int, int]] = set()
    x, y = 0, 1
    while x <= bound:
        solutions.update({(x, y), (x, -y), (-x, y), (-x, -y)})
        x, y = 3 * x + 2 * y, 4 * x + 3 * y
    return sorted(solutions)


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
    v, s = HILB_VECTOR, SPHERICAL_VECTOR
    a = v - s
    return {
        "ext1(T,F)": mukai_pairing(s, a),
        "ext1(F,F)": mukai_pairing(a, a) + 2,
        "dim M(v)": mukai_pairing(v, v) + 2,
    }


# ---------------------------------------------------------------------------
# Kuranishi identity: membership in a principal ideal
# ---------------------------------------------------------------------------

_KVARS = ("a1", "a2", "b1", "b2")


def _grlex(mono: tuple[int, ...]):
    return (sum(mono), mono)


def _monomial(**powers: int) -> tuple[int, ...]:
    """Exponent tuple over a1, a2, b1, b2."""
    return tuple(powers.get(v, 0) for v in _KVARS)


def _times(m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(e1 + e2 for e1, e2 in zip(m1, m2))


def _add_term(poly: dict, mono: tuple[int, ...], coeff: Fraction) -> None:
    coeff += poly.pop(mono, 0)
    if coeff:
        poly[mono] = coeff


def kuranishi_identity_check(u2_sign: int = -1) -> bool:
    """Whether u1^2 - u2*u3 lies in the ideal (a1*b1 + a2*b2) after the
    substitution u1 = a1*b1, u2 = u2_sign*a1*b2, u3 = a2*b1.

    A single generator is a Groebner basis of its ideal, so membership is
    exact division by it in graded-lex order: the polynomial (a dict from
    monomial to coefficient) lies in the ideal exactly when every leading
    term met along the way is divisible by the generator's.  The sign is a
    parameter so that the failure of the perturbed identity is testable;
    the default matches the singularity type seen at the contraction."""
    u1, u2, u3 = _monomial(a1=1, b1=1), _monomial(a1=1, b2=1), _monomial(a2=1, b1=1)
    poly: dict[tuple[int, ...], Fraction] = {}
    _add_term(poly, _times(u1, u1), Fraction(1))
    _add_term(poly, _times(u2, u3), Fraction(-u2_sign))
    generator = {_monomial(a1=1, b1=1): 1, _monomial(a2=1, b2=1): 1}
    lead = max(generator, key=_grlex)
    while poly:
        mono = max(poly, key=_grlex)
        shift = tuple(e - f for e, f in zip(mono, lead))
        if min(shift) < 0:
            return False
        factor = poly[mono] / generator[lead]
        for m, c in generator.items():
            _add_term(poly, _times(shift, m), -factor * c)
    return True


# ---------------------------------------------------------------------------
# symmetric-product calculus on the limit threefold
# ---------------------------------------------------------------------------

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
        super().__init__(genus, tuple(Fraction(c) for c in coeffs))

    @classmethod
    def monomial(cls, genus: int, theta_power: int) -> "SymProdClass":
        if theta_power not in (0, 1, 2, 3):
            raise ValueError("theta power must be 0..3")
        return cls(genus, tuple(Fraction(int(i == theta_power)) for i in range(4)))

    @classmethod
    def linear_form_cubed(cls, genus: int, theta_coeff: Rational,
                          eta_coeff: Rational) -> "SymProdClass":
        """(t*theta + e*eta)^3 expanded on the monomial basis."""
        t, e = Fraction(theta_coeff), Fraction(eta_coeff)
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
    return sum((c * perm(cls.genus, i) for i, c in enumerate(cls.coeffs)), Fraction(0))


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


def f3_hodge_relations(genus: int | None = None) -> F3RelationTable:
    """Hodge-number relations forced by degenerating the fixed threefold to
    the third symmetric product of a plane sextic (genus 10 by default).

    h^(0,1) vanishes; h^(0,2) is bounded below by the holomorphic 2-forms
    of the symmetric product that survive restriction; the differences
    involving h^(0,3) and h^(1,2) come from the two Euler characteristics,
    with the undetermined dimensions named rather than guessed."""
    if genus is None:
        genus = plane_curve_genus(6)
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

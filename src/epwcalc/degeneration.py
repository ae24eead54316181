"""Arithmetic of the degeneration of an EPW cube to a moduli space on a
degree-2 K3 surface: the circular wall in the stability half-plane, the
positive branch of the Pell family of spherical classes on it, Ext
dimensions at the contraction, the Kuranishi-space identity for the
singularity type (decided by its factorisation, not by a general
division), and the symmetric-product intersection calculus on the limit
threefold.

Everything is computed on integers.  A wall point has rational beta = n/d
and rational alpha^2, whose denominator divides d^2; a central charge is
re + i*im*alpha with re over d^2 and im over d, and the ratio of two
charges is one quotient of integer sums.  A class on the third symmetric
product is its four integer coefficients on the monomials.

The module imports only ``lagrangian`` and ``mukai`` of the package, and
reaches them through their names (``lagrangian.fixed_locus_invariants``),
not bound at import: where ``cli`` binds them lazily, a section loads
``lagrangian`` and ``mukai`` only if its rows call them."""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import comb, perm

from . import lagrangian, mukai

#: the Hilbert cube of the surface, as a moduli space
HILB_VECTOR = (1, 0, -2)
#: the effective spherical class destabilizing along the wall
SPHERICAL_VECTOR = (1, -1, 2)
#: difference class v - s; its moduli space is the fourfold the wall contracts to
FOURFOLD_VECTOR = (0, 1, -4)
#: the ray contracted on the Hilbert-cube side, mapping to 2L - delta
CONTRACTED_RAY_VECTOR = (1, -2, 2)


# ---------------------------------------------------------------------------
# the wall and exact central charges
# ---------------------------------------------------------------------------

def _wall_point(beta: Fraction | int) -> tuple[int, int, int]:
    """(n, d, alpha^2 * d^2) at beta = n/d, all integers; the wall
    (beta+2)^2 + alpha^2 = 2 gives alpha^2 * d^2 = 2d^2 - (n + 2d)^2."""
    n, d = beta.as_integer_ratio()
    a = 2 * d * d - (n + 2 * d) ** 2
    if a <= 0:
        raise ValueError("wall points need alpha > 0")
    if n >= -d:
        raise ValueError("the wall branch lives at beta < -1")
    return n, d, a


def wall_alpha_sq(beta: Fraction | int) -> Fraction:
    """alpha^2 = 2 - (beta+2)^2 at the wall point over beta, which must lie
    on the branch beta < -1 with alpha > 0."""
    _, d, a = _wall_point(beta)
    return Fraction(a, d * d)


def central_charges(u: tuple[int, int, int], v: tuple[int, int, int],
                    beta: Fraction | int) -> tuple[
        tuple[Fraction, Fraction], tuple[Fraction, Fraction], Fraction]:
    """((Re Z(u), Im Z(u)/alpha), (Re Z(v), Im Z(v)/alpha), Re(Z(u)/Z(v)))
    at the wall point over beta, with
    Z(w) = 2c*(beta + i alpha) - s - r*(beta + i alpha)^2.

    At beta = n/d, Re Z = R/d^2 with R = 2c*n*d - s*d^2 - r*(n^2 - alpha^2*d^2)
    and Im Z/alpha = I/d with I = 2c*d - 2r*n, so the ratio is the one
    quotient (R_u*R_v + I_u*I_v*alpha^2*d^2) / (R_v^2 + I_v^2*alpha^2*d^2);
    ZeroDivisionError if Z(v) vanishes."""
    n, d, a = _wall_point(beta)
    (ru, iu), (rv, iv) = ((2 * c * n * d - s * d * d - r * (n * n - a),
                           2 * c * d - 2 * r * n) for r, c, s in (u, v))
    return ((Fraction(ru, d * d), Fraction(iu, d)), (Fraction(rv, d * d), Fraction(iv, d)),
            Fraction(ru * rv + iu * iv * a, rv * rv + iv * iv * a))


# ---------------------------------------------------------------------------
# the Pell family of spherical classes on the wall
# ---------------------------------------------------------------------------

def pell_spherical_classes(bound: int) -> list[tuple[int, int]]:
    """The pairs (x, y) with 2x^2 - y^2 = -1, 0 < x <= bound and y > 0, in
    increasing x: the images (2, 3), (12, 17), ... of (0, 1) under the
    automorphism (x, y) -> (3x + 2y, 4x + 3y) = (2s + x, 3s + x) of the form,
    s = x + y, a step of additions alone.  The other solutions with
    |x| <= bound are (0, +-1) and the sign images (+-x, +-y) of these."""
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    branch, x, y = [], 2, 3
    while x <= bound:
        branch.append((x, y))
        s = x + y
        x = s + s + x
        y = x + s
    return branch


# ---------------------------------------------------------------------------
# Ext dimensions at the polystable point of the contraction
# ---------------------------------------------------------------------------

def ext_dimensions() -> dict[str, int]:
    """Ext^1 dimensions at the polystable sheaf T + F the wall contracts to:
    between the spherical factor and F, of F with itself (+2), and the
    dimension of the ambient moduli space (+2)."""
    v, s, a = HILB_VECTOR, SPHERICAL_VECTOR, FOURFOLD_VECTOR
    return {
        "ext1(T,F)": mukai.mukai_pairing(s, a),
        "ext1(F,F)": mukai.mukai_pairing(a, a) + 2,
        "dim M(v)": mukai.mukai_pairing(v, v) + 2,
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
    against membership: the form reads 1 + u2_sign there, which is zero
    only at u2_sign = -1, where the factorisation holds.  The sign is a
    parameter so that the failure of the perturbed identity is testable;
    the default matches the singularity type seen at the contraction.  The
    answer depends on the sign alone, so the grid is walked once per sign
    and process."""
    def form(a1, a2, b1, b2):
        u1, u2, u3 = a1 * b1, u2_sign * a1 * b2, a2 * b1
        return u1 * u1 - u2 * u3

    if all(form(a1, a2, b1, b2) == a1 * b1 * (a1 * b1 + a2 * b2)
           for a1, a2, b1, b2 in product(range(3), repeat=4)):
        return True
    return not form(1, 1, 1, -1)


# ---------------------------------------------------------------------------
# symmetric-product calculus on the limit threefold
# ---------------------------------------------------------------------------

def sym_prod_eval(genus: int, coeffs: tuple[int, int, int, int]) -> int:
    """The degree-6 class sum c_i * theta^i * eta^(3-i) on the third
    symmetric product of a genus-g curve, evaluated against the
    fundamental class: theta^i * eta^(3-i) counts g!/(g-i)!.  Here eta is
    the class of the second symmetric product inside the third; it is
    unrelated to the sixfold class of the same name."""
    if genus < 3:
        raise ValueError("the calculus needs genus >= 3")
    return sum(c * perm(genus, i) for i, c in enumerate(coeffs))


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
    return lagrangian.fixed_locus_invariants()


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

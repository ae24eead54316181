import random
from fractions import Fraction
from math import comb, factorial, isqrt, perm

import pytest

from epwcalc.degeneration import (
    CONTRACTED_RAY_VECTOR,
    FOURFOLD_VECTOR,
    HILB_VECTOR,
    SPHERICAL_VECTOR,
    SymProdClass,
    WallCharge,
    WallPoint,
    central_charge,
    effectivity_of_pell_class,
    effectivity_ratio,
    ext_dimensions,
    f3_hodge_relations,
    jacobian_class_of_E,
    kuranishi_identity_check,
    pell_spherical_classes,
    plane_curve_genus,
    sym_prod_eval,
    theta_characteristic_counts,
)
from epwcalc.mukai import MukaiVector, mukai_pairing

# ---------------------------------------------------------------------------
# the wall and central charges
# ---------------------------------------------------------------------------


def test_wall_membership():
    p = WallPoint.from_beta(-2)
    assert p.alpha_sq == 2
    q = WallPoint.from_beta(Fraction(-3, 2))
    assert q.alpha_sq == Fraction(7, 4)
    with pytest.raises(ValueError):
        WallPoint(-2, 1)                      # not on the circle
    with pytest.raises(ValueError):
        WallPoint.from_beta(-1)               # wrong branch
    with pytest.raises(ValueError):
        WallPoint.from_beta(Fraction(-1, 2))  # wrong branch
    with pytest.raises(ValueError):
        WallPoint.from_beta(-4)               # off the circle, alpha^2 < 0


def test_central_charges_at_the_deepest_point():
    p = WallPoint.from_beta(-2)
    z_v = central_charge(HILB_VECTOR, p)
    z_s = central_charge(SPHERICAL_VECTOR, p)
    assert (z_v.re, z_v.im) == (0, 4)
    assert (z_s.re, z_s.im) == (0, 2)
    assert effectivity_ratio(SPHERICAL_VECTOR, HILB_VECTOR, p) == Fraction(1, 2)


def conjugate(z):
    return WallCharge(z.re, -z.im, z.alpha_sq)


def is_zero(z):
    return z.re == 0 and z.im == 0


def test_charges_are_additive_and_conjugation_flips_im():
    rng = random.Random(808)
    p = WallPoint.from_beta(Fraction(-7, 4))
    for _ in range(15):
        u = MukaiVector(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        w = MukaiVector(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        assert central_charge(u + w, p) == central_charge(u, p) + central_charge(w, p)
    z = central_charge(HILB_VECTOR, p)
    assert conjugate(z).im == -z.im
    assert conjugate(conjugate(z)) == z
    assert is_zero(z - z)


def test_ratio_real_is_exact():
    p = WallPoint.from_beta(Fraction(-5, 4))
    z_v = central_charge(HILB_VECTOR, p)
    assert z_v.ratio_real(z_v) == 1
    zero = WallCharge(Fraction(0), Fraction(0), p.alpha_sq)
    with pytest.raises(ValueError):
        z_v.ratio_real(zero)
    other_field = WallCharge(Fraction(1), Fraction(0), Fraction(3))
    with pytest.raises(ValueError):
        z_v.ratio_real(other_field)


def test_effectivity_is_linear_in_the_pell_coordinates():
    """x*v + y*s has effectivity ratio x + y * ratio(s, v) against v; at the
    deepest wall point the coefficient is exactly 1/2."""
    rng = random.Random(99)
    for beta in (Fraction(-2), Fraction(-3, 2), Fraction(-9, 8)):
        p = WallPoint.from_beta(beta)
        coeff = effectivity_ratio(SPHERICAL_VECTOR, HILB_VECTOR, p)
        for _ in range(10):
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            u = x * HILB_VECTOR + y * SPHERICAL_VECTOR
            assert effectivity_ratio(u, HILB_VECTOR, p) == x + y * coeff
    deepest = WallPoint.from_beta(-2)
    assert effectivity_ratio(SPHERICAL_VECTOR, HILB_VECTOR, deepest) == Fraction(1, 2)
    u = 3 * HILB_VECTOR + (-5) * SPHERICAL_VECTOR
    assert effectivity_ratio(u, HILB_VECTOR, deepest) == 3 - Fraction(5, 2)


# ---------------------------------------------------------------------------
# the Pell family
# ---------------------------------------------------------------------------


def _pell_brute(bound):
    out = []
    for x in range(-bound, bound + 1):
        y_sq = 2 * x * x + 1
        y = isqrt(y_sq)
        if y * y == y_sq:
            out.append((x, y))
            out.append((x, -y))
    return sorted(out)


def test_pell_small_bounds():
    assert pell_spherical_classes(2) == [(-2, -3), (-2, 3), (0, -1), (0, 1), (2, -3), (2, 3)]
    assert (12, 17) in pell_spherical_classes(12)
    with pytest.raises(ValueError):
        pell_spherical_classes(0)


def test_pell_against_brute_force():
    assert pell_spherical_classes(300) == _pell_brute(300)


def test_pell_recurrence_preserves_the_form():
    for x, y in pell_spherical_classes(10 ** 4):
        assert 2 * x * x - y * y == -1
        x2, y2 = 3 * x + 2 * y, 4 * x + 3 * y
        assert 2 * x2 * x2 - y2 * y2 == -1


def test_no_isotropic_classes_on_the_pell_conic():
    # 4x^2 - 2y^2 = 0 together with 2x^2 - y^2 = -1 is impossible over Z
    for x, y in pell_spherical_classes(10 ** 5):
        assert 4 * x * x - 2 * y * y != 0


def test_negative_rank_solutions_are_never_effective():
    solutions = pell_spherical_classes(10 ** 6)
    assert len(solutions) == 34
    for x, y in solutions:
        if x < 0:
            assert effectivity_of_pell_class(x, y) < 0


def test_effectivity_of_pell_class_guards_input():
    assert effectivity_of_pell_class(2, 3) == Fraction(7, 2)
    assert effectivity_of_pell_class(-2, 3) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        effectivity_of_pell_class(1, 1)


# ---------------------------------------------------------------------------
# the contraction: Ext dimensions and the Kuranishi identity
# ---------------------------------------------------------------------------


def test_ext_dimensions():
    assert ext_dimensions() == {"ext1(T,F)": 2, "ext1(F,F)": 4, "dim M(v)": 6}


def test_ext_numbers_from_the_pairing():
    v, s, a = HILB_VECTOR, SPHERICAL_VECTOR, FOURFOLD_VECTOR
    assert a == v - s
    assert mukai_pairing(s, a) == 2
    assert mukai_pairing(a, v - a) == 2
    # consistent sign propagation leaves the dimensions unchanged
    assert mukai_pairing(-s, v - (-s)) == 2


def test_kuranishi_identity():
    assert kuranishi_identity_check() is True
    assert kuranishi_identity_check(u2_sign=+1) is False
    # a1^2*b1^2 alone is not a multiple of a1*b1 + a2*b2
    assert kuranishi_identity_check(u2_sign=0) is False


# ---------------------------------------------------------------------------
# symmetric-product calculus
# ---------------------------------------------------------------------------


def test_monomial_counts():
    for g in (3, 7, 10):
        for i in range(4):
            value = sym_prod_eval(SymProdClass.monomial(g, i))
            assert value == perm(g, i)
    assert sym_prod_eval(SymProdClass.monomial(10, 3)) == 720
    assert sym_prod_eval(SymProdClass.monomial(10, 0)) == 1


def test_monomial_ratio_is_a_falling_factorial():
    g = 10
    for i in range(3):
        low = sym_prod_eval(SymProdClass.monomial(g, i))
        high = sym_prod_eval(SymProdClass.monomial(g, i + 1))
        assert high == (g - i) * low


def test_cube_of_the_branch_class():
    cube = SymProdClass.linear_form_cubed(10, 1, -6)
    assert cube.coeffs == (-216, 108, -18, 1)
    assert sym_prod_eval(cube) == -36
    # term by term: -216*1 + 108*10 - 18*90 + 720
    assert (-216 * 1 + 108 * 10 - 18 * 90 + 720) == -36


def test_sym_prod_linearity_and_guards():
    g = 9
    x = SymProdClass.linear_form_cubed(g, 1, 2)
    y = SymProdClass.monomial(g, 2)
    assert sym_prod_eval(x + y) == sym_prod_eval(x) + sym_prod_eval(y)
    assert sym_prod_eval(3 * y) == 3 * sym_prod_eval(y)
    with pytest.raises(ValueError):
        SymProdClass.monomial(2, 1)
    with pytest.raises(ValueError):
        SymProdClass.monomial(10, 4)
    with pytest.raises(ValueError):
        x + SymProdClass.monomial(8, 1)


def _jacobian_class_by_factorials(g):
    """-6*[Gamma^(2)] + [Gamma^(3)]*theta on the basis theta^(g-2)/(g-2)!."""
    return (Fraction(-6, factorial(g - 2)) + Fraction(1, factorial(g - 3))) * factorial(g - 2)


def test_jacobian_class_coefficient():
    assert jacobian_class_of_E(10) == 2
    assert jacobian_class_of_E(8) == 0
    for g in range(3, 41):
        assert jacobian_class_of_E(g) == _jacobian_class_by_factorials(g) == g - 8
    # the closed form costs nothing at any genus
    assert jacobian_class_of_E(10 ** 9) == 10 ** 9 - 8
    with pytest.raises(ValueError):
        jacobian_class_of_E(2)


# ---------------------------------------------------------------------------
# Hodge-number relations and theta characteristics
# ---------------------------------------------------------------------------


def test_plane_curve_genus():
    assert plane_curve_genus(6) == 10
    assert plane_curve_genus(4) == 3
    assert plane_curve_genus(1) == 0
    with pytest.raises(ValueError):
        plane_curve_genus(0)


def test_f3_relation_table():
    table = f3_hodge_relations()
    assert table.genus == 10
    assert table.h1_structure == 0
    assert table.h02_lower_bound == 45
    assert table.h03_minus_h02 == 131
    assert table.h12_minus_h02_minus_h11 == 470
    # the two undetermined dimensions stay named, not guessed
    assert "coker(res1)" in table.h02_relation
    assert "H^2(W, R)" in table.h03_relation
    assert "120" in table.h03_relation  # C(10, 3)


def test_f3_relation_table_genus_override():
    table = f3_hodge_relations(6)
    assert table.h02_lower_bound == comb(6, 2) == 15
    # the chi-based offsets do not depend on the degenerating curve
    assert table.h03_minus_h02 == 131
    assert table.h12_minus_h02_minus_h11 == 470
    with pytest.raises(ValueError):
        f3_hodge_relations(1)


def test_theta_characteristic_counts():
    assert theta_characteristic_counts(2) == (6, 10)
    assert theta_characteristic_counts(0) == (0, 1)
    assert theta_characteristic_counts(3) == (28, 36)
    for g in range(8):
        odd, even = theta_characteristic_counts(g)
        assert odd + even == 4 ** g
        assert even - odd == 2 ** g
    with pytest.raises(ValueError):
        theta_characteristic_counts(-1)

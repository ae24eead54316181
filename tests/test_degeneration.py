import random
from fractions import Fraction
from math import comb, factorial, isqrt, perm, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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


#: beta on the branch -2 - sqrt(2) < beta < -1, denominators up to 10^30
_BRANCH_BETA = st.fractions(min_value=Fraction(-3414213562373095, 10 ** 15), max_value=-1,
                            max_denominator=10 ** 30).filter(lambda b: b != -1)
_VECTOR = st.builds(MukaiVector, *[st.integers(-10 ** 30, 10 ** 30)] * 3)


@given(_BRANCH_BETA, _VECTOR, _VECTOR)
@example(Fraction(-2), HILB_VECTOR, SPHERICAL_VECTOR)
@example(Fraction(-3, 2), SPHERICAL_VECTOR, HILB_VECTOR)
@example(Fraction(-10 ** 30 - 1, 10 ** 30), HILB_VECTOR, MukaiVector(0, 0, 0))
@example(Fraction(-341 * 10 ** 28 + 7, 10 ** 30), MukaiVector(-3, 10 ** 30, 5), HILB_VECTOR)
def test_central_charge_matches_the_fraction_formula(beta, u, v):
    """Z(v) = (2c*beta - s - r*(beta^2 - alpha^2)) + i*(2c - 2r*beta)*alpha and
    Re(Z(u)/Z(v)) in Fraction arithmetic, with alpha^2 = 2 - (beta+2)^2."""
    alpha_sq = 2 - (beta + 2) ** 2
    point = WallPoint.from_beta(beta)
    assert point == WallPoint(beta, alpha_sq) and point.alpha_sq == alpha_sq
    charges = []
    for w in (u, v):
        z = central_charge(w, point)
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert z.re == 2 * w.c * beta - w.s - w.r * (beta ** 2 - alpha_sq)
        assert z.im == 2 * w.c - 2 * w.r * beta
        assert z.alpha_sq == alpha_sq
        charges.append(z)
    z_u, z_v = charges
    norm = z_v.re ** 2 + z_v.im ** 2 * alpha_sq
    assert z_v.norm_sq() == norm
    if norm:
        assert z_u.ratio_real(z_v) == (z_u.re * z_v.re + z_u.im * z_v.im * alpha_sq) / norm
        assert effectivity_ratio(u, v, point) == z_u.ratio_real(z_v)
    else:
        with pytest.raises(ValueError, match="vanishing central charge"):
            z_u.ratio_real(z_v)
    with pytest.raises(ValueError, match="not on the wall"):
        WallPoint(beta, alpha_sq + Fraction(1, beta.denominator ** 2 + 1))


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


def _pell_set_and_sort(bound):
    """The reference construction: every sign image of each solution on the
    walk from (0, 1), gathered in a set and sorted."""
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    solutions = set()
    x, y = 0, 1
    while x <= bound:
        solutions.update({(x, y), (x, -y), (-x, y), (-x, -y)})
        x, y = 3 * x + 2 * y, 4 * x + 3 * y
    return sorted(solutions)


def _pell_branch_x(limit):
    """x_1 = 2 < x_2 = 12 < ... <= limit on the positive branch."""
    xs, x, y = [], 2, 3
    while x <= limit:
        xs.append(x)
        x, y = 3 * x + 2 * y, 4 * x + 3 * y
    return xs


def test_pell_order_at_every_branch_point():
    """Each x_k up to 10^300 adds four pairs to the list, and x_k - 1 is the
    largest bound without them."""
    xs = _pell_branch_x(10 ** 300)
    assert len(xs) == 392
    for x in xs:
        for bound in (x - 1, x):
            assert pell_spherical_classes(bound) == _pell_set_and_sort(bound)


@given(st.integers(1, 10 ** 300))
@example(1)
@example(2)
def test_pell_order_matches_set_and_sort(bound):
    assert pell_spherical_classes(bound) == _pell_set_and_sort(bound)


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
    """Only the minus sign puts u1^2 - u2*u3 in the ideal; u2_sign = 0 leaves
    a1^2*b1^2, which is not a multiple of a1*b1 + a2*b2."""
    assert kuranishi_identity_check() is True
    for sign in range(-3, 4):
        assert kuranishi_identity_check(u2_sign=sign) is (sign == -1), sign


# ---------------------------------------------------------------------------
# symmetric-product calculus
# ---------------------------------------------------------------------------


def test_monomial_counts():
    """ACGH ch. VIII: theta^i * eta^(3-i) = g!/(g-i)! on the third symmetric
    product, here the explicit product g(g-1)...(g-i+1)."""
    for g in (3, 4, 7, 10, 25):
        for i in range(4):
            value = sym_prod_eval(SymProdClass.monomial(g, i))
            assert value == prod(g - k for k in range(i))
    assert sym_prod_eval(SymProdClass.monomial(10, 3)) == 720
    assert sym_prod_eval(SymProdClass.monomial(10, 0)) == 1


_BIG = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))


@given(st.integers(3, 5000), st.tuples(_BIG, _BIG, _BIG, _BIG))
def test_sym_prod_eval_matches_the_fraction_sum(genus, coeffs):
    value = sym_prod_eval(SymProdClass(genus, coeffs))
    assert type(value) is Fraction
    assert value == sum(c * perm(genus, i) for i, c in enumerate(coeffs))


def test_monomial_ratio_is_a_falling_factorial():
    g = 10
    for i in range(3):
        low = sym_prod_eval(SymProdClass.monomial(g, i))
        high = sym_prod_eval(SymProdClass.monomial(g, i + 1))
        assert high == (g - i) * low


def test_cube_of_the_branch_class():
    cube = SymProdClass.linear_form_cubed(10, 1, -6)
    assert cube.coeffs == (-216, 108, -18, 1)
    assert all(type(c) is Fraction for c in cube.coeffs)
    assert all(type(c) is Fraction for c in SymProdClass.monomial(10, 2).coeffs)
    half = SymProdClass.linear_form_cubed(10, Fraction(1, 2), Fraction(-3, 7))
    assert half.coeffs == tuple(comb(3, i) * Fraction(1, 2) ** i * Fraction(-3, 7) ** (3 - i)
                                for i in range(4))
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


def _macdonald(genus: int, n: int) -> dict[tuple[int, int, int], int]:
    """Macdonald's generating function (1+ut)^g (1+vt)^g / ((1-t)(1-uvt)) of
    the Hodge numbers of the symmetric products of a genus-g curve, expanded
    up to t^n by multiplying out its factors: (p, q, k) -> h^(p,q)(C^(k))."""
    factors = ([{(0, 0, 0): 1, (1, 0, 1): 1}] * genus + [{(0, 0, 0): 1, (0, 1, 1): 1}] * genus
               + [{(0, 0, k): 1 for k in range(n + 1)}, {(k, k, k): 1 for k in range(n + 1)}])
    series = {(0, 0, 0): 1}
    for factor in factors:
        product: dict[tuple[int, int, int], int] = {}
        for (p1, q1, k1), c1 in series.items():
            for (p2, q2, k2), c2 in factor.items():
                if k1 + k2 <= n:
                    key = (p1 + p2, q1 + q2, k1 + k2)
                    product[key] = product.get(key, 0) + c1 * c2
        series = product
    return series


def test_f3_holomorphic_forms_against_macdonald():
    """h^(0,2) and h^(0,3) of the third symmetric product, which
    ``f3_hodge_relations`` takes as binomial coefficients, read off
    Macdonald's generating function instead."""
    for genus in (3, 4, 6, 10, 15):
        hodge = _macdonald(genus, 3)
        # the t^1 terms are the Hodge diamond of the curve itself
        assert {key: h for key, h in hodge.items() if key[2] == 1} == {
            (0, 0, 1): 1, (1, 0, 1): genus, (0, 1, 1): genus, (1, 1, 1): 1}
        h02, h03 = hodge.get((0, 2, 3), 0), hodge.get((0, 3, 3), 0)
        assert hodge[0, 0, 3] == 1 and hodge[0, 1, 3] == genus
        table = f3_hodge_relations(genus)
        assert table.h02_lower_bound == h02
        assert table.h02_relation.startswith(f"h^(0,2) = {h02} + ")
        assert table.h03_relation.startswith(f"h^(0,3) = {h03} + ")
        if genus == 10:
            assert (h02, h03) == (45, 120)


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

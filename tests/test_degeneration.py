import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, factorial, gcd, isqrt, perm, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epwcalc import cli
from epwcalc.degeneration import (
    CONTRACTED_RAY_VECTOR,
    FOURFOLD_VECTOR,
    HILB_VECTOR,
    SPHERICAL_VECTOR,
    central_charges,
    ext_dimensions,
    f3_hodge_relations,
    jacobian_class_of_E,
    kuranishi_identity_check,
    pell_spherical_classes,
    plane_curve_genus,
    sym_prod_eval,
    theta_characteristic_counts,
    wall_alpha_sq,
)
from epwcalc.mukai import hyperbolic_lattice, mukai_pairing
from test_mukai import combination

# ---------------------------------------------------------------------------
# the wall and central charges
# ---------------------------------------------------------------------------


def test_wall_membership():
    assert wall_alpha_sq(-2) == 2
    assert wall_alpha_sq(Fraction(-3, 2)) == Fraction(7, 4)
    # off the circle (alpha^2 <= 0) is reported before the wrong branch
    for beta, message in ((-4, "wall points need alpha > 0"),
                          (Fraction(-1, 2), "wall points need alpha > 0"),
                          (0, "wall points need alpha > 0"),
                          (-1, "the wall branch lives at beta < -1"),
                          (Fraction(-7, 10), "the wall branch lives at beta < -1")):
        for call in (lambda: wall_alpha_sq(beta),
                     lambda: central_charges(HILB_VECTOR, SPHERICAL_VECTOR, beta)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


def test_central_charges_at_the_deepest_point():
    z_s, z_v, ratio = central_charges(SPHERICAL_VECTOR, HILB_VECTOR, -2)
    assert z_v == (0, 4)
    assert z_s == (0, 2)
    assert ratio == Fraction(1, 2)


def _ratio_real(z_u, z_v, alpha_sq):
    """Re(Z(u)/Z(v)) = Re(Z(u) * conj Z(v)) / |Z(v)|^2 in Fraction arithmetic,
    for charges (re, im) meaning re + i*im*alpha."""
    (re_u, im_u), (re_v, im_v) = z_u, z_v
    return (re_u * re_v + im_u * im_v * alpha_sq) / (re_v ** 2 + im_v ** 2 * alpha_sq)


def test_charges_are_additive_and_conjugation_flips_im():
    """Z is linear in the Mukai vector; conjugating both charges flips the
    sign of each im and leaves the real part of their ratio unchanged."""
    rng = random.Random(808)
    beta = Fraction(-7, 4)
    alpha_sq = wall_alpha_sq(beta)
    for _ in range(15):
        u, w = (tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(2))
        z_u, z_v, ratio = central_charges(u, HILB_VECTOR, beta)
        z_w = central_charges(w, HILB_VECTOR, beta)[0]
        assert central_charges(combination((1, u), (1, w)), HILB_VECTOR, beta)[0] == tuple(
            a + b for a, b in zip(z_u, z_w))
        conj_u, conj_v = ((re, -im) for re, im in (z_u, z_v))
        assert ratio == _ratio_real(conj_u, conj_v, alpha_sq) == _ratio_real(z_u, z_v, alpha_sq)


def test_ratio_real_is_exact():
    """Re(Z(v)/Z(v)) is exactly 1, as one Fraction; a vanishing Z(v), as the
    zero vector's, has no ratio."""
    for beta in (Fraction(-5, 4), -2, Fraction(-10 ** 30 - 1, 10 ** 30)):
        ratio = central_charges(HILB_VECTOR, HILB_VECTOR, beta)[2]
        assert ratio == 1 and type(ratio) is Fraction
    with pytest.raises(ZeroDivisionError):
        central_charges(HILB_VECTOR, (0, 0, 0), Fraction(-5, 4))


@pytest.mark.parametrize("x, y", [(2, 3), (12, 17), (70, 99)])
def test_no_ratio_where_a_pell_class_has_no_charge(x, y):
    """For a branch solution (x, y), the (-2)-class x*v - y*s has Z = 0 at
    beta = y/(x - y), where lambda(beta) = 1 + 1/beta = x/y: at -3, -17/5
    and -99/29, which are wall points but not stability conditions."""
    beta = Fraction(y, x - y)
    u = combination((x, HILB_VECTOR), (-y, SPHERICAL_VECTOR))
    assert mukai_pairing(u, u) == -2 and 1 + 1 / beta == Fraction(x, y)
    with pytest.raises(ZeroDivisionError):
        central_charges(HILB_VECTOR, u, beta)


#: beta on the branch -2 - sqrt(2) < beta < -1, denominators up to 10^30
_BRANCH_BETA = st.fractions(min_value=Fraction(-3414213562373095, 10 ** 15), max_value=-1,
                            max_denominator=10 ** 30).filter(lambda b: b != -1)
_VECTOR = st.tuples(*[st.integers(-10 ** 30, 10 ** 30)] * 3)


@given(_BRANCH_BETA, _VECTOR, _VECTOR)
@example(Fraction(-2), HILB_VECTOR, SPHERICAL_VECTOR)
@example(Fraction(-3, 2), SPHERICAL_VECTOR, HILB_VECTOR)
@example(Fraction(-10 ** 30 - 1, 10 ** 30), HILB_VECTOR, (0, 0, 0))
@example(Fraction(-341 * 10 ** 28 + 7, 10 ** 30), (-3, 10 ** 30, 5), HILB_VECTOR)
def test_central_charge_matches_the_fraction_formula(beta, u, v):
    """Z(v) = (2c*beta - s - r*(beta^2 - alpha^2)) + i*(2c - 2r*beta)*alpha and
    Re(Z(u)/Z(v)) in Fraction arithmetic, with alpha^2 = 2 - (beta+2)^2."""
    alpha_sq = 2 - (beta + 2) ** 2
    assert wall_alpha_sq(beta) == alpha_sq and type(wall_alpha_sq(beta)) is Fraction
    r, c, s = v
    norm = (2 * c * beta - s - r * (beta ** 2 - alpha_sq)) ** 2 \
        + (2 * c - 2 * r * beta) ** 2 * alpha_sq
    if not norm:
        with pytest.raises(ZeroDivisionError):
            central_charges(u, v, beta)
        return
    z_u, z_v, ratio = central_charges(u, v, beta)
    for (r, c, s), z in ((u, z_u), (v, z_v)):
        assert all(type(part) is Fraction for part in z)
        assert z == (2 * c * beta - s - r * (beta ** 2 - alpha_sq), 2 * c - 2 * r * beta)
    assert type(ratio) is Fraction and ratio == _ratio_real(z_u, z_v, alpha_sq)


@given(_BRANCH_BETA)
@example(Fraction(-2))
@example(Fraction(-3, 2))
@example(Fraction(-5, 2))
def test_the_wall_ratio_is_one_plus_one_over_beta(beta):
    """On the wall Z(s)/Z(v) is real: lambda(beta) = 1 + 1/beta, which is
    1/2 at beta = -2, 1/3 at -3/2 and 3/5 at -5/2."""
    assert central_charges(SPHERICAL_VECTOR, HILB_VECTOR, beta)[2] == 1 + 1 / beta


def test_effectivity_is_linear_in_the_pell_coordinates():
    """x*v + y*s has effectivity ratio x + y * ratio(s, v) against v; at the
    deepest wall point the coefficient is exactly 1/2."""
    rng = random.Random(99)
    for beta in (Fraction(-2), Fraction(-3, 2), Fraction(-9, 8)):
        coeff = central_charges(SPHERICAL_VECTOR, HILB_VECTOR, beta)[2]
        for _ in range(10):
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            u = combination((x, HILB_VECTOR), (y, SPHERICAL_VECTOR))
            assert central_charges(u, HILB_VECTOR, beta)[2] == x + y * coeff
    assert central_charges(SPHERICAL_VECTOR, HILB_VECTOR, -2)[2] == Fraction(1, 2)
    u = combination((3, HILB_VECTOR), (-5, SPHERICAL_VECTOR))
    assert central_charges(u, HILB_VECTOR, -2)[2] == 3 - Fraction(5, 2)


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
    assert pell_spherical_classes(1) == []
    assert pell_spherical_classes(2) == [(2, 3)]
    assert pell_spherical_classes(12) == [(2, 3), (12, 17)]
    with pytest.raises(ValueError):
        pell_spherical_classes(0)
    branch = pell_spherical_classes(12)
    branch.append((1, 1))
    assert pell_spherical_classes(12) == [(2, 3), (12, 17)]


def test_the_additions_step_is_the_automorphism_up_to_the_cap():
    """``pell_spherical_classes`` steps by additions, to (2s + x, 3s + x)
    with s = x + y.  Element by element up to the 10^1000 cap, its 1306
    elements are the images of (2, 3) under (x, y) -> (3x + 2y, 4x + 3y),
    and each solves 2x^2 - y^2 = -1."""
    branch = pell_spherical_classes(10 ** 1000)
    assert len(branch) == 1306
    x, y = 2, 3
    for element in branch:
        assert element == (x, y)
        assert 2 * x * x - y * y == -1
        x, y = 3 * x + 2 * y, 4 * x + 3 * y
    assert x > 10 ** 1000


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


def _pell_signed(bound):
    """(0, +-1) and the sign images of the branch, gathered in a set and
    sorted: every solution with |x| <= bound, built from the branch."""
    return sorted({(0, 1), (0, -1)} | {(sx, sy) for x, y in pell_spherical_classes(bound)
                                       for sx in (-x, x) for sy in (-y, y)})


def _listed(bound):
    """The pairs ``pell --bound`` lists, in its order, read back as integers
    from the JSON report after its two summary rows."""
    results = json.loads(cli.Report("pell", {}, cli._rows_pell(bound)).to_json())["results"]
    values = [int(result["value"]) for result in results[2:]]
    return list(zip(values[::2], values[1::2]))


def _check_pell(bound, expected):
    """The listing is ``expected`` and the branch its part with x, y > 0."""
    assert _listed(bound) == expected
    assert pell_spherical_classes(bound) == [(x, y) for x, y in expected if x > 0 and y > 0]


def _pell_branch_x(limit):
    """x_1 = 2 < x_2 = 12 < ... <= limit on the positive branch."""
    xs, x, y = [], 2, 3
    while x <= limit:
        xs.append(x)
        x, y = 3 * x + 2 * y, 4 * x + 3 * y
    return xs


def test_pell_order_at_every_branch_point():
    """Each x_k up to 10^300 adds four pairs to the listing, and x_k - 1 is
    the largest bound without them."""
    xs = _pell_branch_x(10 ** 300)
    assert len(xs) == 392
    for x in xs:
        for bound in (x - 1, x):
            _check_pell(bound, _pell_set_and_sort(bound))


@given(st.integers(1, 300).flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d - 1)))
@example(1)
@example(2)
@example(10 ** 300)
def test_pell_order_matches_set_and_sort(bound):
    """Bounds in [1, 10^300], drawn digit count first, so that long bounds
    are as likely as short ones."""
    _check_pell(bound, _pell_set_and_sort(bound))


def test_pell_against_brute_force():
    _check_pell(300, _pell_brute(300))


def test_the_pell_equation_comes_from_the_lattice():
    """The Pell equation from the Mukai lattice, not as a literal: v and s
    span a saturated sublattice (the gcd of the 2x2 minors of their
    coordinates is 1) with Gram matrix diag(4, -2), so the (-2)-classes
    x*v + y*s are the solutions of 4x^2 - 2y^2 = -2.  Over |x| <= 1000,
    and |y| past where 4x^2 - 2y^2 < -2 for every such x, the classes of
    square -2, each also squared with ``mukai_pairing``, are exactly the
    pairs that ``pell --bound 1000 --json`` lists."""
    v, s = HILB_VECTOR, SPHERICAL_VECTOR
    gram = hyperbolic_lattice(v, s)
    assert gram == ((4, 0), (0, -2))
    minors = [v[i] * s[j] - v[j] * s[i] for i, j in ((0, 1), (0, 2), (1, 2))]
    assert gcd(*minors) == 1
    bound, y_max = 1000, isqrt(2 * 1000 ** 2 + 1) + 1
    # with gram[0][1] == 0 the square is gram[0][0] x^2 + gram[1][1] y^2: the y
    # of the box by their term, then for each x the y completing it to -2
    by_term = {}
    for y in range(-y_max, y_max + 1):
        by_term.setdefault(gram[1][1] * y * y, []).append(y)
    spherical = {(x, y) for x in range(-bound, bound + 1)
                 for y in by_term.get(-2 - gram[0][0] * x * x, ())}
    assert all(mukai_pairing(w, w) == -2
               for w in (combination((x, v), (y, s)) for x, y in spherical))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(["pell", "--bound", str(bound), "--json"]) == 0
    values = {r["label"]: int(r["value"]) for r in json.loads(out.getvalue())["results"]}
    listed = [(values[f"x[{i}]"], values[f"y[{i}]"]) for i in range(values["solution count"])]
    assert sorted(spherical) == listed


def test_pell_recurrence_preserves_the_form():
    for x, y in _pell_signed(10 ** 4):
        assert 2 * x * x - y * y == -1
        x2, y2 = 3 * x + 2 * y, 4 * x + 3 * y
        assert 2 * x2 * x2 - y2 * y2 == -1


def test_no_isotropic_classes_on_the_pell_conic():
    # 4x^2 - 2y^2 = 0 together with 2x^2 - y^2 = -1 is impossible over Z
    for x, y in _pell_signed(10 ** 5):
        assert 4 * x * x - 2 * y * y != 0


def effectivity_of_pell_class(x: int, y: int) -> Fraction:
    """The rational x + y/2, the effectivity ratio of the class with Pell
    coordinates (x, y) against the Hilbert-cube class at the deepest wall
    point; an oracle for the Pell row of the CLI."""
    if 2 * x * x - y * y != -1:
        raise ValueError(f"({x}, {y}) does not solve 2x^2 - y^2 = -1")
    return x + Fraction(y, 2)


def test_negative_rank_solutions_are_never_effective():
    # the solutions with x < 0 are the images (-x, +-y) of the branch
    solutions = [(-x, sy) for x, y in pell_spherical_classes(10 ** 6) for sy in (-y, y)]
    assert len(solutions) == 16
    for x, y in solutions:
        assert effectivity_of_pell_class(x, y) < 0


def test_effectivity_of_pell_class_guards_input():
    """The oracle agrees with the wall ratio against v at beta = -2."""
    for x, y in _pell_signed(100):
        u = combination((x, HILB_VECTOR), (y, SPHERICAL_VECTOR))
        assert effectivity_of_pell_class(x, y) == central_charges(u, HILB_VECTOR, -2)[2]
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
    assert a == combination((1, v), (-1, s))
    assert mukai_pairing(s, a) == 2
    assert mukai_pairing(a, combination((1, v), (-1, a))) == 2
    # consistent sign propagation leaves the dimensions unchanged
    minus_s = combination((-1, s))
    assert mukai_pairing(minus_s, combination((1, v), (-1, minus_s))) == 2


def test_kuranishi_identity():
    """Only the minus sign puts u1^2 - u2*u3 in the ideal; u2_sign = 0 leaves
    a1^2*b1^2, which is not a multiple of a1*b1 + a2*b2."""
    assert kuranishi_identity_check() is True
    for sign in range(-3, 4):
        assert kuranishi_identity_check(u2_sign=sign) is (sign == -1), sign


# ---------------------------------------------------------------------------
# symmetric-product calculus
# ---------------------------------------------------------------------------


def _monomial(i):
    """theta^i * eta^(3-i) on the monomial basis."""
    return tuple(int(i == j) for j in range(4))


def test_monomial_counts():
    """ACGH ch. VIII: theta^i * eta^(3-i) = g!/(g-i)! on the third symmetric
    product, here the explicit product g(g-1)...(g-i+1)."""
    for g in (3, 4, 7, 10, 25):
        for i in range(4):
            value = sym_prod_eval(g, _monomial(i))
            assert value == prod(g - k for k in range(i)) and type(value) is int
    assert sym_prod_eval(10, _monomial(3)) == 720
    assert sym_prod_eval(10, _monomial(0)) == 1


_BIG = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))


@given(st.integers(3, 5000), st.tuples(_BIG, _BIG, _BIG, _BIG))
def test_sym_prod_eval_matches_the_fraction_sum(genus, coeffs):
    value = sym_prod_eval(genus, coeffs)
    assert type(value) is Fraction
    assert value == sum(c * perm(genus, i) for i, c in enumerate(coeffs))
    numerators = tuple(c.numerator for c in coeffs)
    value = sym_prod_eval(genus, numerators)
    assert type(value) is int
    assert value == sum(c * perm(genus, i) for i, c in enumerate(numerators))


def test_monomial_ratio_is_a_falling_factorial():
    g = 10
    for i in range(3):
        low = sym_prod_eval(g, _monomial(i))
        high = sym_prod_eval(g, _monomial(i + 1))
        assert high == (g - i) * low


def _cubed(t, e):
    """(t*theta + e*eta)^3 on the monomial basis, multiplied out factor by
    factor; index i holds the coefficient of theta^i * eta^(3-i)."""
    coeffs = [1]
    for _ in range(3):
        coeffs = [(coeffs[i - 1] * t if i else 0) + (coeffs[i] * e if i < len(coeffs) else 0)
                  for i in range(len(coeffs) + 1)]
    return tuple(coeffs)


def test_cube_of_the_branch_class():
    cube = cli._THETA_MINUS_6ETA_CUBED
    assert cube == _cubed(1, -6) == (-216, 108, -18, 1)
    assert all(type(c) is int for c in cube)
    assert _cubed(Fraction(1, 2), Fraction(-3, 7)) == tuple(
        comb(3, i) * Fraction(1, 2) ** i * Fraction(-3, 7) ** (3 - i) for i in range(4))
    assert sym_prod_eval(10, cube) == -36
    # term by term: -216*1 + 108*10 - 18*90 + 720
    assert (-216 * 1 + 108 * 10 - 18 * 90 + 720) == -36


def test_sym_prod_linearity_and_guards():
    g = 9
    x, y = _cubed(1, 2), _monomial(2)
    assert sym_prod_eval(g, tuple(a + b for a, b in zip(x, y))) == \
        sym_prod_eval(g, x) + sym_prod_eval(g, y)
    assert sym_prod_eval(g, tuple(3 * c for c in y)) == 3 * sym_prod_eval(g, y)
    for genus in (2, 0, -5):
        with pytest.raises(ValueError, match="^the calculus needs genus >= 3$"):
            sym_prod_eval(genus, y)


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

import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epwcalc.hodge_ring import (
    BASIS,
    C2_SQUARED_OVER_C4,
    CHERN_NUMBER_C2C4,
    CHERN_NUMBER_C6,
    DEGREE8_RELATION,
    DEGREE10_RELATIONS,
    TOP_INTEGRALS,
    _rewrite,
    chern_numbers_from_ring,
    derive_degree8_relation,
    derive_degree10_relations,
    integrate,
    multiply,
    verify_independence_degree6,
)
from epwcalc.lagrangian import DEGREE6_FORM
from epwcalc.qfield import ONE, ZERO, ParametricScalar
from fujiki_oracle import AbstractClassSpace, polarized_integral

Q = ParametricScalar(1, 1)

#: classes are dicts from monomials (i, j) of h^i * c2^j to coefficients
C2 = {(0, 1): ONE}
#: c4 = x*h^4 + y*h^2*c2
C4 = dict(zip(((4, 0), (2, 1)), DEGREE8_RELATION))
#: the degree-6 basis, in the order of ``DEGREE6_FORM``
DEGREE6 = ((3, 0), (1, 1))


def h_power(k):
    return {(k, 0): ONE}


def degree(monomial):
    i, j = monomial
    return 2 * i + 4 * j


def combination(*terms):
    """sum(s * x for s, x in terms) over classes x, written out here so
    that the tests do not lean on the ring's own ``_combine``."""
    total = {}
    for s, x in terms:
        for monomial, c in x.items():
            total[monomial] = total.get(monomial, ZERO) + s * c
    return {monomial: c for monomial, c in total.items() if c}


def _random_q(rng):
    return Fraction(rng.randint(1, 60), rng.randint(1, 12))


def test_basis_shape():
    assert len(BASIS) == 10
    assert [sum(degree(m) == d for m in BASIS) for d in range(0, 13, 2)] == [1, 1, 2, 2, 2, 1, 1]
    assert {m for m in BASIS if degree(m) == 6} == set(DEGREE6)


def test_top_integrals_at_q4():
    assert integrate(multiply(h_power(3), h_power(3))).evaluate(4) == 960
    assert integrate(multiply(multiply(h_power(2), C2), h_power(2))).evaluate(4) == 1728
    assert integrate(multiply({(1, 1): ONE}, h_power(3))).evaluate(4) == 1728
    assert integrate(multiply(multiply(C2, C2), h_power(2))).evaluate(4) == 4800
    assert integrate(multiply(C4, h_power(2))).evaluate(4) == 1920


def test_degree8_relation_solver():
    x, y = DEGREE8_RELATION
    assert x == -160 / Q ** 2
    assert y == 80 / (3 * Q)
    assert derive_degree8_relation(4) == (Fraction(-10), Fraction(20, 3))
    assert derive_degree8_relation(1) == (Fraction(-160), Fraction(80, 3))
    with pytest.raises(ValueError):
        derive_degree8_relation(0)


def test_degree10_relations():
    r1, r2, r3 = DEGREE10_RELATIONS
    assert r1 == 36 / (5 * Q)
    assert r2 == 80 / Q ** 2
    assert r3 == 32 / Q ** 2
    assert derive_degree10_relations(4) == (Fraction(9, 5), Fraction(5), Fraction(2))
    with pytest.raises(ValueError):
        derive_degree10_relations(0)


def test_degree8_relation_against_pairings():
    """The solved c4 expansion must reproduce both defining pairings for
    arbitrary q, not just the ones used to solve."""
    rng = random.Random(5150)
    for _ in range(20):
        q = _random_q(rng)
        assert integrate(multiply(C4, h_power(2))).evaluate(q) == 480 * q
        assert integrate(multiply(C4, C2)).evaluate(q) == CHERN_NUMBER_C2C4


def test_c2_squared_is_5_halves_c4():
    assert C2_SQUARED_OVER_C4 == Fraction(5, 2)
    assert multiply(C2, C2) == combination((Fraction(5, 2), C4))


def test_c2_squared_coefficients():
    prod = multiply(C2, C2)
    assert prod == {(4, 0): -400 / Q ** 2, (2, 1): 200 / (3 * Q)}


def test_chern_numbers_q_independent():
    rng = random.Random(777)
    for _ in range(20):
        q = _random_q(rng)
        assert chern_numbers_from_ring(q) == (36800, CHERN_NUMBER_C2C4, CHERN_NUMBER_C6)
    with pytest.raises(ValueError):
        chern_numbers_from_ring(-4)


def test_degree6_form_symbolic():
    """The top pairing on (h^3, h*c2, eta), as stated: the eta row is data."""
    assert DEGREE6_FORM == ((15 * Q ** 3, 108 * Q ** 2, 0),
                            (108 * Q ** 2, 1200 * Q, 0),
                            (0, 0, 4))


def test_degree6_form_block_is_the_ring_pairing():
    """The (h^3, h*c2) block of ``DEGREE6_FORM``, stated from
    ``TOP_INTEGRALS``, is the ring's top pairing of the two basis classes,
    whose products go through the degree-8 and degree-10 relations."""
    block = tuple(tuple(integrate(multiply({x: ONE}, {y: ONE})) for y in DEGREE6)
                  for x in DEGREE6)
    assert block == tuple(row[:2] for row in DEGREE6_FORM[:2])


def test_independence_gram_determinant():
    ok, det = verify_independence_degree6(4)
    assert ok and det == 1622016
    rng = random.Random(31)
    for _ in range(10):
        q = _random_q(rng)
        ok, det = verify_independence_degree6(q)
        assert ok and det == 6336 * q ** 4
    with pytest.raises(ValueError):
        verify_independence_degree6(0)
    with pytest.raises(ValueError):
        verify_independence_degree6(Fraction(-1, 3))


_DIGITS_30 = st.integers(10 ** 29, 10 ** 30 - 1)


@given(st.one_of(_DIGITS_30, st.builds(Fraction, _DIGITS_30, _DIGITS_30)))
@example(10 ** 29 + 7)
@example(Fraction(10 ** 30 - 1, 10 ** 29 + 3))
def test_gram_determinant_matches_the_fraction_arithmetic(q):
    """At 30-digit q, against g11*g22 - g12^2 in Fraction arithmetic."""
    (g11, g12, _), (_, g22, _), _ = DEGREE6_FORM
    expected = g11.evaluate(q) * g22.evaluate(q) - g12.evaluate(q) ** 2
    ok, det = verify_independence_degree6(q)
    assert type(det) is Fraction and det == expected == 6336 * Fraction(q) ** 4 and ok


def _random_subring_class(rng, d):
    """A random class of degree d, homogeneous in q: for some W the
    coefficient of h^i * c2^j is a multiple of q^(W - i/2).  Within one
    degree i has a fixed parity, so every power is an integer."""
    top = rng.randint(-2, 2)
    return combination(*((rng.randint(-5, 5) * Q ** (top - m[0] // 2), {m: ONE})
                         for m in BASIS if degree(m) == d))


def test_commutative_and_associative_on_the_h_c2_subring():
    rng = random.Random(4242)
    for _ in range(25):
        degrees = rng.choice([(2, 4, 4), (2, 2, 4), (4, 4, 4), (2, 4, 6), (2, 2, 2)])
        x, y, z = (_random_subring_class(rng, d) for d in degrees)
        assert multiply(x, y) == multiply(y, x)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


#: every basis class of positive degree, with its monomial
BASIS_CLASSES = [(m, {m: ONE}) for m in sorted(BASIS) if degree(m)]


def _product(x, y):
    """multiply(x, y), or None where it raises (above the top degree)."""
    try:
        return multiply(x, y)
    except ValueError:
        return None


def test_commutative_on_basis_classes():
    for (_, x), (_, y) in product(BASIS_CLASSES, repeat=2):
        assert _product(x, y) == _product(y, x)


def test_products_depend_only_on_the_monomial():
    """Two pairs of basis classes with the same monomial give the same
    product."""
    by_monomial = {}
    for (ma, x), (mb, y) in product(BASIS_CLASSES, repeat=2):
        if degree(ma) + degree(mb) <= 12:
            monomial = tuple(a + b for a, b in zip(ma, mb))
            by_monomial.setdefault(monomial, []).append(multiply(x, y))
    for monomial, products in by_monomial.items():
        assert all(p == products[0] for p in products), (monomial, products)


def test_associative_where_both_bracketings_are_defined():
    checked = 0
    for (_, x), (_, y), (_, z) in product(BASIS_CLASSES, repeat=3):
        xy, yz = _product(x, y), _product(y, z)
        left = None if xy is None else _product(xy, z)
        right = None if yz is None else _product(x, yz)
        if left is not None and right is not None:
            assert left == right
            checked += 1
    assert checked > 50


def test_terms_of_different_weight_do_not_add():
    """(h^3 + h*c2)^2 puts h^3*h^3 = h^6 and h^3*h*c2 = (36/(5q))*h^6 on
    the one monomial h^6, with weights in q one apart."""
    x = {(3, 0): ONE, (1, 1): ONE}
    message = "cannot add terms of weights 0 and -1 in q"
    with pytest.raises(ValueError, match=re.escape(message)):
        multiply(x, x)


def test_degree_bounds():
    with pytest.raises(ValueError):
        multiply(h_power(4), h_power(3))
    with pytest.raises(ValueError):
        integrate(h_power(5))


def test_classes_of_mixed_degree():
    """A class is a dict of monomials and need not be homogeneous:
    ``integrate`` takes only degree-12 monomials, ``multiply`` raises as
    soon as one product monomial passes degree 12, and the empty class is
    0."""
    assert integrate({}) == 0
    assert integrate({(6, 0): 3 * Q}) == 45 * Q ** 4
    for x in ({(6, 0): ONE, (5, 0): ONE}, {(0, 0): ONE, (6, 0): ONE}, {(0, 1): ONE}):
        with pytest.raises(ValueError):
            integrate(x)
    assert multiply({(0, 0): ONE, (1, 0): ONE}, h_power(5)) == {(5, 0): ONE, (6, 0): ONE}
    for x, y in (({(1, 0): ONE, (6, 0): ONE}, h_power(1)),
                 ({(0, 0): ONE, (5, 0): ONE}, {(1, 1): ONE}),
                 (h_power(3), {(2, 0): ONE, (2, 1): ONE})):
        with pytest.raises(ValueError, match="exceeds the top degree 12"):
            multiply(x, y)


def test_a_product_of_degree_14_names_its_degree():
    """Degree 14, the first past the top, raised with its degree, on each
    power of c2 it can carry: h^7, h^5*c2 and h^3*c2^2."""
    for x, y in ((h_power(6), h_power(1)), (h_power(4), {(1, 1): ONE}),
                 ({(1, 1): ONE}, {(2, 1): ONE})):
        with pytest.raises(ValueError, match="^product degree 14 exceeds the top degree 12$"):
            multiply(x, y)


def test_products_leave_their_factors_and_the_rewrites_unchanged():
    """Products combine their factors' dicts with the dicts ``_rewrite``
    builds, and a product that wrote into any of them would change what a
    later product reads: after every product of basis classes and a few
    sums, each factor and each rewrite reads as before, and a basis monomial
    still rewrites to itself."""
    monomials = [(i, j) for i in range(7) for j in range(4) if degree((i, j)) <= 12]
    before = {m: dict(_rewrite(*m)) for m in monomials}
    sums = [{(2, 0): ONE, (0, 1): 3 * Q}, {(3, 0): ONE, (1, 1): Q}, {(0, 0): ONE, (1, 0): ONE}]
    classes = [x for _, x in BASIS_CLASSES] + sums
    copies = [dict(x) for x in classes]
    for x, y in product(classes, repeat=2):
        _product(x, multiply(y, {(0, 0): ONE}))
    assert classes == copies
    assert {m: _rewrite(*m) for m in monomials} == before
    assert all(_rewrite(*m) == {m: ONE} for m in BASIS)


def test_scalar_and_linear_structure():
    """The product is bilinear over single terms in q, and the class 1 is
    its unit."""
    x, y, z = {(2, 0): ONE, (0, 1): 3 * Q}, {(2, 0): ONE, (0, 1): -Q}, {(0, 1): 2 * Q}
    assert multiply(h_power(0), x) == multiply(x, h_power(0)) == x
    assert multiply(x, combination((Q, y))) == combination((Q, multiply(x, y)))
    assert multiply(x, combination((1, y), (1, z))) == \
        combination((1, multiply(x, y)), (1, multiply(x, z)))
    assert multiply(x, combination((1, x), (-1, x))) == {}


def test_degree0_factors_scale_on_either_side():
    """s*1 times a basis class x, with 1 on the left or on the right, is s*x:
    the monomial (0, 0) adds nothing to the exponents, and a zero s gives
    the empty class."""
    for s in (0, 1, 3, Q, 1 / Q):
        unit = combination((s, h_power(0)))
        for _, x in BASIS_CLASSES:
            assert multiply(unit, x) == multiply(x, unit) == combination((s, x))


def test_ring_matches_fujiki_for_h_arguments():
    """integrate(alpha * h^k) must agree with the matching-sum integral
    when every degree-2 argument is h itself."""
    rng = random.Random(606)
    for _ in range(10):
        q = _random_q(rng)
        space = AbstractClassSpace.with_square("h", q)
        assert integrate(multiply(C2, h_power(4))).evaluate(q) == \
            polarized_integral("c2", ["h"] * 4, space)
        assert integrate(multiply(multiply(C2, C2), h_power(2))).evaluate(q) == \
            polarized_integral("c2^2", ["h"] * 2, space)
        assert integrate(multiply(C4, h_power(2))).evaluate(q) == \
            polarized_integral("c4", ["h"] * 2, space)
        assert integrate(h_power(6)).evaluate(q) == \
            polarized_integral("1", ["h"] * 6, space)


def test_hirzebruch_riemann_roch_for_k3_cube():
    """Oracle (Ellingsrud-Goettsche-Lehn): on K3^[3], chi(L) = binom(q/2 + 4, 3)
    for a line bundle of BBF square q.  With c1 = 0 and no odd classes,
    chi(L) = integral of e^h * td, whose td terms are 1, c2/12,
    (3c2^2 - c4)/720 and (10c2^3 - 9c2c4 + 2c6)/60480; this ties the Fujiki
    constants and the stored Chern numbers c2*c4 and c6 to each other."""
    rng = random.Random(4160)
    h2 = h_power(2)
    td3 = combination((3, multiply(C2, C2)), (-1, C4))
    for _ in range(20):
        q = _random_q(rng)
        h6 = TOP_INTEGRALS["h^6"].evaluate(q)
        h4c2 = TOP_INTEGRALS["h^4*c2"].evaluate(q)
        h2_td3 = integrate(multiply(h2, td3)).evaluate(q)
        c2_cubed, c2_c4, c6 = chern_numbers_from_ring(q)
        chi = h6 / 720 + h4c2 / 288 + h2_td3 / 1440 \
            + (10 * c2_cubed - 9 * c2_c4 + 2 * c6) / 60480
        x = q / 2 + 4
        assert chi == x * (x - 1) * (x - 2) / 6

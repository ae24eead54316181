import random
import re
from fractions import Fraction
from itertools import product

import pytest

from epwcalc.hodge_ring import (
    BASIS,
    CHERN_NUMBER_C2C4,
    CHERN_NUMBER_C6,
    DEGREE6_FORM,
    DEGREE8_RELATION,
    DEGREE10_RELATIONS,
    TOP_INTEGRALS,
    HodgeClass,
    basis_class,
    c2_class,
    c2_squared_class,
    c4_class,
    chern_numbers_from_ring,
    derive_degree8_relation,
    derive_degree10_relations,
    h_power,
    integrate,
    multiply,
    verify_independence_degree6,
)
from epwcalc.qfield import ZERO, ParametricScalar
from fujiki_oracle import AbstractClassSpace, polarized_integral

Q = ParametricScalar.q()


def zero_class(degree):
    return HodgeClass(degree, (ZERO,) * len(BASIS[degree]))


def _random_q(rng):
    return Fraction(rng.randint(1, 60), rng.randint(1, 12))


def test_basis_shape():
    assert [len(BASIS[d]) for d in sorted(BASIS)] == [1, 1, 2, 2, 2, 1, 1]


def test_top_integrals_at_q4():
    assert integrate(multiply(h_power(3), h_power(3))).evaluate(4) == 960
    assert integrate(multiply(multiply(h_power(2), c2_class()), h_power(2))).evaluate(4) == 1728
    assert integrate(multiply(basis_class(6, "h*c2"), h_power(3))).evaluate(4) == 1728
    assert integrate(multiply(multiply(c2_class(), c2_class()), h_power(2))).evaluate(4) == 4800
    assert integrate(multiply(c4_class(), h_power(2))).evaluate(4) == 1920


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
        c4 = c4_class()
        assert integrate(multiply(c4, h_power(2))).evaluate(q) == 480 * q
        assert integrate(multiply(c4, c2_class())).evaluate(q) == CHERN_NUMBER_C2C4


def test_c2_squared_is_5_halves_c4():
    assert multiply(c2_class(), c2_class()) == c2_squared_class()
    assert c2_squared_class() == Fraction(5, 2) * c4_class()


def test_c2_squared_coefficients():
    prod = multiply(c2_class(), c2_class())
    assert prod.coefficient("h^4") == -400 / Q ** 2
    assert prod.coefficient("h^2*c2") == 200 / (3 * Q)


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
    assert BASIS[6] == ("h^3", "h*c2")
    block = tuple(tuple(integrate(multiply(basis_class(6, x), basis_class(6, y)))
                        for y in BASIS[6]) for x in BASIS[6])
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


def _random_subring_class(rng, degree):
    """A random class of the given degree, homogeneous in q: for some W the
    coefficient of h^i * c2^j is a multiple of q^(W - i/2).  Within one
    degree i has a fixed parity, so every power is an integer."""
    top = rng.randint(-2, 2)
    cls = zero_class(degree)
    for label in BASIS[degree]:
        weight = top - _monomial(label)[0] // 2
        cls = cls + (rng.randint(-5, 5) * Q ** weight) * basis_class(degree, label)
    return cls


def test_commutative_and_associative_on_the_h_c2_subring():
    rng = random.Random(4242)
    for _ in range(25):
        degrees = rng.choice([(2, 4, 4), (2, 2, 4), (4, 4, 4), (2, 4, 6), (2, 2, 2)])
        x, y, z = (_random_subring_class(rng, d) for d in degrees)
        assert multiply(x, y) == multiply(y, x)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


#: every basis class of positive degree
BASIS_CLASSES = [(label, basis_class(d, label)) for d, labels in BASIS.items() if d
                 for label in labels]


def _monomial(label):
    """Exponents of a basis label in (h, c2), read off the label."""
    powers = {"h": 0, "c2": 0}
    for factor in label.split("*"):
        base, _, power = factor.partition("^")
        if base != "1":
            powers[base] += int(power or 1)
    return tuple(powers.values())


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
    for (la, x), (lb, y) in product(BASIS_CLASSES, repeat=2):
        if x.degree + y.degree <= 12:
            monomial = tuple(a + b for a, b in zip(_monomial(la), _monomial(lb)))
            by_monomial.setdefault(monomial, {})[la, lb] = multiply(x, y)
    for monomial, products in by_monomial.items():
        assert len(set(products.values())) == 1, (monomial, products)


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
    the one label h^6, with weights in q one apart."""
    x = h_power(3) + basis_class(6, "h*c2")
    message = "cannot add 1 and 36/(5*q): terms of different weight in q"
    with pytest.raises(ValueError, match=re.escape(message)):
        multiply(x, x)


def test_degree_bounds():
    with pytest.raises(ValueError):
        multiply(h_power(4), h_power(3))
    with pytest.raises(ValueError):
        integrate(h_power(5))
    with pytest.raises(ValueError):
        basis_class(4, "h^3")
    with pytest.raises(ValueError):
        HodgeClass(5, ())


def test_scalar_and_linear_structure():
    x = h_power(2) + 3 * c2_class()
    assert x - x == zero_class(4)
    assert (Q * x).coefficient("c2") == 3 * Q
    assert multiply(h_power(0), x) == x
    assert 2 * x == x + x
    with pytest.raises(ValueError):
        x + h_power(3)


def test_degree0_factors_scale_on_either_side():
    """s*1 times a basis class x, with 1 on the left or on the right, is s*x:
    the label "1" has exponents (0, 0), so the monomial loop covers it."""
    for s in (0, 1, 3, Q, 1 / Q):
        unit = s * h_power(0)
        for degree in range(2, 13, 2):
            for label in BASIS[degree]:
                x = basis_class(degree, label)
                assert multiply(unit, x) == multiply(x, unit) == s * x


def test_ring_matches_fujiki_for_h_arguments():
    """integrate(alpha * h^k) must agree with the matching-sum integral
    when every degree-2 argument is h itself."""
    rng = random.Random(606)
    for _ in range(10):
        q = _random_q(rng)
        space = AbstractClassSpace.with_square("h", q)
        assert integrate(multiply(c2_class(), h_power(4))).evaluate(q) == \
            polarized_integral("c2", ["h"] * 4, space)
        assert integrate(multiply(c2_squared_class(), h_power(2))).evaluate(q) == \
            polarized_integral("c2^2", ["h"] * 2, space)
        assert integrate(multiply(c4_class(), h_power(2))).evaluate(q) == \
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
    for _ in range(20):
        q = _random_q(rng)
        h6 = TOP_INTEGRALS["h^6"].evaluate(q)
        h4c2 = TOP_INTEGRALS["h^4*c2"].evaluate(q)
        h2_td3 = integrate(3 * multiply(h2, multiply(c2_class(), c2_class()))
                           - multiply(h2, c4_class())).evaluate(q)
        c2_cubed, c2_c4, c6 = chern_numbers_from_ring(q)
        chi = h6 / 720 + h4c2 / 288 + h2_td3 / 1440 \
            + (10 * c2_cubed - 9 * c2_c4 + 2 * c6) / 60480
        x = q / 2 + 4
        assert chi == x * (x - 1) * (x - 2) / 6

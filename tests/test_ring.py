import random
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
    eta_class,
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


def lambda_class():
    return basis_class(4, "lambda")


def _random_q(rng):
    return Fraction(rng.randint(1, 60), rng.randint(1, 12))


def test_basis_shape():
    assert [len(BASIS[d]) for d in sorted(BASIS)] == [1, 1, 3, 3, 3, 1, 1]


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
    assert prod.coefficient("h^2*lambda") == 0


def test_chern_numbers_q_independent():
    rng = random.Random(777)
    for _ in range(20):
        q = _random_q(rng)
        assert chern_numbers_from_ring(q) == (36800, CHERN_NUMBER_C2C4, CHERN_NUMBER_C6)
    with pytest.raises(ValueError):
        chern_numbers_from_ring(-4)


def test_degree6_form_symbolic():
    """The top pairing on (h^3, h*c2, eta), as read off the ring."""
    assert DEGREE6_FORM == ((15 * Q ** 3, 108 * Q ** 2, 0),
                            (108 * Q ** 2, 1200 * Q, 0),
                            (0, 0, 4))


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


def _homogeneous_class(rng, degree, labels):
    """A random class on ``labels`` of BASIS[degree], homogeneous in q: for
    some W the coefficient of h^i * c2^j * lambda^k is a multiple of q^(W - i/2).
    Within one degree i has a fixed parity, so every power is an integer."""
    top = rng.randint(-2, 2)
    cls = zero_class(degree)
    for label in labels:
        weight = top - _monomial(label)[0] // 2
        cls = cls + (rng.randint(-5, 5) * Q ** weight) * basis_class(degree, label)
    return cls


def _random_subring_class(rng, degree):
    """A random homogeneous class in the subring generated by h and c2."""
    return _homogeneous_class(rng, degree, [label for label in BASIS[degree]
                                            if "lambda" not in label and label != "eta"])


def test_commutative_and_associative_on_the_h_c2_subring():
    rng = random.Random(4242)
    for _ in range(25):
        degrees = rng.choice([(2, 4, 4), (2, 2, 4), (4, 4, 4), (2, 4, 6), (2, 2, 2)])
        x, y, z = (_random_subring_class(rng, d) for d in degrees)
        assert multiply(x, y) == multiply(y, x)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_commutativity_with_eta():
    """Homogeneous classes with an eta component.  eta^2 = 4 carries no q
    while h^6 integrates to 15q^3, so in a product of two degree-6 classes
    eta*eta and h^3*h^3 land on h^6 with weights one apart: of two such
    factors with an eta component, one is a multiple of eta."""
    rng = random.Random(1515)
    for _ in range(25):
        x = _homogeneous_class(rng, 6, BASIS[6])
        eta = (rng.randint(-5, 5) * Q ** rng.randint(-2, 2)) * eta_class()
        for y in (eta, _homogeneous_class(rng, 2, BASIS[2]), _random_subring_class(rng, 6)):
            assert multiply(x, y) == multiply(y, x)


#: every basis class of positive degree, lambda and eta included
BASIS_CLASSES = [(label, basis_class(d, label)) for d, labels in BASIS.items() if d
                 for label in labels]


def _monomial(label):
    """Exponents of a basis label in (h, c2, lambda), read off the label."""
    powers = {"h": 0, "c2": 0, "lambda": 0}
    for factor in label.replace("eta", "h*lambda").split("*"):
        base, _, power = factor.partition("^")
        if base != "1":
            powers[base] += int(power or 1)
    return tuple(powers.values())


def _product(x, y):
    """multiply(x, y), or None where it raises."""
    try:
        return multiply(x, y)
    except ValueError:
        return None


def test_commutative_on_basis_classes():
    for (_, x), (_, y) in product(BASIS_CLASSES, repeat=2):
        assert _product(x, y) == _product(y, x)


def test_products_depend_only_on_the_monomial():
    """Two pairs of basis classes with the same monomial give the same
    product, or both raise."""
    by_monomial = {}
    for (la, x), (lb, y) in product(BASIS_CLASSES, repeat=2):
        if x.degree + y.degree <= 12:
            monomial = tuple(a + b for a, b in zip(_monomial(la), _monomial(lb)))
            by_monomial.setdefault(monomial, {})[la, lb] = _product(x, y)
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


def test_eta_pairings():
    # eta is orthogonal to the rest of degree 6 and has square 4
    assert integrate(multiply(eta_class(), h_power(3))) == 0
    assert integrate(multiply(eta_class(), basis_class(6, "h*c2"))) == 0
    assert integrate(multiply(eta_class(), eta_class())) == 4
    assert multiply(eta_class(), eta_class()) == (4 / (15 * Q ** 3)) * h_power(6)


def test_lambda_products():
    assert multiply(h_power(1), lambda_class()) == eta_class()
    assert multiply(h_power(1), eta_class()) == basis_class(8, "h^2*lambda")
    assert multiply(h_power(2), lambda_class()) == basis_class(8, "h^2*lambda")


def test_pairing_only_errors():
    undetermined = [
        (lambda_class(), lambda_class()),
        (c2_class(), lambda_class()),
        (c2_class(), eta_class()),
        (h_power(2), eta_class()),
        (basis_class(8, "h^2*lambda"), h_power(1)),
        (lambda_class(), h_power(3)),
    ]
    for x, y in undetermined:
        with pytest.raises(ValueError, match="pairing-only"):
            multiply(x, y)


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
    the label "1" has exponents (0, 0, 0), so the monomial loop covers it."""
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

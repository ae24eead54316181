import random
from fractions import Fraction

import pytest

from epwcalc import lagrangian
from epwcalc.fujiki import AbstractClassSpace, polarized_integral
from epwcalc.hodge_ring import TOP_INTEGRALS, basis_class, c2_class, h_power, integrate, multiply
from epwcalc.lagrangian import (
    EPW_DEGREE,
    EPW_Q,
    disambiguate_involution_case,
    eta_coefficient,
    fixed_locus_invariants,
    hodge_symmetry_relation,
    project_lagrangian_class,
    self_intersection,
)


def test_projection_reference_values():
    assert project_lagrangian_class(720, 4) == (Fraction(15, 8), Fraction(-5, 8))
    assert project_lagrangian_class(72, 1) == (12, -1)
    assert project_lagrangian_class(0, 4) == (0, 0)
    with pytest.raises(ValueError):
        project_lagrangian_class(720, 0)
    with pytest.raises(ValueError):
        project_lagrangian_class(720, -4)


def _oracle_projection(degree, q):
    """Independent derivation: solve the two defining linear conditions
    (orthogonality to h*sigma*sigbar and the h^3-degree) by Cramer's rule
    on matching-sum integrals."""
    degree, q = Fraction(degree), Fraction(q)
    space = AbstractClassSpace.polarized(q, sigma_pairing=Fraction(7, 3))
    # orthogonality row: [W] . (h sigma sigbar) = a*(h^4 s sb) + b*(c2 h^2 s sb) = 0
    m11 = polarized_integral("1", ["h"] * 4 + ["sigma", "sigbar"], space)
    m12 = polarized_integral("c2", ["h", "h", "sigma", "sigbar"], space)
    # degree row: [W] . h^3 = a*h^6 + b*h^4c2 = degree
    m21 = TOP_INTEGRALS["h^6"].evaluate(q)
    m22 = TOP_INTEGRALS["h^4*c2"].evaluate(q)
    det = m11 * m22 - m12 * m21
    return (-m12 * degree) / det, (m11 * degree) / det


def test_projection_against_linear_conditions():
    rng = random.Random(2718)
    for _ in range(25):
        degree = Fraction(rng.randint(-300, 300), rng.randint(1, 7))
        q = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        assert project_lagrangian_class(degree, q) == _oracle_projection(degree, q)


def test_projection_recovers_the_degree():
    rng = random.Random(161)
    for _ in range(15):
        degree = Fraction(rng.randint(-200, 200))
        q = Fraction(rng.randint(1, 25))
        a, b = project_lagrangian_class(degree, q)
        h3_pairing = a * TOP_INTEGRALS["h^6"].evaluate(q) \
            + b * TOP_INTEGRALS["h^4*c2"].evaluate(q)
        assert h3_pairing == degree


def test_self_intersection_reference_values():
    assert self_intersection(Fraction(15, 8), Fraction(-5, 8), 0, 4) == 1200
    assert self_intersection(1, 0, 0, 4) == 960
    for q in (1, 4, Fraction(7, 2)):
        assert self_intersection(0, 0, 1, q) == 4
    with pytest.raises(ValueError):
        self_intersection(1, 1, 1, 0)


def test_self_intersection_scales_quadratically():
    rng = random.Random(55)
    for _ in range(10):
        a, b, c = (Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3))
        q = Fraction(rng.randint(1, 9))
        t = Fraction(rng.randint(-5, 5))
        assert self_intersection(t * a, t * b, t * c, q) == \
            t ** 2 * self_intersection(a, b, c, q)


def test_eta_coefficient():
    assert eta_coefficient(1200, -1200) == 0
    assert eta_coefficient(1200, -1204) == 1      # hypothetical chi_top
    assert eta_coefficient(1200, -1536) is None   # 4c^2 = 336 has no rational root
    assert eta_coefficient(1200, -1100) is None   # would need 4c^2 < 0
    assert eta_coefficient(0, -9) == Fraction(3, 2)


def test_eta_coefficient_inverts_the_eta_part_of_the_ring():
    """The eta part of (a h^3 + b h c2 + c eta)^2, read back through
    [W]^2 = -chi_top, gives |c| for any a, b, c and q > 0."""
    rng = random.Random(4040)
    for _ in range(40):
        a, b, c = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3))
        q = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        base = self_intersection(a, b, 0, q)
        assert eta_coefficient(base, -self_intersection(a, b, c, q)) == abs(c)


def test_disambiguation_picks_the_natural_action():
    case, c, chi_top = disambiguate_involution_case()
    assert (case, c, chi_top) == ("natural", 0, -1200)
    assert disambiguate_involution_case(EPW_DEGREE, EPW_Q)[0] == "natural"


def test_disambiguation_can_fail():
    # with a degree that makes the base square irrational-incompatible for
    # both Euler characteristics, no case is admissible
    with pytest.raises(ValueError):
        disambiguate_involution_case(7, 4)


def test_fixed_locus_invariants():
    inv = fixed_locus_invariants()
    assert inv.as_tuple() == (-3120, -130, 470, -1200, 5760)
    assert (inv.case, inv.eta) == ("natural", 0)
    assert inv.c1c2 / 24 == inv.chi_structure
    assert hodge_symmetry_relation(inv.chi_structure, inv.chi_one_forms, inv.c3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_multiple_enters_through_the_chern_classes(monkeypatch, k):
    """With K_W = k*h|, c1*c2 and K^3 equal the ring products of c1 = -k*h
    and c2 = (c2| + k^2*h^2)/2 with the class of W."""
    monkeypatch.setattr(lagrangian, "CANONICAL_MULTIPLE", k)
    a, b = project_lagrangian_class(EPW_DEGREE, EPW_Q)
    w = a * h_power(3) + b * basis_class(6, "h*c2")
    c1 = -k * h_power(1)
    c2 = Fraction(1, 2) * (c2_class() + k ** 2 * h_power(2))

    def on_w(x):
        return integrate(multiply(x, w)).evaluate(EPW_Q)

    inv = fixed_locus_invariants()
    assert inv.c1c2 == on_w(multiply(c1, c2))
    assert inv.canonical_cube == on_w(multiply(multiply(-c1, -c1), -c1))
    assert inv.chi_structure == inv.c1c2 / 24


def test_hodge_symmetry_relation():
    assert hodge_symmetry_relation(-130, 470, -1200)
    assert not hodge_symmetry_relation(-130, 470, -1000)
    assert hodge_symmetry_relation(0, 0, 0)
    assert hodge_symmetry_relation(Fraction(1, 2), 0, 1)

"""The EPW inputs from Schubert calculus on Gr(3, 6): the degree 720, q = 4
and K_W = 2h, which ``lagrangian`` and ``hodge_ring`` hold as literals,
derived by localization (``schubert_oracle``) and checked against the
literature values, pinned here as literals (Iliev, Kapustka, Kapustka and
Ranestad, "EPW cubes", J. reine angew. Math. 2019).

The EPW cube is a double cover of Z^{>=2} = {dim(A ^ F) >= 2} in Gr(3, 6),
and its involution fixes W_A = Z^{>=3}, with h the Plucker class sigma_1.
So int h^6 = 2 int_{Z>=2} sigma_1^6, which is 15 q^3 (Fujiki), and
h^3 . [W] = int_{Z>=3} sigma_1^3.  The double EPW sextic (K3^[2], O'Grady)
is the control with a known answer: a double cover of the sextic
Y^{>=1} in P^5, whose involution fixes the surface Y^{>=2} of degree 40
with K = 3H.

Every integral is taken at two sets of torus weights, which must agree.
The module does not need pytest: ``PYTHONPATH=src python
tests/test_epw_inputs.py`` runs its tests under any interpreter."""

from fractions import Fraction

from schubert_oracle import (
    CROSS_CHECK_WEIGHTS,
    EPW_CUBE,
    EPW_SEXTIC,
    WEIGHTS,
    Grassmannian,
    q_21,
    q_321,
    q_pair,
)

from epwcalc import hodge_ring, lagrangian
from epwcalc.fujiki import fujiki_constant

#: the Fujiki constant of K3^[2]: int a^4 = 3 q(a)^2
K3_2_FUJIKI = 3


def _each(locus):
    """The Grassmannian of ``locus`` at each weight set, and the locus's kernel rank."""
    k, rank = locus
    return [(Grassmannian(k, weights), rank) for weights in (WEIGHTS, CROSS_CHECK_WEIGHTS)]


def _root(value: Fraction, n: int) -> Fraction:
    """The positive rational n-th root of ``value``, which must have one."""
    root = Fraction(round(value.numerator ** (1 / n)), round(value.denominator ** (1 / n)))
    assert root ** n == value, (value, n)
    return root


def test_localization_gives_the_degree_of_the_grassmannian():
    """deg Gr(3, 6) = 42 and deg P^5 = 1; a class below the top degree
    integrates to 0; F has rank 10 at every fixed point."""
    for gr, _ in _each(EPW_CUBE):
        assert gr.integral(lambda p: p.sigma1 ** 9) == 42
        assert gr.integral(lambda p: p.sigma1 ** 8) == 0
        assert {len(p.f_weights) for p in gr.points} == {10}
    for gr, _ in _each(EPW_SEXTIC):
        assert gr.integral(lambda p: p.sigma1 ** 5) == 1
        assert {len(p.f_weights) for p in gr.points} == {10}


def test_the_staircase_classes_follow_pragaczs_pair_rule():
    """Q~_21 and the two-part classes inside Q~_321 are Pragacz's Q~_ij."""
    for gr, _ in _each(EPW_CUBE) + _each(EPW_SEXTIC):
        for p in gr.points:
            assert q_21(p.c) == q_pair(p.c, 2, 1)
            assert q_pair(p.c, 3, 1) == p.c[3] * p.c[1] - 2 * p.c[4]
            assert q_pair(p.c, 3, 2) == p.c[3] * p.c[2] - 2 * p.c[4] * p.c[1] + 2 * p.c[5]


def test_q_is_4_from_the_degree_of_the_double_cover():
    """int sigma_1^6 . Q~_21 = 480, so int h^6 = 960 = 15 q^3 and q = 4."""
    for gr, _ in _each(EPW_CUBE):
        assert gr.integral(lambda p: p.sigma1 ** 6 * q_21(p.c)) == 480
    top = 2 * 480
    assert hodge_ring.TOP_INTEGRALS["h^6"].evaluate(hodge_ring.EPW_Q) == top
    assert _root(Fraction(top) / fujiki_constant("1"), 3) == hodge_ring.EPW_Q == 4


def test_the_fixed_locus_has_degree_720():
    """int sigma_1^3 . Q~_321 = 720 = h^3 . [W]."""
    for gr, _ in _each(EPW_CUBE):
        assert gr.integral(lambda p: p.sigma1 ** 3 * q_321(p.c)) == 720
    assert lagrangian.EPW_DEGREE == 720


def test_the_canonical_class_of_the_fixed_locus_is_2h():
    """c1(F^dual) = 4 sigma_1 and K_Gr = -6 sigma_1; with a kernel of rank 3,
    K_W = -6 sigma_1 + 4 (4 sigma_1 / 2) = 2 sigma_1."""
    for gr, rank in _each(EPW_CUBE):
        assert gr.sigma1_multiple(lambda p: p.c[1]) == 4
        assert gr.sigma1_multiple(lambda p: sum(p.tangent)) == 6
        assert gr.canonical_multiple(rank) == 2 == lagrangian.CANONICAL_MULTIPLE


def test_the_double_epw_sextic_control():
    """On P^5: c1(F^dual) = 6H, the sextic; int h^4 = 2 . 6 = 12 = 3 q^2
    gives q = 2; the fixed surface has degree int H^2 . Q~_21 = 40 and
    K_S = -6H + 3 (6H / 2) = 3H."""
    for gr, rank in _each(EPW_SEXTIC):
        assert gr.sigma1_multiple(lambda p: p.c[1]) == 6
        assert gr.integral(lambda p: p.sigma1 ** 4 * p.c[1]) == 6
        assert gr.integral(lambda p: p.sigma1 ** 2 * q_21(p.c)) == 40
        assert gr.canonical_multiple(rank) == 3
    assert _root(Fraction(2 * 6, K3_2_FUJIKI), 2) == 2


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("ok")

"""Equivariant localization on Gr(k, 6), for the tests: the EPW inputs
(degree 720, q = 4, K_W = 2h) derived from Schubert calculus rather than
typed in.

The torus of diagonal matrices acts on V6 = C^6 with distinct integer
weights w_1, ..., w_6.  Its fixed points on Gr(k, 6) are the coordinate
subspaces U_I, one per k-subset I, and Atiyah-Bott localization gives

    integral of a class a  =  sum over I of  a|_I / e(T_I),

where the tangent space Hom(U, V6/U) at U_I has the weights w_l - w_i
(i in I, l not in I) and sigma_1 = c1(U^dual) restricts to -sum_{i in I} w_i.
With numbers for weights each restriction is an integer, so an integral is
an exact sum of Fractions.  A class of degree dim Gr integrates to the same
number for every choice of weights; the tests check that with two.

The Lagrangian subbundle F of wedge^3 V6 (rank 10) is wedge^2 U ^ V6 on
Gr(3, 6), whose weights are those of wedge^3 U + wedge^2 U (x) V6/U, and
v ^ wedge^2 V6 on P^5 = Gr(1, 6), whose weights are those of
v (x) wedge^2(V6/v).  For a Lagrangian A, the locus {dim(A ^ F) >= r} has
Pragacz's class Q~_(r, ..., 1)(F^dual) (Fulton-Pragacz, LNM 1689):
Q~_1 = c1, Q~_21 = c2 c1 - 2 c3 and
Q~_321 = Q~_3 Q~_21 - Q~_2 Q~_31 + Q~_1 Q~_32, with
Q~_ij = c_i c_j + 2 sum_{m=1}^{j} (-1)^m c_(i+m) c_(j-m).
"""

from fractions import Fraction
from itertools import combinations
from math import prod

#: two sets of distinct integer weights on V6, the second a cross-check
WEIGHTS = (0, 1, 3, 7, 12, 20)
CROSS_CHECK_WEIGHTS = (5, -2, 11, 4, -9, 16)


def _elementary(xs) -> list[int]:
    """e_0, ..., e_n of the numbers xs: the coefficients of prod (1 + x t)."""
    e = [1]
    for x in xs:
        e = [a + x * b for a, b in zip(e + [0], [0] + e)]
    return e


class FixedPoint:
    """U_I restricted: sigma_1, the tangent weights, and the Chern classes
    c_0, ..., c_10 of F^dual (then zeros, so c_(i+m) never runs out)."""

    def __init__(self, subset: frozenset, weights: tuple):
        self.sigma1 = -sum(weights[i] for i in subset)
        self.tangent = [weights[l] - weights[i] for i in subset
                        for l in range(6) if l not in subset]
        meet = 2 if len(subset) == 3 else 1  # wedge^2 U ^ V6, or v ^ wedge^2 V6
        self.f_weights = [sum(weights[a] for a in t) for t in combinations(range(6), 3)
                          if len(subset.intersection(t)) >= meet]
        self.c = _elementary([-x for x in self.f_weights]) + [0] * 6


def q_pair(c, i: int, j: int) -> int:
    """Pragacz's Q~_ij = c_i c_j + 2 sum_{m=1}^{j} (-1)^m c_(i+m) c_(j-m)."""
    return c[i] * c[j] + 2 * sum((-1) ** m * c[i + m] * c[j - m] for m in range(1, j + 1))


def q_21(c) -> int:
    """Q~_21 = c2 c1 - 2 c3: the class of {dim(A ^ F) >= 2}."""
    return c[2] * c[1] - 2 * c[3]


def q_321(c) -> int:
    """Q~_321 = Q~_3 Q~_21 - Q~_2 Q~_31 + Q~_1 Q~_32: the class of {dim(A ^ F) >= 3}."""
    return c[3] * q_21(c) - c[2] * q_pair(c, 3, 1) + c[1] * q_pair(c, 3, 2)


def sym2_dual_chern(a: int, b: int, c: int) -> list[int]:
    """c_0, ..., c_3 of Sym^2 K^dual for K^dual of rank 3 with Chern classes
    a, b and c: the normal bundle of W_A = {dim(A ^ F) >= 3}, with K = A ^ F.
    Its c_1 = 4a is the (r + 1) c1(K^dual) of ``canonical_multiple``."""
    return [1, 4 * a, 5 * (a * a + b), 2 * a ** 3 + 11 * a * b + 7 * c]


class Grassmannian:
    """Gr(k, 6) through its torus-fixed points at one set of weights."""

    def __init__(self, k: int, weights: tuple = WEIGHTS):
        self.dim = k * (6 - k)
        self.points = [FixedPoint(frozenset(subset), weights)
                       for subset in combinations(range(6), k)]

    def integral(self, restriction) -> Fraction:
        """The sum over fixed points of ``restriction(point)`` / e(T_point)."""
        return sum((Fraction(restriction(p), prod(p.tangent)) for p in self.points), Fraction())

    def sigma1_multiple(self, restriction) -> Fraction:
        """m with the degree-2 class ``restriction`` = m sigma_1, read off its
        integral against sigma_1^(dim - 1), since H^2 = Z sigma_1."""
        top = self.dim - 1
        return (self.integral(lambda p: restriction(p) * p.sigma1 ** top)
                / self.integral(lambda p: p.sigma1 ** (top + 1)))

    def canonical_multiple(self, kernel_rank: int) -> Fraction:
        """K of the locus {dim(A ^ F) >= r}, r = ``kernel_rank``, as a multiple
        of sigma_1, by adjunction: its normal bundle is Sym^2 of the dual of
        the kernel K (rank r), so K = K_Gr + (r + 1) c1(K^dual), and
        c1(K^dual) = c1(F^dual)/2 there."""
        canonical = -self.sigma1_multiple(lambda p: sum(p.tangent))
        return canonical + (kernel_rank + 1) * self.sigma1_multiple(lambda p: p.c[1]) / 2


#: W_A = Z^{>=3} in Gr(3, 6), fixed by the involution of the EPW cube (a
#: double cover of Z^{>=2}); the fixed surface Y^{>=2} in P^5 of the double
#: EPW sextic (a double cover of Y^{>=1}): (k, kernel rank on the fixed locus)
EPW_CUBE = (3, 3)
EPW_SEXTIC = (1, 2)

"""The EPW point (q, d) = (4, 720) solved from the fixed locus's Chern
numbers, a route that uses neither the degree nor q as an input.

With eta coefficient 0 and K_W = 2h, the class of W is d times the
degree-1 projection, so [W]^2 = 4d^2/(27q^3) and h*c2 . [W] = 4d/(3q), and
c1*c2(W) = -(h*c2 + 4h^3) . [W] = -4d(1 + 1/(3q)).  [W]^2 = -chi_top
eliminates d:  q(3q + 1)^2 = (c1*c2)^2 / (-12 chi_top),  and then
d^2 = -27 q^3 chi_top / 4.  The left side increases for q > 0 and is not
positive for q <= 0, so the cubic has exactly one real root where the
right side is positive; the tests find its rational roots by the rational
root theorem, in integers.

The natural case, (c1*c2, chi_top) = (-3120, -1200), gives q = 4 and
d = 720 exactly.  The opposite case's (-4176, -1536) gives q = 9/2, which
is not an even integer, so it is the BBF square of no integral class: the
BBF lattice of K3^[3] type is the even K3 lattice plus (-4) on delta.

The module does not need pytest: ``PYTHONPATH=src python
tests/test_epw_point.py`` runs its tests under any interpreter."""

from fractions import Fraction
from math import isqrt

from epwcalc.hodge_ring import EPW_Q
from epwcalc.lagrangian import EPW_DEGREE, fixed_locus_invariants
from epwcalc.llv import FIXED_LOCUS_EULER

#: (c1*c2, chi_top) of the fixed locus in the natural case, as literals
NATURAL = (-3120, -1200)
#: the same for the opposite action: c1*c2 by holomorphic Lefschetz on W
#: with the opposite case's LLV character (ROADMAP.md, open item 6), and
#: chi_top = ``FIXED_LOCUS_EULER["opposite"]``
OPPOSITE = (-4176, -1536)


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, by trial division."""
    n = abs(n)
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def _rational_roots(coeffs: list[int]) -> list[Fraction]:
    """The rational roots of the integer polynomial with these coefficients,
    leading first and nonzero constant: each is +-p/s with p dividing the
    constant and s the leading coefficient."""
    candidates = {sign * Fraction(p, s) for p in _divisors(coeffs[-1])
                  for s in _divisors(coeffs[0]) for sign in (1, -1)}
    roots = []
    for x in sorted(candidates):
        value = 0
        for a in coeffs:
            value = value * x + a
        if value == 0:
            roots.append(x)
    return roots


def solve_epw_point(c1c2: int, chi_top: int) -> list[tuple[Fraction, Fraction | None]]:
    """(q, d) for each rational root q of q(3q + 1)^2 = (c1c2)^2/(-12 chi_top),
    with d >= 0 the rational root of d^2 = -27 q^3 chi_top/4, or None."""
    r = Fraction(c1c2 * c1c2, -12 * chi_top)
    n, m = r.numerator, r.denominator
    # m * (9q^3 + 6q^2 + q) - n = 0
    points = []
    for q in _rational_roots([9 * m, 6 * m, m, -n]):
        d_sq = Fraction(-27 * chi_top, 4) * q ** 3
        rn, rd = isqrt(d_sq.numerator), isqrt(d_sq.denominator)
        exact = (rn * rn, rd * rd) == (d_sq.numerator, d_sq.denominator)
        points.append((q, Fraction(rn, rd) if exact else None))
    return points


def test_the_natural_chern_numbers_give_the_epw_point():
    """The library's c1*c2 and chi_top are the literals, and they give
    exactly q = 4 = ``EPW_Q`` and d = 720 = ``EPW_DEGREE``."""
    from_library = (fixed_locus_invariants().c1c2, FIXED_LOCUS_EULER["natural"])
    assert from_library == NATURAL
    assert solve_epw_point(*from_library) == [(EPW_Q, EPW_DEGREE)] == [(4, 720)]


def test_the_opposite_chern_numbers_give_no_even_q():
    """q = 9/2 is the one rational root, not an even integer; d = 972."""
    assert FIXED_LOCUS_EULER["opposite"] == OPPOSITE[1]
    assert solve_epw_point(*OPPOSITE) == [(Fraction(9, 2), 972)]


def test_moving_c1c2_by_one_leaves_no_rational_root():
    for c1c2, chi_top in (NATURAL, OPPOSITE):
        for step in (-1, 1):
            assert solve_epw_point(c1c2 + step, chi_top) == []


def test_the_point_satisfies_the_two_equations():
    """The solved (q, d) puts c1*c2 = -4d(1 + 1/(3q)) and
    [W]^2 = 4d^2/(27q^3) = -chi_top back, in both cases."""
    for c1c2, chi_top in (NATURAL, OPPOSITE):
        [(q, d)] = solve_epw_point(c1c2, chi_top)
        assert -4 * d * (1 + 1 / (3 * q)) == c1c2
        assert 4 * d * d / (27 * q ** 3) == -chi_top


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("ok")

"""A control with a known answer for the involution case: the natural
involution of a Hilbert cube.

Let S be a degree-2 K3, the double plane branched along a sextic.  Its
covering involution fixes a curve C of genus 10, with chi(C) = -18, and
acts freely on S - C, whose quotient has Euler characteristic
chi(S - C)/2 = (24 + 18)/2 = 21.  On S^[n] the induced involution fixes
the invariant subschemes, which split into parts supported on C and parts
supported on free orbits, so

    sum_n chi(Fix on S^[n]) t^n = prod_k (1 - t^k)^18 (1 - t^(2k))^(-21).

The same Euler characteristic is the Lefschetz number of the involution,
which ``llv`` reads from the LLV character.  Here H^2 has an invariant part
of rank 2 (L and delta) and 21 anti-invariant classes, so the tests rerun
``llv._power`` on that lattice.  The natural case matches the fixed-point
count, and the opposite case does not: the control decides between the two
rules that ``llv`` keeps side by side.
"""

from collections import Counter
from math import comb

import pytest

from epwcalc import llv

#: extended Mukai lattice of S^[n] under the natural involution, as
#: (weight, sign) -> multiplicity: alpha, the invariant L and delta, the 21
#: anti-invariant classes, and beta
NATURAL_LATTICE = {(-2, +1): 1, (0, +1): 2, (0, -1): 21, (2, +1): 1}

#: chi(C) and chi(S - C)/2 for the fixed curve of genus 10
CURVE_EULER, FREE_ORBIT_EULER = -18, 21


def _factor(step: int, coefficient, order: int) -> list[int]:
    """The series sum_j coefficient(j) t^(j*step), truncated after t^order."""
    return [0 if n % step else coefficient(n // step) for n in range(order + 1)]


def fixed_point_euler(order: int) -> list[int]:
    """Coefficients of t^0 .. t^order in
    prod_k (1 - t^k)^(-CURVE_EULER) * (1 - t^(2k))^(-FREE_ORBIT_EULER)."""
    series = [1] + [0] * order
    for k in range(1, order + 1):
        for factor in (_factor(k, lambda j: (-1) ** j * comb(-CURVE_EULER, j), order),
                       _factor(2 * k, lambda j: comb(FREE_ORBIT_EULER + j - 1, j), order)):
            series = [sum(series[i] * factor[n - i] for i in range(n + 1))
                      for n in range(order + 1)]
    return series


def character(n: int, twist: int) -> Counter:
    """LLV character of S^[n] for n = 2 or 3 on the current ``llv._LATTICE``,
    built as ``llv`` builds its own: the Verbitsky component
    Sym^n - Sym^(n-2), and at n = 3 the second summand Alt^2 with its signs
    times ``twist`` (+1 natural, -1 opposite)."""
    if n == 2:
        return llv._power(2) - llv._power(0)
    second = llv._power(2, exterior=True)
    return llv._power(3) - llv._power(1) + Counter(
        {(d, twist * s): m for (d, s), m in second.items()})


def lefschetz_number(char: Counter) -> int:
    """Trace of the involution on the even cohomology, which is its
    Lefschetz number: the sum of the signed dimensions."""
    return sum(s * m for (_, s), m in char.items())


def test_fixed_point_series_coefficients():
    assert fixed_point_euler(3) == [1, -18, 156, -888]


def test_character_rule_is_llv_own():
    """On the unpatched lattice the helper rebuilds ``llv``'s characters of
    the K3^[3] sixfold, case by case."""
    for case, twist in zip(llv.CASES, (+1, -1)):
        assert character(3, twist) == llv._CHARACTERS[case]


@pytest.fixture
def natural_lattice(monkeypatch):
    monkeypatch.setattr(llv, "_LATTICE", NATURAL_LATTICE)


def test_lattice_has_rank_25_and_hilbert_scheme_euler_numbers(natural_lattice):
    assert sum(NATURAL_LATTICE.values()) == 25
    assert sum(character(2, +1).values()) == 324
    assert sum(character(3, +1).values()) == sum(character(3, -1).values()) == 3200


def test_natural_case_matches_the_fixed_point_count(natural_lattice):
    fixed = fixed_point_euler(3)
    assert lefschetz_number(character(2, +1)) == fixed[2] == 156
    assert lefschetz_number(character(3, +1)) == fixed[3] == -888


def test_opposite_case_fails_the_control(natural_lattice):
    assert lefschetz_number(character(3, -1)) == -1152
    assert lefschetz_number(character(3, -1)) != fixed_point_euler(3)[3]

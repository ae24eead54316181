from math import comb

import pytest

from epwcalc.hodge_ring import CHERN_NUMBER_C6
from epwcalc.llv import (
    _SECOND,
    _VERBITSKY,
    CASES,
    FIXED_LOCUS_EULER,
    SIXFOLD_EULER,
    T_DIM,
    _power,
    betti_even,
    betti_of_quotient,
    euler_of_fixed_locus,
    euler_of_quotient,
    invariant_dimension,
)

EXPECTED_BETTI = (1, 23, 299, 2554, 299, 23, 1)


def _dimension(character, degree=None):
    return sum(m for (d, _), m in character.items() if degree in (None, d))


def test_lattice_power_dimensions():
    """Sym^k and Alt^k of the 25-dimensional extended Mukai lattice have the
    binomial dimensions, and their characters are symmetric in weight."""
    rank = T_DIM + 3
    for k in range(5):
        for exterior, expected in ((False, comb(rank + k - 1, k)), (True, comb(rank, k))):
            character = _power(k, exterior)
            assert _dimension(character) == expected
            assert all(character[12 - d, s] == m for (d, s), m in character.items())


def test_summand_dimensions_fill_the_betti_numbers():
    """Per-degree totals of the two summand characters are the even Betti
    numbers; these are outputs of the lattice construction, not inputs."""
    assert betti_even() == EXPECTED_BETTI
    for i, degree in enumerate(range(0, 13, 2)):
        total = _dimension(_VERBITSKY, degree) + _dimension(_SECOND, degree)
        assert total == EXPECTED_BETTI[i]


def test_component_dimensions_in_the_middle():
    assert _dimension(_VERBITSKY, 6) == 2300
    assert _dimension(_SECOND, 6) == 254
    assert _dimension(_SECOND, 4) == T_DIM + 1
    # Sym^3 T + h^2*T, and Alt^2 T + alpha^beta
    assert _VERBITSKY[6, -1] == comb(T_DIM + 2, 3) + T_DIM == 2046
    assert _SECOND[6, +1] == comb(T_DIM, 2) + 1
    assert {d for d, _ in _SECOND} == {4, 6, 8}


def test_signs_flip_exactly_on_the_second_component():
    """The opposite case differs from the natural one only on Alt^2 of the
    lattice: in every degree the invariants move by the second summand's
    anti-invariant minus invariant dimension, which is nonzero only in
    degrees 4, 6 and 8."""
    shifts = {}
    for degree in range(13):
        shift = invariant_dimension("opposite", degree) - invariant_dimension("natural", degree)
        assert shift == _SECOND[degree, -1] - _SECOND[degree, +1]
        if shift:
            shifts[degree] = shift
    assert shifts == {4: 21, 6: -210, 8: 21}


def test_invariant_plus_anti_is_total():
    for case, twist in zip(CASES, (+1, -1)):
        for degree in range(0, 13, 2):
            total = _dimension(_VERBITSKY, degree) + _dimension(_SECOND, degree)
            inv = invariant_dimension(case, degree)
            anti = _VERBITSKY[degree, -1] + _SECOND[degree, -twist]
            assert inv + anti == total


def test_poincare_duality_of_the_action():
    for case in CASES:
        for degree in (0, 2, 4, 6):
            assert invariant_dimension(case, degree) == \
                invariant_dimension(case, 12 - degree)


def test_reference_invariant_dimensions():
    # Verbitsky component: the same 254 invariants in both cases
    assert _VERBITSKY[6, +1] == 254
    # second summand: 232 invariants in the natural case, 22 in the opposite
    assert _SECOND[6, +1] == 232
    assert _SECOND[6, -1] == 22
    assert invariant_dimension("natural", 6) == 254 + 232
    assert invariant_dimension("opposite", 6) == 254 + 22
    with pytest.raises(ValueError):
        invariant_dimension("twisted", 6)


def test_quotient_betti_numbers():
    assert betti_of_quotient("natural") == (1, 1, 255, 486)
    assert betti_of_quotient("opposite") == (1, 1, 276, 276)


def test_euler_characteristics():
    assert euler_of_quotient("natural") == 1000
    assert euler_of_quotient("opposite") == 832
    assert SIXFOLD_EULER == 3200
    assert euler_of_fixed_locus("natural") == -1200
    assert euler_of_fixed_locus("opposite") == -1536
    assert FIXED_LOCUS_EULER == {case: euler_of_fixed_locus(case) for case in CASES}
    assert list(FIXED_LOCUS_EULER) == list(CASES)


def test_euler_consistency_over_all_degrees():
    """chi(quotient) computed from the duality-shortened Betti tuple equals
    the straight sum of invariant dimensions over every even degree."""
    for case in CASES:
        full = sum(invariant_dimension(case, d) for d in range(0, 13, 2))
        assert full == euler_of_quotient(case)


#: the nonzero Hodge numbers h^{p,q} of a K3 surface, all at even p + q
_K3_HODGE = {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1}


def _goettsche_soergel_hodge(n):
    """Hodge numbers of K3^[n] as rows p = 0..2n of h^{p,q}, q = 0..2n, from
    the Goettsche-Soergel formula: the t^n coefficient of
    prod_k prod_{p,q} (1 - x^(p+k-1) y^(q+k-1) t^k)^(-h^{p,q}(K3)), the
    signs (-1)^(p+q) of the general formula being +1 for a K3 surface."""
    series = {(0, 0, 0): 1}  # (power of t, of x, of y) -> integer coefficient
    for k in range(1, n + 1):
        for (p, q), multiplicity in _K3_HODGE.items():
            for _ in range(multiplicity):
                # times 1/(1 - x^(p+k-1) y^(q+k-1) t^k) = sum_j (...)^j, cut at t^n
                out = {}
                for (t, a, b), c in series.items():
                    for j in range((n - t) // k + 1):
                        key = (t + j * k, a + j * (p + k - 1), b + j * (q + k - 1))
                        out[key] = out.get(key, 0) + c
                series = out
    return [[series.get((n, p, q), 0) for q in range(2 * n + 1)] for p in range(2 * n + 1)]


def test_hodge_numbers_match_goettsche_soergel():
    """The Hodge diamond of K3^[3] and its chi_y coefficients
    chi^p = sum_q (-1)^q h^{p,q}."""
    h = _goettsche_soergel_hodge(3)
    assert (h[1][1], h[3][1], h[2][2], h[4][2], h[5][1], h[3][3]) == \
        (21, 22, 253, 253, 21, 2004)
    assert h[0] == [1, 0, 1, 0, 1, 0, 1]
    assert all(h[p][q] == 0 for p in range(7) for q in range(7) if (p + q) % 2)
    assert all(h[p][q] == h[q][p] == h[6 - p][6 - q] for p in range(7) for q in range(7))
    assert [sum((-1) ** q * x for q, x in enumerate(row)) for row in h] == \
        [4, -64, 508, -2048, 508, -64, 4]


def test_betti_numbers_match_goettsche_formula():
    """Three independent sources agree on the Betti numbers and on 3200:
    the LLV total from the extended Mukai lattice, the Goettsche-Soergel
    Hodge numbers summed along p + q = k, and the top Chern number c6
    stored in ``hodge_ring``."""
    h = _goettsche_soergel_hodge(3)
    poincare = [sum(h[p][k - p] for p in range(max(0, k - 6), min(k, 6) + 1))
                for k in range(13)]
    assert poincare[1::2] == [0] * 6
    assert tuple(poincare[::2]) == betti_even() == EXPECTED_BETTI
    assert sum(poincare) == 3200 == SIXFOLD_EULER == CHERN_NUMBER_C6

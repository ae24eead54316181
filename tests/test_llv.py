import pytest

from epwcalc.hodge_ring import CHERN_NUMBER_C6
from epwcalc.llv import (
    CASES,
    SECOND,
    SIXFOLD_EULER,
    T_DIM,
    VERBITSKY,
    betti_even,
    betti_of_quotient,
    euler_of_fixed_locus,
    euler_of_quotient,
    invariant_dimension,
    rep_dimension,
    summand_table,
)

EXPECTED_BETTI = (1, 23, 299, 2554, 299, 23, 1)


def test_rep_dimension():
    assert rep_dimension("sym", 23, 3) == 2300
    assert rep_dimension("sym", 22, 2) == 253
    assert rep_dimension("sym", 22, 3) == 2024
    assert rep_dimension("sym", 7, 0) == 1
    assert rep_dimension("alt", 22) == 231
    assert rep_dimension("alt", 22, 1) == 22
    with pytest.raises(ValueError):
        rep_dimension("spin", 4)
    with pytest.raises(ValueError):
        rep_dimension("sym", -1)


def test_summand_dimensions_fill_the_betti_numbers():
    """Per-degree totals of the summand table are the even Betti numbers;
    these are outputs of the binomial bookkeeping, not inputs."""
    assert betti_even() == EXPECTED_BETTI
    table = summand_table()
    for i, degree in enumerate(range(0, 13, 2)):
        total = sum(s.dimension for s in table if s.degree == degree)
        assert total == EXPECTED_BETTI[i]


def test_component_dimensions_in_the_middle():
    table = summand_table()
    verbitsky6 = sum(s.dimension for s in table
                     if s.degree == 6 and s.component == VERBITSKY)
    second6 = sum(s.dimension for s in table
                  if s.degree == 6 and s.component == SECOND)
    assert verbitsky6 == 2300
    assert second6 == 254
    second4 = sum(s.dimension for s in table
                  if s.degree == 4 and s.component == SECOND)
    assert second4 == T_DIM + 1


def test_signs_flip_exactly_on_the_second_component():
    for s in summand_table():
        assert s.sign_natural in (-1, +1)
        if s.component == SECOND:
            assert s.sign_opposite == -s.sign_natural
        else:
            assert s.sign_opposite == s.sign_natural


def test_invariant_plus_anti_is_total():
    table = summand_table()
    for case in CASES:
        for degree in range(0, 13, 2):
            total = sum(s.dimension for s in table if s.degree == degree)
            inv = invariant_dimension(case, degree)
            anti = sum(s.dimension for s in table
                       if s.degree == degree and s.sign(case) == -1)
            assert inv + anti == total


def test_poincare_duality_of_the_action():
    for case in CASES:
        for degree in (0, 2, 4, 6):
            assert invariant_dimension(case, degree) == \
                invariant_dimension(case, 12 - degree)


def test_reference_invariant_dimensions():
    assert invariant_dimension("natural", 6, VERBITSKY) == 254
    assert invariant_dimension("opposite", 6, VERBITSKY) == 254
    assert invariant_dimension("natural", 6, SECOND) == 232
    assert invariant_dimension("opposite", 6, SECOND) == 22
    with pytest.raises(ValueError):
        invariant_dimension("twisted", 6)
    with pytest.raises(ValueError):
        invariant_dimension("natural", 6, "third")


def test_quotient_betti_numbers():
    assert betti_of_quotient("natural") == (1, 1, 255, 486)
    assert betti_of_quotient("opposite") == (1, 1, 276, 276)


def test_euler_characteristics():
    assert euler_of_quotient("natural") == 1000
    assert euler_of_quotient("opposite") == 832
    assert SIXFOLD_EULER == 3200
    assert euler_of_fixed_locus("natural") == -1200
    assert euler_of_fixed_locus("opposite") == -1536


def test_euler_consistency_over_all_degrees():
    """chi(quotient) computed from the duality-shortened Betti tuple equals
    the straight sum of invariant dimensions over every even degree."""
    for case in CASES:
        full = sum(invariant_dimension(case, d) for d in range(0, 13, 2))
        assert full == euler_of_quotient(case)


def _goettsche_poincare(n):
    """Coefficients of z^0, z^1, ..., z^(4n) in the Poincare polynomial of
    K3^[n], from Goettsche's formula: the t^n coefficient of
    prod_k 1/((1 - z^(2k-2) t^k) (1 - z^(2k) t^k)^22 (1 - z^(2k+2) t^k)),
    22 being b_2 of the K3 surface."""
    series = {(0, 0): 1}  # (power of t, power of z) -> integer coefficient
    for k in range(1, n + 1):
        for z_step, multiplicity in ((2 * k - 2, 1), (2 * k, 22), (2 * k + 2, 1)):
            for _ in range(multiplicity):
                # times 1/(1 - z^z_step t^k) = sum_j (z^z_step t^k)^j, cut at t^n
                out = {}
                for (t, z), c in series.items():
                    for j in range((n - t) // k + 1):
                        key = (t + j * k, z + j * z_step)
                        out[key] = out.get(key, 0) + c
                series = out
    return [series.get((n, z), 0) for z in range(4 * n + 1)]


def test_betti_numbers_match_goettsche_formula():
    poincare = _goettsche_poincare(3)
    assert poincare[1::2] == [0] * 6
    assert tuple(poincare[::2]) == betti_even() == EXPECTED_BETTI
    assert sum(poincare) == 3200 == SIXFOLD_EULER == CHERN_NUMBER_C6

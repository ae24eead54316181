import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from epwcalc.fujiki import CODEGREE, FUJIKI_CONSTANTS, fujiki_constant, sigma_sigbar_integral
from epwcalc.qfield import ParametricScalar
from fujiki_oracle import AbstractClassSpace, enumerate_matchings, polarized_integral


def polarized_integral_by_permutations(alpha, betas, space):
    """Oracle: the same integral summed over the full symmetric group
    instead of matchings; exponentially slower."""
    need = CODEGREE[alpha]
    assert len(betas) == need
    total = Fraction(0)
    for perm in permutations(range(need)):
        term = Fraction(1)
        for k in range(0, need, 2):
            term *= space.pairing(betas[perm[k]], betas[perm[k + 1]])
        total += term
    return fujiki_constant(alpha) * total / factorial(need)


def test_constants():
    assert fujiki_constant("1") == 15
    assert fujiki_constant("c2") == 108
    assert fujiki_constant("c2^2") == 1200
    assert fujiki_constant("c4") == 480
    assert fujiki_constant("c2^2") / fujiki_constant("c4") == Fraction(5, 2)
    with pytest.raises(ValueError):
        fujiki_constant("c3")
    with pytest.raises(ValueError):
        sigma_sigbar_integral("c3")


def test_matching_counts():
    # (2m-1)!! matchings of 2m points
    assert len(enumerate_matchings(2)) == 1
    assert len(enumerate_matchings(4)) == 3
    assert len(enumerate_matchings(6)) == 15
    assert len(enumerate_matchings(8)) == 105


def test_matchings_are_partitions_and_distinct():
    for n in (2, 4, 6, 8):
        seen = set()
        for matching in enumerate_matchings(n):
            points = [p for pair in matching for p in pair]
            assert sorted(points) == list(range(1, n + 1))
            assert all(i < j for i, j in matching)
            seen.add(frozenset(matching))
        assert len(seen) == len(enumerate_matchings(n))


def test_matchings_reject_bad_sizes():
    for n in (0, -2, 3, 5, 10):
        with pytest.raises(ValueError):
            enumerate_matchings(n)


def test_example_two_points():
    assert enumerate_matchings(2) == [((1, 2),)]


def _random_space(rng, n_labels=4):
    labels = [f"b{i}" for i in range(n_labels)]
    pairings = {}
    for x, y in combinations(labels, 2):
        pairings[(x, y)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    for x in labels:
        pairings[(x, x)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return labels, AbstractClassSpace(labels, pairings)


def test_matching_sum_equals_permutation_sum():
    """The matching normalization against the brute-force symmetric-group sum."""
    rng = random.Random(1387)
    for _ in range(12):
        labels, space = _random_space(rng)
        for alpha, need in CODEGREE.items():
            betas = [rng.choice(labels) for _ in range(need)]
            assert polarized_integral(alpha, betas, space) == \
                polarized_integral_by_permutations(alpha, betas, space)


def test_symmetric_in_the_arguments():
    rng = random.Random(24)
    labels, space = _random_space(rng)
    betas = [labels[0], labels[1], labels[2], labels[3], labels[0], labels[2]]
    value = polarized_integral("1", betas, space)
    for _ in range(10):
        rng.shuffle(betas)
        assert polarized_integral("1", betas, space) == value


def test_linear_in_each_slot():
    # declare z with pairings equal to the sum of those of x and y; then
    # substituting z for x in any slot adds the y-term
    rng = random.Random(99)
    labels = ["x", "y", "u", "w"]
    base = {}
    for s, t in combinations(labels, 2):
        base[(s, t)] = Fraction(rng.randint(-6, 6))
    for s in labels:
        base[(s, s)] = Fraction(rng.randint(-6, 6))
    extended = dict(base)
    all_labels = labels + ["z"]
    for t in labels:
        extended[("z", t)] = base.get(("x", t), base.get((t, "x"))) + \
            base.get(("y", t), base.get((t, "y")))
    extended[("z", "z")] = (base[("x", "x")] + base[("y", "y")]
                            + 2 * base[("x", "y")])
    space = AbstractClassSpace(all_labels, extended)
    for alpha in ("c2", "c4"):
        need = CODEGREE[alpha]
        rest = ["u", "w", "u"][: need - 1]
        with_z = polarized_integral(alpha, ["z", *rest], space)
        with_x = polarized_integral(alpha, ["x", *rest], space)
        with_y = polarized_integral(alpha, ["y", *rest], space)
        assert with_z == with_x + with_y


def test_specialization_to_powers_of_q():
    # against a single class b: integral = C(alpha) * q(b)^(3-k)
    rng = random.Random(7)
    for _ in range(30):
        qb = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        space = AbstractClassSpace.with_square("b", qb)
        for alpha, need in CODEGREE.items():
            expected = fujiki_constant(alpha) * qb ** (need // 2)
            assert polarized_integral(alpha, ["b"] * need, space) == expected


def test_polarized_reference_values():
    space = AbstractClassSpace.polarized(4)
    betas6 = ["h", "h", "h", "h", "sigma", "sigbar"]
    assert polarized_integral("1", betas6, space) == 48
    assert polarized_integral("c2", ["h", "h", "sigma", "sigbar"], space) == 144
    # an isotropic argument kills the one-matching cases
    zero_space = AbstractClassSpace.with_square("b", 0)
    assert polarized_integral("c4", ["b", "b"], zero_space) == 0


def test_sigma_sigbar_integral_is_the_matching_sum():
    """The closed form C(alpha) * q^j / (2j+1) against the matching sum with
    h^(2j), sigma and sigbar as arguments, q(sigma, sigbar) = 1."""
    assert sigma_sigbar_integral("1") == ParametricScalar(3, 2)
    assert sigma_sigbar_integral("c2") == ParametricScalar(36, 1)
    rng = random.Random(3141)
    for _ in range(20):
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 90), rng.randint(1, 30))
        space = AbstractClassSpace.polarized(q)
        for alpha, need in CODEGREE.items():
            betas = ["h"] * (need - 2) + ["sigma", "sigbar"]
            assert sigma_sigbar_integral(alpha).evaluate(q) == \
                polarized_integral(alpha, betas, space)


def test_arity_and_label_errors():
    space = AbstractClassSpace.with_square("b", 4)
    with pytest.raises(ValueError):
        polarized_integral("c2", ["b", "b"], space)  # needs 4
    with pytest.raises(ValueError):
        polarized_integral("1", ["b"] * 5 + ["missing"], space)
    with pytest.raises(ValueError):
        AbstractClassSpace(["b"], {("b", "nope"): 1})
    with pytest.raises(ValueError):
        AbstractClassSpace(["b", "b"])

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epwcalc.degeneration import central_charges
from epwcalc.mukai import (
    bbf_pairing,
    bbf_square,
    hyperbolic_lattice,
    mukai_pairing,
    square_and_divisibility,
    theta_map,
)


def combination(*terms):
    """sum(k * v for k, v in terms), componentwise: lattice elements are
    int tuples, on which + concatenates and k * v repeats."""
    scaled = [[k * x for x in v] for k, v in terms]
    return tuple(sum(parts) for parts in zip(*scaled, strict=True))


V = (1, 0, -2)                 # the Hilbert cube
S = (1, -1, 2)                 # the spherical class
A = combination((1, V), (-1, S))

ints = st.integers(min_value=-40, max_value=40)
vectors = st.tuples(ints, ints, ints)


def test_reference_squares():
    assert mukai_pairing(V, V) == 4
    assert mukai_pairing(S, S) == -2
    assert mukai_pairing(V, S) == 0
    assert A == (0, 1, -4)
    assert mukai_pairing(A, A) == 2


@given(vectors, vectors)
def test_pairing_symmetric(v, w):
    assert mukai_pairing(v, w) == mukai_pairing(w, v)


@given(vectors, vectors, vectors, ints)
def test_pairing_bilinear(u, v, w, k):
    assert mukai_pairing(u, combination((1, v), (1, w))) == \
        mukai_pairing(u, v) + mukai_pairing(u, w)
    assert mukai_pairing(u, combination((k, v))) == k * mukai_pairing(u, v)


def test_vector_algebra():
    assert combination((1, V), (1, S), (-1, S)) == V
    assert combination((-1, combination((2, S)))) == combination((-2, S)) == (-2, 2, -4)
    assert mukai_pairing(combination((3, V)), combination((3, V))) == 9 * mukai_pairing(V, V)
    with pytest.raises(ValueError):
        combination((1, V), (1, (1, 0)))  # no silent truncation


def test_hyperbolic_lattice():
    assert hyperbolic_lattice(V, S) == ((4, 0), (0, -2))
    assert hyperbolic_lattice(V, combination((1, V), (1, S))) == ((4, 4), (4, 2))
    for v, w in ((V, combination((2, V))), ((0, 0, 0), S)):
        with pytest.raises(ValueError, match="linearly dependent"):
            hyperbolic_lattice(v, w)


def test_bbf_form():
    L = (1, 0)
    delta = (0, 1)
    assert bbf_square(L) == 2
    assert bbf_square(delta) == -4
    assert bbf_pairing(L, delta) == 0
    assert bbf_square((2, -1)) == 4


def test_square_and_divisibility():
    # divisibility is computed in the full degree-2 lattice, where the
    # L-direction pairs onto Z and delta onto 4Z
    assert square_and_divisibility((2, -1)) == (4, 2)
    assert square_and_divisibility((0, 1)) == (-4, 4)
    assert square_and_divisibility((1, 0)) == (2, 1)
    assert square_and_divisibility((2, 0)) == (8, 2)
    with pytest.raises(ValueError, match="zero class"):
        square_and_divisibility((0, 0))


@given(ints, ints)
def test_divisibility_divides_square(a, b):
    if a == 0 and b == 0:
        return
    square, div = square_and_divisibility((a, b))
    assert div > 0
    assert square % div == 0


def test_theta_map_reference_images():
    assert theta_map((0, -1, 0)) == (1, 0)    # L
    assert theta_map((-1, 0, -2)) == (0, 1)   # delta
    assert theta_map((1, -2, 2)) == (2, -1)   # 2L - delta


def test_theta_map_domain():
    with pytest.raises(ValueError, match="not orthogonal"):
        theta_map((1, 0, 0))
    with pytest.raises(ValueError, match="not orthogonal"):
        theta_map(A)  # s = -4 != 2r = 0


@given(ints, ints, ints, ints)
def test_theta_map_is_an_isometry(r1, c1, r2, c2):
    u1 = (r1, c1, 2 * r1)
    u2 = (r2, c2, 2 * r2)
    assert bbf_pairing(theta_map(u1), theta_map(u2)) == mukai_pairing(u1, u2)


def test_wrong_length_tuples_fail_loudly():
    """Every function unpacks its tuples, so a vector of length 2 or 6 (the
    repetition 2 * V) and a class of length 3 or 4 raise ValueError rather
    than reading a prefix."""
    for bad in ((1, 0), 2 * V):
        calls = [lambda: mukai_pairing(bad, V), lambda: mukai_pairing(V, bad),
                 lambda: hyperbolic_lattice(bad, S), lambda: hyperbolic_lattice(S, bad),
                 lambda: theta_map(bad),
                 lambda: central_charges(bad, V, -2), lambda: central_charges(S, bad, -2)]
        for call in calls:
            with pytest.raises(ValueError, match="to unpack"):
                call()
    for bad in ((2, -1, 0), 2 * (2, -1)):
        for call in (lambda: bbf_pairing(bad, (1, 0)), lambda: bbf_pairing((1, 0), bad),
                     lambda: square_and_divisibility(bad)):
            with pytest.raises(ValueError, match="to unpack"):
                call()

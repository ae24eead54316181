import pytest
from hypothesis import given
from hypothesis import strategies as st

from epwcalc.mukai import (
    MukaiVector,
    NSClass,
    bbf_pairing,
    bbf_square,
    hyperbolic_lattice,
    mukai_pairing,
    square_and_divisibility,
    theta_map,
)

V = MukaiVector(1, 0, -2)      # the Hilbert cube
S = MukaiVector(1, -1, 2)      # the spherical class
A = V - S                      # (0, 1, -4)

ints = st.integers(min_value=-40, max_value=40)
vectors = st.builds(MukaiVector, ints, ints, ints)


def test_reference_squares():
    assert mukai_pairing(V, V) == 4
    assert mukai_pairing(S, S) == -2
    assert mukai_pairing(V, S) == 0
    assert A == MukaiVector(0, 1, -4)
    assert mukai_pairing(A, A) == 2


@given(vectors, vectors)
def test_pairing_symmetric(v, w):
    assert mukai_pairing(v, w) == mukai_pairing(w, v)


@given(vectors, vectors, vectors, ints)
def test_pairing_bilinear(u, v, w, k):
    assert mukai_pairing(u, v + w) == mukai_pairing(u, v) + mukai_pairing(u, w)
    assert mukai_pairing(u, k * v) == k * mukai_pairing(u, v)


def test_vector_algebra():
    assert V + S - S == V
    assert -(2 * S) == (-2) * S
    assert mukai_pairing(3 * V, 3 * V) == 9 * mukai_pairing(V, V)


def test_hyperbolic_lattice():
    assert hyperbolic_lattice(V, S) == ((4, 0), (0, -2))
    assert hyperbolic_lattice(V, V + S) == ((4, 4), (4, 2))
    with pytest.raises(ValueError):
        hyperbolic_lattice(V, 2 * V)
    with pytest.raises(ValueError):
        hyperbolic_lattice(MukaiVector(0, 0, 0), S)


def test_bbf_form():
    L = NSClass(1, 0)
    delta = NSClass(0, 1)
    assert bbf_square(L) == 2
    assert bbf_square(delta) == -4
    assert bbf_pairing(L, delta) == 0
    assert bbf_square(NSClass(2, -1)) == 4


def test_square_and_divisibility():
    # divisibility is computed in the full degree-2 lattice, where the
    # L-direction pairs onto Z and delta onto 4Z
    assert square_and_divisibility(NSClass(2, -1)) == (4, 2)
    assert square_and_divisibility(NSClass(0, 1)) == (-4, 4)
    assert square_and_divisibility(NSClass(1, 0)) == (2, 1)
    assert square_and_divisibility(NSClass(2, 0)) == (8, 2)
    with pytest.raises(ValueError):
        square_and_divisibility(NSClass(0, 0))


@given(ints, ints)
def test_divisibility_divides_square(a, b):
    if a == 0 and b == 0:
        return
    square, div = square_and_divisibility(NSClass(a, b))
    assert div > 0
    assert square % div == 0


def test_theta_map_reference_images():
    assert theta_map(MukaiVector(0, -1, 0)) == NSClass(1, 0)    # L
    assert theta_map(MukaiVector(-1, 0, -2)) == NSClass(0, 1)   # delta
    assert theta_map(MukaiVector(1, -2, 2)) == NSClass(2, -1)   # 2L - delta


def test_theta_map_domain():
    with pytest.raises(ValueError):
        theta_map(MukaiVector(1, 0, 0))
    with pytest.raises(ValueError):
        theta_map(A)  # s = -4 != 2r = 0


@given(ints, ints, ints, ints)
def test_theta_map_is_an_isometry(r1, c1, r2, c2):
    u1 = MukaiVector(r1, c1, 2 * r1)
    u2 = MukaiVector(r2, c2, 2 * r2)
    assert bbf_pairing(theta_map(u1), theta_map(u2)) == mukai_pairing(u1, u2)

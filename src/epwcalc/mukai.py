"""Integer lattice arithmetic for a polarized K3 surface of degree 2 and
for the algebraic degree-2 classes of its Hilbert cube.

A Mukai vector is an int triple (r, c, s) for r + c*L + s*[pt], with L the
degree-2 polarization, so L^2 = 2 on the surface.  On the Hilbert cube the
algebraic degree-2 lattice is spanned by L and half the exceptional divisor
delta, with squares 2 and -4 under the Beauville-Bogomolov-Fujiki form; a
class a*L + b*delta is an int pair (a, b).  The functions unpack their
arguments, so a tuple of the wrong length raises ValueError.
"""

from math import gcd


def mukai_pairing(v: tuple[int, int, int], w: tuple[int, int, int]) -> int:
    """(v, w) = 2*c_v*c_w - r_v*s_w - r_w*s_v  (degree-2 surface)."""
    (rv, cv, sv), (rw, cw, sw) = v, w
    return 2 * cv * cw - rv * sw - rw * sv


def hyperbolic_lattice(v: tuple[int, int, int], w: tuple[int, int, int]) -> tuple[
        tuple[int, int], tuple[int, int]]:
    """Gram matrix of the rank-2 sublattice spanned by v and w.

    Rejects linearly dependent input, since the span would not be rank 2.
    """
    (rv, cv, sv), (rw, cw, sw) = v, w
    minors = (
        rv * cw - cv * rw,
        rv * sw - sv * rw,
        cv * sw - sv * cw,
    )
    if not any(minors):
        raise ValueError("vectors are linearly dependent; no rank-2 sublattice")
    vw = mukai_pairing(v, w)
    return ((mukai_pairing(v, v), vw), (vw, mukai_pairing(w, w)))


def bbf_pairing(x: tuple[int, int], y: tuple[int, int]) -> int:
    (ax, bx), (ay, by) = x, y
    return 2 * ax * ay - 4 * bx * by


def bbf_square(x: tuple[int, int]) -> int:
    return bbf_pairing(x, x)


def square_and_divisibility(x: tuple[int, int]) -> tuple[int, int]:
    """BBF square and divisibility of a nonzero class a*L + b*delta.

    Divisibility is taken in the full degree-2 lattice of the Hilbert cube:
    the L-direction sits inside the unimodular K3 lattice (so a*L pairs onto
    a*Z there) while delta pairs onto 4*Z, giving gcd(a, 4b).
    """
    a, b = x
    if a == 0 and b == 0:
        raise ValueError("zero class has no divisibility")
    return bbf_square(x), gcd(a, 4 * b)


def theta_map(v: tuple[int, int, int]) -> tuple[int, int]:
    """Degree-2 class of the Hilbert cube attached to an algebraic Mukai
    vector orthogonal to (1, 0, -2).

    The identification sends (0, -1, 0) to L and (-1, 0, -2) to delta; it is
    defined exactly on the vectors with s = 2r.
    """
    r, c, s = v
    if s != 2 * r:
        raise ValueError("vector is not orthogonal to the Hilbert-cube vector (1, 0, -2)")
    return (-c, -r)

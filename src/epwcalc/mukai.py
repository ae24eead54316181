"""Integer lattice arithmetic for a polarized K3 surface of degree 2 and
for the algebraic degree-2 classes of its Hilbert cube.

A Mukai vector (r, c, s) abbreviates r + c*L + s*[pt] with L the degree-2
polarization, so L^2 = 2 on the surface.  On the Hilbert cube the algebraic
degree-2 lattice is spanned by L and half the exceptional divisor delta,
with squares 2 and -4 under the Beauville-Bogomolov-Fujiki form.
"""

from __future__ import annotations

from math import gcd

from .qfield import Value


class MukaiVector(Value):
    """(rank, L-coefficient, degree-0 part) on a degree-2 K3."""

    __slots__ = ("r", "c", "s")

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.c + other.c, self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, self.c - other.c, self.s - other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, -self.c, -self.s)

    def __rmul__(self, k: int) -> "MukaiVector":
        return MukaiVector(k * self.r, k * self.c, k * self.s)

    def square(self) -> int:
        return mukai_pairing(self, self)


def mukai_pairing(v: MukaiVector, w: MukaiVector) -> int:
    """(v, w) = 2*c_v*c_w - r_v*s_w - r_w*s_v  (degree-2 surface)."""
    return 2 * v.c * w.c - v.r * w.s - w.r * v.s


def hyperbolic_lattice(v: MukaiVector, w: MukaiVector) -> tuple[tuple[int, int], tuple[int, int]]:
    """Gram matrix of the rank-2 sublattice spanned by v and w.

    Rejects linearly dependent input, since the span would not be rank 2.
    """
    minors = (
        v.r * w.c - v.c * w.r,
        v.r * w.s - v.s * w.r,
        v.c * w.s - v.s * w.c,
    )
    if not any(minors):
        raise ValueError("vectors are linearly dependent; no rank-2 sublattice")
    vw = mukai_pairing(v, w)
    return ((mukai_pairing(v, v), vw), (vw, mukai_pairing(w, w)))


class NSClass(Value):
    """a*L + b*delta in the algebraic degree-2 lattice of the Hilbert cube."""

    __slots__ = ("a", "b")

    def __add__(self, other: "NSClass") -> "NSClass":
        return NSClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "NSClass") -> "NSClass":
        return NSClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "NSClass":
        return NSClass(-self.a, -self.b)

    def __rmul__(self, k: int) -> "NSClass":
        return NSClass(k * self.a, k * self.b)


def bbf_pairing(x: NSClass, y: NSClass) -> int:
    return 2 * x.a * y.a - 4 * x.b * y.b


def bbf_square(x: NSClass) -> int:
    return bbf_pairing(x, x)


def square_and_divisibility(x: NSClass) -> tuple[int, int]:
    """BBF square and divisibility of a nonzero class a*L + b*delta.

    Divisibility is taken in the full degree-2 lattice of the Hilbert cube:
    the L-direction sits inside the unimodular K3 lattice (so a*L pairs onto
    a*Z there) while delta pairs onto 4*Z, giving gcd(a, 4b).
    """
    if x.a == 0 and x.b == 0:
        raise ValueError("zero class has no divisibility")
    return bbf_square(x), gcd(x.a, 4 * x.b)


def theta_map(v: MukaiVector) -> NSClass:
    """Degree-2 class of the Hilbert cube attached to an algebraic Mukai
    vector orthogonal to (1, 0, -2).

    The identification sends (0, -1, 0) to L and (-1, 0, -2) to delta; it is
    defined exactly on the vectors with s = 2r.
    """
    if v.s != 2 * v.r:
        raise ValueError("vector is not orthogonal to the Hilbert-cube vector (1, 0, -2)")
    return NSClass(-v.c, -v.r)

"""Dimension and sign bookkeeping for the even cohomology of a K3^[3]-type
sixfold under an antisymplectic involution fixing the polarization h.

Even cohomology splits into a Verbitsky component (generated by degree 2)
and a second summand concentrated in degrees 4, 6, 8.  The involution acts
by -1 on the 22-dimensional orthogonal complement T of h in degree 2 and
by +1 on h; on every summand built tensorially from T and h the sign is
(-1)^(number of T factors).  The action on the second summand is either
that natural sign or its opposite, and the two cases are kept side by
side.  Betti numbers of the quotient are the +1 eigenspace dimensions.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .hodge_ring import CHERN_NUMBER_C6

#: rank of the orthogonal complement of h in degree 2
T_DIM = 22

VERBITSKY = "verbitsky"
SECOND = "second"

CASES = ("natural", "opposite")

#: topological Euler characteristic of the sixfold (its top Chern number)
SIXFOLD_EULER = int(CHERN_NUMBER_C6)


def rep_dimension(kind: str, n: int, k: int = 2) -> int:
    """Dimension of Sym^k ("sym") or of the k-th exterior power ("alt")
    of an n-dimensional space."""
    if n < 0 or k < 0:
        raise ValueError("dimensions are nonnegative")
    if kind == "sym":
        return comb(n + k - 1, k)
    if kind == "alt":
        return comb(n, k)
    raise ValueError(f"unknown representation kind {kind!r}")


class LLVSummand(namedtuple("LLVSummand",
                            "degree component dimension sign_natural sign_opposite")):
    __slots__ = ()

    def sign(self, case: str) -> int:
        if case == "natural":
            return self.sign_natural
        if case == "opposite":
            return self.sign_opposite
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")


def _verbitsky_slice(degree: int) -> list[tuple[int, int]]:
    """(dimension, natural sign) for the Verbitsky part of a degree.

    Half-degree k gives Sym^k of (T + Q*h), one summand Sym^j(T).h^(k-j) per
    number j of T factors; degrees above 6 mirror their complements.  The
    natural sign is (-1)^j.
    """
    k = min(degree, 12 - degree) // 2
    return [(rep_dimension("sym", T_DIM, j), (-1) ** j) for j in range(k, -1, -1)]


def _second_slice(degree: int) -> list[tuple[int, int]]:
    """Same data for the non-Verbitsky summand (degrees 4, 6, 8 only).

    In the middle degree it is alt^2(T), h.T and the wedge alt^2(U) of the
    two extra generators; off the middle it is one copy of T + Q*h, again
    with one sign per T factor.
    """
    if degree in (4, 8):
        return [(T_DIM, -1), (1, +1)]
    if degree == 6:
        return [(rep_dimension("alt", T_DIM), +1), (T_DIM, -1), (1, +1)]
    return []


def summand_table() -> tuple[LLVSummand, ...]:
    """Every summand in even degrees 0..12, with both sign conventions.

    The opposite case flips the sign exactly on the non-Verbitsky summand.
    """
    rows = []
    for degree in range(0, 13, 2):
        for dim, sign in _verbitsky_slice(degree):
            rows.append(LLVSummand(degree, VERBITSKY, dim, sign, sign))
        for dim, sign in _second_slice(degree):
            rows.append(LLVSummand(degree, SECOND, dim, sign, -sign))
    return tuple(rows)


_TABLE = summand_table()


def betti_even() -> tuple[int, ...]:
    """Even Betti numbers b_0, b_2, ..., b_12 of the sixfold (odd ones vanish)."""
    return tuple(
        sum(s.dimension for s in _TABLE if s.degree == d) for d in range(0, 13, 2)
    )


def invariant_dimension(case: str, degree: int, component: str | None = None) -> int:
    """Dimension of the +1 eigenspace in one degree, optionally within one
    component."""
    if component not in (None, VERBITSKY, SECOND):
        raise ValueError(f"unknown component {component!r}")
    return sum(
        s.dimension
        for s in _TABLE
        if s.degree == degree
        and (component is None or s.component == component)
        and s.sign(case) == +1
    )


def betti_of_quotient(case: str) -> tuple[int, int, int, int]:
    """(b_0, b_2, b_4, b_6) of the quotient by the involution; the quotient
    keeps exactly the invariant classes."""
    return tuple(invariant_dimension(case, d) for d in (0, 2, 4, 6))


def euler_of_quotient(case: str) -> int:
    b0, b2, b4, b6 = betti_of_quotient(case)
    return 2 * (b0 + b2 + b4) + b6


def euler_of_fixed_locus(case: str) -> int:
    """Euler characteristic of the fixed locus via the double-cover relation
    chi(fixed) = 2*chi(quotient) - chi(sixfold)."""
    return 2 * euler_of_quotient(case) - SIXFOLD_EULER

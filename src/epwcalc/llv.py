"""Dimension and sign bookkeeping for the even cohomology of a K3^[3]-type
sixfold under an antisymplectic involution fixing the polarization h.

The cohomology is built from the extended Mukai lattice
H~ = Q*alpha + H^2 + Q*beta, graded by weight -2 for alpha, 0 for H^2 and
+2 for beta (Taelman; Green-Kim-Laza-Robles).  As a graded representation,

    H*(K3^[3]) = (Sym^3 H~ - q*H~) + Alt^2 H~,

the Verbitsky component (generated by degree 2) and a second summand; q*H~
has the character of H~, the quadratic form q being invariant of weight 0.
A class of weight w sits in degree 6 + w.  The involution acts by +1 on
alpha, h and beta and by -1 on the 22-dimensional complement T of h in H^2;
on the second summand it acts by that natural sign or by its opposite, and
the two cases are kept side by side.  Betti numbers of the quotient are the
+1 eigenspace dimensions; they and the fixed-locus Euler characteristics
are read from the characters once, at import, into per-case tables.
"""

from collections import Counter
from itertools import combinations_with_replacement
from math import comb, prod

#: rank of the orthogonal complement of h in degree 2
T_DIM = 22

CASES = ("natural", "opposite")

#: the extended Mukai lattice as (weight, sign) -> multiplicity: alpha, h,
#: T and beta
_LATTICE = {(-2, +1): 1, (0, +1): 1, (0, -1): T_DIM, (2, +1): 1}


def _power(k: int, exterior: bool = False) -> Counter:
    """Character of Sym^k (or Alt^k) of the lattice as a Counter over
    (degree = 6 + weight, sign): each multiset of k pieces contributes the
    product of Sym^j (Alt^j) of each piece picked j times, with weights
    added and signs multiplied."""
    character = Counter()
    for picks in combinations_with_replacement(_LATTICE, k):
        dimension = prod(
            comb(_LATTICE[piece], j) if exterior else comb(_LATTICE[piece] + j - 1, j)
            for piece, j in Counter(picks).items()
        )
        character[6 + sum(w for w, _ in picks), prod(s for _, s in picks)] += dimension
    return +character


_VERBITSKY = _power(3) - _power(1)
_SECOND = _power(2, exterior=True)

#: (degree, sign) -> dimension of the whole even cohomology, per case; the
#: opposite case flips the sign on the second summand only
_CHARACTERS = {
    case: _VERBITSKY + Counter({(d, twist * s): m for (d, s), m in _SECOND.items()})
    for case, twist in zip(CASES, (+1, -1))
}

#: topological Euler characteristic of the sixfold: the total dimension
SIXFOLD_EULER = sum(_CHARACTERS[CASES[0]].values())


def invariant_dimension(case: str, degree: int) -> int:
    """Dimension of the +1 eigenspace in one degree."""
    if case not in _CHARACTERS:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    return _CHARACTERS[case][degree, +1]


#: ``betti_of_quotient`` per case: the invariant dimensions in degrees 0..6
_QUOTIENT_BETTI = {case: tuple(invariant_dimension(case, d) for d in (0, 2, 4, 6))
                   for case in CASES}


def betti_of_quotient(case: str) -> tuple[int, int, int, int]:
    """(b_0, b_2, b_4, b_6) of the quotient by the involution; the quotient
    keeps exactly the invariant classes.  Read from a table built once from
    the characters."""
    if case not in _QUOTIENT_BETTI:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    return _QUOTIENT_BETTI[case]


def euler_of_quotient(case: str) -> int:
    b0, b2, b4, b6 = betti_of_quotient(case)
    return 2 * (b0 + b2 + b4) + b6


def euler_of_fixed_locus(case: str) -> int:
    """Euler characteristic of the fixed locus via the double-cover relation
    chi(fixed) = 2*chi(quotient) - chi(sixfold)."""
    return 2 * euler_of_quotient(case) - SIXFOLD_EULER


#: ``euler_of_fixed_locus`` per case, computed once
FIXED_LOCUS_EULER = {case: euler_of_fixed_locus(case) for case in CASES}

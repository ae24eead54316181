"""Intersection numbers on hyper-Kähler sixfolds of K3^[3] type through
generalized Fujiki constants.

A class alpha of degree 4k whose type stays (2k, 2k) under deformations
integrates against six minus 2k degree-2 classes through one rational
constant C(alpha) and the Beauville-Bogomolov-Fujiki form q; polarizing
the identity  integral(alpha * b^(6-2k)) = C(alpha) * q(b)^(3-k)  spreads
the right-hand side over perfect matchings of the degree-2 arguments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .qfield import Rational

#: C(alpha) for the four deformation-invariant classes of a K3^[3] sixfold.
FUJIKI_CONSTANTS: dict[str, Fraction] = {
    "1": Fraction(15),
    "c2": Fraction(108),
    "c2^2": Fraction(1200),
    "c4": Fraction(480),
}

#: number of degree-2 arguments each class integrates against (6 - 2k)
CODEGREE: dict[str, int] = {"1": 6, "c2": 4, "c2^2": 2, "c4": 2}


def fujiki_constant(alpha: str) -> Fraction:
    """C(alpha) for alpha in {1, c2, c2^2, c4}."""
    try:
        return FUJIKI_CONSTANTS[alpha]
    except KeyError:
        raise ValueError(f"no Fujiki constant for {alpha!r}; "
                         f"known classes: {', '.join(FUJIKI_CONSTANTS)}") from None


class AbstractClassSpace:
    """Formal degree-2 classes known only through their BBF pairings.

    Pairings not declared are zero; the table is kept symmetric.  Treat
    instances as immutable.
    """

    def __init__(self, labels: Sequence[str],
                 pairings: Mapping[tuple[str, str], Rational] | None = None):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in class space")
        known = set(self.labels)
        table: dict[tuple[str, str], Fraction] = {}
        for (x, y), value in (pairings or {}).items():
            if x not in known or y not in known:
                raise ValueError(f"pairing ({x!r}, {y!r}) uses a label missing from space")
            value = Fraction(value)
            table[(x, y)] = value
            table[(y, x)] = value
        self._table = table

    def pairing(self, x: str, y: str) -> Fraction:
        if x not in self.labels:
            raise ValueError(f"label {x!r} missing from space")
        if y not in self.labels:
            raise ValueError(f"label {y!r} missing from space")
        return self._table.get((x, y), Fraction(0))

    @classmethod
    def with_square(cls, label: str, square: Rational) -> "AbstractClassSpace":
        """One class with a declared self-pairing."""
        return cls((label,), {(label, label): square})

    @classmethod
    def polarized(cls, q_h: Rational, sigma_pairing: Rational = 1) -> "AbstractClassSpace":
        """A polarization h plus an isotropic pair (sigma, sigbar)."""
        return cls(
            ("h", "sigma", "sigbar"),
            {("h", "h"): q_h, ("sigma", "sigbar"): sigma_pairing},
        )


def enumerate_matchings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of {1, ..., n}, each as a tuple of increasing
    pairs, pairs ordered by smallest member."""
    if n <= 0 or n % 2 or n > 8:
        raise ValueError("matchings are enumerated for even n with 2 <= n <= 8")

    def rec(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for i, second in enumerate(rest):
            pair = (first, second)
            for tail in rec(rest[:i] + rest[i + 1:]):
                yield (pair, *tail)

    return list(rec(tuple(range(1, n + 1))))


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def polarized_integral(alpha: str, betas: Sequence[str], space: AbstractClassSpace) -> Fraction:
    """integral(alpha * beta_1 * ... * beta_(6-2k)) from the matching sum.

    The matching sum over pairwise BBF pairings, divided by (2m-1)!! with
    2m = len(betas), times C(alpha).
    """
    constant = fujiki_constant(alpha)
    need = CODEGREE[alpha]
    if len(betas) != need:
        raise ValueError(f"{alpha} integrates against {need} degree-2 classes, got {len(betas)}")
    total = Fraction(0)
    for matching in enumerate_matchings(need):
        term = Fraction(1)
        for i, j in matching:
            term *= space.pairing(betas[i - 1], betas[j - 1])
            if term == 0:
                break
        total += term
    return constant * total / _double_factorial(need - 1)


"""Reference implementation of the polarized Fujiki integrals, for the
tests: formal degree-2 classes known only through their BBF pairings, and
integral(alpha * beta_1 * ... * beta_(6-2k)) as the matching sum over
those pairings.  ``epwcalc`` keeps only the closed forms it needs
(``TOP_INTEGRALS`` and ``fujiki.sigma_sigbar_integral``); the tests check
them, and the Lagrangian projection solved from them, against this sum.

The Fujiki constants are read through ``fujiki.fujiki_constant`` at call
time, so a test that patches ``FUJIKI_CONSTANTS`` patches the oracle too.
"""

from fractions import Fraction

from epwcalc.fujiki import CODEGREE, fujiki_constant


class AbstractClassSpace:
    """Formal degree-2 classes known only through their BBF pairings.

    Pairings not declared are zero; the table is kept symmetric.  Treat
    instances as immutable.
    """

    def __init__(self, labels, pairings=None):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in class space")
        known = set(self.labels)
        table = {}
        for (x, y), value in (pairings or {}).items():
            if x not in known or y not in known:
                raise ValueError(f"pairing ({x!r}, {y!r}) uses a label missing from space")
            value = Fraction(value)
            table[(x, y)] = value
            table[(y, x)] = value
        self._table = table

    def pairing(self, x, y):
        if x not in self.labels:
            raise ValueError(f"label {x!r} missing from space")
        if y not in self.labels:
            raise ValueError(f"label {y!r} missing from space")
        return self._table.get((x, y), Fraction(0))

    @classmethod
    def with_square(cls, label, square):
        """One class with a declared self-pairing."""
        return cls((label,), {(label, label): square})

    @classmethod
    def polarized(cls, q_h, sigma_pairing=1):
        """A polarization h plus an isotropic pair (sigma, sigbar)."""
        return cls(
            ("h", "sigma", "sigbar"),
            {("h", "h"): q_h, ("sigma", "sigbar"): sigma_pairing},
        )


def enumerate_matchings(n):
    """All perfect matchings of {1, ..., n}, each as a tuple of increasing
    pairs, pairs ordered by smallest member."""
    if n <= 0 or n % 2 or n > 8:
        raise ValueError("matchings are enumerated for even n with 2 <= n <= 8")

    def rec(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for i, second in enumerate(rest):
            pair = (first, second)
            for tail in rec(rest[:i] + rest[i + 1:]):
                yield (pair, *tail)

    return list(rec(tuple(range(1, n + 1))))


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def polarized_integral(alpha, betas, space):
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

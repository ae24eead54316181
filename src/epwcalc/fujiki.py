"""Intersection numbers on hyper-Kähler sixfolds of K3^[3] type through
generalized Fujiki constants.

A class alpha of degree 4k whose type stays (2k, 2k) under deformations
integrates against six minus 2k degree-2 classes through one rational
constant C(alpha) and the Beauville-Bogomolov-Fujiki form q; polarizing
the identity  integral(alpha * b^(6-2k)) = C(alpha) * q(b)^(3-k)  spreads
the right-hand side over perfect matchings of the degree-2 arguments.

The package needs one family of such integrals beyond the powers of h:
alpha against h^(2j) and the symplectic pair (sigma, sigbar), which fixes
the condition [W] . h*sigma*sigbar = 0 on a Lagrangian class (see
``lagrangian``).  It is kept here in closed form; the general matching sum
lives in the tests (``tests/fujiki_oracle.py``) as its reference.
"""

from fractions import Fraction

from .qfield import ParametricScalar

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


def sigma_sigbar_integral(alpha: str) -> ParametricScalar:
    """integral(alpha * h^(2j) * sigma * sigbar) = C(alpha) * q^j / (2j+1), a
    monomial in q = q(h, h), with 2j + 2 the codegree of alpha and
    q(sigma, sigbar) = 1.  sigma and sigbar are isotropic and orthogonal to
    h, so of the (2j+1)!! matchings of the arguments only the (2j-1)!! that
    pair sigma with sigbar survive, each worth q^j; the polarized identity
    divides the matching sum by (2j+1)!!."""
    constant = fujiki_constant(alpha)
    j = CODEGREE[alpha] // 2 - 1
    return ParametricScalar(constant / (2 * j + 1), j)

"""The graded ring of Hodge classes of a very general polarized
hyper-Kähler sixfold of K3^[3] type, parametric in the BBF square q of the
polarization h: every coefficient is a Laurent polynomial in q.

Basis by even degree (dimensions 1, 1, 3, 3, 3, 1, 1):

    0:  1
    2:  h
    4:  h^2, c2, lambda
    6:  h^3, h*c2, eta            (eta = h*lambda)
    8:  h^4, h^2*c2, h^2*lambda
    10: h^5
    12: h^6

The classes lambda and eta sit outside the subring generated by degree 2
and come only with pairing data: eta is orthogonal to h^3 and h*c2 and is
normalized with eta^2 = 4.  Products the pairing data does not determine
raise an error instead of inventing values; an eta x eta pairing is
tracked in a ledger slot on the degree-12 result and consumed by
``integrate``.

All other relations (degree 8 and degree 10) are derived at import time
from the Fujiki constants and the Chern number c2*c4 = 14720, not copied
in, so the solvers below are the single source of the multiplication
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .fujiki import fujiki_constant
from .qfield import ONE, ZERO, ParametricScalar, Rational

BASIS: dict[int, tuple[str, ...]] = {
    0: ("1",),
    2: ("h",),
    4: ("h^2", "c2", "lambda"),
    6: ("h^3", "h*c2", "eta"),
    8: ("h^4", "h^2*c2", "h^2*lambda"),
    10: ("h^5",),
    12: ("h^6",),
}

#: Chern numbers that are inputs to the ring (the remaining ones are outputs).
CHERN_NUMBER_C2C4 = Fraction(14720)
CHERN_NUMBER_C6 = Fraction(3200)

#: self-pairing of the extra degree-6 class
ETA_SQUARE = Fraction(4)

_Q = ParametricScalar.q()

#: integrals of the degree-12 monomials in h, c2, c4, each C(alpha) * q^(3-k)
TOP_INTEGRALS: dict[str, ParametricScalar] = {
    "h^6": fujiki_constant("1") * _Q ** 3,
    "h^4*c2": fujiki_constant("c2") * _Q ** 2,
    "h^2*c2^2": fujiki_constant("c2^2") * _Q,
    "h^2*c4": fujiki_constant("c4") * _Q,
}


def derive_degree8_relation(q: Rational | None = None):
    """Coefficients (x, y) with c4 = x*h^4 + y*h^2*c2.

    Obtained by pairing both sides with h^2 and with c2 and solving the
    2x2 system exactly; symbolic in q when q is None, else specialized.
    """
    a11, a12 = TOP_INTEGRALS["h^6"], TOP_INTEGRALS["h^4*c2"]
    a21, a22 = TOP_INTEGRALS["h^4*c2"], TOP_INTEGRALS["h^2*c2^2"]
    b1, b2 = TOP_INTEGRALS["h^2*c4"], ParametricScalar(CHERN_NUMBER_C2C4)
    det = a11 * a22 - a12 * a21
    x = (b1 * a22 - a12 * b2) / det
    y = (a11 * b2 - a21 * b1) / det
    if q is None:
        return x, y
    q = Fraction(q)
    if q == 0:
        raise ValueError("degree-8 relation is singular at q=0")
    return x.evaluate(q), y.evaluate(q)


def derive_degree10_relations(q: Rational | None = None):
    """Multiples of h^5 equal to h^3*c2, h*c2^2 and h*c4.

    Each is the ratio of top integrals: pairing any degree-10 class with h
    lands in the one-dimensional top degree.
    """
    top = TOP_INTEGRALS
    ratios = (
        top["h^4*c2"] / top["h^6"],
        top["h^2*c2^2"] / top["h^6"],
        top["h^2*c4"] / top["h^6"],
    )
    if q is None:
        return ratios
    q = Fraction(q)
    if q == 0:
        raise ValueError("degree-10 relations are singular at q=0")
    return tuple(r.evaluate(q) for r in ratios)


@dataclass(frozen=True)
class HodgeClass:
    """A homogeneous Hodge class, as coefficients over BASIS[degree].

    ``eta_sq`` is nonzero only in degree 12: it records how much of the
    class came from an eta x eta pairing, which integrates to 4 per unit
    but has no h^6 component of its own.
    """

    degree: int
    coeffs: tuple[ParametricScalar, ...]
    eta_sq: ParametricScalar = field(default=ZERO)

    def __post_init__(self):
        if self.degree not in BASIS:
            raise ValueError(f"no Hodge classes in degree {self.degree}")
        if len(self.coeffs) != len(BASIS[self.degree]):
            raise ValueError(f"degree {self.degree} needs {len(BASIS[self.degree])} coefficients")
        if self.eta_sq and self.degree != 12:
            raise ValueError("eta x eta ledger makes sense only in degree 12")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "HodgeClass") -> "HodgeClass":
        if not isinstance(other, HodgeClass):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add classes of different degrees")
        return HodgeClass(
            self.degree,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.eta_sq + other.eta_sq,
        )

    def __sub__(self, other: "HodgeClass") -> "HodgeClass":
        return self + (-other)

    def __neg__(self) -> "HodgeClass":
        return self.scale(-1)

    def scale(self, scalar) -> "HodgeClass":
        s = ParametricScalar._coerce(scalar)
        if s is None:
            raise TypeError(f"cannot scale by {scalar!r}")
        return HodgeClass(self.degree, tuple(s * c for c in self.coeffs), s * self.eta_sq)

    def __mul__(self, other):
        if isinstance(other, HodgeClass):
            return multiply(self, other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    # -- queries --------------------------------------------------------------

    def coefficient(self, label: str) -> ParametricScalar:
        return self.coeffs[BASIS[self.degree].index(label)]

    def _nonzero(self):
        return [(label, c) for label, c in zip(BASIS[self.degree], self.coeffs) if c]

    def __str__(self):
        parts = [f"({c})*{label}" for label, c in self._nonzero()]
        if self.eta_sq:
            parts.append(f"({self.eta_sq})*[eta^2]")
        return " + ".join(parts) if parts else f"0 (degree {self.degree})"


def zero_class(degree: int) -> HodgeClass:
    return HodgeClass(degree, (ZERO,) * len(BASIS[degree]))


def basis_class(degree: int, label: str) -> HodgeClass:
    if label not in BASIS[degree]:
        raise ValueError(f"{label!r} is not a degree-{degree} basis label")
    return HodgeClass(degree, tuple(ONE if cur == label else ZERO for cur in BASIS[degree]))


_H_LABEL = {0: "1", 1: "h", 2: "h^2", 3: "h^3", 4: "h^4", 5: "h^5", 6: "h^6"}


def h_power(k: int) -> HodgeClass:
    """h^k as a basis class (k = 0..6)."""
    if k not in _H_LABEL:
        raise ValueError("h powers live in degrees 0..6")
    return basis_class(2 * k, _H_LABEL[k])


def c2_class() -> HodgeClass:
    return basis_class(4, "c2")


def lambda_class() -> HodgeClass:
    return basis_class(4, "lambda")


def eta_class() -> HodgeClass:
    return basis_class(6, "eta")


def c4_class() -> HodgeClass:
    """c4 written on the degree-8 basis through the derived relation."""
    x, y = derive_degree8_relation()
    return HodgeClass(8, (x, y, ZERO))


def c2_squared_class() -> HodgeClass:
    """c2^2 = (C(c2^2)/C(c4)) * c4 on the degree-8 basis."""
    ratio = fujiki_constant("c2^2") / fujiki_constant("c4")
    return c4_class().scale(ratio)


# ---------------------------------------------------------------------------
# multiplication table: (label, label) -> {target label: Laurent coefficient in q}
# None marks products the pairing data does not determine.
# ---------------------------------------------------------------------------

_ETA_ETA = "eta-ledger"


def _build_product_table():
    table: dict[tuple[str, str], object] = {}

    def put(a: str, b: str, rule) -> None:
        table[(a, b)] = rule
        table[(b, a)] = rule

    r8x, r8y = derive_degree8_relation()
    ratio = fujiki_constant("c2^2") / fujiki_constant("c4")
    r_h3c2, r_hc2sq, _ = derive_degree10_relations()

    for i in range(1, 6):
        for j in range(i, 7 - i):
            put(_H_LABEL[i], _H_LABEL[j], {_H_LABEL[i + j]: ONE})

    # c2 against the h, c2 monomials
    put("h", "c2", {"h*c2": ONE})
    put("h", "h*c2", {"h^2*c2": ONE})
    put("h", "h^2*c2", {"h^5": r_h3c2})
    put("h^2", "c2", {"h^2*c2": ONE})
    put("h^2", "h*c2", {"h^5": r_h3c2})
    put("h^2", "h^2*c2", {"h^6": r_h3c2})
    put("h^3", "c2", {"h^5": r_h3c2})
    put("h^3", "h*c2", {"h^6": r_h3c2})
    put("h^4", "c2", {"h^6": r_h3c2})
    put("c2", "c2", {"h^4": ratio * r8x, "h^2*c2": ratio * r8y})
    put("c2", "h*c2", {"h^5": r_hc2sq})
    put("c2", "h^2*c2", {"h^6": r_hc2sq})
    put("h*c2", "h*c2", {"h^6": r_hc2sq})

    # lambda and eta: only the products the relations force
    put("h", "lambda", {"eta": ONE})
    put("h^2", "lambda", {"h^2*lambda": ONE})      # the degree-8 basis monomial
    put("h", "eta", {"h^2*lambda": ONE})
    put("h^3", "eta", {})                          # orthogonal in the top pairing
    put("h*c2", "eta", {})
    put("eta", "eta", _ETA_ETA)

    undetermined = [
        ("h", "h^2*lambda"),
        ("h^2", "eta"), ("h^2", "h^2*lambda"),
        ("c2", "lambda"), ("c2", "eta"), ("c2", "h^2*lambda"),
        ("lambda", "lambda"), ("lambda", "h^3"), ("lambda", "h*c2"),
        ("lambda", "eta"), ("lambda", "h^4"), ("lambda", "h^2*c2"),
        ("lambda", "h^2*lambda"),
    ]
    for a, b in undetermined:
        put(a, b, None)

    # every pair of positive degrees summing to at most 12 must be covered
    for d1, labels1 in BASIS.items():
        for d2, labels2 in BASIS.items():
            if d1 == 0 or d2 == 0 or d1 + d2 > 12:
                continue
            for la in labels1:
                for lb in labels2:
                    if (la, lb) not in table:
                        raise AssertionError(f"product table misses ({la}, {lb})")
    return table


_PRODUCTS = _build_product_table()


def multiply(x: HodgeClass, y: HodgeClass) -> HodgeClass:
    """Product in the Hodge ring, rewritten onto the fixed basis.

    Raises ValueError for products the relations do not determine
    ("pairing-only class") and for total degree above 12.
    """
    if x.degree == 0 or y.degree == 0:
        scalar, other = (x, y) if x.degree == 0 else (y, x)
        return other.scale(scalar.coeffs[0])
    degree = x.degree + y.degree
    if degree > 12:
        raise ValueError(f"product degree {degree} exceeds the top degree 12")
    acc = {label: ZERO for label in BASIS[degree]}
    eta_ledger = ZERO
    for la, ca in x._nonzero():
        for lb, cb in y._nonzero():
            rule = _PRODUCTS[(la, lb)]
            if rule is _ETA_ETA:
                eta_ledger = eta_ledger + ca * cb
                continue
            if rule is None:
                raise ValueError(f"pairing-only class: no product rule for {la} * {lb}")
            for target, k in rule.items():
                acc[target] = acc[target] + ca * cb * k
    return HodgeClass(degree, tuple(acc[label] for label in BASIS[degree]), eta_ledger)


def integrate(x: HodgeClass) -> ParametricScalar:
    """Integral of a degree-12 class over the sixfold, a Laurent polynomial in q."""
    if x.degree != 12:
        raise ValueError("only degree-12 classes integrate to a number")
    return x.coefficient("h^6") * TOP_INTEGRALS["h^6"] + ETA_SQUARE * x.eta_sq


def integrate_product(x: HodgeClass, y: HodgeClass) -> ParametricScalar:
    return integrate(multiply(x, y))


def verify_independence_degree6(q: Rational) -> tuple[bool, Fraction]:
    """Whether h^3 and h*c2 stay independent in the top pairing at q > 0,
    with the Gram determinant as witness."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("the BBF square of a polarization must be positive")
    h3, hc2 = h_power(3), basis_class(6, "h*c2")
    g11 = integrate_product(h3, h3).evaluate(q)
    g12 = integrate_product(h3, hc2).evaluate(q)
    g22 = integrate_product(hc2, hc2).evaluate(q)
    det = g11 * g22 - g12 * g12
    return det != 0, det


def chern_numbers_from_ring(q: Rational) -> tuple[Fraction, Fraction, Fraction]:
    """(c2^3, c2*c4, c6) recomputed by ring multiplication at the given q.

    The first two must come out independent of q; c6 is the stored
    normalization (it is the top Chern class itself, not a product).
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("the BBF square of a polarization must be positive")
    c2 = c2_class()
    c2_cubed = integrate(multiply(multiply(c2, c2), c2)).evaluate(q)
    c2_c4 = integrate(multiply(c2, c4_class())).evaluate(q)
    return c2_cubed, c2_c4, CHERN_NUMBER_C6

import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epwcalc import lagrangian
from epwcalc.hodge_ring import TOP_INTEGRALS, integrate, multiply, positive_q
from epwcalc.lagrangian import (
    DEGREE6_FORM,
    EPW_DEGREE,
    EPW_Q,
    ETA_SQUARE,
    FixedLocusInvariants,
    disambiguate_involution_case,
    eta_coefficient,
    fixed_locus_invariants,
    hodge_symmetry_relation,
    project_lagrangian_class,
    self_intersection,
)
from epwcalc.llv import FIXED_LOCUS_EULER
from epwcalc.qfield import ONE
from fujiki_oracle import AbstractClassSpace, polarized_integral


def test_projection_reference_values():
    assert project_lagrangian_class(720, 4) == (Fraction(15, 8), Fraction(-5, 8))
    assert project_lagrangian_class(72, 1) == (12, -1)
    assert project_lagrangian_class(0, 4) == (0, 0)
    with pytest.raises(ValueError):
        project_lagrangian_class(720, 0)
    with pytest.raises(ValueError):
        project_lagrangian_class(720, -4)


def _oracle_projection(degree, q):
    """Independent derivation: solve the two defining linear conditions
    (orthogonality to h*sigma*sigbar and the h^3-degree) by Cramer's rule
    on matching-sum integrals."""
    degree, q = Fraction(degree), Fraction(q)
    space = AbstractClassSpace.polarized(q, sigma_pairing=Fraction(7, 3))
    # orthogonality row: [W] . (h sigma sigbar) = a*(h^4 s sb) + b*(c2 h^2 s sb) = 0
    m11 = polarized_integral("1", ["h"] * 4 + ["sigma", "sigbar"], space)
    m12 = polarized_integral("c2", ["h", "h", "sigma", "sigbar"], space)
    # degree row: [W] . h^3 = a*h^6 + b*h^4c2 = degree
    m21 = TOP_INTEGRALS["h^6"].evaluate(q)
    m22 = TOP_INTEGRALS["h^4*c2"].evaluate(q)
    det = m11 * m22 - m12 * m21
    return (-m12 * degree) / det, (m11 * degree) / det


def _closed_form_projection(degree, q):
    """The solution in closed form: with C(1) = 15 and C(c2) = 108 the
    orthogonality row is (3q^2, 36q) and the degree row (15q^3, 108q^2)."""
    b = -Fraction(degree) / (72 * Fraction(q) ** 2)
    return -12 * b / q, b


def test_projection_against_linear_conditions():
    rng = random.Random(2718)
    for _ in range(200):
        degree = Fraction(rng.randint(-300, 300), rng.randint(1, 7))
        q = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        got = project_lagrangian_class(degree, q)
        assert got == _closed_form_projection(degree, q)
        assert got == _oracle_projection(degree, q)


#: run in a fresh interpreter, so that the ring and the projection are built
#: from the patched constant: argv is (tests directory, class, constant), and
#: it prints h^3 . [W] through the ring, with [W] built from the projection
#: solved in q, and [W] . h*sigma*sigbar through the matching-sum oracle, at
#: (EPW_DEGREE, EPW_Q)
_PATCHED_CONSTANT = """
import sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from epwcalc import fujiki
fujiki.FUJIKI_CONSTANTS[sys.argv[2]] = Fraction(sys.argv[3])
from epwcalc.hodge_ring import integrate, multiply
from epwcalc.lagrangian import _UNIT_PROJECTION, EPW_DEGREE, EPW_Q, project_lagrangian_class
from epwcalc.qfield import ONE
from fujiki_oracle import AbstractClassSpace, polarized_integral
a, b = project_lagrangian_class(EPW_DEGREE, EPW_Q)
sa, sb = (EPW_DEGREE * c for c in _UNIT_PROJECTION)
w = {(3, 0): sa * ONE, (1, 1): sb * ONE}
space = AbstractClassSpace.polarized(EPW_Q)
orthogonal = a * polarized_integral("1", ["h"] * 4 + ["sigma", "sigbar"], space) \
    + b * polarized_integral("c2", ["h", "h", "sigma", "sigbar"], space)
print(integrate(multiply({(3, 0): ONE}, w)).evaluate(EPW_Q), orthogonal)
"""


@pytest.mark.parametrize("alpha, constant", [("c2", 109), ("1", 16)])
def test_projection_follows_the_fujiki_constants(alpha, constant):
    """With C(c2) or C(1) changed before the package is imported, the
    projected class still has h^3-degree EPW_DEGREE and stays orthogonal to
    h*sigma*sigbar: the projection is solved from the constants, not
    copied in."""
    proc = subprocess.run(
        [sys.executable, "-c", _PATCHED_CONSTANT, str(Path(__file__).parent), alpha,
         str(constant)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(EPW_DEGREE), "0"]


def test_projection_recovers_the_degree():
    rng = random.Random(161)
    for _ in range(15):
        degree = Fraction(rng.randint(-200, 200))
        q = Fraction(rng.randint(1, 25))
        a, b = project_lagrangian_class(degree, q)
        h3_pairing = a * TOP_INTEGRALS["h^6"].evaluate(q) \
            + b * TOP_INTEGRALS["h^4*c2"].evaluate(q)
        assert h3_pairing == degree


_NOT_POSITIVE = "^the BBF square of a polarization must be positive$"


def test_every_entry_validates_q():
    """A Fraction q is read as it is, not copied, and still validated at
    each public entry; an int q is converted, and q <= 0 of either type
    raises the same text."""
    q = Fraction(7, 3)
    assert positive_q(q) is q
    assert positive_q(4) == 4 and type(positive_q(4)) is Fraction
    entries = (project_lagrangian_class, lagrangian.projection_square, fixed_locus_invariants,
               lambda degree, q: self_intersection(degree, 1, 0, q))
    for bad in (0, -4, Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError, match=_NOT_POSITIVE):
            positive_q(bad)
        for entry in entries:
            with pytest.raises(ValueError, match=_NOT_POSITIVE):
                entry(EPW_DEGREE, bad)


def test_self_intersection_reference_values():
    assert self_intersection(Fraction(15, 8), Fraction(-5, 8), 0, 4) == 1200
    assert self_intersection(1, 0, 0, 4) == 960
    for q in (1, 4, Fraction(7, 2)):
        assert self_intersection(0, 0, 1, q) == 4
    with pytest.raises(ValueError):
        self_intersection(1, 1, 1, 0)


def test_self_intersection_scales_quadratically():
    rng = random.Random(55)
    for _ in range(10):
        a, b, c = (Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3))
        q = Fraction(rng.randint(1, 9))
        t = Fraction(rng.randint(-5, 5))
        assert self_intersection(t * a, t * b, t * c, q) == \
            t ** 2 * self_intersection(a, b, c, q)


def _pairings(w, q):
    """(h^3 . w, h*c2 . w, eta . w) for w = (a, b, c) at q: ``DEGREE6_FORM``
    applied to w, every entry evaluated, in Fraction arithmetic.  The
    reference for the pairings ``fixed_locus_invariants`` reads as
    degree^k times single terms."""
    return [sum(g.evaluate(q) * t for g, t in zip(row, w)) for row in DEGREE6_FORM]


def test_degree6_pairings_against_the_ring():
    """self_intersection and ``_pairings`` equal the pairings of
    w = a*h^3 + b*h*c2 + c*eta with itself and with each of h^3, h*c2 and
    eta, combined by bilinearity: the (h^3, h*c2) block from the ring's
    products of basis classes at q, eta's row and column from the stated
    form (pinned as (0, 0, 4) in ``test_ring``), also when some components
    of w are 0 and self_intersection skips their entries."""
    basis = [{(3, 0): ONE}, {(1, 1): ONE}]
    ring = [[integrate(multiply(e, f)) for f in basis] for e in basis]
    gram = [ring[0] + [DEGREE6_FORM[0][2]], ring[1] + [DEGREE6_FORM[1][2]], DEGREE6_FORM[2]]
    rng = random.Random(6006)
    for i in range(40):
        a, b, c = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3))
        q = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        # zero components: c = 0 (as at the EPW point), a = b = 0, and w = 0
        if i % 4 == 1:
            c = Fraction(0)
        elif i % 4 == 2:
            a = b = Fraction(0)
        elif i % 4 == 3:
            a = b = c = Fraction(0)
        w = (a, b, c)
        pairings = [sum(g.evaluate(q) * t for g, t in zip(row, w)) for row in gram]
        assert _pairings(w, q) == pairings
        assert self_intersection(a, b, c, q) == sum(t * p for t, p in zip(w, pairings))


_BIG = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
#: a class component: zero, a small or 30-digit integer, or a 30-digit fraction
_COMPONENT = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-10 ** 30, 10 ** 30), _BIG)
_POSITIVE_Q = st.one_of(st.integers(1, 50).map(Fraction),
                        st.builds(Fraction, st.integers(1, 10 ** 30), st.integers(1, 10 ** 30)))


@given(_COMPONENT, _COMPONENT, _COMPONENT, _POSITIVE_Q)
@example(0, 0, 0, Fraction(10 ** 30 - 1, 7))
@example(Fraction(-10 ** 29, 3), 0, Fraction(5, 10 ** 30), Fraction(10 ** 30, 10 ** 30 - 3))
@example(0, -10 ** 30, 0, Fraction(1, 10 ** 30))
@example(Fraction(15, 8), Fraction(-5, 8), 0, Fraction(4))
@example(Fraction(-7, 2), Fraction(10 ** 30, 10 ** 30 - 1), 0, Fraction(10 ** 30, 3))
@example(0, -10 ** 30, Fraction(-3, 10 ** 30 - 1), Fraction(1, 10 ** 30))
def test_self_intersection_matches_the_fraction_sum(a, b, c, q):
    """sum of w_i*w_j*g_ij(q) over the whole form, each entry c*q^k taken in
    Fraction arithmetic, zero entries and zero components included; and
    w . (form w) with the pairings of w taken by ``_pairings``.  The running
    integer pair is reduced once, to a positive denominator."""
    w = (a, b, c)
    expected = sum((w[i] * w[j] * g.coeff * q ** g.weight
                    for i, row in enumerate(DEGREE6_FORM) for j, g in enumerate(row)),
                   Fraction(0))
    value = self_intersection(a, b, c, q)
    assert type(value) is Fraction and value.denominator > 0
    assert value == expected
    assert value == sum((t * p for t, p in zip(w, _pairings(w, q))), Fraction(0))


def _invariants_through_the_pairings(degree, q):
    """The invariants with [W]'s pairings and base square read off the form
    at the projection through ``_pairings``, in Fraction arithmetic."""
    a, b = project_lagrangian_class(degree, q)
    h3_w, hc2_w, _ = _pairings((a, b, 0), q)
    case, eta, chi_top = disambiguate_involution_case(a * h3_w + b * hc2_w)
    k = lagrangian.CANONICAL_MULTIPLE
    c1c2 = -Fraction(k, 2) * (hc2_w + k ** 2 * h3_w)
    return FixedLocusInvariants(case, eta, c1c2, c1c2 / 24, c1c2 / 24 - Fraction(chi_top, 2),
                                Fraction(chi_top), k ** 3 * h3_w)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(_POSITIVE_Q, st.one_of(st.none(), _BIG, _POSITIVE_Q))
@example(Fraction(1), None)
@example(Fraction(2), None)
@example(Fraction(10 ** 30 - 1, 10 ** 29 + 3), None)
@example(Fraction(1), Fraction(7))
@example(Fraction(1), Fraction(0))
def test_fixed_locus_invariants_match_the_pairings(m, degree):
    """At EPW-like points (720m^3, 4m^2) one case is admissible and every
    invariant agrees with the pairings walked through the form; at any
    other degree (q = 4m^2 kept) both succeed or both raise the same
    ValueError, q <= 0 included.  The projection's square read off
    ``_UNIT_SQUARE`` is the ring's."""
    q = 4 * m * m
    epw_like = degree is None
    if epw_like:
        degree = 720 * m ** 3
    got = _outcome(fixed_locus_invariants, degree, q)
    assert got == _outcome(_invariants_through_the_pairings, degree, q)
    if not isinstance(got, str):
        assert all(type(value) is Fraction for value in got[1:])
    a, b = project_lagrangian_class(degree, q)
    assert lagrangian.projection_square(degree, q) == self_intersection(a, b, 0, q)
    if epw_like:
        assert got.case == "natural" and got.eta == 0 and got.c3 == -1200
    for bad_q in (0, -q):
        assert _outcome(fixed_locus_invariants, degree, bad_q) == \
            _outcome(_invariants_through_the_pairings, degree, bad_q)


@pytest.mark.parametrize("degree, q, message", [
    (7, 4, "no involution case admits a rational eta coefficient"),
    (272214, 213, "ambiguous: both involution cases admit a rational eta coefficient"),
])
def test_fixed_locus_invariants_fail_as_the_pairings_do(degree, q, message):
    for point in ((degree, q), (Fraction(degree), Fraction(q))):
        assert _outcome(fixed_locus_invariants, *point) == f"ValueError: {message}"
        assert _outcome(_invariants_through_the_pairings, *point) == f"ValueError: {message}"


def test_eta_coefficient():
    assert eta_coefficient(1200, -1200) == 0
    assert eta_coefficient(1200, -1204) == 1      # hypothetical chi_top
    assert eta_coefficient(1200, -1536) is None   # 4c^2 = 336 has no rational root
    assert eta_coefficient(1200, -1100) is None   # would need 4c^2 < 0
    assert eta_coefficient(0, -9) == Fraction(3, 2)


def _sqrt_reference(x):
    """The root of a Fraction x from its (reduced) numerator and denominator."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(rn, rd) if (rn * rn, rd * rd) == (x.numerator, x.denominator) else None


def _eta_reference(base_square, chi_top, eta_square=ETA_SQUARE):
    """The eta coefficient in Fraction arithmetic: the root of
    (-chi_top - base_square)/eta^2 when that is the square of a rational."""
    return _sqrt_reference((-Fraction(chi_top) - Fraction(base_square)) / eta_square)


def _case_reference(base_square):
    """``disambiguate_involution_case`` through ``_eta_reference``."""
    admissible = [(case, c, chi) for case, chi in FIXED_LOCUS_EULER.items()
                  if (c := _eta_reference(base_square, chi)) is not None]
    if not admissible:
        raise ValueError("no involution case admits a rational eta coefficient")
    if len(admissible) > 1:
        raise ValueError("ambiguous: both involution cases admit a rational eta coefficient")
    return admissible[0]


_RATIONAL = st.one_of(st.just(0), st.integers(-2000, 2000), st.integers(-10 ** 30, 10 ** 30),
                      _BIG, st.fractions(min_value=-2000, max_value=2000, max_denominator=50))


@given(_RATIONAL, _RATIONAL, _RATIONAL, st.booleans())
@example(0, -9, 0, False)
@example(Fraction(1136), -1200, 0, False)
@example(1136, Fraction(-1536), 0, False)
@example(Fraction(-7, 3), 0, 0, False)
@example(0, Fraction(-13, 4), Fraction(1, 2), True)
@example(0, 10 ** 30 + 1, Fraction(-7, 10 ** 29), True)
def test_eta_coefficient_matches_the_fraction_arithmetic(base, chi_top, c, with_root):
    """On random rational base squares and Euler characteristics (negative,
    zero, Fraction and int), and on base = -chi_top - eta^2 c^2 for a random
    rational c, where the root exists."""
    if with_root:
        base = -Fraction(chi_top) - ETA_SQUARE * Fraction(c) ** 2
    got = eta_coefficient(base, chi_top)
    assert got == _eta_reference(base, chi_top)
    assert got is None or type(got) is Fraction
    assert got == abs(Fraction(c)) or not with_root


_WIDE_INT = st.one_of(st.integers(-50, 50), st.integers(-10 ** 30, 10 ** 30))


@given(_WIDE_INT, _WIDE_INT.filter(bool), st.integers(1, 5))
@example(0, -3, 1)
@example(-9, -4, 1)
@example(9 * 10 ** 30, 4 * 10 ** 30, 1)
@example(7, 3, 6)
def test_eta_coefficient_matches_the_fraction_root(num, den, scale):
    """c^2 = num/den and c^2 = scale*(num/den)^2, each met with a chi_top of
    denominator scale*|den|, so the integer pair shares factors before it
    is reduced: the root of c^2 or None; at chi_top = 0, a square c^2 gives
    |num/den|."""
    x = Fraction(num, den)
    chi_top = Fraction(-1, scale * abs(den))
    for c_sq in (x, scale * x * x):
        got = eta_coefficient(-chi_top - ETA_SQUARE * c_sq, chi_top)
        assert got == _sqrt_reference(c_sq)
        assert got is None or type(got) is Fraction
    assert eta_coefficient(-ETA_SQUARE * x * x, 0) == abs(x)


@pytest.mark.parametrize("eta_square", [Fraction(4, 9), Fraction(9, 2), 1])
def test_eta_coefficient_reads_eta_square_as_a_rational(monkeypatch, eta_square):
    """eta^2 enters as a numerator and a denominator, not as an integer."""
    monkeypatch.setattr(lagrangian, "ETA_SQUARE", eta_square)
    rng = random.Random(1919)
    for _ in range(200):
        chi_top = Fraction(rng.randint(-2000, 2000), rng.randint(1, 4))
        c = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        base = -chi_top - eta_square * c * c
        got = eta_coefficient(base, chi_top)
        assert got == abs(c) == _eta_reference(base, chi_top, eta_square)
        base = Fraction(rng.randint(-2000, 2000), 3)
        assert eta_coefficient(base, chi_top) == _eta_reference(base, chi_top, eta_square)


@given(st.sampled_from(sorted(FIXED_LOCUS_EULER.values())), _RATIONAL, _RATIONAL, st.booleans())
@example(-1200, 0, 1200, False)
@example(-1200, 0, 1136, False)
@example(-1200, 0, Fraction(1136), False)
@example(-1200, 0, 7, False)
@example(-1536, Fraction(3, 2), 0, True)
def test_disambiguation_matches_the_fraction_arithmetic(chi_top, c, base, on_a_case):
    """On random rational base squares, and on -chi_top - eta^2 c^2 for a
    random rational c and either Euler characteristic."""
    if on_a_case:
        base = -chi_top - ETA_SQUARE * Fraction(c) ** 2
    got = _outcome(disambiguate_involution_case, base)
    assert got == _outcome(_case_reference, base)
    if not isinstance(got, str):
        assert type(got[1]) is Fraction and type(got[2]) is int


def test_eta_coefficient_inverts_the_eta_part_of_the_ring():
    """The eta part of (a h^3 + b h c2 + c eta)^2, read back through
    [W]^2 = -chi_top, gives |c| for any a, b, c and q > 0."""
    rng = random.Random(4040)
    for _ in range(40):
        a, b, c = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3))
        q = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        base = self_intersection(a, b, 0, q)
        assert eta_coefficient(base, -self_intersection(a, b, c, q)) == abs(c)


def test_disambiguation_picks_the_natural_action():
    assert disambiguate_involution_case(1200) == ("natural", 0, -1200)
    base = self_intersection(*project_lagrangian_class(EPW_DEGREE, EPW_Q), 0, EPW_Q)
    assert base == 1200
    assert disambiguate_involution_case(base)[0] == "natural"


def test_disambiguation_can_fail():
    # with a degree that makes the base square irrational-incompatible for
    # both Euler characteristics, no case is admissible
    base = self_intersection(*project_lagrangian_class(7, 4), 0, 4)
    with pytest.raises(ValueError, match="no involution case"):
        disambiguate_involution_case(base)
    with pytest.raises(ValueError, match="no involution case"):
        fixed_locus_invariants(7, 4)


def test_disambiguation_can_be_ambiguous():
    """At q = 213 and degree 272214 the base square is 1136, and both
    Euler characteristics admit an eta coefficient: 1136 + 4*4^2 = 1200
    (natural) and 1136 + 4*10^2 = 1536 (opposite)."""
    base = self_intersection(*project_lagrangian_class(272214, 213), 0, 213)
    assert base == 1136
    assert eta_coefficient(base, -1200) == 4
    assert eta_coefficient(base, -1536) == 10
    with pytest.raises(ValueError, match="ambiguous"):
        disambiguate_involution_case(1136)
    with pytest.raises(ValueError, match="ambiguous"):
        fixed_locus_invariants(272214, 213)


def test_fixed_locus_invariants():
    inv = fixed_locus_invariants()
    assert inv[2:] == (-3120, -130, 470, -1200, 5760)
    assert (inv.case, inv.eta) == ("natural", 0)
    assert inv.c1c2 / 24 == inv.chi_structure
    assert hodge_symmetry_relation(inv.chi_structure, inv.chi_one_forms, inv.c3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_multiple_enters_through_the_chern_classes(monkeypatch, k):
    """With K_W = k*h|, c1*c2 and K^3 equal the ring products of c1 = -k*h
    and c2 = (c2| + k^2*h^2)/2 with the class of W.  x . w is linear in x,
    so each basis component of x meets the class of W, built from the
    projection solved in q, on its own."""
    monkeypatch.setattr(lagrangian, "CANONICAL_MULTIPLE", k)
    a, b = (EPW_DEGREE * c for c in lagrangian._UNIT_PROJECTION)
    w = {(3, 0): a * ONE, (1, 1): b * ONE}
    c1, minus_c1 = {(1, 0): -k * ONE}, {(1, 0): k * ONE}
    c2 = {(0, 1): ONE / 2, (2, 0): k ** 2 * ONE / 2}

    def on_w(x):
        return sum(s.evaluate(EPW_Q) * integrate(multiply({m: ONE}, w)).evaluate(EPW_Q)
                   for m, s in x.items())

    inv = fixed_locus_invariants()
    assert inv.c1c2 == on_w(multiply(c1, c2))
    assert inv.canonical_cube == on_w(multiply(multiply(minus_c1, minus_c1), minus_c1))
    assert inv.chi_structure == inv.c1c2 / 24


def test_hodge_symmetry_relation():
    assert hodge_symmetry_relation(-130, 470, -1200)
    assert not hodge_symmetry_relation(-130, 470, -1000)
    assert hodge_symmetry_relation(0, 0, 0)
    assert hodge_symmetry_relation(Fraction(1, 2), 0, 1)


@given(_RATIONAL, _RATIONAL, _RATIONAL, st.booleans())
@example(Fraction(-130), 0, Fraction(-1200), True)
@example(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), False)
def test_hodge_symmetry_relation_matches_the_fraction_check(chi_structure, chi_top, other, holds):
    """Where it holds, chi(Omega^1) = chi(O) - chi_top/2, and elsewhere at
    a random chi(Omega^1)."""
    chi_one_forms = Fraction(chi_structure) - Fraction(chi_top) / 2 if holds else other
    expected = Fraction(chi_top) / 2 == Fraction(chi_structure) - Fraction(chi_one_forms)
    assert hodge_symmetry_relation(chi_structure, chi_one_forms, chi_top) is expected
    assert expected or not holds

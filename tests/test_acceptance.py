"""End-to-end acceptance checks.  Every comparison is exact — Fractions and
symbolic scalars, zero tolerance.

Each criterion is one test that prints its own [PASS]/[FAIL] line (visible
with -s, or in the captured output on failure); `pytest -v` additionally
shows one line per criterion through the test names.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

from epwcalc.degeneration import (
    HILB_VECTOR,
    SPHERICAL_VECTOR,
    central_charges,
    ext_dimensions,
    f3_hodge_relations,
    jacobian_class_of_E,
    kuranishi_identity_check,
    pell_spherical_classes,
    sym_prod_eval,
    wall_alpha_sq,
)
from epwcalc.fujiki import CODEGREE, fujiki_constant
from epwcalc.hodge_ring import (
    DEGREE8_RELATION,
    DEGREE10_RELATIONS,
    TOP_INTEGRALS,
    chern_numbers_from_ring,
    derive_degree8_relation,
    derive_degree10_relations,
)
from epwcalc.lagrangian import (
    disambiguate_involution_case,
    fixed_locus_invariants,
    hodge_symmetry_relation,
    project_lagrangian_class,
    self_intersection,
)
from epwcalc.llv import betti_of_quotient, euler_of_fixed_locus, euler_of_quotient
from epwcalc.mukai import hyperbolic_lattice
from epwcalc.qfield import ParametricScalar, ratio_sqrt
from fujiki_oracle import AbstractClassSpace, polarized_integral
from test_degeneration import _cubed, effectivity_of_pell_class

Q = ParametricScalar(1, 1)


def _check(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_criterion_01_fujiki_specialization():
    rng = random.Random(20260824)
    ok = True
    for alpha, need in CODEGREE.items():
        for _ in range(50):
            qb = Fraction(rng.randint(-90, 90), rng.randint(1, 30))
            space = AbstractClassSpace.with_square("b", qb)
            got = polarized_integral(alpha, ["b"] * need, space)
            ok = ok and got == fujiki_constant(alpha) * qb ** (need // 2)
    _check("criterion 1: matching-sum integrals specialize to C(alpha)*q^(3-k), "
           "4 classes x 50 random rational q", ok)


def test_criterion_02_top_integrals_at_q4():
    got = tuple(TOP_INTEGRALS[m].evaluate(4) for m in ("h^6", "h^4*c2", "h^2*c2^2", "h^2*c4"))
    _check("criterion 2: degree-12 monomial integrals at q=4 are (960, 1728, 4800, 1920)",
           got == (960, 1728, 4800, 1920), f"got {got}")


def test_criterion_03_relation_solvers_symbolic():
    deg8_ok = (DEGREE8_RELATION == (-160 / Q ** 2, 80 / (3 * Q))
               and derive_degree8_relation(4) == (-10, Fraction(20, 3)))
    deg10_ok = (DEGREE10_RELATIONS == (36 / (5 * Q), 80 / Q ** 2, 32 / Q ** 2)
                and derive_degree10_relations(4) == (Fraction(9, 5), 5, 2))
    _check("criterion 3: degree-8 relation is (-160/q^2, 80/(3q)) and degree-10 "
           "is (36/(5q), 80/q^2, 32/q^2) symbolically, and the solvers evaluate "
           "them at q=4", deg8_ok and deg10_ok)


def test_criterion_04_chern_numbers_q_independent():
    rng = random.Random(41)
    ok = True
    for _ in range(20):
        q = Fraction(rng.randint(1, 99), rng.randint(1, 20))
        ok = ok and chern_numbers_from_ring(q) == (36800, 14720, 3200)
    _check("criterion 4: ring Chern numbers are (36800, 14720, 3200) at 20 random q > 0", ok)


def test_criterion_05_betti_and_euler():
    ok = (
        betti_of_quotient("natural") == (1, 1, 255, 486)
        and euler_of_quotient("natural") == 1000
        and euler_of_fixed_locus("natural") == -1200
        and betti_of_quotient("opposite") == (1, 1, 276, 276)
        and euler_of_quotient("opposite") == 832
        and euler_of_fixed_locus("opposite") == -1536
    )
    _check("criterion 5: quotient Betti/Euler numbers for both actions, and the "
           "fixed-locus Euler characteristics -1200 / -1536", ok)


def test_criterion_06_involution_disambiguation():
    base = self_intersection(*project_lagrangian_class(720, 4), 0, 4)
    case, c, chi_top = disambiguate_involution_case(base)
    four_c_sq = {cs: -euler_of_fixed_locus(cs) - base for cs in ("natural", "opposite")}
    ok = (
        (case, c, chi_top) == ("natural", 0, -1200)
        and four_c_sq == {"natural": 0, "opposite": 336}
        and ratio_sqrt(336, 4) is None  # c^2 = 84 is not a rational square
    )
    _check("criterion 6: natural action selected; 4c^2 candidates {0, 336} with "
           "c^2 = 84 rejected as irrational", ok)


def test_criterion_07_lagrangian_class_and_sign_flag():
    a, b = project_lagrangian_class(720, 4)
    square = self_intersection(a, b, 0, 4)
    proc = subprocess.run(
        [sys.executable, "-m", "epwcalc.cli", "lagrangian", "--json"],
        capture_output=True, text=True,
    )
    rows = {r["label"]: r["value"] for r in json.loads(proc.stdout)["results"]}
    flag_emitted = rows.get("sign convention chi_top/[W]^2") == "-1"
    ok = (a, b) == (Fraction(15, 8), Fraction(-5, 8)) and square == 1200 and flag_emitted
    _check("criterion 7: Lagrangian class (15/8, -5/8) with ring self-intersection "
           "+1200 and the sign-convention flag emitted", ok,
           f"(a, b, square) = {(a, b, square)}")


def test_criterion_08_fixed_locus_invariants():
    inv = fixed_locus_invariants()
    ok = inv[2:] == (-3120, -130, 470, -1200, 5760) and \
        hodge_symmetry_relation(inv.chi_structure, inv.chi_one_forms, inv.c3)
    _check("criterion 8: fixed-locus invariants (c1c2, chi(O), chi(Omega^1), c3, K^3) "
           "= (-3120, -130, 470, -1200, 5760) with Hodge symmetry", ok,
           f"got {inv[2:]}")


def test_criterion_09_wall_package():
    z_s, z_v, ratio = central_charges(SPHERICAL_VECTOR, HILB_VECTOR, -2)
    # the solutions with x < 0 are the images (-x, +-y) of the positive branch
    negative = [(-x, sy) for x, y in pell_spherical_classes(10 ** 6) for sy in (-y, y)]
    negative_ok = len(negative) == 16 and all(
        effectivity_of_pell_class(x, y) < 0 for x, y in negative
    )
    ok = (
        wall_alpha_sq(-2) == 2
        and z_v == (0, 4)
        and z_s == (0, 2)
        and ratio == Fraction(1, 2)
        and hyperbolic_lattice(HILB_VECTOR, SPHERICAL_VECTOR) == ((4, 0), (0, -2))
        and tuple(ext_dimensions().values()) == (2, 4, 6)
        and negative_ok
        and kuranishi_identity_check() is True
    )
    _check("criterion 9: alpha^2 = 2, wall charges (0,4)/(0,2), ratio 1/2, Gram diag(4,-2), "
           "Ext (2,4,6), Pell x<0 never effective up to 10^6, Kuranishi identity", ok)


def test_criterion_10_symmetric_product_and_f3():
    cube = sym_prod_eval(10, _cubed(1, -6))  # (theta - 6*eta)^3
    theta3 = sym_prod_eval(10, (0, 0, 0, 1))
    table = f3_hodge_relations()
    ok = (
        cube == -36
        and jacobian_class_of_E(10) == 2
        and theta3 == 720
        and table.h1_structure == 0
        and table.h02_lower_bound == 45
        and table.h03_minus_h02 == 131
        and table.h12_minus_h02_minus_h11 == 470
    )
    _check("criterion 10: (theta-6eta)^3 = -36, [E] coefficient 2, theta^3 = 720, "
           "and the fixed-threefold Hodge relations (0, 45, 131, 470)", ok)

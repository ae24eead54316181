"""The limit threefold C^(3) in closed form: Macdonald's Chern classes,
integrated with ``sym_prod_eval``, against the closed forms of chi_top,
chi(O) and K, and against the binomials and the cube that the ``f3`` and
``symprod`` reports state."""

import json
import re
from fractions import Fraction
from math import comb

import pytest
from macdonald_oracle import (
    canonical_class,
    canonical_cube,
    cube,
    euler_characteristic,
    holomorphic_forms,
    structure_sheaf_euler,
)

from epwcalc.cli import run

GENERA = range(3, 13)


@pytest.mark.parametrize("genus", GENERA)
def test_euler_characteristic_closed_form(genus):
    assert euler_characteristic(genus) == -comb(2 * genus - 2, 3)


@pytest.mark.parametrize("genus", GENERA)
def test_structure_sheaf_euler_is_the_alternating_sum_of_forms(genus):
    """chi(O) = c1 c2 / 24 on the Chern side, and
    sum_p (-1)^p h^(0,p) = sum_(i <= 3) (-1)^i binom(g, i) on the Hodge side."""
    alternating = sum((-1) ** p * h for p, h in enumerate(holomorphic_forms(genus)))
    assert structure_sheaf_euler(genus) == alternating
    assert alternating == sum((-1) ** i * comb(genus, i) for i in range(4))


@pytest.mark.parametrize("genus, chi_top, chi_structure", [
    (3, -4, 0), (5, -56, -4), (10, -816, -84), (12, -1540, -165),
])
def test_pinned_values(genus, chi_top, chi_structure):
    assert (euler_characteristic(genus), structure_sheaf_euler(genus)) == (chi_top, chi_structure)


@pytest.mark.parametrize("genus", GENERA)
def test_canonical_class_is_theta_plus_g_minus_4_x(genus):
    assert canonical_class(genus) == {(1, 0): 1, (0, 1): genus - 4}


def test_canonical_cube_at_genus_10():
    assert canonical_cube(10) == 3636


def _rows(argv, capsys):
    assert run([*argv, "--json"]) == 0
    return {row["label"]: row for row in json.loads(capsys.readouterr().out)["results"]}


@pytest.mark.parametrize("genus", GENERA)
def test_f3_binomials_are_macdonald_forms(genus, capsys):
    """The ``h^(0,2) lower bound`` row is h^(0,2) of C^(3), and the binom(g, 3)
    in the ``h^(0,3)`` note is h^(0,3) of C^(3)."""
    rows = _rows(["f3", "--genus", str(genus)], capsys)
    _, _, h02, h03 = holomorphic_forms(genus)
    assert Fraction(rows["h^(0,2) lower bound"]["value"]) == h02
    note = rows["h^(0,3) - h^(0,2)"]["paper_anchor"]
    assert int(re.fullmatch(r"h\^\(0,3\) = (\d+) \+ .*", note)[1]) == h03


def test_symprod_cube_is_that_of_two_theta_minus_k_at_genus_10(capsys):
    """At g = 10, 2*theta - K = theta - 6x is the class whose cube ``symprod``
    reports.  ``symprod --genus g`` keeps the -6 at every genus, where
    2*theta - K would give -(g - 4); the two agree only at g = 10."""
    k = canonical_class(10)
    two_theta_minus_k = {(1, 0): 2 - k[1, 0], (0, 1): -k[0, 1]}
    assert two_theta_minus_k == {(1, 0): 1, (0, 1): -6}
    value = _rows(["symprod", "--genus", "10"], capsys)["(theta - 6*eta)^3"]["value"]
    assert Fraction(value) == cube(10, two_theta_minus_k) == -36

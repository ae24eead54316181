"""The package's value types keep the semantics of frozen dataclasses:
immutable fields, equality and hash by value within one class, no tuple
behaviour, validation in the constructor."""

import copy
import pickle
from fractions import Fraction

import pytest

from epwcalc.degeneration import SymProdClass, WallCharge, WallPoint
from epwcalc.hodge_ring import HodgeClass, basis_class
from epwcalc.mukai import MukaiVector, NSClass
from epwcalc.qfield import ParametricScalar

#: (factory of one value, its field names); each call builds a new object
VALUES = {
    "HodgeClass": (lambda: basis_class(6, "h*c2"), ("degree", "coeffs")),
    "MukaiVector": (lambda: MukaiVector(1, 0, -2), ("r", "c", "s")),
    "NSClass": (lambda: NSClass(2, -1), ("a", "b")),
    "WallPoint": (lambda: WallPoint.from_beta(Fraction(-3, 2)), ("beta", "alpha_sq")),
    "WallCharge": (lambda: WallCharge(Fraction(1), Fraction(-2), Fraction(7, 4)),
                   ("re", "im", "alpha_sq")),
    "SymProdClass": (lambda: SymProdClass.monomial(10, 2), ("genus", "coeffs")),
}
#: the types whose only product is with a scalar on the left
LEFT_SCALED = ("MukaiVector", "NSClass", "WallCharge", "SymProdClass")


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name):
    make, fields = VALUES[name]
    x, y = make(), make()
    assert x is not y and x == y and hash(x) == hash(y)
    as_tuple = tuple(getattr(x, field) for field in fields)
    assert x != as_tuple and as_tuple != x
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
    with pytest.raises(TypeError):
        (1,) + x
    if name in LEFT_SCALED:
        with pytest.raises(TypeError):
            x * 3
    assert x == make()  # nothing above changed it


@pytest.mark.parametrize("value", [*(make() for make, _ in VALUES.values()),
                                   ParametricScalar({-1: Fraction(1, 2), 2: 3})],
                         ids=[*VALUES, "ParametricScalar"])
def test_values_survive_copy_and_pickle(value):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_constructors_validate_and_coerce():
    with pytest.raises(ValueError):
        HodgeClass(5, ())
    with pytest.raises(ValueError):
        HodgeClass(4, basis_class(2, "h").coeffs)  # degree 4 has three coefficients
    with pytest.raises(ValueError):
        WallPoint(-2, 1)
    with pytest.raises(ValueError):
        SymProdClass(2, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        SymProdClass(3, (1, 0, 0))
    point = WallPoint(-2, 2)
    assert type(point.beta) is Fraction and type(point.alpha_sq) is Fraction
    assert all(type(c) is Fraction for c in SymProdClass(3, (1, 0, 2, 0)).coeffs)
    assert repr(MukaiVector(1, 0, -2)) == "MukaiVector(r=1, c=0, s=-2)"

"""The package's value types keep the semantics of frozen dataclasses:
immutable fields, equality and hash by value within one class, no tuple
behaviour, validation in the constructor."""

import copy
import pickle
from fractions import Fraction

import pytest

from epwcalc.mukai import MukaiVector, NSClass
from epwcalc.qfield import ParametricScalar

#: (factory of one value, its field names); each call builds a new object
VALUES = {
    "MukaiVector": (lambda: MukaiVector(1, 0, -2), ("r", "c", "s")),
    "NSClass": (lambda: NSClass(2, -1), ("a", "b")),
}
#: the types whose only product is with a scalar on the left
LEFT_SCALED = ("MukaiVector", "NSClass")


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
                                   ParametricScalar(Fraction(-1, 2), 3)],
                         ids=[*VALUES, "ParametricScalar"])
def test_values_survive_copy_and_pickle(value):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_constructors_validate_and_coerce():
    with pytest.raises(TypeError):
        MukaiVector(1, 0)  # three fields
    assert type(ParametricScalar(3, 2).coeff) is Fraction
    assert repr(MukaiVector(1, 0, -2)) == "MukaiVector(r=1, c=0, s=-2)"

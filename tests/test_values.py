"""Value semantics of the classes built on `scalars._Value`: equality, hash,
immutability, repr, copy and pickle go by the fields, as for a frozen
dataclass, and a memo never shows in any of them."""

import copy
import pickle

import pytest

from dividedops.autgroup import (
    FactoredAut,
    GeneratorImages,
    MonomialAut,
    ShiftVector,
    validate_generator_images,
)
from dividedops.oracles import ExponentWindow
from dividedops.report import Check, CheckReport
from dividedops.scalars import FpScalar, PadicInt, Prime


def report(detail="why"):
    out = CheckReport("t")
    out.add("x", False, detail)
    return out


def twisted():
    return FactoredAut(ShiftVector.from_digits(((1, 2), (2, 0)), 3),
                       MonomialAut.create(((2, 1), (1, 1)), (2, 1), 3))


# (make, a different value, hashable, repr of make()), each repr that of the
# frozen dataclass the class replaced
VALUES = {
    "Prime": (lambda: Prime(5), Prime(7), True, "Prime(5)"),
    "FpScalar": (lambda: FpScalar(3, 5), FpScalar(3, 7), True, "3 (mod 5)"),
    "PadicInt": (lambda: PadicInt((1, 2), 5), PadicInt((1, 2, 0), 5), True,
                 "PadicInt([1, 2], p=5)"),
    "ShiftVector": (lambda: ShiftVector.from_ints([3, 5], 3, 2),
                    ShiftVector.from_ints([3, 4], 3, 2), True,
                    "ShiftVector(components=(PadicInt([0, 1], p=3), PadicInt([2, 1], p=3)))"),
    "MonomialAut": (lambda: MonomialAut.create(((2, 1), (1, 1)), (2, 1), 3),
                    MonomialAut.create(((2, 1), (1, 1)), (1, 1), 3), True,
                    "MonomialAut(matrix=((2, 1), (1, 1)), scalars=(2 (mod 3), 1 (mod 3)))"),
    "FactoredAut": (lambda: FactoredAut(ShiftVector.from_ints([1], 2, 1),
                                        MonomialAut.identity(2, 1)),
                    FactoredAut(ShiftVector.from_ints([0], 2, 1), MonomialAut.identity(2, 1)), True,
                    "FactoredAut(shift=ShiftVector(components=(PadicInt([1], p=2),)), "
                    "tau=MonomialAut(matrix=((1,),), scalars=(1 (mod 2),)))"),
    "GeneratorImages": (lambda: GeneratorImages.identity(2, 1, 1),
                        GeneratorImages.identity(2, 1, 2), True,
                        "GeneratorImages(p=Prime(2), n=1, precision=1, "
                        "x_images=(DiffOp(p=2, n=1, x1),), "
                        "xinv_images=(DiffOp(p=2, n=1, x1^-1),), "
                        "d_images=((DiffOp(p=2, n=1, d1[1]),),))"),
    "ExponentWindow": (lambda: ExponentWindow((0, -1), (2, 3)), ExponentWindow((0, -1), (2, 4)),
                       True, "ExponentWindow(lo=(0, -1), hi=(2, 3))"),
    "Check": (lambda: Check("a", True), Check("a", True, "more"), False,
              "Check(name='a', passed=True, detail='')"),
    "CheckReport": (report, report("else"), False,
                    "CheckReport(title='t', "
                    "checks=[Check(name='x', passed=False, detail='why')])"),
}


# the fields in constructor order
FIELDS = {
    "Prime": ("p",), "FpScalar": ("value", "p"), "PadicInt": ("digits", "p"),
    "ShiftVector": ("components",), "MonomialAut": ("matrix", "scalars"),
    "FactoredAut": ("shift", "tau"),
    "GeneratorImages": ("p", "n", "precision", "x_images", "xinv_images", "d_images"),
    "ExponentWindow": ("lo", "hi"), "Check": ("name", "passed", "detail"),
    "CheckReport": ("title", "checks"),
}


@pytest.mark.parametrize("name", VALUES)
def test_values_compare_hash_and_print_by_their_fields(name):
    make, other, hashable, text = VALUES[name]
    value = make()
    assert value == make() and not value != make()
    assert value != other and value != text
    assert repr(value) == text
    if hashable:
        assert hash(value) == hash(make())
        assert len({value, make(), other}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@pytest.mark.parametrize("name", VALUES)
def test_values_are_immutable(name):
    value = VALUES[name][0]()
    assert type(value)(*map(value.__getattribute__, FIELDS[name])) == value
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == VALUES[name][0]()


@pytest.mark.parametrize("name", VALUES)
def test_values_survive_copy_and_pickle(name):
    value = VALUES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)
        assert repr(twin) == repr(value)


def test_constructors_take_keywords_and_defaults():
    assert Check(name="a", passed=True) == Check("a", True, "") == Check("a", passed=True)
    empty = CheckReport("t")
    assert empty.checks == [] and empty.checks is not CheckReport("t").checks
    assert CheckReport(title="t", checks=[Check("x", False, "why")]) == report()
    assert FpScalar(p=5, value=3) == FpScalar(3, 5)
    g = GeneratorImages.identity(2, 1, 1)
    assert GeneratorImages(p=2, n=1, precision=1, x_images=g.x_images, xinv_images=g.xinv_images,
                           d_images=g.d_images) == g
    for bad in (lambda: Check("a"), lambda: Check("a", True, "", 1),
                lambda: Check("a", True, nope=1), lambda: Check("a", True, name="b"),
                lambda: ShiftVector()):
        with pytest.raises(TypeError):
            bad()


def test_memos_stay_out_of_the_value():
    aut = twisted()
    g = aut.to_images()
    assert validate_generator_images(g).passed
    assert g._factored == aut and aut._ainv_and_t and aut.tau._inverse is not None
    plain = twisted().to_images()  # equal images, never validated
    assert plain._factored is None
    assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin._factored is None
    assert copy.copy(aut)._ainv_and_t is None and copy.copy(aut.tau)._inverse is None
    assert twisted() == aut and hash(twisted()) == hash(aut)
    with pytest.raises(AttributeError):
        g._factored = None

"""The benchmark's tracer wraps library names from outside (perfbench/tracer.py);
a rename in the library must fail here, not only in a benchmark run."""

import sys

from dividedops import autgroup, scalars
from dividedops.diffop import DiffOp

from helpers import ROOT

sys.path.insert(0, str(ROOT))

from perfbench.tracer import INDEX, NAME, PARENT, Tracer, _library_modules, instrument  # noqa: E402


def library_names():
    names = {(mod.__name__, key): value
             for mod in _library_modules() for key, value in vars(mod).items()}
    for cls in (DiffOp, sys.modules["dividedops.laurent"].LaurentPoly):
        names.update({(cls.__qualname__, key): value for key, value in vars(cls).items()})
    return names


def test_tracer_instruments_and_restores_the_library():
    import dividedops.cli  # noqa: F401  (instrument patches every loaded module)

    scalars._digit_binom_table.cache_clear()
    before = library_names()
    tracer = Tracer()
    instrument(tracer)
    try:
        assert tracer._restore
        for owner, key, original in tracer._restore:
            assert getattr(owner, key) is not original, key
        tracer.active = True
        scalars.binom_int_mod_p(7, 2, 5)
        x = DiffOp.monomial(5, 1, (1,))
        DiffOp.partial(5, 1, 1, 2) * x
        tracer.active = False
        assert tracer.leaves["scalars.first_use"][0] == 1
        assert tracer.self_times()["diffop.mul"][0] == 1
    finally:
        tracer.uninstall()
    after = library_names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_shift_apply_multiplies_through_diffop_mul():
    # shift_apply is conjugation by x^s: x^-s only shifts the coefficients,
    # and the product by x^s is the library's one product engine, one child span
    s = autgroup.ShiftVector.from_ints([3, 1], 5, 2)
    op = DiffOp.partial(5, 2, 1, 7) * DiffOp.partial(5, 2, 2, 2)
    tracer = Tracer()
    instrument(tracer)
    try:
        tracer.active = True
        autgroup.shift_apply(s, op)
        tracer.active = False
    finally:
        tracer.uninstall()
    top = [rec for rec in tracer.spans if rec[NAME] == "autgroup.shift_apply"]
    assert len(top) == 1
    children = [rec[NAME] for rec in tracer.spans if rec[PARENT] == top[0][INDEX]]
    assert children == ["diffop.mul"]

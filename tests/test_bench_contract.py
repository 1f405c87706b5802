"""The benchmark's tracer wraps library names from outside (perfbench/tracer.py);
a rename in the library must fail here, not only in a benchmark run."""

import sys

from dividedops import scalars
from dividedops.diffop import DiffOp

from helpers import ROOT

sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer, _library_modules, instrument  # noqa: E402


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

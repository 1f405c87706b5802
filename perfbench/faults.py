"""Deliberate wrong answers, for showing that the benchmark's checks see them.

``install("mul")`` makes every ``DiffOp.__mul__`` whose product has
positive order return it with one coefficient moved by one; ``install("digit")`` makes ``factorize``
return its shift with the lowest digit of the first variable moved by
one.  ``install`` returns an undo function.  The benchmark never calls
this module; its tests do, in process and, through a ``sitecustomize``
module, in the ``dividedops`` child processes of ``cli_cold``.
"""

from __future__ import annotations

import os
import sys


def _perturbed_mul(original):
    from dividedops.diffop import DiffOp
    from dividedops.laurent import LaurentPoly

    def mul(self, other):
        out = original(self, other)
        if not out.order():
            return out
        beta = max(out.parts)
        terms = dict(out.parts[beta].terms)
        exps = min(terms)
        terms[exps] = (terms[exps] + 1) % out.p.p
        parts = dict(out.parts)
        parts[beta] = LaurentPoly(out.p, out.n, terms)
        return DiffOp(out.p, out.n, parts)

    return mul


def _wrong_digit(original):
    from dividedops.autgroup import FactoredAut, ShiftVector

    def factorize(g):
        fac = original(g)
        rows = fac.shift.digit_rows()
        rows[0][0] = (rows[0][0] + 1) % fac.p.p
        return FactoredAut(ShiftVector.from_digits(rows, fac.p), fac.tau)

    return factorize


def install(fault: str):
    import dividedops.cli  # noqa: F401  (load every module that holds a name)
    from dividedops import autgroup
    from dividedops.diffop import DiffOp

    undo = []
    if fault == "mul":
        original = DiffOp.__dict__["__mul__"]
        DiffOp.__mul__ = _perturbed_mul(original)
        undo.append((DiffOp, "__mul__", original))
    elif fault == "digit":
        original = autgroup.factorize
        wrong = _wrong_digit(original)
        for name, mod in list(sys.modules.items()):
            if mod is not None and name.split(".")[0] == "dividedops":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrong)
                        undo.append((mod, key, original))
    else:
        raise ValueError(f"unknown fault {fault!r}")

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


def sitecustomize_source(fault: str) -> str:
    """A sitecustomize module that installs `fault` in a child interpreter."""
    here = os.path.dirname(os.path.abspath(__file__))
    return f"import sys\nsys.path.insert(0, {here!r})\nimport faults\nfaults.install({fault!r})\n"

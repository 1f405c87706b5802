"""Spans and counters for the benchmark's traced run.

The tracer wraps the library's functions from outside: a module-level
function is replaced in every loaded ``dividedops`` module that holds it
under some name (so calls that one module makes through a name it imported
from another are traced too), and a method is replaced on its class.

Every span records a name, a start, an end, its parent and the operation
it belongs to.  Spans of the hottest leaf functions (those that call no
other traced function, such as ``LaurentPoly.__add__``) are folded into
their parent as they close: the parent's covered time and the leaf's
totals grow, but no record is kept, because one automorphism operation
makes hundreds of thousands of them.  All other spans are kept in memory
and written out when the run ends.  A span's self time is its duration
minus the time its children cover, so within one operation the self
times add up to the operation's wall time.
"""

from __future__ import annotations

import functools
import sys
import time

# fields of one kept span
NAME, START, END, PARENT, OP, COVERED, INDEX = range(7)


def term_count(op) -> int:
    """Number of c * x^gamma * d^[beta] terms of a DiffOp."""
    return sum(len(f.terms) for f in op.parts.values())


def _library_modules():
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "dividedops" or modname.startswith("dividedops.")):
            yield mod


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}  # folded leaf name -> [calls, seconds]
        self.leaf_time_per_op: dict[int, float] = {}
        self.counts: dict[str, int] = {}
        self.active = False
        self.op_id = -1
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1][INDEX] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op_id, 0.0, len(self.spans)]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: list):
        rec[END] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][COVERED] += rec[END] - rec[START]

    def add_finished(self, name: str, start: float, end: float, parent: int,
                     covered: float) -> list:
        """Keep a span measured elsewhere, with the time its children covered
        there; `parent` is the index of its parent span here, or -1."""
        rec = [name, start, end, parent, self.op_id, covered, len(self.spans)]
        self.spans.append(rec)
        return rec

    def adopt(self, data: dict, root: list):
        """Nest the spans that a child process dumped under the open span `root`."""
        index_map = {}
        for name, start, end, parent, _, covered, index in data["spans"]:
            if parent == -1:
                rec = self.add_finished(name, start, end, root[INDEX], covered)
                root[COVERED] += end - start
            else:
                rec = self.add_finished(name, start, end, index_map[parent], covered)
            index_map[index] = rec[INDEX]
        for name, (calls, seconds) in data["folded_leaves"].items():
            tot = self.leaves.setdefault(name, [0, 0.0])
            tot[0] += calls
            tot[1] += seconds
            self.leaf_time_per_op[self.op_id] = self.leaf_time_per_op.get(self.op_id, 0.0) + seconds
        for name, amount in data["counts"].items():
            self.count(name, amount)

    def fold_leaf(self, name: str, start: float, end: float):
        tot = self.leaves.get(name)
        if tot is None:
            tot = self.leaves[name] = [0, 0.0]
        tot[0] += 1
        tot[1] += end - start
        self.leaf_time_per_op[self.op_id] = self.leaf_time_per_op.get(self.op_id, 0.0) + end - start
        if self._stack:
            self._stack[-1][COVERED] += end - start

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, *, leaf: bool = False, counter=None):
        tracer = self
        clock = time.perf_counter

        if leaf:
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.fold_leaf(name, t0, clock())
        else:
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                rec = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(rec)
                if counter is not None:
                    counter(tracer, name, args, result)
                return result

        functools.update_wrapper(traced, fn)
        return traced

    def _replace_everywhere(self, original, traced):
        for mod in _library_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def patch_function(self, module, attr: str, name: str, **kw):
        """Replace module.attr in every loaded dividedops module holding it."""
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(original, name, **kw))

    def patch_method(self, cls, attr: str, name: str, **kw):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, **kw))
        self._restore.append((cls, attr, original))

    def patch_first_use(self, module, attr: str, name: str):
        """Trace only the calls of an lru_cache'd builder that miss its cache."""
        original = getattr(module, attr)
        tracer = self
        clock = time.perf_counter

        def traced(*args):
            if not tracer.active:
                return original(*args)
            misses = original.cache_info().misses
            t0 = clock()
            result = original(*args)
            t1 = clock()
            if original.cache_info().misses != misses:
                tracer.fold_leaf(name, t0, t1)
            return result

        functools.update_wrapper(traced, original)
        self._replace_everywhere(original, traced)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds], kept spans and folded leaves together."""
        out = {k: list(v) for k, v in self.leaves.items()}
        for rec in self.spans:
            tot = out.setdefault(rec[NAME], [0, 0.0])
            tot[0] += 1
            tot[1] += rec[END] - rec[START] - rec[COVERED]
        return out

    def op_balance(self) -> float:
        """Largest gap, over operations, between the root span's duration
        and the sum of the self times of every span of that operation."""
        walls: dict[int, float] = {}
        selfs: dict[int, float] = dict(self.leaf_time_per_op)
        for rec in self.spans:
            if rec[PARENT] == -1:
                walls[rec[OP]] = walls.get(rec[OP], 0.0) + rec[END] - rec[START]
            selfs[rec[OP]] = selfs.get(rec[OP], 0.0) + rec[END] - rec[START] - rec[COVERED]
        return max((abs(selfs.get(op, 0.0) - wall) for op, wall in walls.items()), default=0.0)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op", "covered", "index"],
            "spans": self.spans,
            "folded_leaves": self.leaves,
            "counts": self.counts,
        }


def _count_mul(tracer, name, args, result):
    tracer.count(name + ".terms_in", term_count(args[0]) + term_count(args[1]))
    tracer.count(name + ".terms_out", term_count(result))


def _count_terms_out(tracer, name, args, result):
    tracer.count(name + ".terms_out", term_count(result))


def _count_bytes(tracer, name, args, result):
    tracer.count(name + ".bytes", len(result))


def instrument(tracer: Tracer):
    """Wrap the library's layer boundaries; dividedops must be imported."""
    import dividedops.cli  # noqa: F401  (load every module that holds a name)
    from dividedops import autgroup, diffop, expr, interchange, laurent, scalars

    tracer.patch_first_use(scalars, "_digit_binom_table", "scalars.first_use")
    tracer.patch_method(laurent.LaurentPoly, "__add__", "laurent.add", leaf=True)
    tracer.patch_method(laurent.LaurentPoly, "times_monomial", "laurent.times_monomial",
                        leaf=True)
    tracer.patch_method(diffop.DiffOp, "__mul__", "diffop.mul", counter=_count_mul)
    tracer.patch_method(diffop.DiffOp, "act", "diffop.act")
    tracer.patch_function(diffop, "normal_form_from_action", "diffop.normal_form_from_action")
    tracer.patch_function(autgroup, "shift_apply", "autgroup.shift_apply",
                          counter=_count_terms_out)
    for attr in ("monomial_apply", "apply_images", "validate_generator_images",
                 "extract_digits", "factorize"):
        tracer.patch_function(autgroup, attr, "autgroup." + attr)
    tracer.patch_function(expr, "parse", "expr.parse")
    tracer.patch_function(expr, "eval_operator", "expr.eval_operator")
    tracer.patch_function(interchange, "op_to_dict", "interchange.op_to_dict")
    tracer.patch_function(interchange, "images_from_dict", "interchange.images_from_dict")
    tracer.patch_function(interchange, "dumps", "interchange.dumps", counter=_count_bytes)

"""Brute-force verifiers: windowed kernels, action sampling, relation suite."""

import random
from itertools import product as iproduct

import pytest

from dividedops.diffop import DiffOp
from dividedops.errors import WindowTooLarge
from dividedops.laurent import LaurentPoly
from dividedops.oracles import (
    MAX_WINDOW_MONOMIALS,
    ExponentWindow,
    action_equiv_check,
    kernel_bruteforce,
    nullspace_mod_p,
    relation_suite,
)
from dividedops.report import CheckReport
from dividedops.scalars import PadicInt, binom_padic

from helpers import rand_padic


def sparse_columns(rows):
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(len(rows[0]))]


def dense(vec, cols):
    return [vec.get(j, 0) for j in range(cols)]


def in_kernel(rows, v, p):
    return all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)


def random_matrix(rng, p, rows, cols):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def test_nullspace_mod_p_simple():
    m = [[1, 2], [2, 4]]
    basis = nullspace_mod_p(sparse_columns(m), 5)
    assert len(basis) == 1
    assert in_kernel(m, dense(basis[0], 2), 5)
    eye = [[int(r == c) for c in range(3)] for r in range(3)]
    assert nullspace_mod_p(sparse_columns(eye), 3) == []


def test_nullspace_soundness_and_completeness():
    rng = random.Random(1)
    for p in (2, 3):
        for _ in range(10):
            m = random_matrix(rng, p, 6, 5)
            basis = nullspace_mod_p(sparse_columns(m), p)
            for v in basis:
                assert in_kernel(m, dense(v, 5), p)
            # exhaustive count: the kernel has exactly p^dim elements
            kernel_size = sum(1 for v in iproduct(range(p), repeat=5) if in_kernel(m, v, p))
            assert kernel_size == p ** len(basis)


def test_nullspace_is_the_reduced_echelon_basis():
    # each basis vector is the unique kernel vector with 1 at its free column
    # and 0 at every other free column, where a column is free when some
    # kernel vector has its last nonzero entry, 1, there
    rng = random.Random(2)
    for p in (2, 3):
        for rows, cols in ((2, 5), (4, 6), (5, 4)):
            for _ in range(6):
                m = random_matrix(rng, p, rows, cols)
                kernel = [v for v in iproduct(range(p), repeat=cols) if in_kernel(m, v, p)]
                free = sorted({max(j for j in range(cols) if v[j]) for v in kernel if any(v)})
                basis = nullspace_mod_p(sparse_columns(m), p)
                assert len(basis) == len(free)
                for fc, vec in zip(free, basis):
                    unique = [v for v in kernel
                              if all(v[f] == (f == fc) for f in free)]
                    assert unique == [tuple(dense(vec, cols))]


def test_kernel_example_one_variable():
    w = ExponentWindow.cube(-6, 6, 1)
    basis = kernel_bruteforce(1, w, 3, 1)
    assert len(basis) == 1
    assert basis[0].terms == {(-1,): 1}


def test_kernel_example_polynomial_window_empty():
    w = ExponentWindow.cube(0, 6, 1)
    assert kernel_bruteforce(1, w, 3, 1) == []


def test_kernel_example_two_variables():
    w = ExponentWindow.cube(-4, 4, 2)
    basis = kernel_bruteforce(1, w, 2, 2)
    assert len(basis) == 1
    assert basis[0].terms == {(-1, 0): 1}


def test_kernel_stable_under_window_enlargement():
    small = kernel_bruteforce(1, ExponentWindow.cube(-4, 4, 1), 3, 1)
    large = kernel_bruteforce(1, ExponentWindow.cube(-7, 7, 1), 3, 1)
    small_set = {tuple(sorted(f.terms.items())) for f in small}
    large_set = {tuple(sorted(f.terms.items())) for f in large}
    assert small_set <= large_set


def test_kernel_at_the_window_budget():
    w = ExponentWindow.cube(-49, 50, 2)
    assert w.count() == MAX_WINDOW_MONOMIALS
    basis = kernel_bruteforce(1, w, 2, 2)
    assert [f.terms for f in basis] == [{(-1, 0): 1}]


def test_kernel_window_budget():
    with pytest.raises(WindowTooLarge):
        kernel_bruteforce(1, ExponentWindow.cube(-60, 60, 2), 2, 2)


def test_action_equiv_check_shift_image():
    from dividedops.autgroup import ShiftVector, shift_apply

    rng = random.Random(2)
    s = ShiftVector((rand_padic(rng, 3, 4),))
    k = 7
    img = shift_apply(s, DiffOp.partial(3, 1, 1, k))

    def reference(exps):
        m = exps[0]
        c = binom_padic(PadicInt.from_int(m, 3, 4) + s.components[0], k)
        return LaurentPoly.monomial(3, 1, (m - k,), c.value)

    assert action_equiv_check(img, reference, 50, ExponentWindow.cube(-10, 10, 1), seed=3)


def test_action_equiv_check_divided_power():
    op = DiffOp.partial(5, 1, 1, 2)

    def reference(exps):
        m = exps[0]
        from dividedops.scalars import binom_int_mod_p

        return LaurentPoly.monomial(5, 1, (m - 2,), binom_int_mod_p(m, 2, 5).value)

    assert action_equiv_check(op, reference, 40, ExponentWindow.cube(-8, 8, 1), seed=4)


def test_action_equiv_check_fails():
    op = DiffOp.partial(3, 1, 1, 1)
    zero = lambda exps: LaurentPoly.zero(3, 1)
    assert not action_equiv_check(op, zero, 20, ExponentWindow.cube(-5, 5, 1), seed=5)


def test_relation_suite_passes():
    rep = relation_suite(2, 1, max_index=8, trials=20, seed=6)
    assert rep.passed, rep.failures()
    rep = relation_suite(3, 2, max_index=9, trials=30, seed=7)
    assert rep.passed, rep.failures()


def test_relation_suite_reports_corrupted_product(monkeypatch):
    # a deliberately wrong ring multiplication must be caught
    true_product = DiffOp.__mul__

    def corrupted(a, b):
        return true_product(a, b) + DiffOp.from_laurent(LaurentPoly.one(a.p, a.n))

    monkeypatch.setattr(DiffOp, "__mul__", corrupted)
    rep = relation_suite(3, 1, max_index=4, trials=5, seed=8)
    assert not rep.passed
    assert any(c.detail and not c.passed for c in rep.checks)


def test_relation_suite_reports_first_failures(monkeypatch):
    # products of order >= 3 are corrupted: each failing family names its
    # first failing instance in iteration order, after the same random draws
    true_product = DiffOp.__mul__

    def corrupted(a, b):
        product = true_product(a, b)
        if (product.order() or 0) >= 3:
            product = product + DiffOp.one(a.p, a.n)
        return product

    monkeypatch.setattr(DiffOp, "__mul__", corrupted)
    rep = relation_suite(3, 2, max_index=9, trials=30, seed=7)
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("x commutators", True, "1 instances"),
        ("divided power composition", False, "d1^[1] d1^[3]"),
        ("divided power commutators", True, "81 instances"),
        ("variable brackets", True, "36 instances"),
        ("multi-index composition", False, "d^(9, 0) d^(8, 3)"),
        ("binomial p-th power", True, "30 instances"),
    ]


def test_tally_runs_every_instance_and_labels_the_first_failure():
    seen, labelled = [], []

    def instances():
        for k in range(6):
            seen.append(k)
            yield k % 3 != 1, lambda: labelled.append(k) or f"instance {k}"

    rep = CheckReport("tally")
    rep.tally("fails", instances(), "instances")
    rep.tally("holds", ((True, None) for _ in range(4)), "cases")
    rep.tally("empty", iter(()), "cases")
    assert seen == list(range(6)) and labelled == [1]
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("fails", False, "instance 1"), ("holds", True, "4 cases"), ("empty", True, "0 cases"),
    ]


def test_relation_suite_deterministic():
    a = relation_suite(3, 1, max_index=5, trials=15, seed=9)
    b = relation_suite(3, 1, max_index=5, trials=15, seed=9)
    assert a.to_dict() == b.to_dict()


def test_window_validation():
    with pytest.raises(ValueError):
        ExponentWindow((0,), (-1,))
    w = ExponentWindow.cube(-2, 2, 2)
    box = set(w.monomials())
    assert (0, 0) in box and (3, 0) not in box
    assert w.count() == 25

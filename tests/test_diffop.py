"""Operator ring: defining relations, the product rule against the action
oracle, normal-form recovery from black-box actions."""

import gc
import random
import tracemalloc
from operator import add

import pytest

from dividedops import diffop, eval_operator
from dividedops.autgroup import (
    FactoredAut,
    MonomialAut,
    ShiftVector,
    factorize,
    monomial_generator_images,
    shift_compose_images,
)
from dividedops.diffop import RUN, DiffOp, normal_form_from_action, power
from dividedops.errors import InconsistentAction, InsufficientPrecision, MismatchError
from dividedops.laurent import LaurentPoly
from dividedops.scalars import binom_int_mod_p

from helpers import (
    divided_image_from_levels,
    leibniz_product,
    rand_gl,
    rand_nonzero_poly,
    rand_op,
    rand_padic,
    rand_poly,
)


def d(p, n, i, k=1):
    return DiffOp.partial(p, n, i, k)


def x(p, n, i, e=1):
    return DiffOp.monomial(p, n, tuple(e if j == i - 1 else 0 for j in range(n)))


def test_mul_example_dd_vanishes_mod_2():
    assert (d(2, 1, 1) * d(2, 1, 1)).is_zero()


def test_mul_example_commutator_with_x():
    # d^[2] x = x d^[2] + d^[1]
    lhs = d(3, 1, 1, 2) * x(3, 1, 1)
    expect = DiffOp(3, 1, {(2,): LaurentPoly.monomial(3, 1, (1,)), (1,): LaurentPoly.one(3, 1)})
    assert lhs == expect


def test_mul_example_weyl_square_vanishes():
    xinv = LaurentPoly.monomial(2, 1, (-1,))
    op = d(2, 1, 1) + DiffOp.from_laurent(xinv)
    assert (op * op).is_zero()


def test_act_examples():
    xd = x(3, 1, 1) * d(3, 1, 1)
    f = LaurentPoly.monomial(3, 1, (4,))
    assert xd.act(f) == f  # eigenvalue 4 = 1 mod 3
    assert d(3, 1, 1, 2).act(LaurentPoly.monomial(3, 1, (5,))) == LaurentPoly.monomial(3, 1, (3,))
    g = rand_poly(random.Random(0), 3, 1)
    assert DiffOp.one(3, 1).act(g) == g


def test_order():
    op = d(3, 1, 1, 2) + DiffOp(3, 1, {(1,): LaurentPoly.monomial(3, 1, (-5,))})
    assert op.order() == 2
    f = LaurentPoly(3, 1, {(3,): 1, (0,): 1})
    assert DiffOp.from_laurent(f).order() == 0
    assert DiffOp.zero(3, 1).order() is None


def test_pow_examples():
    assert (d(3, 1, 1) ** 3).is_zero()
    xd = x(2, 1, 1) * d(2, 1, 1)
    assert xd ** 2 == xd
    assert rand_op(random.Random(1), 3, 1) ** 0 == DiffOp.one(3, 1)
    # order-0 bases go through the Frobenius; square-and-multiply is the reference
    rng = random.Random(2)
    for p, n in ((2, 1), (3, 2), (5, 1), (7, 3)):
        f = x(p, n, 1) + DiffOp.from_laurent(rand_nonzero_poly(rng, p, n, span=2))
        for k in (0, 1, p - 1, p, p * p + 1, rng.randint(2, 150)):
            assert f ** k == power(f, k, lambda: DiffOp.one(p, n)), (p, n, k)


def test_pow_pth_power_of_level_vanishes():
    for p in (2, 3):
        for k in (1, p, p * p):
            assert (d(p, 1, 1, k) ** p).is_zero()


def test_divided_image_from_levels_identity():
    levels = [d(2, 1, 1, 2 ** k) for k in range(3)]
    assert divided_image_from_levels(levels, 6) == d(2, 1, 1, 6)
    assert divided_image_from_levels(levels, 0) == DiffOp.one(2, 1)


def test_divided_image_from_levels_examples():
    levels = [d(2, 1, 1, 1), d(2, 1, 1, 2)]
    assert divided_image_from_levels(levels, 3) == d(2, 1, 1, 3)
    levels3 = [d(3, 1, 1, 1)]
    assert divided_image_from_levels(levels3, 2) == d(3, 1, 1, 2)


def test_divided_image_from_levels_missing_level():
    with pytest.raises(InsufficientPrecision):
        divided_image_from_levels([d(2, 1, 1, 1)], 2)


def test_defining_relations_small():
    # all four relation families, indices up to p^2
    for p, n in ((2, 2), (3, 1), (5, 1)):
        one = DiffOp.one(p, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert x(p, n, i) * x(p, n, j) == x(p, n, j) * x(p, n, i)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, p * p + 1):
                    for l in range(1, p * p + 1):
                        dik = d(p, n, i, k)
                        djl = d(p, n, j, l)
                        assert dik * djl == djl * dik
                        if i == j:
                            c = binom_int_mod_p(k + l, k, p)
                            assert dik * djl == d(p, n, i, k + l).scale(c.value)
                    com = d(p, n, i, k) * x(p, n, j) - x(p, n, j) * d(p, n, i, k)
                    if i == j:
                        expect = d(p, n, i, k - 1) if k > 1 else DiffOp.one(p, n)
                        assert com == expect
                    else:
                        assert com.is_zero()


def _rand_index(rng, p):
    """A divided index that is small or next to p or p^2 (p^2 only for p < 10)."""
    near = [p - 1, p, p + 1] + ([p * p - 1, p * p, p * p + 1] if p < 10 else [])
    return rng.choice([rng.randint(0, 3), rng.choice(near)])


def _rand_indexed_op(rng, p, n, max_parts=3):
    parts = {}
    for _ in range(rng.randint(0, max_parts)):
        beta = tuple(_rand_index(rng, p) for _ in range(n))
        parts[beta] = rand_nonzero_poly(rng, p, n, max_terms=2, span=3)
    return DiffOp(p, n, parts)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 101))
def test_mul_matches_leibniz_reference(p):
    rng = random.Random(p)
    for n in (1, 2, 3):
        for trial in range(24):
            a = _rand_indexed_op(rng, p, n)
            b = _rand_indexed_op(rng, p, n)
            if trial % 4 == 1:  # a Laurent left factor
                a = DiffOp.from_laurent(rand_poly(rng, p, n, span=3))
            elif trial % 4 == 2:  # a single-term right factor
                b = DiffOp(p, n, {tuple(_rand_index(rng, p) for _ in range(n)):
                                  LaurentPoly.monomial(p, n, [rng.randint(-3, 3) for _ in range(n)],
                                                       rng.randint(1, p - 1))})
            assert a * b == leibniz_product(a, b), (a, b)


@pytest.fixture
def run_lengths(monkeypatch):
    """The length of every run that products sum as a slice of a row."""
    lengths = []
    add_run = diffop._add_run

    def spy(rows, key, b, dd, e, lo, hi, c, pp):
        lengths.append(hi - lo + 1)
        add_run(rows, key, b, dd, e, lo, hi, c, pp)

    monkeypatch.setattr(diffop, "_add_run", spy)
    return lengths


def _run_cases(p, k):
    """(b, d, e) in the last variable whose Leibniz terms are one run of
    RUN - 1, RUN or p consecutive j, with k higher digits in e or d: all of
    j = 0..b, or cut from below by the carry cap of e's lowest digit, or
    from above by d's lowest digit."""
    cases = []
    for length in (RUN - 1, RUN, p):
        cases.append((length - 1, -1 - 2 * k * p, k * p))
        cases.append((p - 1, (k + 1) * p + p - 1, k * p + p - length))
        cases.append((p - 1, length - 1 + k * p, 0))
    return cases


def _run_length(b, d, e, p):
    return min(b, d % p) - max(0, b + 1 + e % p - p) + 1


@pytest.mark.parametrize("p", (11, 13, 101, 1009, 65521))
def test_mul_sums_runs_as_the_reference(p, run_lengths):
    # each case pairs one left part and one right term on a run, and a
    # second part of small indices adds the cross pairs; the reference walks
    # every j <= b whose Leibniz term is nonzero, so at p = 65521 each case
    # runs at one n (a Latin square of case kinds and n)
    rng = random.Random(f"runs:{p}")
    small = (0, 1, 2, 3) + ((p - 1, p + 1) if p < 100 else ())
    shifts = range(-3, 4) if p < 100 else range(4)
    terms = 2 if p < 65521 else 1
    for j, (b, dl, e) in enumerate(_run_cases(p, rng.choice((0, 1, 3)))):
        assert _run_length(b, dl, e, p) in (RUN - 1, RUN, p)
        for n in (1, 2, 3) if p < 65521 else (1 + (j // 3 + j) % 3,):
            a = DiffOp(p, n, [
                ([rng.choice(small) for _ in range(n - 1)] + [b],
                 rand_nonzero_poly(rng, p, n, max_terms=terms)),
                ([rng.choice(small) for _ in range(n)],
                 rand_nonzero_poly(rng, p, n, max_terms=terms))])
            # the second right term shares the first one's line, delta - eps
            # in every variable and the last e // p, so rows take the runs
            eps = [rng.choice(small) for _ in range(n - 1)] + [e]
            delta = [rng.choice(shifts) for _ in range(n - 1)] + [dl]
            t = [rng.choice((0, 1, 2)) for _ in range(n - 1)] + [1]
            right = DiffOp(p, n, [
                (eps, LaurentPoly.monomial(p, n, delta, rng.randint(1, p - 1))),
                (list(map(add, eps, t)),
                 LaurentPoly.monomial(p, n, list(map(add, delta, t)), rng.randint(1, p - 1)))])
            prod = a * right
            assert prod == leibniz_product(a, right), (p, n, b, dl, e)
            mono = LaurentPoly.monomial(p, n, [rng.randint(-2 * p, 2 * p) for _ in range(n)])
            assert prod.act(mono) == a.act(right.act(mono))
    assert min(run_lengths) >= RUN and RUN in run_lengths and p in run_lengths


def test_small_primes_build_no_row(monkeypatch):
    # a run is at most b + 1 <= p long, so below RUN every product walks:
    # shift images at aut_roundtrip's primes never reach the run path
    def refuse(*args):
        raise AssertionError("a row was built")

    products = []
    mul = DiffOp.__mul__

    def count(a, b):
        products.append(a.p.p)
        return mul(a, b)

    monkeypatch.setattr(diffop, "_add_run", refuse)
    monkeypatch.setattr(DiffOp, "__mul__", count)
    rng = random.Random("no rows")
    for p, n, prec in ((2, 2, 5), (5, 2, 2)):
        tau = MonomialAut.create(rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p)
        s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
        images = shift_compose_images(s, monomial_generator_images(tau, prec))
        assert factorize(images) == FactoredAut(s, tau)
    assert set(products) == {2, 5}
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            for _ in range(6):
                a, b = rand_op(rng, p, n, max_order=3 * p), rand_op(rng, p, n, max_order=3 * p)
                assert a * b == leibniz_product(a, b)


def test_mul_op_algebra_pair_cancels_to_zero():
    # a seeded op_algebra product at p = 101: 40 left parts times 105 right
    # terms make 203,234 nonzero summands, all in runs, and they all cancel
    p = 101
    a = eval_operator("(59*x1^-1*d1[38] + 62*x1^-3*d1[16])*(9*x1^2*d1[64] + 11*x1^-1*d1[59])", p, 1)
    b = eval_operator("(75*d1[60] + 56*x1^1*d1[43])*(48*x1^-2*d1[13] + 43*x1^3*d1[63])", p, 1)
    assert (a * b).is_zero() and leibniz_product(a, b).is_zero()
    mono = LaurentPoly.monomial(p, 1, (7,))
    assert a.act(b.act(mono)).is_zero()


def retained_bytes(products) -> int:
    """Bytes still traced after running `products` and dropping its results."""
    gc.collect()
    tracemalloc.start()
    try:
        products()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_products_retain_bounded_memory():
    # 6,000 products d1^[b] * x1^d d1^[e] at p = 101 with two-digit indices
    # and exponents of both signs: whatever the Leibniz enumeration caches
    # must stay bounded once the products are dropped
    rng = random.Random("retained")
    p = 101
    one = LaurentPoly.one(p, 1)

    def products():
        for _ in range(6000):
            b, e, d = rng.randint(1, 160), rng.randint(1, 160), rng.randint(-400, 400)
            DiffOp(p, 1, {(b,): one}) * DiffOp(p, 1, {(e,): LaurentPoly.monomial(p, 1, (d,), 1)})

    assert retained_bytes(products) < 8_000_000


def test_long_survivor_lists_are_not_kept():
    # d1^[b] x1^-1 has all b + 1 Leibniz terms (every digit of -1 is p - 1),
    # about 1 MB of survivors at b = 6,000; none of the ten may stay cached
    p = 65521
    d(p, 1, 1) * x(p, 1, 1, -1)  # the binomial tables of p, kept on purpose

    def products():
        for b in range(6000, 6010):
            assert len((d(p, 1, 1, b) * x(p, 1, 1, -1)).parts) == b + 1

    assert retained_bytes(products) < 2_000_000


def test_rows_grow_at_either_end():
    # four right terms of d1^[20] on the line d - e - b = 10, each a run of
    # 21: the second starts below the first, the third ends above both, the
    # fourth lies in the next block of p outputs
    p = 101
    a = DiffOp(p, 1, {(20,): LaurentPoly(p, 1, {(0,): 3, (-2,): 5})})
    b = DiffOp(p, 1, [((e,), LaurentPoly.monomial(p, 1, (e + 30,), c))
                      for e, c in ((10, 1), (5, 2), (15, 3), (10 + p, 4))])
    assert a * b == leibniz_product(a, b)


def test_long_runs_are_summed_and_not_kept(run_lengths):
    # d1^[b] (x1^-1 + d1) at b = 60,000: x1^-1 and d1 share the line
    # delta - eps = -1, so x1^-1's run of all b + 1 terms, each the closed
    # form (-1)^j x1^(-1-j) d1^[b-j], is summed in a row, and the row dies
    # with the product; d1 adds (b + 1) d1^[b+1]
    p = 65521
    right = x(p, 1, 1, -1) + d(p, 1, 1)
    d(p, 1, 1) * right  # the binomial tables of p, kept on purpose
    run_lengths.clear()
    b0 = 60000
    assert d(p, 1, 1, b0) * right == leibniz_product(d(p, 1, 1, b0), right)
    for b in range(b0, b0 + 10):
        parts = dict((d(p, 1, 1, b) * right).parts)
        assert parts.pop((b + 1,)).terms == {(0,): (b + 1) % p}
        assert len(parts) == b + 1
        assert all(f.terms == {(-1 - b + k,): 1 if (b - k) % 2 == 0 else p - 1}
                   for (k,), f in parts.items())

    def products():
        for b in range(b0, b0 + 10):
            assert len((d(p, 1, 1, b) * right).parts) == b + 2

    assert retained_bytes(products) < 2_000_000
    assert run_lengths == [b0 + 1] + 2 * [b + 1 for b in range(b0, b0 + 10)]


def test_runs_alone_in_their_row_walk(run_lengths):
    # a right term that shares its line with no other right term fills its
    # rows alone, where the walk is cheaper: products by one monomial (the
    # shift's (x^-s D) x^s), right terms on distinct lines, and a long-run
    # term beside two short-run terms that share a line never build a row
    p = 101
    a = DiffOp(p, 2, {(1, 60): LaurentPoly(p, 2, {(0, 0): 3, (-2, 1): 5}), (0, 40): LaurentPoly.one(p, 2)})
    for right in (x(p, 2, 2, 100) * x(p, 2, 1, 3),
                  x(p, 2, 2, -1) + x(p, 2, 2, 80) * d(p, 2, 2, 2),
                  x(p, 2, 2, 70) + x(p, 2, 1, 1) * x(p, 2, 2, 71) * d(p, 2, 2, 1),
                  x(p, 2, 2, 5) + x(p, 2, 2, 6) * d(p, 2, 2, 1) + x(p, 2, 1, 3) * x(p, 2, 2, 100)):
        assert a * right == leibniz_product(a, right)
    assert run_lengths == []


def test_mul_cancels_to_zero():
    # C(142, 63) = C(1, 0) C(41, 63) = 0 mod 101 by Lucas' theorem
    assert (d(101, 1, 1, 63) * d(101, 1, 1, 79)).is_zero()
    assert leibniz_product(d(101, 1, 1, 63), d(101, 1, 1, 79)).is_zero()
    # d (x d - 1) = x d d + d - d: two right terms meet at d^[1] and cancel
    a = d(5, 1, 1)
    b = x(5, 1, 1) * d(5, 1, 1) - DiffOp.one(5, 1)
    assert a * b == leibniz_product(a, b) == DiffOp(5, 1, {(2,): LaurentPoly.monomial(5, 1, (1,), 2)})


def test_mul_act_compatibility_certifies_product_rule():
    # ground truth for the derived multiplication rule
    rng = random.Random(42)
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
        for _ in range(60):
            d1 = rand_op(rng, p, n)
            d2 = rand_op(rng, p, n)
            f = rand_poly(rng, p, n)
            assert (d1 * d2).act(f) == d1.act(d2.act(f))


def test_mul_associativity():
    rng = random.Random(43)
    for p, n in ((2, 1), (3, 2), (5, 1)):
        for _ in range(25):
            a = rand_op(rng, p, n, max_parts=2, max_order=2, span=2)
            b = rand_op(rng, p, n, max_parts=2, max_order=2, span=2)
            c = rand_op(rng, p, n, max_parts=2, max_order=2, span=2)
            assert (a * b) * c == a * (b * c)


def test_order_filtration_multiplicative():
    rng = random.Random(44)
    for _ in range(60):
        a = rand_op(rng, 3, 2)
        b = rand_op(rng, 3, 2)
        prod = a * b
        if a.is_zero() or b.is_zero():
            assert prod.is_zero()
        elif not prod.is_zero():
            assert prod.order() <= a.order() + b.order()


def test_corollary_weyl_pth_power():
    # (d_i + f)^p = d_i^{p-1} f + f^p with d_i^{p-1} = -d_i^[p-1]
    rng = random.Random(45)
    for p in (2, 3, 5):
        for n, i in ((1, 1), (2, 1), (2, 2)):
            for _ in range(12):
                f = rand_poly(rng, p, n, max_terms=3, span=2)
                op = d(p, n, i) + DiffOp.from_laurent(f)
                rhs = (-f.divided_partial(i, p - 1)) + f.frobenius()
                assert op ** p == DiffOp.from_laurent(rhs)


def test_normal_form_from_action_examples():
    # conjugate of d by x -> x^-1 acts as m -> -m x^{m+1}
    def ref(exps):
        m = exps[0]
        return LaurentPoly.monomial(3, 1, (m + 1,), -m)

    got = normal_form_from_action(ref, 3, 1, 1)
    assert got == DiffOp(3, 1, {(1,): LaurentPoly.monomial(3, 1, (2,), 2)})

    ident = normal_form_from_action(lambda e: LaurentPoly.monomial(2, 1, e), 2, 1, 1)
    assert ident == DiffOp.one(2, 1)

    def shifted(exps):
        m = exps[0]
        return LaurentPoly.monomial(2, 1, (m - 1,), m + 1)

    got = normal_form_from_action(shifted, 2, 1, 1)
    expect = d(2, 1, 1) + DiffOp.monomial(2, 1, (-1,))
    assert got == expect


def test_normal_form_round_trip():
    rng = random.Random(46)
    for p, n in ((2, 1), (3, 1), (3, 2), (5, 1)):
        for _ in range(20):
            op = rand_op(rng, p, n)
            bound = op.order()
            if bound is None:
                bound = 0
            assert normal_form_from_action(op.action(), p, n, bound) == op


def test_normal_form_detects_inconsistency():
    # probing an order-2 operator with bound 1 must be caught
    real = d(3, 1, 1, 2)
    with pytest.raises(InconsistentAction):
        normal_form_from_action(real.action(), 3, 1, 1)


def test_is_polynomial_coefficient():
    assert d(3, 1, 1, 2).is_polynomial_coefficient()
    withinv = DiffOp(3, 1, {(1,): LaurentPoly.monomial(3, 1, (-1,))})
    assert not withinv.is_polynomial_coefficient()


def test_mismatch_errors():
    with pytest.raises(MismatchError):
        d(3, 1, 1) * d(5, 1, 1)
    with pytest.raises(MismatchError):
        d(3, 2, 1) + d(3, 1, 1)
    with pytest.raises(MismatchError):
        d(3, 1, 1).act(LaurentPoly.one(3, 2))


def test_str_canonical():
    op = d(3, 1, 1, 2) * x(3, 1, 1)
    assert str(op) == "x1*d1[2] + d1[1]"
    assert str(DiffOp.zero(3, 1)) == "0"

"""Operator ring: defining relations, the product rule against the action
oracle, normal-form recovery from black-box actions."""

import gc
import random
import tracemalloc

import pytest

from dividedops.diffop import DiffOp, normal_form_from_action, power
from dividedops.errors import InconsistentAction, InsufficientPrecision, MismatchError
from dividedops.laurent import LaurentPoly
from dividedops.scalars import binom_int_mod_p

from helpers import (
    divided_image_from_levels,
    leibniz_product,
    rand_nonzero_poly,
    rand_op,
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

"""Laurent polynomial ring: exact ring axioms, Frobenius, divided partials."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dividedops.errors import MismatchError, NotAUnit
from dividedops.laurent import LaurentPoly
from dividedops.scalars import FpScalar, Prime, binom_int_mod_p


def poly(p, n, terms):
    return LaurentPoly(p, n, terms)


def test_mul_example_difference_of_squares():
    f = poly(3, 1, {(1,): 1, (-1,): 1})   # x + x^-1
    g = poly(3, 1, {(1,): 1, (-1,): 2})   # x - x^-1
    assert f * g == poly(3, 1, {(2,): 1, (-2,): 2})


def test_mul_example_freshman_dream():
    f = poly(2, 1, {(1,): 1, (0,): 1})
    assert f * f == poly(2, 1, {(2,): 1, (0,): 1})


def test_mul_by_zero():
    f = poly(5, 2, {(1, -2): 3})
    z = LaurentPoly.zero(5, 2)
    assert (z * f).is_zero()
    assert f.scale(0).is_zero()


def test_mismatch_errors():
    f = poly(3, 1, {(1,): 1})
    g = poly(5, 1, {(1,): 1})
    with pytest.raises(MismatchError):
        f + g
    h = poly(3, 2, {(1, 0): 1})
    with pytest.raises(MismatchError):
        f * h


def test_no_zero_coefficients_stored():
    f = poly(3, 1, {(0,): 2})
    g = poly(3, 1, {(0,): 1})
    assert (f + g).is_zero()
    assert (f + g).terms == {}
    assert poly(3, 1, {(4,): 3}).is_zero()


laurent_strategy_primes = st.sampled_from([2, 3, 5])


def _rand(data, p, n):
    terms = data.draw(
        st.dictionaries(
            st.tuples(*[st.integers(-3, 3)] * n),
            st.integers(1, p - 1),
            max_size=4,
        )
    )
    return LaurentPoly(p, n, terms)


@given(laurent_strategy_primes, st.integers(1, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, n, data):
    f = _rand(data, p, n)
    g = _rand(data, p, n)
    h = _rand(data, p, n)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + LaurentPoly.zero(p, n) == f
    assert f * LaurentPoly.one(p, n) == f
    assert (f - f).is_zero()


@given(laurent_strategy_primes, st.integers(1, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_frobenius_is_ring_homomorphism(p, n, data):
    f = _rand(data, p, n)
    g = _rand(data, p, n)
    assert (f + g).frobenius() == f.frobenius() + g.frobenius()
    assert (f * g).frobenius() == f.frobenius() * g.frobenius()


def test_frobenius_examples():
    f = poly(2, 2, {(1, 0): 1, (0, -1): 1})
    assert f.frobenius() == poly(2, 2, {(2, 0): 1, (0, -2): 1})
    c = poly(3, 1, {(0,): 2})
    assert c.frobenius() == c
    assert poly(3, 1, {(1,): 2}).frobenius() == poly(3, 1, {(3,): 2})


def test_frobenius_is_actual_pth_power():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(20):
            terms = {
                (rng.randint(-2, 2),): rng.randint(1, p - 1)
                for _ in range(rng.randint(0, 3))
            }
            f = poly(p, 1, terms)
            power = LaurentPoly.one(p, 1)
            for _ in range(p):
                power = power * f
            assert power == f.frobenius()


def test_divided_partial_examples():
    f = poly(3, 1, {(-1,): 1})
    assert f.divided_partial(1, 2) == poly(3, 1, {(-3,): 1})
    g = poly(3, 1, {(5,): 1})
    assert g.divided_partial(1, 1) == poly(3, 1, {(4,): 2})
    h = poly(5, 1, {(2,): 1})
    assert h.divided_partial(1, 3).is_zero()


def test_divided_partial_k0_is_identity():
    f = poly(3, 2, {(1, -4): 2, (0, 0): 1})
    assert f.divided_partial(1, 0) == f
    assert f.divided_partial(2, 0) == f


@given(laurent_strategy_primes, st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_divided_partial_composition(p, k, l, data):
    f = _rand(data, p, 1)
    lhs = f.divided_partial(1, l).divided_partial(1, k)
    c = binom_int_mod_p(k + l, k, p)
    rhs = f.divided_partial(1, k + l).scale(c)
    assert lhs == rhs


def test_divided_partial_mimics_true_derivative():
    # d^[k] = (1/k!) d^k on polynomials where k! is invertible
    for p in (5, 7):
        for k in range(1, p):
            f = poly(p, 1, {(6,): 1})
            expect = math.comb(6, k) % p
            got = f.divided_partial(1, k)
            assert got == poly(p, 1, {(6 - k,): expect})


def test_unit_decompose():
    f = poly(5, 2, {(1, -3): 2})
    c, exps = f.unit_decompose()
    assert c == FpScalar(2, Prime(5)) and exps == (1, -3)
    one = LaurentPoly.one(5, 2)
    c, exps = one.unit_decompose()
    assert c.value == 1 and exps == (0, 0)
    with pytest.raises(NotAUnit):
        poly(5, 1, {(1,): 1, (0,): 1}).unit_decompose()
    with pytest.raises(NotAUnit):
        LaurentPoly.zero(5, 1).unit_decompose()


def test_canonical_term_order():
    f = poly(3, 2, {(0, -2): 2, (2, 0): 1, (1, 1): 1})
    keys = [e for e, _ in f.sorted_terms()]
    assert keys == sorted(keys, reverse=True)
    assert str(f) == "x1^2 + x1*x2 + 2*x2^-2"


def test_str_examples():
    assert str(LaurentPoly.zero(3, 1)) == "0"
    assert str(poly(3, 1, {(0,): 2})) == "2"
    assert str(poly(3, 1, {(1,): 1, (-1,): 2})) == "x1 + 2*x1^-1"

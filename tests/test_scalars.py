"""Scalar layer: Lucas binomials against the big-integer oracle, p-adics."""

import math
import random
import subprocess
import sys
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dividedops.autgroup import FactoredAut, MonomialAut, ShiftVector, shift_apply
from dividedops.errors import InsufficientPrecision, MismatchError, PrecisionMismatch
from dividedops.expr import eval_operator
from dividedops.laurent import LaurentPoly
from dividedops.scalars import (
    FpScalar,
    PadicInt,
    Prime,
    _leibniz_terms,
    _lucas,
    _pascal_column,
    binom_int_mod_p,
    binom_padic,
    padic_length,
    read_prime,
)

from dividedops.theta import ThetaTable

from helpers import _nonzero_binoms, subprocess_env


def int_binom(m: int, k: int) -> int:
    # independent oracle: the integer-valued polynomial m(m-1)...(m-k+1)/k!
    num = 1
    for i in range(k):
        num *= m - i
    return num // math.factorial(k)


def test_prime_validation():
    assert Prime(2).p == 2
    assert Prime(65521).p == 65521  # largest prime below 2^16
    for bad in (0, 1, 4, 9, 15, 1 << 16, 65536, 65537):
        with pytest.raises(ValueError):
            Prime(bad)


def test_fpscalar_arithmetic():
    p = Prime(5)
    a = FpScalar(3, p)
    b = FpScalar(4, p)
    assert (a + b).value == 2
    assert (a * b).value == 2
    assert (-a).value == 2
    assert (a - b).value == 4
    assert a.inverse().value == 2
    with pytest.raises(ValueError):
        FpScalar(5, p)


def test_scalars_accept_an_int_prime():
    assert FpScalar(3, 5) == FpScalar(3, Prime(5))
    assert PadicInt((1, 2), 3) == PadicInt((1, 2), Prime(3))
    assert PadicInt((1, 2), 3).to_int() == 7
    with pytest.raises(ValueError):
        PadicInt((3,), 3)
    with pytest.raises(ValueError):
        FpScalar(1, 4)


@pytest.mark.parametrize("make", [
    lambda: Prime(7.5), lambda: Prime(5.0), lambda: Prime("7"), lambda: Prime(True),
    lambda: FpScalar(3.0, 5), lambda: FpScalar(True, 5), lambda: FpScalar(3, 5.0),
    lambda: PadicInt((1.0, 2), 5), lambda: PadicInt((1, False), 5),
    lambda: LaurentPoly(5.0, 1, {(1,): 7}),
], ids=["prime-7.5", "prime-5.0", "prime-str", "prime-bool", "residue-float", "residue-bool",
        "residue-float-prime", "digit-float", "digit-bool", "laurent-float-prime"])
def test_scalars_take_genuine_ints_only(make):
    with pytest.raises(ValueError, match="must be an int"):
        make()


@pytest.mark.parametrize("value", [7.5, 5.0, "7", True])
def test_read_prime_turns_a_non_int_into_a_mismatch(value):
    with pytest.raises(MismatchError, match="must be an int"):
        read_prime(value)


def test_binom_nat_examples():
    assert binom_int_mod_p(4, 2, 3).value == math.comb(4, 2) % 3 == 0
    assert binom_int_mod_p(7, 0, 5).value == 1
    assert binom_int_mod_p(7, 5, 3).value == math.comb(7, 5) % 3 == 0


def test_lucas_consistency_small_exhaustive():
    for p in (2, 3, 5, 7):
        for m in range(120):
            for k in range(120):
                assert binom_int_mod_p(m, k, p).value == math.comb(m, k) % p


def test_lucas_consistency_sampled_to_2000():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 2039, 65521):
        for _ in range(400):
            m = rng.randint(0, 2000)
            k = rng.randint(0, 2000)
            assert binom_int_mod_p(m, k, p).value == math.comb(m, k) % p


def test_binom_int_examples():
    assert binom_int_mod_p(-1, 2, 3).value == 1
    assert binom_int_mod_p(-2, 1, 5).value == 3
    assert binom_int_mod_p(-3, 2, 2).value == int_binom(-3, 2) % 2 == 0


def test_binom_int_matches_falling_factorial_oracle():
    for p in (2, 3, 5, 2039, 65521):
        for m in range(-60, 61):
            for k in range(0, 12):
                assert binom_int_mod_p(m, k, p).value == int_binom(m, k) % p


def falling_binoms(m: int, bound: int):
    # the oracle's values C(m, 0), ..., C(m, bound), one exact step at a time
    c = 1
    for j in range(bound + 1):
        yield c
        c = c * (m - j) // (j + 1)


@pytest.mark.parametrize("p, uppers", [
    (2, range(-40, 41)),
    (3, range(-40, 41)),
    (5, [*range(-30, 31), 124, 126, 131, -126]),
    (65521, [-3, -1, 0, 2, 7]),
])
def test_nonzero_binoms_match_brute_force(p, uppers):
    # bounds on both sides of each power of p the uppers reach
    top = 3 if p < 65521 else 1
    bounds = sorted({-1, 0} | {p**k + d for k in range(top + 1) for d in (-1, 0, 1)})
    for m in uppers:
        values = list(falling_binoms(m, bounds[-1]))
        for bound in bounds:
            expected = tuple((j, c % p) for j, c in enumerate(values[:bound + 1]) if c % p)
            assert _nonzero_binoms(m, bound, p) == expected, (m, bound)



def brute_leibniz_terms(beta, delta, eps, p):
    # every j_i <= beta_i, both binomials from _lucas, variables as in the product
    per_variable = [[(b - j + e, d - j, c) for j in range(b + 1)
                     if (c := _lucas(d, j, p) * _lucas(b - j + e, e, p) % p)]
                    for b, d, e in zip(beta, delta, eps)]
    return [(tuple(t[0] for t in combo), tuple(t[1] for t in combo),
             math.prod(t[2] for t in combo) % p) for combo in iproduct(*per_variable)]


def _leibniz_case(rng, p, kind, top=1100):
    """One variable's (b, d, e) of one `kind`: one digit (b < p), carry-free
    (e = 0 mod p^L, L the length of b) or carrying (any other e).  b runs
    past CACHED_INDEX, so both cached and rebuilt survivor lists are met."""
    if kind == "digit":
        b = rng.randint(1, min(p - 1, top, 300))
    else:  # half at and around the powers of p up to `top` (p itself at least)
        near = [p**k + s for k in range(1, 12) for s in (-1, 0, 1) if p <= p**k + s <= max(top, p + 1)]
        b = rng.choice(near) if rng.random() < 0.5 else rng.randint(p, max(p + 1, min(top, 300)))
    size = padic_length(b, p)
    d = rng.choice((-1, 1)) * rng.randint(0, p ** (size + 2))
    if kind == "digit":
        e = rng.randint(0, p ** rng.randint(1, 3))
    elif kind == "carry-free":
        e = rng.randint(0, 3) * p**size
    else:
        e = rng.choice([v for v in (rng.randint(1, p ** (size + 1)), 1, p - 1) if v % p**size])
    return b, d, e


@pytest.mark.parametrize("p", (2, 3, 5, 7, 101, 65521))
def test_leibniz_terms_match_brute_force(p):
    # the same triples in the same order as every j with both binomials
    # taken from _lucas: 1,000 single variables of each of the three kinds
    # (2 of the multi-digit kinds at p = 65521, where b >= p has 65,521
    # candidates), then 200 products of two or three small variables
    rng = random.Random(f"leibniz:{p}")
    kinds = {"digit": 1000, "carry-free": 1000, "carrying": 1000}
    if p == 65521:
        kinds.update({"carry-free": 1, "carrying": 1})
    for kind, times in kinds.items():
        for _ in range(times):
            b, d, e = _leibniz_case(rng, p, kind)
            assert _leibniz_terms((b,), (d,), (e,), p) == brute_leibniz_terms((b,), (d,), (e,), p), \
                (kind, b, d, e)
    for _ in range(200):
        cases = [_leibniz_case(rng, p, rng.choice(list(kinds)) if p < 8 else "digit", top=min(2 * p + 1, 12))
                 for _ in range(rng.choice((2, 3)))]
        beta, delta, eps = zip(*cases)
        assert _leibniz_terms(beta, delta, eps, p) == brute_leibniz_terms(beta, delta, eps, p), cases


@pytest.mark.parametrize("p", (2, 3, 5, 17, 101, 65521))
def test_pascal_column_is_the_binomial(p):
    rng = random.Random(f"pascal:{p}")
    if p < 1000:  # every column, every row
        cells = [(b, range(p)) for b in range(p)]
    else:  # sampled columns; the middle ones at sampled rows, math.comb being slow there
        lowers = [0, 1, 2, p - 2, p - 1] + rng.sample(range(3, p - 2), 3)
        cells = [(b, range(p) if min(b, p - b) < 4 else
                  sorted({0, b - 1, b, b + 1, p - 1} | set(rng.sample(range(p), 40))))
                 for b in lowers]
    for b, rows in cells:
        column = _pascal_column(b, p)
        assert len(column) == p
        assert [column[t] for t in rows] == [math.comb(t, b) % p for t in rows], b


def test_table_cache_stays_small_across_large_primes():
    # one process taking binomials at the 64 largest primes below 2^16
    code = (
        "import resource\n"
        "from dividedops.scalars import _is_prime, binom_int_mod_p\n"
        "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "before = rss()\n"
        "primes = [q for q in range(1 << 16, 2, -1) if _is_prime(q)][:64]\n"
        "for q in primes:\n"
        "    assert binom_int_mod_p(q + 3, 2, q).value == 3\n"
        "print(rss() - before)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 100  # MB; one table is about 5 MB


def test_pascal_identity():
    for p in (2, 3, 5):
        for m in range(-50, 51):
            for k in range(0, 21):
                lhs = binom_int_mod_p(m, k, p).value
                rhs = (
                    binom_int_mod_p(m - 1, k, p).value
                    + (binom_int_mod_p(m - 1, k - 1, p).value if k > 0 else 0)
                ) % p
                assert lhs == rhs


def test_binom_padic_examples():
    p2 = Prime(2)
    s = PadicInt((1, 1), p2)  # s = 3 mod 4
    assert binom_padic(s, 2).value == int_binom(3, 2) % 2 == 1
    assert binom_padic(s, 0).value == 1
    s5 = PadicInt((4, 2, 0), Prime(5))
    assert binom_padic(s5, 1).value == 4


def test_binom_padic_insufficient_precision():
    s = PadicInt((1,), Prime(2))
    with pytest.raises(InsufficientPrecision):
        binom_padic(s, 2)  # k = 2 has a digit at index 1
    # high zero digits of k are harmless
    assert binom_padic(s, 1).value == 1


# at p = 3 and precision 1, 4 is the first entry of d1^[4] d2^[9] past 3^1
@pytest.mark.parametrize("call", [
    lambda op, s: shift_apply(s, op),
    lambda op, s: FactoredAut(s, MonomialAut.create(((1, 1), (0, 1)), (1, 2), 3)).apply(op),
    lambda op, s: ThetaTable.from_diffop(op, s.precision),
    lambda op, s: binom_padic(s.components[0], 4),
], ids=["shift_apply", "factored-apply", "from_diffop", "binom_padic"])
def test_insufficient_precision_has_one_message(call):
    op = eval_operator("x1 + d1[4]*d2[9]", 3, 2)
    s = ShiftVector.from_ints([1, 2], 3, 1)
    with pytest.raises(InsufficientPrecision) as exc:
        call(op, s)
    assert str(exc.value) == "index 4 needs 2 digits, precision is 1"


def test_binom_padic_agrees_with_integers():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(200):
            m = rng.randint(-200, 200)
            k = rng.randint(0, 30)
            s = PadicInt.from_int(m, p, precision=8)
            assert binom_padic(s, k).value == binom_int_mod_p(m, k, p).value


@given(st.integers(2, 7).filter(lambda q: q in (2, 3, 5, 7)),
       st.integers(0, 400),
       st.data())
@settings(max_examples=60, deadline=None)
def test_binom_padic_continuity(p, k, data):
    # digits of s above padic_length(k) never change the value
    length = padic_length(k, p)
    prec = length + 3
    low = data.draw(st.lists(st.integers(0, p - 1), min_size=prec, max_size=prec))
    s = PadicInt(tuple(low), Prime(p))
    tweaked = list(low)
    for i in range(length, prec):
        tweaked[i] = data.draw(st.integers(0, p - 1))
    t = PadicInt(tuple(tweaked), Prime(p))
    assert binom_padic(s, k) == binom_padic(t, k)


def test_padic_from_int_examples():
    assert PadicInt.from_int(-1, 3, 3).digits == (2, 2, 2)
    assert PadicInt.from_int(4, 2, 3).digits == (0, 0, 1)
    assert PadicInt.from_int(7, 5, 2).digits == (2, 1)


def test_padic_add_neg_examples():
    p2 = Prime(2)
    a = PadicInt((1, 1), p2)
    b = PadicInt((1, 0), p2)
    assert (a + b).digits == (0, 0)
    one = PadicInt((1, 0, 0), Prime(3))
    assert (-one).digits == (2, 2, 2)
    z = PadicInt.from_int(0, 2, 2)
    assert (a + z) == a


def test_padic_mismatch_is_hard_error():
    a = PadicInt.from_int(1, 2, 3)
    b = PadicInt.from_int(1, 2, 4)
    with pytest.raises(PrecisionMismatch):
        a + b


@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_padic_group_axioms(p, prec, data):
    digs = st.lists(st.integers(0, p - 1), min_size=prec, max_size=prec)
    a = PadicInt(tuple(data.draw(digs)), Prime(p))
    b = PadicInt(tuple(data.draw(digs)), Prime(p))
    c = PadicInt(tuple(data.draw(digs)), Prime(p))
    assert (a + b) == (b + a)
    assert ((a + b) + c) == (a + (b + c))
    assert (a + (-a)).is_zero()
    # exponent p^precision: p^K copies of a sum to zero
    assert a.scale(p ** prec).is_zero()


def test_padic_exponent_by_repeated_addition():
    a = PadicInt((1, 2), Prime(3))
    acc = PadicInt.from_int(0, 3, 2)
    for _ in range(9):
        acc = acc + a
    assert acc.is_zero()


def test_padic_roundtrip_to_int():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(100):
            m = rng.randint(-3000, 3000)
            s = PadicInt.from_int(m, p, 6)
            assert s.to_int() == m % p ** 6

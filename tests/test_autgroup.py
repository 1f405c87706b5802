"""Shift and monomial automorphisms, digit extraction, factorization."""

import math
import random

import pytest

from dividedops import autgroup, theta
from dividedops.autgroup import (
    FactoredAut,
    GeneratorImages,
    MonomialAut,
    ShiftVector,
    apply_images,
    compose_images,
    extract_digits,
    factorize,
    int_det,
    int_inverse_unimodular,
    matrix_shift,
    monomial_apply,
    monomial_generator_images,
    shift_apply,
    shift_compose_images,
    shift_generator_images,
    validate_generator_images,
)
from dividedops.diffop import DiffOp, normal_form_from_action
from dividedops.errors import (
    InsufficientPrecision,
    NotGL,
    NotInStabilizer,
    NotSigmaForm,
)
from dividedops.laurent import LaurentPoly
from dividedops.scalars import PadicInt, binom_padic

from helpers import monomial_compose_images, rand_gl, rand_op, rand_padic, tables_off


def sv(digit_rows, p):
    return ShiftVector.from_digits(digit_rows, p)


def d(p, n, i, k=1):
    return DiffOp.partial(p, n, i, k)


def mono(p, n, exps, c=1):
    return DiffOp.monomial(p, n, exps, c)


# -- shift images -----------------------------------------------------------


def test_shift_divided_image_examples():
    s = sv([[1]], 2)
    assert shift_apply(s, d(2, 1, 1)) == d(2, 1, 1) + mono(2, 1, (-1,))

    s10 = sv([[1, 0]], 2)
    expect = d(2, 1, 1, 2) + DiffOp(2, 1, {(1,): LaurentPoly.monomial(2, 1, (-1,))})
    assert shift_apply(s10, d(2, 1, 1, 2)) == expect

    s11 = sv([[1, 1]], 2)
    expect = (
        d(2, 1, 1, 2)
        + DiffOp(2, 1, {(1,): LaurentPoly.monomial(2, 1, (-1,))})
        + mono(2, 1, (-2,))
    )
    assert shift_apply(s11, d(2, 1, 1, 2)) == expect


def test_shift_image_action_identity():
    # the action oracle certifying the closed form:
    #   image of d^[k] applied to x^m equals C(m + s, k) x^{m-k}
    rng = random.Random(7)
    for p in (2, 3):
        prec = 6
        for _ in range(100):
            s = ShiftVector((rand_padic(rng, p, prec),))
            k = rng.randint(0, p ** prec - 1)
            m = rng.randint(-40, 40)
            img = shift_apply(s, d(p, 1, 1, k))
            got = img.act_monomial((m,))
            cm = binom_padic(PadicInt.from_int(m, p, prec) + s.components[0], k)
            expect = LaurentPoly.monomial(p, 1, (m - k,), cm.value)
            assert got == expect


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_shift_apply_is_conjugation_by_any_representative(p):
    # the module action does not go through the product: for every integer
    # r = s + p^prec t, shift_apply(s, D) sends x^m to x^-r D(x^(m + r))
    rng = random.Random(25 + p)
    prec = 3
    for n in (1, 2, 3):
        for _ in range(8):
            s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
            op = rand_op(rng, p, n, max_parts=3, max_order=5, span=3)
            img = shift_apply(s, op)
            for _ in range(6):
                r = tuple(c.to_int() + p ** prec * rng.randint(-3, 3) for c in s.components)
                m = tuple(rng.randint(-6, 6) for _ in range(n))
                shifted = op.act_monomial(tuple(a + b for a, b in zip(m, r)))
                assert img.act_monomial(m) == shifted.times_monomial(1, tuple(-b for b in r))


def test_shift_apply_fixes_laurent():
    rng = random.Random(8)
    s = ShiftVector((rand_padic(rng, 3, 4), rand_padic(rng, 3, 4)))
    f = LaurentPoly(3, 2, {(1, -2): 2, (0, 0): 1})
    assert shift_apply(s, DiffOp.from_laurent(f)) == DiffOp.from_laurent(f)


def test_shift_apply_examples():
    s = sv([[1]], 2)
    assert shift_apply(s, d(2, 1, 1)) == d(2, 1, 1) + mono(2, 1, (-1,))

    s11 = sv([[1, 1]], 2)
    op = DiffOp(2, 1, {(2,): LaurentPoly.monomial(2, 1, (2,))})  # x^2 d^[2]
    expect = (
        DiffOp(2, 1, {(2,): LaurentPoly.monomial(2, 1, (2,))})
        + DiffOp(2, 1, {(1,): LaurentPoly.monomial(2, 1, (1,))})
        + DiffOp.one(2, 1)
    )
    assert shift_apply(s11, op) == expect


def test_shift_apply_insufficient_precision():
    s = sv([[1]], 2)
    with pytest.raises(InsufficientPrecision):
        shift_apply(s, d(2, 1, 1, 2))


def test_shift_apply_is_multiplicative():
    # homomorphism property on products, exercised through both factors
    rng = random.Random(9)
    for p, n in ((2, 1), (3, 2)):
        for _ in range(15):
            s = ShiftVector(tuple(rand_padic(rng, p, 5) for _ in range(n)))
            a = rand_op(rng, p, n, max_parts=2, max_order=3, span=2)
            b = rand_op(rng, p, n, max_parts=2, max_order=3, span=2)
            assert shift_apply(s, a * b) == shift_apply(s, a) * shift_apply(s, b)


def test_shift_apply_preserves_defining_relations():
    # images of both sides of every relation stay equal
    rng = random.Random(24)
    for p, n in ((2, 1), (3, 2)):
        prec = 4
        for _ in range(6):
            s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            k = rng.randint(1, p ** prec - 1 - p)
            l = rng.randint(1, p ** prec - 1 - k)
            from dividedops.scalars import binom_int_mod_p

            dik, dil = d(p, n, i, k), d(p, n, i, l)
            c = binom_int_mod_p(k + l, k, p).value
            assert shift_apply(s, dik) * shift_apply(s, dil) == shift_apply(
                s, d(p, n, i, k + l).scale(c)
            )
            djl = d(p, n, j, l)
            assert shift_apply(s, dik) * shift_apply(s, djl) == shift_apply(
                s, djl
            ) * shift_apply(s, dik)
            xj = DiffOp.from_laurent(LaurentPoly.variable(p, n, j))
            com = shift_apply(s, dik) * xj - xj * shift_apply(s, dik)
            if i == j:
                expect = shift_apply(s, d(p, n, i, k - 1)) if k > 1 else DiffOp.one(p, n)
            else:
                expect = DiffOp.zero(p, n)
            assert com == expect


def test_shift_apply_preserves_order():
    rng = random.Random(10)
    for p in (2, 3):
        for _ in range(30):
            s = ShiftVector(tuple(rand_padic(rng, p, 6) for _ in range(2)))
            op = rand_op(rng, p, 2, max_parts=3, max_order=5, span=3)
            assert shift_apply(s, op).order() == op.order()


def test_shift_group_law_with_carries():
    rng = random.Random(11)
    for p in (2, 3):
        for n in (1, 2):
            for _ in range(10):
                s = ShiftVector(tuple(rand_padic(rng, p, 5) for _ in range(n)))
                t = ShiftVector(tuple(rand_padic(rng, p, 5) for _ in range(n)))
                direct = shift_generator_images(s + t)
                composed = shift_compose_images(s, shift_generator_images(t))
                assert direct == composed


# -- generator images and extraction ---------------------------------------


def test_build_and_extract_spec_example():
    g = shift_generator_images(sv([[1, 1]], 2))
    assert g.d_images[0][0] == d(2, 1, 1) + mono(2, 1, (-1,))
    assert g.d_images[0][1] == (
        d(2, 1, 1, 2)
        + DiffOp(2, 1, {(1,): LaurentPoly.monomial(2, 1, (-1,))})
        + mono(2, 1, (-2,))
    )
    assert extract_digits(g).digit_rows() == [[1, 1]]


def test_extract_zero():
    s = ShiftVector.zeros(3, 2, 4)
    assert extract_digits(shift_generator_images(s)).is_zero()


def test_extract_round_trip_random():
    rng = random.Random(12)
    for p in (2, 3):
        for n in (1, 2):
            for _ in range(8):
                s = ShiftVector(tuple(rand_padic(rng, p, 4) for _ in range(n)))
                assert extract_digits(shift_generator_images(s)) == s


def test_extract_rejects_moved_variables():
    g = shift_generator_images(sv([[1, 0]], 2))
    bad = GeneratorImages(
        g.p, g.n, g.precision,
        (DiffOp.from_laurent(LaurentPoly.monomial(2, 1, (-1,))),),
        (DiffOp.from_laurent(LaurentPoly.monomial(2, 1, (1,))),),
        g.d_images,
    )
    with pytest.raises(NotInStabilizer):
        extract_digits(bad)


def test_extract_rejects_wrong_perturbation():
    g = GeneratorImages.identity(2, 1, 2)
    rows = ((d(2, 1, 1) + mono(2, 1, (1,)), g.d_images[0][1]),)  # d + x, not d + x^-1
    bad = GeneratorImages(g.p, g.n, g.precision, g.x_images, g.xinv_images, rows)
    with pytest.raises(NotSigmaForm):
        extract_digits(bad)


def test_extract_rejects_positive_order_perturbation():
    g = GeneratorImages.identity(2, 1, 2)
    perturbation = mono(2, 1, (1,)) * d(2, 1, 1)  # x1 d1, order 1
    rows = ((g.d_images[0][0] + perturbation, g.d_images[0][1]),)
    bad = GeneratorImages(g.p, g.n, g.precision, g.x_images, g.xinv_images, rows)
    assert bad.d_images[0][0] - g.d_images[0][0] == perturbation
    assert not perturbation.is_laurent()
    with pytest.raises(NotSigmaForm) as exc:
        extract_digits(bad)
    assert "has positive order" in str(exc.value)


def test_extract_rejects_missing_leading_term():
    # the level image x1^-1 lacks its leading d1
    g = GeneratorImages.identity(2, 1, 2)
    rows = ((mono(2, 1, (-1,)), g.d_images[0][1]),)
    bad = GeneratorImages(g.p, g.n, g.precision, g.x_images, g.xinv_images, rows)
    with pytest.raises(NotSigmaForm):
        extract_digits(bad)


@pytest.mark.parametrize("p, n, digits", [
    (2, 1, [[1, 1, 0]]),
    (3, 2, [[2, 1, 0], [1, 0, 2]]),
    (5, 1, [[0, 4, 0]]),
])
def test_extract_rejects_perturbation_above_level_zero(p, n, digits):
    # the top level is read only after the lower digits have been undone
    g = shift_generator_images(sv(digits, p))
    prec = g.precision
    target = p ** (prec - 1)
    top = tuple(-target if i == 0 else 0 for i in range(n))
    off = tuple(1 - target if i == 0 else 0 for i in range(n))
    cases = [
        (d(p, n, 1), "has positive order"),
        (mono(p, n, top) * mono(p, n, off) + mono(p, n, off), "is not a monomial"),
        (mono(p, n, off), f"sits on x^{off}, expected x^{top}"),
    ]
    for perturbation, reason in cases:
        rows = [list(row) for row in g.d_images]
        rows[0][prec - 1] = rows[0][prec - 1] + perturbation
        bad = GeneratorImages(g.p, g.n, prec, g.x_images, g.xinv_images,
                              tuple(map(tuple, rows)))
        with pytest.raises(NotSigmaForm) as exc:
            extract_digits(bad)
        assert str(exc.value) == f"perturbation of d1^[{target}] {reason}"


# -- monomial automorphisms --------------------------------------------------


def test_int_det_and_inverse():
    a = ((2, 1), (1, 1))
    assert int_det(a) == 1
    inv = int_inverse_unimodular(a)
    assert inv == ((1, -1), (-1, 2))
    assert int_det(((1, 0), (0, 2))) == 2
    with pytest.raises(NotGL):
        int_inverse_unimodular(((1, 0), (0, 2)))
    assert int_det(((0, 1), (1, 0))) == -1
    assert int_inverse_unimodular(((-1,),)) == ((-1,),)


def test_monomial_aut_validation():
    with pytest.raises(NotGL):
        MonomialAut.create(((2, 0), (0, 1)), (1, 1), 3)
    with pytest.raises(ValueError):
        MonomialAut.create(((1,),), (0,), 3)


def test_monomial_apply_identity():
    tau = MonomialAut.identity(3, 1)
    op = d(3, 1, 1, 2) + mono(3, 1, (-1,))
    assert monomial_apply(tau, op) == op


def test_monomial_apply_inversion_example():
    tau = MonomialAut.create(((-1,),), (1,), 3)
    got = monomial_apply(tau, d(3, 1, 1))
    assert got == DiffOp(3, 1, {(1,): LaurentPoly.monomial(3, 1, (2,), 2)})


def test_monomial_apply_scaling_example():
    tau = MonomialAut.create(((1,),), (2,), 5)
    got = monomial_apply(tau, d(5, 1, 1))
    # 2^{-1} = 3 mod 5
    assert got == DiffOp(5, 1, {(1,): LaurentPoly.constant(5, 1, 3)})


def test_monomial_apply_is_homomorphism():
    rng = random.Random(13)
    for p, n in ((3, 1), (2, 2), (5, 2)):
        for _ in range(8):
            tau = MonomialAut.create(
                rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p
            )
            a = rand_op(rng, p, n, max_parts=2, max_order=2, span=2)
            b = rand_op(rng, p, n, max_parts=2, max_order=2, span=2)
            assert monomial_apply(tau, a * b) == monomial_apply(tau, a) * monomial_apply(tau, b)


def conjugate_by_probing(tau, op):
    """tau(op) recovered from its action f -> tau(op * tau^{-1}(f)): the
    generic path, independent of the closed form in monomial_apply."""
    inv = tau.inverse()

    def action(exps):
        probe = inv.apply_laurent(LaurentPoly.monomial(op.p, op.n, exps))
        return tau.apply_laurent(op.act(probe))

    return normal_form_from_action(action, op.p, op.n, op.order())


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
def test_monomial_apply_matches_probing(p, n):
    rng = random.Random(100 * p + n)
    for _ in range(12):
        tau = MonomialAut.create(rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p)
        op = rand_op(rng, p, n, max_parts=3, max_order=4 if n < 3 else 3, span=3, max_terms=3)
        if op.is_zero():
            continue
        assert monomial_apply(tau, op) == conjugate_by_probing(tau, op)


def test_monomial_apply_matches_probing_on_level_images():
    rng = random.Random(101)
    p, n, prec = 2, 2, 5
    for _ in range(4):
        tau = MonomialAut.create(rand_gl(rng, n), [1, 1], p)
        for i in range(1, n + 1):
            for k in range(prec):
                level = d(p, n, i, p ** k)
                assert monomial_apply(tau, level) == conjugate_by_probing(tau, level)


def test_monomial_compose_inverse():
    rng = random.Random(14)
    for p, n in ((3, 2), (5, 2)):
        for _ in range(10):
            tau = MonomialAut.create(
                rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p
            )
            assert tau.compose(tau.inverse()).is_identity()
            assert tau.inverse().compose(tau).is_identity()


def test_is_identity_reads_the_matrix_and_scalars():
    for n in (1, 2, 3):
        assert MonomialAut.identity(5, n).is_identity()
    for matrix, scalars in ((((1, 0), (0, 1)), (1, 2)), (((0, 1), (1, 0)), (1, 1)),
                            (((-1, 0), (0, -1)), (1, 1)), (((1, 1), (0, 1)), (1, 1))):
        assert not MonomialAut.create(matrix, scalars, 5).is_identity()
    rng = random.Random(29)
    for _ in range(20):
        tau = MonomialAut.create(rand_gl(rng, 2, -1, 1), [rng.randint(1, 2) for _ in range(2)], 3)
        assert tau.is_identity() == (tau == MonomialAut.identity(3, 2))


# -- factored automorphisms ---------------------------------------------------


def test_factored_compose_shift_only():
    rng = random.Random(15)
    p, n, prec = 3, 2, 4
    s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
    t = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
    ident = MonomialAut.identity(p, n)
    got = FactoredAut(s, ident).compose(FactoredAut(t, ident))
    assert got == FactoredAut(s + t, ident)


def test_factored_inverse():
    rng = random.Random(16)
    for p, n in ((2, 2), (3, 2)):
        for _ in range(10):
            a = FactoredAut(
                ShiftVector(tuple(rand_padic(rng, p, 4) for _ in range(n))),
                MonomialAut.create(
                    rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p
                ),
            )
            assert a.compose(a.inverse()).is_identity()
            assert a.inverse().compose(a).is_identity()


def test_factored_conjugation_twists_shift():
    # (0, tau) (s, id) (0, tau^-1) = (A s, id)
    rng = random.Random(25)
    for p, n in ((2, 2), (5, 2)):
        for _ in range(8):
            s = ShiftVector(tuple(rand_padic(rng, p, 4) for _ in range(n)))
            tau = MonomialAut.create(
                rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p
            )
            ident = MonomialAut.identity(p, n)
            zero = ShiftVector.zeros(p, n, 4)
            conj = (
                FactoredAut(zero, tau)
                .compose(FactoredAut(s, ident))
                .compose(FactoredAut(zero, tau.inverse()))
            )
            assert conj == FactoredAut(matrix_shift(tau.matrix, s), ident)


def test_semidirect_twist_small():
    # conjugating a shift by a monomial automorphism rescales the p-adic
    # parameter by the exponent matrix
    rng = random.Random(17)
    cases = [(2, 2, 3, 6), (3, 1, 3, 6)]
    for p, n, prec, reps in cases:
        for _ in range(reps):
            s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
            tau = MonomialAut.create(
                rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p
            )
            inner = shift_compose_images(s, monomial_generator_images(tau.inverse(), prec))
            twisted = monomial_compose_images(tau, inner)
            assert extract_digits(twisted) == matrix_shift(tau.matrix, s)


def test_apply_images_matches_shift_apply():
    rng = random.Random(18)
    for p, n in ((2, 1), (3, 2)):
        for _ in range(8):
            s = ShiftVector(tuple(rand_padic(rng, p, 4) for _ in range(n)))
            g = shift_generator_images(s)
            op = rand_op(rng, p, n, max_parts=2, max_order=4, span=2)
            assert apply_images(g, op) == shift_apply(s, op)


# -- validation ----------------------------------------------------------------


def test_validate_identity_images():
    rep = validate_generator_images(GeneratorImages.identity(3, 2, 2))
    assert rep.passed


def test_validate_shift_images():
    rng = random.Random(19)
    for p, n, prec in ((2, 1, 3), (3, 2, 2)):
        s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
        rep = validate_generator_images(shift_generator_images(s))
        assert rep.passed, rep.failures()


def test_validate_monomial_images():
    tau = MonomialAut.create(((0, -1), (1, 0)), (1, 2), 3)
    rep = validate_generator_images(monomial_generator_images(tau, 2))
    assert rep.passed, rep.failures()


def test_validate_catches_wrong_sign_perturbation():
    g = GeneratorImages.identity(2, 1, 2)
    rows = ((d(2, 1, 1) + mono(2, 1, (1,)), g.d_images[0][1]),)
    bad = GeneratorImages(g.p, g.n, g.precision, g.x_images, g.xinv_images, rows)
    rep = validate_generator_images(bad)
    names = {c.name for c in rep.failures()}
    assert "p-th power d[1]^[p^0]" in names


# -- factorization ---------------------------------------------------------------


def test_factorize_pure_shift():
    rng = random.Random(20)
    s = ShiftVector(tuple(rand_padic(rng, 2, 3) for _ in range(2)))
    fac = factorize(shift_generator_images(s))
    assert fac.shift == s and fac.tau.is_identity()


def test_factorize_pure_monomial():
    tau = MonomialAut.create(((1,),), (2,), 5)
    fac = factorize(monomial_generator_images(tau, 2))
    assert fac.shift.is_zero() and fac.tau == tau


def test_factorize_composite():
    rng = random.Random(21)
    for p, n, prec in ((2, 2, 3), (3, 2, 2)):
        for _ in range(4):
            s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
            tau = MonomialAut.create(
                rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p
            )
            g = compose_images(
                shift_generator_images(s), monomial_generator_images(tau, prec)
            )
            fac = factorize(g)
            assert fac.shift == s and fac.tau == tau
            # uniqueness: recomposing reproduces the images exactly
            assert fac.to_images() == g


@pytest.mark.parametrize("p, prec, matrix, digits, scalars", [
    (2, 7, ((2, 1), (1, 1)), [[1, 0, 1, 1, 0, 0, 1], [0, 1, 1, 0, 1, 0, 1]], (1, 1)),
    (3, 5, ((1, 1), (0, 1)), [[2, 0, 1, 1, 2], [1, 2, 0, 2, 1]], (2, 1)),
])
def test_factorize_conjugates_only_the_level_operators(p, prec, matrix, digits, scalars):
    # the certificate conjugates d_i^[p^k] alone, never the input images,
    # so each level costs at most one closed-form expansion
    fac = FactoredAut(sv(digits, p), MonomialAut.create(matrix, scalars, p))
    g = fac.to_images()
    theta.expansion.cache_clear()
    assert factorize(g) == fac
    assert 0 < theta.expansion.cache_info().misses <= g.n * prec


def test_factored_to_images_matches_generic_composition():
    rng = random.Random(22)
    p, n, prec = 2, 2, 3
    s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
    tau = MonomialAut.create(rand_gl(rng, n), [1, 1], p)
    fac = FactoredAut(s, tau)
    generic = compose_images(
        shift_generator_images(s), monomial_generator_images(tau, prec)
    )
    assert fac.to_images() == generic


# -- one closed form for the shift after tau -------------------------------------


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (5, 2), (2, 3)])
def test_factored_apply_is_shift_after_monomial(p, n):
    rng = random.Random(300 + 10 * p + n)
    prec = 3
    for _ in range(12):
        s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
        tau = MonomialAut.create(rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p)
        op = rand_op(rng, p, n, max_parts=3, max_order=min(p ** prec - 1, 6 if n < 3 else 4),
                     span=3, max_terms=3)
        assert FactoredAut(s, tau).apply(op) == shift_apply(s, monomial_apply(tau, op))


def test_factored_apply_identity_and_diagonal_tau():
    rng = random.Random(31)
    p, n, prec = 5, 2, 2
    ident = MonomialAut.identity(p, n)
    scaled = MonomialAut.create(((1, 0), (0, 1)), (2, 3), p)  # A = 1, lambda != 1
    for _ in range(10):
        s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
        op = rand_op(rng, p, n, max_parts=3, max_order=8, span=3, max_terms=3)
        assert FactoredAut(s, ident).apply(op) == shift_apply(s, op)
        assert FactoredAut(s, scaled).apply(op) == shift_apply(s, monomial_apply(scaled, op))
    # an index with more digits than the precision, as shift_apply reports it
    s = ShiftVector.from_ints([1, 2], p, prec)
    long = d(p, n, 1, p ** prec) + mono(p, n, (1, -1))
    with pytest.raises(InsufficientPrecision) as expected:
        shift_apply(s, long)
    for tau in (ident, scaled):
        with pytest.raises(InsufficientPrecision) as got:
            FactoredAut(s, tau).apply(long)
        assert str(got.value) == str(expected.value)


def exact_binom(m, k):
    # C(m, k) = m(m-1)...(m-k+1)/k! over the integers, for any integer m
    num = 1
    for i in range(k):
        num *= m - i
    return num // math.factorial(k)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (5, 2), (2, 3)])
def test_theta_expansion_with_a_shift_is_the_shifted_product(p, n):
    rng = random.Random(400 + 10 * p + n)
    for _ in range(6):
        ainv = int_inverse_unimodular(rand_gl(rng, n))
        beta = tuple(rng.randint(0, 5 if n < 3 else 3) for _ in range(n))
        t = tuple(rng.randint(-40, 40) for _ in range(n))
        expansion = theta.expansion(ainv, beta, p, t)
        assert expansion == theta._theta_expansion(ainv, beta, p, t)
        for _ in range(25):
            m = [rng.randint(-30, 30) for _ in range(n)]
            lhs = sum(c * math.prod(exact_binom(mk, jk) for mk, jk in zip(m, j))
                      for j, c in expansion)
            am = [sum(a * mk for a, mk in zip(row, m)) for row in ainv]
            rhs = math.prod(exact_binom(v + ti, b) for v, ti, b in zip(am, t, beta))
            assert (lhs - rhs) % p == 0


# -- the closed form on byte theta-tables ------------------------------------


def table_digits(p, n) -> int:
    """The most digits K with p^(nK) cells in a small table."""
    k = 1
    while p ** (n * (k + 1)) <= 2 ** 12:
        k += 1
    return k


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_expansion_is_the_newton_expansion(p, n):
    # every level index p^k e_i, and multi-indices with several nonzero
    # entries, under seeded A^-1 and shifts t
    rng = random.Random(f"table:{p}:{n}")
    size = p ** table_digits(p, n)
    levels = [tuple(p ** k if j == i else 0 for j in range(n))
              for i in range(n) for k in range(table_digits(p, n))]
    multi = [tuple(rng.randrange(size) for _ in range(n)) for _ in range(6)]
    assert any(sum(map(bool, beta)) > 1 for beta in multi) or n == 1
    for beta in levels + multi:
        ainv = int_inverse_unimodular(rand_gl(rng, n))
        t = tuple(rng.randrange(size) for _ in range(n))
        newton = theta._theta_expansion(ainv, beta, p, t)
        digits = theta.index_digits([beta], p)
        assert theta._table_expansion(ainv, beta, p, t, digits) == newton, beta
        assert theta.expansion(ainv, beta, p, t) == newton, beta


def test_table_path_is_the_operator_recovered_from_its_action():
    # at (p, n, precision) = (2, 2, 4) the shift s after tau sends x^m to
    # x^-s tau(op(tau^-1(x^(m + s)))); the images of the level operators
    # and of random operators, against the operator recovered from that
    rng = random.Random(44)
    p, n, prec = 2, 2, 4
    for _ in range(4):
        tau = MonomialAut.create(rand_gl(rng, n), [1, 1], p)
        aut = FactoredAut(ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n))), tau)
        s = [c.to_int() for c in aut.shift.components]
        inv = tau.inverse()
        ops = [d(p, n, i, p ** k) for i in (1, 2) for k in range(prec)]
        ops += [rand_op(rng, p, n, max_parts=2, max_order=5, span=2, max_terms=2)
                for _ in range(2)]
        for op in ops:
            if op.is_zero():
                continue

            def action(m, op=op):
                probe = inv.apply_laurent(LaurentPoly.monomial(p, n, [a + b for a, b in zip(m, s)]))
                return tau.apply_laurent(op.act(probe)).times_monomial(1, [-v for v in s])

            assert aut.apply(op) == normal_form_from_action(action, p, n, op.order()), op


def perturbed_messages(g, monkeypatch) -> tuple[str, str]:
    """factorize's NotSigmaForm message with the closed form on tables, and
    with Newton differences alone (no table anywhere).  The cache is
    cleared first, so the table side computes its own expansions."""
    theta.expansion.cache_clear()
    with pytest.raises(NotSigmaForm) as tables:
        factorize(g)
    with tables_off(monkeypatch) as m:
        m.setattr(theta, "_table_expansion", None)  # a table call would raise
        with pytest.raises(NotSigmaForm) as diffops:
            factorize(g)
    return str(tables.value), str(diffops.value)


def with_image(g, i, k, image):
    rows = [list(row) for row in g.d_images]
    rows[i][k] = image
    return GeneratorImages(g.p, g.n, g.precision, g.x_images, g.xinv_images,
                           tuple(map(tuple, rows)))


@pytest.mark.parametrize("i, k", [(0, 0), (1, 1), (0, 2)])
def test_factorize_messages_are_the_diffop_certificates(monkeypatch, i, k):
    p, n = 3, 2
    fac = FactoredAut(sv([[2, 0, 1], [1, 2, 2]], p), MonomialAut.create(((2, 1), (1, 1)), (2, 1), p))
    g = fac.to_images()
    image = g.d_images[i][k]
    name = f"d{i + 1}^[{p ** k}]"
    # one coefficient changed in one level: the image is no longer the closed form
    beta, f = max(image.parts.items())
    exps, c = max(f.terms.items())
    changed = image + DiffOp(p, n, {beta: LaurentPoly.monomial(p, n, exps, c)})
    # an index of k + 2 digits
    longer = image + d(p, n, 2 - i, p ** (k + 1))
    # a term at a second gamma
    elsewhere = image + DiffOp(p, n, {(0, 0): LaurentPoly.monomial(p, n, (5, -4))})
    got = {case: perturbed_messages(with_image(g, i, k, bad), monkeypatch)
           for case, bad in (("changed", changed), ("longer", longer), ("elsewhere", elsewhere))}
    for tables, diffops in got.values():
        assert tables == diffops
    assert got["longer"][0] == f"perturbation of {name} has positive order"
    assert got["elsewhere"][0].startswith(f"perturbation of {name} ")


def test_building_and_factoring_multiply_only_the_units(monkeypatch):
    # for tau != 1 the images come from the closed form alone: the only
    # products are the n unit checks x_i * x_i^{-1} of restriction()
    calls = []
    mul = DiffOp.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(DiffOp, "__mul__", counted)
    for p, matrix, scalars, digits in (
        (2, ((2, 1), (1, 1)), (1, 1), [[1, 0, 1, 1], [0, 1, 1, 0]]),
        (3, ((1, 1), (0, 1)), (2, 1), [[2, 0, 1], [1, 2, 0]]),
    ):
        fac = FactoredAut(sv(digits, p), MonomialAut.create(matrix, scalars, p))
        calls.clear()
        g = fac.to_images()
        assert not calls
        assert factorize(g) == fac
        assert len(calls) == g.n


def test_building_the_images_inverts_the_matrix_once(monkeypatch):
    calls = []
    inverse = autgroup.int_inverse_unimodular

    def counted(matrix):
        calls.append(matrix)
        return inverse(matrix)

    monkeypatch.setattr(autgroup, "int_inverse_unimodular", counted)
    fac = FactoredAut(sv([[1, 0, 1], [0, 1, 1]], 2), MonomialAut.create(((2, 1), (1, 1)), (1, 1), 2))
    g = fac.to_images()
    assert calls == [fac.tau.matrix]
    assert factorize(g) == fac

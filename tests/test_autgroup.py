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
from dividedops.diffop import TABLE_PARTS, DiffOp, normal_form_from_action
from dividedops.errors import (
    InsufficientPrecision,
    NotAUnit,
    NotGL,
    NotInStabilizer,
    NotSigmaForm,
)
from dividedops.laurent import LaurentPoly
from dividedops.scalars import PadicInt, Prime, binom_padic

from helpers import (
    conversions,
    generic_apply_images,
    generic_compose_images,
    leibniz_product,
    monomial_compose_images,
    rand_gl,
    rand_op,
    rand_padic,
    rand_poly,
    table_digits,
    tables_off,
)


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


def wide_op(rng, p, n, digits, parts=10) -> DiffOp:
    """An operator of `parts` parts on two gamma, indices below p^digits,
    one of them of full length."""
    size = p ** digits
    gammas = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
    betas = {(size - 1,) * n}
    while len(betas) < parts:
        betas.add(tuple(rng.randrange(size) for _ in range(n)))
    return DiffOp(p, n, {beta: LaurentPoly(p, n, {
        tuple(g + b for g, b in zip(gamma, beta)): rng.randrange(1, p) for gamma in gammas})
        for beta in betas})


@pytest.mark.parametrize("p, n, digits", [(2, 1, 5), (2, 2, 4), (3, 1, 3), (3, 2, 2),
                                          (5, 1, 2), (5, 2, 1), (7, 1, 2), (13, 1, 2)])
def test_rolled_shift_is_conjugation_by_any_representative(p, n, digits, monkeypatch):
    # operands of at least TABLE_PARTS parts, shifted by digits near p - 1,
    # roll their theta-tables; the module action is the oracle, as above
    rolls = []
    original = theta.table_product
    monkeypatch.setattr(theta, "table_product",
                        lambda left, right, k: rolls.append(k) or original(left, right, k))
    rng = random.Random(f"rolled:{p}:{n}:{digits}")
    for _ in range(3):
        op = wide_op(rng, p, n, digits)
        assert len(op.parts) >= TABLE_PARTS
        s = ShiftVector.from_digits(
            [[rng.choice((p - 1, p - 1, rng.randrange(p))) for _ in range(digits)]
             for _ in range(n)], p)
        img = shift_apply(s, op)
        for _ in range(4):
            r = tuple(c.to_int() + p ** digits * rng.randint(-3, 3) for c in s.components)
            m = tuple(rng.randint(-2 * p ** digits, 2 * p ** digits) for _ in range(n))
            shifted = op.act_monomial(tuple(a + b for a, b in zip(m, r)))
            assert img.act_monomial(m) == shifted.times_monomial(1, tuple(-b for b in r))
    assert rolls and set(rolls) == {digits}


def test_shift_apply_fixes_laurent():
    rng = random.Random(8)
    s = ShiftVector((rand_padic(rng, 3, 4), rand_padic(rng, 3, 4)))
    f = LaurentPoly(3, 2, {(1, -2): 2, (0, 0): 1})
    assert shift_apply(s, DiffOp.from_laurent(f)) == DiffOp.from_laurent(f)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_shift_returns_laurent_operands_as_the_leibniz_product(p):
    # x^-t f x^t = f: the operand comes back unchanged, and equal to the
    # Leibniz product by x^t of x^-t f
    rng = random.Random(f"laurent-shift:{p}")
    for n in (1, 2, 3):
        for _ in range(6):
            f = DiffOp.from_laurent(rand_poly(rng, p, n, max_terms=4, span=4))
            s = ShiftVector(tuple(rand_padic(rng, p, 3) for _ in range(n)))
            t = [c.to_int() for c in s.components]
            left = leibniz_product(mono(p, n, [-v for v in t]), f)
            assert shift_apply(s, f) is f
            assert f == leibniz_product(left, mono(p, n, t))


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


def test_factorize_decides_unimodularity_once(monkeypatch):
    # one int_det per factorize, and a non-GL exponent matrix raises
    # MonomialAut's NotGL
    p = 3
    g = FactoredAut(sv([[1, 2], [2, 0]], p), MonomialAut.create(((2, 1), (1, 1)), (2, 1), p))
    images = g.to_images()
    x = DiffOp.from_laurent
    squares = GeneratorImages(p, 1, 1, (x(LaurentPoly.monomial(p, 1, (2,))),),
                              (x(LaurentPoly.monomial(p, 1, (-2,))),), ((d(p, 1, 1, 1),),))
    calls = []
    monkeypatch.setattr(autgroup, "int_det", lambda m: calls.append(m) or int_det(m))
    assert factorize(images) == g
    assert calls == [((2, 1), (1, 1))]
    with pytest.raises(NotGL, match=r"^matrix \(\(2,\),\) has determinant != \+-1$"):
        factorize(squares)
    assert len(calls) == 2


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
            assert apply_images(g, op) == shift_apply(s, op) == generic_apply_images(g, op)


def test_images_that_present_no_automorphism_do_not_act():
    # the level-power products would send d1^[2] to d1[2] + x1*d1[1] + 2*x1^2 + 2
    ident = GeneratorImages.identity(3, 2, 2)
    op = d(3, 2, 1, 2)
    rows = ((d(3, 2, 1) + mono(3, 2, (1, 0)), ident.d_images[0][1]), ident.d_images[1])
    perturbed = GeneratorImages(ident.p, 2, 2, ident.x_images, ident.xinv_images, rows)
    not_unit = GeneratorImages(ident.p, 2, 2, (mono(3, 2, (1, 0)) + mono(3, 2, (0, 0)),
                                               ident.x_images[1]),
                               ident.xinv_images, ident.d_images)
    for bad, error in ((perturbed, NotSigmaForm), (not_unit, NotAUnit)):
        with pytest.raises(error):
            apply_images(bad, op)
        with pytest.raises(error):
            compose_images(bad, ident)


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
            g = generic_compose_images(
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
    generic = generic_compose_images(
        shift_generator_images(s), monomial_generator_images(tau, prec)
    )
    assert fac.to_images() == generic


def _rand_nontrivial_aut(rng, p, n, prec):
    while True:
        s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
        tau = MonomialAut.create(rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p)
        if not s.is_zero() and not tau.is_identity():
            return FactoredAut(s, tau)


@pytest.mark.parametrize("p,n,prec", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 2)])
def test_group_law_agrees_across_the_three_paths(p, n, prec):
    # images composed through factorize, factors composed in Z_p^n x| Aut_K(L_n),
    # and the generic level-power composition all give the same images
    rng = random.Random(400 + 100 * p + 10 * n + prec)
    for _ in range(6):
        f, g = _rand_nontrivial_aut(rng, p, n, prec), _rand_nontrivial_aut(rng, p, n, prec)
        fi, gi = f.to_images(), g.to_images()
        assert compose_images(fi, gi) == f.compose(g).to_images() == generic_compose_images(fi, gi)


def test_generator_images_accept_an_int_prime():
    ident = GeneratorImages.identity(3, 2, 2)
    rebuilt = GeneratorImages(3, 2, 2, ident.x_images, ident.xinv_images, ident.d_images)
    assert rebuilt == ident and rebuilt.p == Prime(3)


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


@pytest.mark.parametrize("p, n, prec", [(3, 2, 3), (5, 1, 3), (2, 3, 3), (7, 2, 2)])
def test_closed_form_is_the_operator_recovered_from_its_action(p, n, prec):
    # tau != 1 with scalars other than 1 and a nonzero shift, on random
    # operators of several parts, whose terms meet in one output index
    rng = random.Random(f"closed:{p}:{n}:{prec}")
    for _ in range(3):
        tau = MonomialAut.create(rand_gl(rng, n), [rng.randrange(1, p) for _ in range(n)], p)
        aut = FactoredAut(ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n))), tau)
        s = [c.to_int() for c in aut.shift.components]
        inv = tau.inverse()
        for _ in range(3):
            op = rand_op(rng, p, n, max_parts=4, max_order=p if n < 3 else 2, span=2, max_terms=3)
            if op.is_zero():
                continue

            def action(m, op=op):
                probe = inv.apply_laurent(LaurentPoly.monomial(p, n, [a + b for a, b in zip(m, s)]))
                return tau.apply_laurent(op.act(probe)).times_monomial(1, [-v for v in s])

            assert aut.apply(op) == normal_form_from_action(action, p, n, op.order()), op


def test_closed_form_and_certificate_build_no_intermediate_operator(monkeypatch):
    # FactoredAut.apply sums into one dictionary and wraps it; shift_apply
    # builds only its factor x^t; factorize subtracts only to name a failure
    made, subtracted = [], []
    init, sub = DiffOp.__init__, DiffOp.__sub__

    def counted_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def counted_sub(self, other):
        subtracted.append(1)
        return sub(self, other)

    p, n = 3, 2
    fac = FactoredAut(sv([[2, 0, 1], [1, 2, 2]], p), MonomialAut.create(((2, 1), (1, 1)), (2, 1), p))
    ops = [rand_op(random.Random(9), p, n, max_parts=3, max_order=4, max_terms=3) for _ in range(4)]
    g = fac.to_images()
    monkeypatch.setattr(DiffOp, "__init__", counted_init)
    monkeypatch.setattr(DiffOp, "__sub__", counted_sub)
    for op in ops:
        fac.apply(op)
    assert not made
    shift_apply(fac.shift, ops[0])
    assert len(made) == 1
    assert factorize(g) == fac and not subtracted
    bad = with_image(g, 0, 1, g.d_images[0][1] + mono(p, n, (1, 1)))
    with pytest.raises(NotSigmaForm):
        factorize(bad)
    assert len(subtracted) == 1


def perturbed_messages(g, monkeypatch) -> tuple[str, str, str]:
    """factorize's NotSigmaForm message three ways: with the closed form
    rebuilt on tables; validated first, whose certificate rejects the
    images and keeps nothing on them; and with Newton differences alone
    (no table anywhere).  The cache is cleared first, so the table side
    computes its own expansions."""
    theta.expansion.cache_clear()
    with pytest.raises(NotSigmaForm) as tables:
        factorize(g)
    validate_generator_images(g)
    assert g._factored is None
    with pytest.raises(NotSigmaForm) as validated:
        factorize(g)
    with tables_off(monkeypatch) as m:
        m.setattr(theta, "_table_expansion", None)  # a table call would raise
        with pytest.raises(NotSigmaForm) as diffops:
            factorize(g)
    return str(tables.value), str(validated.value), str(diffops.value)


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
    for tables, validated, diffops in got.values():
        assert tables == validated == diffops
    assert got["longer"][0] == f"perturbation of {name} has positive order"
    assert got["elsewhere"][0].startswith(f"perturbation of {name} ")


def refuse_rebuilds(monkeypatch):
    """Make `FactoredAut.apply` raise, so that images can be factored or
    validated only by the factorization kept on them."""
    def refused(self, op):
        raise AssertionError("a level image was rebuilt")

    monkeypatch.setattr(FactoredAut, "apply", refused)


@pytest.mark.parametrize("p, n", [*((p, n) for p in (2, 3, 5, 7, 13) for n in (1, 2, 3)), (17, 1)])
def test_validation_first_or_last_factors_the_same(monkeypatch, p, n):
    rng = random.Random(f"kept:{p}:{n}")
    prec = min(table_digits(p, n), 3)
    for trial in range(3):
        scalars = [rng.randint(1, p - 1) for _ in range(n)]
        tau = MonomialAut.identity(p, n) if trial == 0 else \
            MonomialAut.create(rand_gl(rng, n), scalars, p)
        fac = FactoredAut(ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n))), tau)
        first, last, alone = fac.to_images(), fac.to_images(), fac.to_images()
        assert factorize(alone) == fac
        assert factorize(last) == fac
        with monkeypatch.context() as m:
            calls = conversions(m)
            assert validate_generator_images(first).passed
            assert not calls  # certified images make no table
        with monkeypatch.context() as m:
            refuse_rebuilds(m)  # each set was certified once, by the first of the two calls
            assert validate_generator_images(last).passed
            assert factorize(first) == fac and factorize(first) is first._factored


def test_certified_images_convert_no_table(monkeypatch):
    g = FactoredAut(sv([[2, 0, 1], [1, 2, 2]], 3),
                    MonomialAut.create(((2, 1), (1, 1)), (2, 1), 3)).to_images()
    monkeypatch.setattr(theta.ThetaTable, "from_diffop", None)  # a conversion would raise
    assert validate_generator_images(g).passed
    assert validate_generator_images(g).passed


def test_every_level_is_rebuilt_against_the_closed_form():
    # every index of these images has one digit; on tables of period p,
    # C(y, p) reads as C(y, 0), so the unit x^-p at the second level would
    # pass there for the closed form of d^[p] under the shift 3.  The
    # certificate rebuilds every level as an operator and rejects it
    p = 3
    ident = GeneratorImages.identity(p, 1, 2)
    g = with_image(ident, 0, 1, mono(p, 1, (-p,)))
    assert not validate_generator_images(g).passed and g._factored is None
    with pytest.raises(NotSigmaForm, match=r"d1\^\[3\] has positive order"):
        factorize(g)


def test_the_kept_factorization_holds_no_table(monkeypatch):
    fac = FactoredAut(sv([[2, 0, 1], [1, 2, 2]], 3),
                      MonomialAut.create(((2, 1), (1, 1)), (2, 1), 3))
    g = fac.to_images()
    assert validate_generator_images(g).passed
    with tables_off(monkeypatch) as m:
        for name in ("from_diffop", "__eq__", "__mul__", "__sub__", "is_zero"):
            m.setattr(theta.ThetaTable, name, None)  # any use of a table would raise
        m.setattr(theta, "_table_expansion", None)
        refuse_rebuilds(m)
        assert factorize(g) == fac
        assert validate_generator_images(g).passed


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

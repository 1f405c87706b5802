"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is deterministic under its fixed seed and prints a PASS/FAIL
line (run with `pytest -sv tests/test_acceptance.py` to see them).
"""

import json
import random
import time
from pathlib import Path

import pytest

from dividedops.autgroup import (
    GeneratorImages,
    MonomialAut,
    ShiftVector,
    compose_images,
    extract_digits,
    factorize,
    int_det,
    matrix_shift,
    monomial_generator_images,
    shift_apply,
    shift_compose_images,
    shift_generator_images,
)
from dividedops.cli import main
from dividedops.diffop import DiffOp
from dividedops.errors import NotSigmaForm
from dividedops.interchange import dumps, images_from_dict, images_to_dict, op_from_dict, op_to_dict
from dividedops.laurent import LaurentPoly
from dividedops.oracles import ExponentWindow, kernel_bruteforce, relation_suite
from dividedops.scalars import PadicInt, binom_padic

from helpers import monomial_compose_images

GOLDEN = Path(__file__).parent / "golden"


def report(criterion: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"{tag} {criterion}{suffix}")
    assert ok, criterion


def rand_shift(rng, p, n, precision) -> ShiftVector:
    return ShiftVector.from_digits(
        [[rng.randint(0, p - 1) for _ in range(precision)] for _ in range(n)], p
    )


def rand_poly(rng, p, n, max_terms=3, span=3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(n))
        terms[exps] = rng.randint(1, p - 1)
    return LaurentPoly(p, n, terms)


def rand_op(rng, p, n, max_parts=3, max_order=3, span=3) -> DiffOp:
    parts = {}
    for _ in range(rng.randint(0, max_parts)):
        while True:
            beta = tuple(rng.randint(0, max_order) for _ in range(n))
            if sum(beta) <= max_order:
                break
        f = rand_poly(rng, p, n, max_terms=2, span=span)
        if f:
            parts[beta] = parts.get(beta, LaurentPoly.zero(p, n)) + f
    return DiffOp(p, n, {b: f for b, f in parts.items() if f})


def rand_gl(rng, n, lo=-2, hi=2):
    while True:
        a = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
        if int_det(a) in (1, -1):
            return a


def rand_monomial(rng, p, n) -> MonomialAut:
    return MonomialAut.create(rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p)


def test_criterion_01_defining_relations():
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        for n in (1, 2):
            rep = relation_suite(p, n, p ** 3, trials=0, seed=101)
            ok = ok and rep.passed
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: defining relations, all k,l <= p^3, p in {2,3,5}, n in {1,2}",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_02_product_action_consistency():
    rng = random.Random(102)
    ok = True
    for p in (2, 3, 5):
        for n in (1, 2):
            for _ in range(200):
                d1 = rand_op(rng, p, n)
                d2 = rand_op(rng, p, n)
                f = rand_poly(rng, p, n)
                if (d1 * d2).act(f) != d1.act(d2.act(f)):
                    ok = False
    report("criterion 2: product/action consistency, 200 triples per configuration", ok)


def test_criterion_03_frobenius_kernel():
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        for n in (1, 2):
            for i in range(1, n + 1):
                expected = tuple(-1 if j == i - 1 else 0 for j in range(n))
                basis = kernel_bruteforce(i, ExponentWindow.cube(-2 * p, 2 * p, n), p, n)
                if not (len(basis) == 1 and basis[0].terms == {expected: 1}):
                    ok = False
                if kernel_bruteforce(i, ExponentWindow.cube(0, 2 * p, n), p, n):
                    ok = False
    elapsed = time.perf_counter() - start
    report(
        "criterion 3: kernel of d^(p-1) + Frobenius is exactly x_i^-1; "
        "polynomial window is rigid",
        ok and elapsed < 30.0,
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_04_binomial_pth_power():
    rng = random.Random(104)
    ok = True
    for p in (2, 3, 5):
        for _ in range(100):
            f = rand_poly(rng, p, 1, max_terms=4, span=3)
            lhs = (DiffOp.partial(p, 1, 1) + DiffOp.from_laurent(f)) ** p
            rhs = DiffOp.from_laurent((-f.divided_partial(1, p - 1)) + f.frobenius())
            if lhs != rhs:
                ok = False
    report("criterion 4: (d + f)^p = d^(p-1)f + f^p for 100 random f per prime", ok)


def test_criterion_05_shift_action_identity():
    ok = True
    for p in (2, 3):
        rng = random.Random(105)
        prec = 6
        for _ in range(200):
            s = rand_shift(rng, p, 1, prec)
            k = rng.randint(0, p ** prec - 1)
            m = rng.randint(-40, 40)
            got = shift_apply(s, DiffOp.partial(p, 1, 1, k)).act_monomial((m,))
            c = binom_padic(PadicInt.from_int(m, p, prec) + s.components[0], k)
            if got != LaurentPoly.monomial(p, 1, (m - k,), c.value):
                ok = False
    report(
        "criterion 5: shift image action equals C(m+s, k) x^(m-k), "
        "200 random (s,k,m) per prime",
        ok,
    )


def test_criterion_06_group_law_with_carries():
    ok = True
    for p in (2, 3):
        for n in (1, 2):
            rng = random.Random(106)
            for _ in range(50):
                s = rand_shift(rng, p, n, 5)
                t = rand_shift(rng, p, n, 5)
                direct = shift_generator_images(s + t)
                composed = shift_compose_images(s, shift_generator_images(t))
                if direct != composed:
                    ok = False
    report("criterion 6: shift composition matches p-adic addition with carries", ok)


def test_criterion_07_digit_extraction_round_trip():
    ok = True
    for p in (2, 3):
        for n in (1, 2):
            rng = random.Random(107)
            for _ in range(50):
                s = rand_shift(rng, p, n, 6)
                if extract_digits(shift_generator_images(s)) != s:
                    ok = False
    # malformed input must be rejected
    ident = GeneratorImages.identity(2, 1, 2)
    rows = ((ident.d_images[0][0] + DiffOp.monomial(2, 1, (1,)), ident.d_images[0][1]),)
    bad = GeneratorImages(ident.p, 1, 2, ident.x_images, ident.xinv_images, rows)
    try:
        extract_digits(bad)
        ok = False
    except NotSigmaForm:
        pass
    report("criterion 7: extract(build(s)) = s at precision 6; malformed input rejected", ok)


def test_criterion_08_factorization():
    ok = True
    rng = random.Random(108)
    for p, n, prec, cases in ((2, 2, 4, 13), (3, 2, 3, 12)):
        for _ in range(cases):
            s = rand_shift(rng, p, n, prec)
            tau = rand_monomial(rng, p, n)
            g = compose_images(
                shift_generator_images(s), monomial_generator_images(tau, prec)
            )
            fac = factorize(g)
            if fac.shift != s or fac.tau != tau:
                ok = False
    report("criterion 8: factorize(shift o monomial) recovers both factors, 25 cases", ok)


def test_criterion_09_order_preservation():
    ok = True
    rng = random.Random(109)
    for p in (2, 3):
        for n in (1, 2):
            for _ in range(25):
                s = rand_shift(rng, p, n, 6)
                op = rand_op(rng, p, n, max_parts=3, max_order=5)
                if shift_apply(s, op).order() != op.order():
                    ok = False
    report("criterion 9: shift automorphisms preserve the order filtration, 100 cases", ok)


def test_criterion_10_semidirect_twist():
    ok = True
    rng = random.Random(110)
    for p, n, cases in ((2, 2, 13), (3, 1, 12)):
        for _ in range(cases):
            s = rand_shift(rng, p, n, 5)
            tau = rand_monomial(rng, p, n)
            inner = shift_compose_images(s, monomial_generator_images(tau.inverse(), 5))
            twisted = monomial_compose_images(tau, inner)
            if extract_digits(twisted) != matrix_shift(tau.matrix, s):
                ok = False
    report(
        "criterion 10: conjugating a shift by a monomial automorphism "
        "rescales digits by the matrix, 25 cases at precision 5",
        ok,
    )


def test_criterion_11_cli_golden_files(capsys):
    ok = True
    corpus = (GOLDEN / "normalize_corpus.txt").read_text().splitlines()
    assert len(corpus) == 30
    for line in corpus:
        p, n, expr, expected = line.split("|")
        code = main(["normalize", expr, "--p", p, "--n", n])
        out = capsys.readouterr().out
        if code != 0 or out != expected + "\n":
            ok = False
    # interchange stability: images file reproduced byte for byte
    golden_images = (GOLDEN / "images_p2_digits11.json").read_text()
    g = images_from_dict(json.loads(golden_images))
    if dumps(images_to_dict(g)) != golden_images:
        ok = False
    rebuilt = shift_generator_images(ShiftVector.from_digits([[1, 1]], 2))
    if dumps(images_to_dict(rebuilt)) != golden_images:
        ok = False
    # operator machine format round trip
    rng = random.Random(111)
    for p, n in ((2, 1), (3, 2), (5, 2)):
        for _ in range(10):
            op = rand_op(rng, p, n)
            if op_from_dict(op_to_dict(op)) != op:
                ok = False
    with capsys.disabled():
        report("criterion 11: golden normalize corpus byte-identical; "
               "interchange files round-trip", ok)

"""Theta-tables: checked against the module action and DiffOp.__mul__, and
validate_generator_images checked to report the same on tables as on
DiffOps."""

import math
import random
import subprocess
import sys
from itertools import product as iproduct

import pytest

from dividedops import theta
from dividedops.autgroup import (
    GeneratorImages,
    MonomialAut,
    ShiftVector,
    shift_compose_images,
    shift_generator_images,
    validate_generator_images,
)
from dividedops.diffop import DiffOp, normal_form_from_action
from dividedops.interchange import dumps, images_from_dict, images_to_dict, loads
from dividedops.laurent import LaurentPoly
from dividedops.scalars import padic_length
from dividedops.theta import ThetaTable

from helpers import (
    ROOT,
    monomial_compose_images,
    rand_gl,
    rand_op,
    rand_padic,
    rand_poly,
    subprocess_env,
    tables_off,
)

SHAPES = ((2, 1), (3, 2), (5, 2), (2, 3))


def digits_for(*ops) -> int:
    return max([1] + [padic_length(b, op.p.p) for op in ops for beta in op.parts for b in beta])


def rand_ops(rng, p, n, count):
    return [rand_op(rng, p, n, max_parts=3, max_order=3, span=3, max_terms=3)
            for _ in range(count)]


@pytest.mark.parametrize("p, n", SHAPES)
def test_table_is_the_module_action(p, n):
    # x^gamma c_gamma(theta) sends x^m to c_gamma(m) x^(m + gamma)
    rng = random.Random(f"action:{p}:{n}")
    many_gammas = 0
    for op in rand_ops(rng, p, n, 12):
        table = ThetaTable.from_diffop(op, digits_for(op))
        many_gammas += len(table.tables) > 1
        size = table.size
        points = list(iproduct(range(-size, 2 * size, max(1, size // 3)), repeat=n))
        for m in rng.sample(points, min(len(points), 30)):
            cell = sum(mi % size * size ** (n - 1 - i) for i, mi in enumerate(m))
            got = {tuple(mi + gi for mi, gi in zip(m, gamma)): t[cell]
                   for gamma, t in table.tables.items() if t[cell]}
            assert op.act(LaurentPoly.monomial(p, n, m)).terms == got, (op, m)
    assert many_gammas >= 4


@pytest.mark.parametrize("p, n, order", [(2, 3, 7), (3, 2, 8), (5, 2, 24), (17, 1, 288)])
def test_every_cell_is_the_sum_of_binomials(p, n, order):
    # the cell at m of c_gamma is sum_beta c_beta prod_i C(m_i, beta_i) mod p
    # over the terms c_beta x^(gamma + beta) d^[beta], indices of two digits or more
    rng = random.Random(f"cells:{p}:{n}")
    ops = [rand_op(rng, p, n, max_parts=4, max_order=order, span=3, max_terms=3)
           for _ in range(10)]
    assert sum(len({tuple(e - b for e, b in zip(exps, beta)) for beta, f in op.parts.items()
                    for exps in f.terms}) > 1 for op in ops) >= 3
    for op in ops:
        digits = digits_for(op)
        table = ThetaTable.from_diffop(op, digits)
        size = p ** digits
        expected: dict = {}
        for beta, f in op.parts.items():
            for exps, c in f.terms.items():
                gamma = tuple(e - b for e, b in zip(exps, beta))
                cells = expected.setdefault(gamma, [0] * size ** n)
                for cell, m in enumerate(iproduct(range(size), repeat=n)):
                    cells[cell] += c * math.prod(math.comb(mi, b) for mi, b in zip(m, beta))
        expected = {gamma: [v % p for v in cells] for gamma, cells in expected.items()
                    if any(v % p for v in cells)}
        assert {gamma: list(t) for gamma, t in table.tables.items()} == expected, op
    assert max(digits_for(op) for op in ops) >= 2


@pytest.mark.parametrize("p, n", SHAPES)
def test_table_arithmetic_is_operator_arithmetic(p, n):
    rng = random.Random(f"product:{p}:{n}")
    ops = rand_ops(rng, p, n, 10)
    for a, b in zip(ops, ops[1:]):
        prod = a * b
        k = digits_for(a, b, prod, a ** 2)
        ta, tb = ThetaTable.from_diffop(a, k), ThetaTable.from_diffop(b, k)
        assert ta * tb == ThetaTable.from_diffop(prod, k), (a, b)
        assert ta - tb == ThetaTable.from_diffop(a - b, k)
        assert ta.scale(p - 1) == ThetaTable.from_diffop(a.scale(p - 1), k)
        assert ta ** 2 == ThetaTable.from_diffop(a ** 2, k)
        assert ta ** 0 == ThetaTable.from_diffop(DiffOp.one(p, n), k)
        assert (ta - ta).is_zero() and (ta * tb - ThetaTable.from_diffop(prod, k)).is_zero()


@pytest.mark.parametrize("p, n", SHAPES)
def test_distinct_operators_have_distinct_tables(p, n):
    rng = random.Random(f"faithful:{p}:{n}")
    ops = list(dict.fromkeys(rand_ops(rng, p, n, 12)))
    k = digits_for(*ops)
    tables = [ThetaTable.from_diffop(op, k) for op in ops]
    for i, j in iproduct(range(len(ops)), repeat=2):
        assert (tables[i] == tables[j]) == (i == j)
    # a single coefficient apart, at every position of a level image
    level = DiffOp.partial(p, n, 1, p)
    for beta in iproduct(range(p + 1), repeat=n):
        bump = DiffOp(p, n, {beta: LaurentPoly.monomial(p, n, (-1,) * n)})
        k = digits_for(level, bump)
        assert ThetaTable.from_diffop(level + bump, k) != ThetaTable.from_diffop(level, k)


def test_power_by_squaring_matches_repeated_products():
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        op = rand_op(rng, p, 1, max_parts=2, max_order=2, span=2)
        k = digits_for(op ** 7)
        assert ThetaTable.from_diffop(op, k) ** 7 == ThetaTable.from_diffop(op ** 7, k)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_byte_cells_match_list_cells(monkeypatch, p):
    byte, lists = theta._cells(p), theta._list_cells(p)
    assert byte.new is bytes
    # every pair of residues through each pointwise operation
    f = bytes(u for u in range(p) for _ in range(p))
    g = bytes(v for _ in range(p) for v in range(p))
    for name in ("mul", "add", "sub"):
        assert list(getattr(byte, name)(f, g)) == getattr(lists, name)(list(f), list(g)), name
    for c in range(-1, p + 1):
        assert list(byte.scale(f, c)) == lists.scale(list(f), c), c
    # whole tables: random operators with several gamma and negative exponents
    rng = random.Random(f"cells:{p}")
    ops = rand_ops(rng, p, 3 if p == 2 else 2, 8)
    k = digits_for(*ops)
    scalars = [rng.randrange(1, p) for _ in ops]

    def results() -> list[ThetaTable]:
        tables = [ThetaTable.from_diffop(op, k) for op in ops]
        out = list(tables)
        for ta, tb, c in zip(tables, tables[1:], scalars):
            out += [ta * tb, ta - tb, tb - ta, ta.scale(c), ta ** p, ta ** 0]
        return out

    got = results()
    monkeypatch.setattr(theta, "_cells", theta._list_cells)
    want = results()
    assert sum(len(t.tables) > 1 for t in got) >= 8
    for table, reference in zip(got, want, strict=True):
        assert all(type(t) is bytes for t in table.tables.values())
        assert all(type(t) is list for t in reference.tables.values())
        assert {gamma: list(t) for gamma, t in table.tables.items()} == reference.tables


@pytest.mark.parametrize("p, n", SHAPES + ((13, 2),))
def test_mahler_undoes_from_diffop(p, n):
    # the Mahler coefficients of c_gamma are the terms x^(gamma + beta) d^[beta]
    rng = random.Random(f"mahler:{p}:{n}")
    for op in rand_ops(rng, p, n, 12):
        k = digits_for(op)
        size = p ** k
        table = ThetaTable.from_diffop(op, k)
        for gamma, cells in table.tables.items():
            coeffs = theta.mahler(cells, p)
            got = {}
            for cell, c in enumerate(coeffs):
                if c:
                    beta = tuple(cell // size ** (n - 1 - i) % size for i in range(n))
                    got[beta] = c
            want = {beta: f.terms[tuple(g + b for g, b in zip(gamma, beta))]
                    for beta, f in op.parts.items()
                    if tuple(g + b for g, b in zip(gamma, beta)) in f.terms}
            assert got == want, (op, gamma)


@pytest.mark.parametrize("p, n", SHAPES)
def test_byte_roll_is_the_slicing_roll(p, n):
    # the big-int roll against slicing, alone and inside the product of
    # both kernels, for zero, negative and wrapping shifts
    rng = random.Random(f"roll:{p}:{n}")
    size = p ** (2 if p ** (2 * n) <= 4096 else 1)
    table = bytes(rng.randrange(p) for _ in range(size ** n))
    shifts = [(0,) * n, (-1,) * n, (size,) * n, (-size - 1,) * n, (3 * size + 2,) * n]
    shifts += [tuple(rng.randint(-3 * size, 3 * size) for _ in range(n)) for _ in range(10)]
    other = bytes(rng.randrange(p) for _ in range(size ** n))
    for shift in shifts:
        rolled = theta._roll(table, shift, size, b"".join)
        assert theta._byte_roll(table, shift, size).to_bytes(len(table), "big") == rolled
        product = theta._cells(p).roll_mul(table, shift, size, other)
        assert product == theta._cells(p).mul(rolled, other)
        assert list(product) == theta._list_cells(p).roll_mul(list(table), shift, size, list(other))


# -- validate_generator_images on both paths ----------------------------------


def conversions(monkeypatch) -> list:
    """Record the digit count of every table conversion."""
    calls = []
    original = ThetaTable.from_diffop

    def spy(op, digits):
        calls.append(digits)
        return original(op, digits)

    monkeypatch.setattr(ThetaTable, "from_diffop", staticmethod(spy))
    return calls


def both_reports(g, monkeypatch):
    """(name, passed) lists of the table path and of the DiffOp path."""
    with monkeypatch.context() as m:
        calls = conversions(m)
        table = [(c.name, c.passed) for c in validate_generator_images(g).checks]
        assert calls, "expected the table path"
    with tables_off(monkeypatch) as m:
        calls = conversions(m)
        sparse = [(c.name, c.passed) for c in validate_generator_images(g).checks]
        assert not calls
    return table, sparse


def via_json(g: GeneratorImages) -> GeneratorImages:
    return images_from_dict(loads(dumps(images_to_dict(g))))


def with_level(g: GeneratorImages, i: int, k: int, image: DiffOp) -> GeneratorImages:
    rows = [list(row) for row in g.d_images]
    rows[i][k] = image
    return GeneratorImages(g.p, g.n, g.precision, g.x_images, g.xinv_images,
                           tuple(map(tuple, rows)))


def image_sets():
    rng = random.Random(11)
    sets = []
    for p, n, prec in ((2, 1, 3), (3, 2, 2), (5, 2, 1), (2, 3, 2), (2, 2, 3)):
        s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
        tau = MonomialAut.create(rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p)
        g = shift_compose_images(s, monomial_compose_images(
            tau, GeneratorImages.identity(p, n, prec)))
        sets.append(via_json(g))
        # perturbed: a random operator added to one level image
        i, k = rng.randrange(n), rng.randrange(prec)
        bump = rand_op(rng, p, n, max_parts=2, max_order=2, span=2, max_terms=3)
        sets.append(via_json(with_level(g, i, k, g.d_images[i][k] + bump)))
        # multi-term: random x images and level images, read from JSON
        xs = tuple(DiffOp.from_laurent(rand_poly(rng, p, n, max_terms=3, span=2))
                   for _ in range(n))
        rows = tuple(tuple(rand_op(rng, p, n, max_parts=3, max_order=2, span=2, max_terms=3)
                           for _ in range(prec)) for _ in range(n))
        sets.append(via_json(GeneratorImages(g.p, n, prec, xs, g.xinv_images, rows)))
    golden = (ROOT / "tests" / "golden" / "images_p2_digits11.json").read_text()
    sets.append(images_from_dict(loads(golden)))
    return sets


def test_reports_agree_on_both_paths(monkeypatch):
    sets = image_sets()
    verdicts = []
    for g in sets:
        table, sparse = both_reports(g, monkeypatch)
        assert table == sparse
        verdicts.append(all(ok for _, ok in table))
    assert True in verdicts and False in verdicts


def failing(g, monkeypatch) -> list[str]:
    table, sparse = both_reports(g, monkeypatch)
    assert table == sparse
    return [name for name, ok in table if not ok]


def test_nonzero_pth_power_fails_on_both_paths(monkeypatch):
    g = GeneratorImages.identity(2, 1, 2)
    # (d1 + x1)^2 = 1 + x1^2 at p = 2
    bad = with_level(g, 0, 0, DiffOp.partial(2, 1, 1) + DiffOp.monomial(2, 1, (1,)))
    assert "p-th power d[1]^[p^0]" in failing(bad, monkeypatch)
    # D = x1 c(theta), c the indicator of {0, 1, 2} mod 9: D^k = x1^k
    # prod_{j<k} c(theta + j), so D^3 is nonzero and D^4 = 0 at p = 3
    g = GeneratorImages.identity(3, 1, 2)
    level = normal_form_from_action(
        lambda m: LaurentPoly.monomial(3, 1, (m[0] + 1,), int(m[0] % 9 < 3)), 3, 1, 8)
    assert not (level ** 3).is_zero() and (level ** 4).is_zero()
    assert "p-th power d[1]^[p^1]" in failing(with_level(g, 0, 1, level), monkeypatch)


def test_one_failing_commutator_on_both_paths(monkeypatch):
    # x2^2 commutes with d2 at p = 2 but not with d2^[2]
    g = shift_generator_images(ShiftVector.from_ints([1, 2], 2, 2))
    bad = with_level(g, 0, 1, g.d_images[0][1] + DiffOp.monomial(2, 2, (0, 2)))
    commutes = [name for name in failing(bad, monkeypatch) if name.startswith("commute")]
    assert commutes == ["commute d[1]^[p^1] d[2]^[p^1]"]


def test_wrong_bracket_on_both_paths(monkeypatch):
    # 2 d1^[3] at p = 3 commutes and has zero cube, but [2 d1^[3], x1] = 2 d1^[2]
    g = GeneratorImages.identity(3, 1, 2)
    bad = with_level(g, 0, 1, DiffOp.partial(3, 1, 1, 3).scale(2))
    assert failing(bad, monkeypatch) == ["bracket [d[1]^[p^1], x[1]]"]


# -- regimes -------------------------------------------------------------------


@pytest.mark.parametrize("p, n, prec, values", [
    (65521, 1, 1, [65520]),
    (101, 1, 2, [57 + 101 * 88]),
    (3, 2, 3, [17, 25]),
])
def test_shift_images_validate_on_tables(monkeypatch, p, n, prec, values):
    g = shift_generator_images(ShiftVector.from_ints(values, p, prec))
    calls = conversions(monkeypatch)
    rep = validate_generator_images(g)
    assert rep.passed, rep.failures()
    assert calls and p ** (n * calls[0]) <= theta.TABLE_CELLS


def test_conversion_memory_does_not_grow_with_the_indices():
    # the level images of the shift 5000 at p = 1031 hold every index below
    # p^2; under a 600 MB address-space cap their p^2-cell tables must convert
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))\n"
        "from dividedops.autgroup import ShiftVector, shift_generator_images\n"
        "from dividedops.theta import ThetaTable\n"
        "p, s = 1031, 5000\n"
        "g = shift_generator_images(ShiftVector.from_ints([s], p, 2))\n"
        "assert ThetaTable.from_diffop(g.x_images[0], 2).tables == {(1,): [1] * p**2}\n"
        "for k, level in enumerate(g.d_images[0]):\n"
        "    # x^-(p^k) C(theta + s, p^k): digit k of m + s, by Lucas' theorem\n"
        "    want = [(m + s) % p**2 // p**k % p for m in range(p**2)]\n"
        "    assert ThetaTable.from_diffop(level, 2).tables == {(-p**k,): want}, k\n"
        "    del want\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_over_budget_images_take_the_diffop_path(monkeypatch):
    # 257^2 = 66,049 cells, above the budget
    calls = conversions(monkeypatch)
    g = GeneratorImages.identity(257, 2, 1)
    assert validate_generator_images(g).passed
    bad = with_level(g, 1, 0, DiffOp.partial(257, 2, 2) + DiffOp.monomial(257, 2, (1, 0)))
    assert "commute d[1]^[p^0] d[2]^[p^0]" in [c.name for c in
                                               validate_generator_images(bad).failures()]
    assert not calls


def test_long_index_in_an_x_image_sizes_the_tables(monkeypatch):
    # a divided index of three digits in an x image needs 8^2 cells at p = 2
    g = GeneratorImages.identity(2, 2, 1)
    xs = (g.x_images[0] + DiffOp.partial(2, 2, 2, 5), g.x_images[1])
    bad = GeneratorImages(g.p, g.n, g.precision, xs, g.xinv_images, g.d_images)
    calls = conversions(monkeypatch)
    assert validate_generator_images(bad).failures()
    assert set(calls) == {3}


@pytest.mark.parametrize("p, cell_type", [(13, bytes), (17, list)])
def test_cells_are_bytes_up_to_16_and_lists_above(monkeypatch, p, cell_type):
    made = []
    original = ThetaTable.from_diffop

    def spy(op, digits):
        made.append(original(op, digits))
        return made[-1]

    g = shift_generator_images(ShiftVector.from_ints([p - 2, 5], p, 1))
    with monkeypatch.context() as m:
        m.setattr(ThetaTable, "from_diffop", staticmethod(spy))
        assert validate_generator_images(g).passed
    assert made and all(type(t) is cell_type for table in made for t in table.tables.values())
    bad = with_level(g, 1, 0, g.d_images[1][0] + DiffOp.partial(p, 2, 1, 2))
    table, sparse = both_reports(bad, monkeypatch)
    assert table == sparse and not all(ok for _, ok in table)

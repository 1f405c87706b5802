"""Theta-tables: checked against the module action and the Leibniz loop, and
validate_generator_images checked to report the same on tables as on
DiffOps, and as the reference relations, whether its certificate accepts
the images or their relations are decided."""

import copy
import math
import random
import subprocess
import sys
from itertools import product as iproduct

import pytest

from dividedops import autgroup, theta
from dividedops.autgroup import (
    FactoredAut,
    GeneratorImages,
    MonomialAut,
    ShiftVector,
    matrix_shift,
    shift_apply,
    shift_compose_images,
    shift_generator_images,
    validate_generator_images,
)
from dividedops.diffop import TABLE_PARTS, DiffOp, leibniz, normal_form_from_action
from dividedops.interchange import dumps, images_from_dict, images_to_dict, loads
from dividedops.laurent import LaurentPoly
from dividedops.scalars import index_digits, padic_length
from dividedops.theta import ThetaTable

from helpers import (
    ROOT,
    conversions,
    leibniz_product,
    monomial_compose_images,
    rand_gl,
    rand_nonzero_poly,
    rand_op,
    rand_padic,
    rand_poly,
    reference_relations,
    subprocess_env,
    table_digits,
    tables_off,
)

SHAPES = ((2, 1), (3, 2), (5, 2), (2, 3))


def digits_for(*ops) -> int:
    return max([1] + [padic_length(b, op.p.p) for op in ops for beta in op.parts for b in beta])


def cell_list(cells, t, count: int) -> list:
    """Every residue of a table of `count` cells, read through the kernel's
    one accessor, `items`, whatever the kernel holds."""
    values = [0] * count
    for cell, c in cells.items(t):
        values[cell] = c
    return values


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
        values = {gamma: cell_list(table.cells, t, size ** n) for gamma, t in table.tables.items()}
        points = list(iproduct(range(-size, 2 * size, max(1, size // 3)), repeat=n))
        for m in rng.sample(points, min(len(points), 30)):
            cell = sum(mi % size * size ** (n - 1 - i) for i, mi in enumerate(m))
            got = {tuple(mi + gi for mi, gi in zip(m, gamma)): t[cell]
                   for gamma, t in values.items() if t[cell]}
            assert op.act(LaurentPoly.monomial(p, n, m)).terms == got, (op, m)
    assert many_gammas >= 4


@pytest.mark.parametrize("p, n", SHAPES + ((17, 1), (17, 2)))
def test_table_action_is_the_operator_action(p, n):
    # one cell per gamma and term, from the bit, byte or list kernel
    rng = random.Random(f"act:{p}:{n}")
    for op in rand_ops(rng, p, n, 12):
        table = ThetaTable.from_diffop(op, digits_for(op))
        for _ in range(4):
            f = rand_poly(rng, p, n, max_terms=4, span=2 * table.size)
            assert table.act(f) == op.act(f), (op, f)


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
        assert {gamma: cell_list(table.cells, t, size ** n)
                for gamma, t in table.tables.items()} == expected, op
    assert max(digits_for(op) for op in ops) >= 2


@pytest.mark.parametrize("p, n", SHAPES)
def test_table_arithmetic_is_operator_arithmetic(p, n):
    rng = random.Random(f"product:{p}:{n}")
    ops = rand_ops(rng, p, n, 10)
    for a, b in zip(ops, ops[1:]):
        prod = leibniz(a, b)
        k = digits_for(a, b, prod, leibniz(a, a))
        ta, tb = ThetaTable.from_diffop(a, k), ThetaTable.from_diffop(b, k)
        assert ta * tb == ThetaTable.from_diffop(prod, k), (a, b)
        assert ta - tb == ThetaTable.from_diffop(a - b, k)
        assert ta.scale(p - 1) == ThetaTable.from_diffop(a.scale(p - 1), k)
        assert ta ** 2 == ThetaTable.from_diffop(leibniz(a, a), k)
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
    # the byte kernel, and at p = 2 the bit kernel, against lists
    cells, lists = theta._cells(p, p * p), theta._list_cells(p)
    cell_type = int if p == 2 else bytes
    assert type(cells.new([0] * p * p)) is cell_type
    # every pair of residues through each pointwise operation
    f = [u for u in range(p) for _ in range(p)]
    g = [v for _ in range(p) for v in range(p)]
    for name in ("mul", "add", "sub"):
        got = getattr(cells, name)(cells.new(f), cells.new(g))
        assert cell_list(cells, got, p * p) == getattr(lists, name)(f, g), name
    for c in range(-1, p + 1):
        assert cell_list(cells, cells.scale(cells.new(f), c), p * p) == lists.scale(f, c), c
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
    monkeypatch.setattr(theta, "_cells", lambda p, count: theta._list_cells(p))
    want = results()
    assert sum(len(t.tables) > 1 for t in got) >= 8
    for table, reference in zip(got, want, strict=True):
        assert all(type(t) is cell_type for t in table.tables.values())
        assert all(type(t) is list for t in reference.tables.values())
        count = table.size ** table.n
        assert {gamma: cell_list(table.cells, t, count)
                for gamma, t in table.tables.items()} == reference.tables


@pytest.mark.parametrize("p, cell_type", [(2, int), (3, bytes), (17, list)])
def test_zero_tables_are_dropped_and_a_last_nonzero_cell_kept(p, cell_type):
    # a bit table drops its leading zeros: only cell 0 set, only the last
    size = p ** 2
    count = size ** 2
    cells = theta._cells(p, count)
    zero = cells.new([0] * count)
    first = cells.new([p - 1] + [0] * (count - 1))
    last = cells.new([0] * (count - 1) + [p - 1])
    assert type(zero) is cell_type
    assert not cells.nonzero(zero) and cells.nonzero(last) and cells.nonzero(first)
    assert cells.items(first) == [(0, p - 1)] and cells.items(last) == [(count - 1, p - 1)]
    table = ThetaTable(p, 2, size, {(0, 0): zero, (1, -1): last, (0, 1): first,
                                    (2, 0): cells.new([0] * count)})
    assert table.tables == {(1, -1): last, (0, 1): first}
    assert ThetaTable(p, 2, size, {(0, 0): zero}).is_zero()


@pytest.mark.parametrize("p, n", SHAPES + ((13, 2),))
def test_mahler_undoes_from_diffop(p, n):
    # the Mahler coefficients of c_gamma are the terms x^(gamma + beta) d^[beta]
    rng = random.Random(f"mahler:{p}:{n}")
    for op in rand_ops(rng, p, n, 12):
        k = digits_for(op)
        size = p ** k
        table = ThetaTable.from_diffop(op, k)
        for gamma, cells in table.tables.items():
            coeffs = theta.mahler(cells, p, size ** n)
            got = {}
            for cell, c in table.cells.items(coeffs):
                beta = tuple(cell // size ** (n - 1 - i) % size for i in range(n))
                got[beta] = c
            want = {beta: f.terms[tuple(g + b for g, b in zip(gamma, beta))]
                    for beta, f in op.parts.items()
                    if tuple(g + b for g, b in zip(gamma, beta)) in f.terms}
            assert got == want, (op, gamma)


def fresh_masks(monkeypatch, budget=None):
    """An empty mask cache, under `budget` bytes if given; the list of the
    keys of the masks built from then on."""
    monkeypatch.setattr(theta, "_masks", theta._Masks())
    if budget is not None:
        monkeypatch.setattr(theta, "MASK_BYTES", budget)
    built = []
    new_mask = theta._new_mask
    monkeypatch.setattr(theta, "_new_mask", lambda *key: built.append(key) or new_mask(*key))
    return built


def test_masks_stay_within_their_byte_budget(monkeypatch):
    # a budget below what the shapes need: a full cache is emptied and its
    # masks built again, a set larger than the whole budget is never kept,
    # and every Mahler transform and roll gives what it gives with every
    # mask kept
    rng = random.Random("masks")
    cases = []
    for p, n, k in ((2, 2, 3), (3, 2, 2), (5, 1, 3), (3, 3, 2), (2, 3, 3)):
        cells = p ** (k * n)
        table = rng.getrandbits(cells) if p == 2 else bytes(rng.randrange(p) for _ in range(cells))
        cases.append((p, n, p ** k, cells, table))

    def run(p, n, size, cells, table):
        shift = tuple(rng.randrange(size) for _ in range(n))
        rolled = (theta._int_roll(table, shift, size, cells, cells, 1) if p == 2
                  else theta._byte_roll(table, shift, size))
        return theta.mahler(table, p, cells), rolled

    rng.seed("shifts")
    want = [run(*case) for case in cases]
    budget = 4_000
    built = fresh_masks(monkeypatch, budget)
    for _ in range(2):
        rng.seed("shifts")
        for case, result in zip(cases, want):
            assert run(*case) == result
            assert theta._masks.nbytes == sum(map(theta._nbytes, theta._masks.values())) <= budget
    assert len(built) > len(set(built))
    # mahler's 12 byte masks on 3^6 cells take more than the budget
    assert theta._nbytes(theta._mahler_masks(3, 3 ** 6)) > budget
    assert (3, 3 ** 6) not in theta._masks


def test_a_second_pass_builds_no_mask(monkeypatch):
    # images like the benchmark's, built (mahler) and validated (rolls) twice
    rng = random.Random("mask-pass")
    auts = []
    for p, n, prec in ((2, 2, 5), (3, 2, 3), (2, 3, 3), (5, 2, 2)):
        tau = MonomialAut.create(rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p)
        auts.append(FactoredAut(ShiftVector.from_ints(
            [rng.randrange(p ** prec) for _ in range(n)], p, prec), tau))
    built = fresh_masks(monkeypatch)
    for expect_built in (True, False):
        theta.expansion.cache_clear()
        for aut in auts:
            assert validate_generator_images(aut.to_images()).passed
        assert bool(built) == expect_built
        assert theta._masks.nbytes <= theta.MASK_BYTES
        assert len(built) == len(set(built))
        built.clear()


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
    cells = theta._cells(p, size ** n)
    f, g = cells.new(list(table)), cells.new(list(other))
    for shift in shifts:
        rolled = theta._roll(table, shift, size, b"".join)
        assert theta._byte_roll(table, shift, size).to_bytes(len(table), "big") == rolled
        product = cells.roll_mul(f, shift, size, g)
        assert product == cells.mul(cells.new(list(rolled)), g)
        assert cell_list(cells, product, size ** n) == theta._list_cells(p).roll_mul(
            list(table), shift, size, list(other))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_bit_cells_match_list_cells(n):
    # the p = 2 kernel against lists, cell for cell, on random tables and
    # on the tables with only the first or only the last cell set (an int
    # drops its leading zeros), and its roll against slicing for zero,
    # negative and wrapping shifts
    rng = random.Random(f"bits:{n}")
    size = 2 ** (12 // n)
    count = size ** n
    bits, lists = theta._cells(2, count), theta._list_cells(2)
    tables = [[rng.randrange(2) for _ in range(count)] for _ in range(4)]
    tables += [[1] + [0] * (count - 1), [0] * (count - 1) + [1], [0] * count, [1] * count]
    shifts = [(0,) * n, (-1,) * n, (size,) * n, (-size - 1,) * n, (3 * size + 2,) * n]
    shifts += [tuple(rng.randint(-3 * size, 3 * size) for _ in range(n)) for _ in range(10)]
    for f, g in zip(tables, tables[1:] + tables[:1]):
        x, y = bits.new(f), bits.new(g)
        assert cell_list(bits, x, count) == f
        for name in ("mul", "add", "sub"):
            assert cell_list(bits, getattr(bits, name)(x, y), count) == getattr(lists, name)(f, g)
        for c in (-1, 0, 1, 2, 3):
            assert cell_list(bits, bits.scale(x, c), count) == lists.scale(f, c), c
        for shift in shifts:
            rolled = theta._int_roll(x, shift, size, count, count, 1)
            assert cell_list(bits, rolled, count) == theta._roll(f, shift, size, lists.join)
            product = bits.roll_mul(x, shift, size, y)
            assert cell_list(bits, product, count) == lists.roll_mul(f, shift, size, g), shift


# -- validate_generator_images on both paths ----------------------------------


def table_path(g: GeneratorImages) -> bool:
    """Whether theta's rule admits tables for deciding the relations of g."""
    ops = (*g.x_images, *(d for row in g.d_images for d in row))
    digits = index_digits([beta for op in ops for beta in op.parts], g.p.p)
    return theta.tables_fit(g.p.p, g.n, digits, packed=False)


def both_reports(g, monkeypatch):
    """(name, passed) lists of the table path and of the DiffOp path, each
    validated on a fresh copy of g: certified images convert no table, and
    the others convert theirs where theta's rule admits them."""
    with monkeypatch.context() as m:
        calls = conversions(m)
        fresh = copy.copy(g)
        table = [(c.name, c.passed) for c in validate_generator_images(fresh).checks]
        assert bool(calls) == (fresh._factored is None and table_path(g))
    with tables_off(monkeypatch) as m:
        calls = conversions(m)
        sparse = [(c.name, c.passed) for c in validate_generator_images(copy.copy(g)).checks]
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
        assert table == sparse == reference_relations(g)
        verdicts.append(all(ok for _, ok in table))
    assert True in verdicts and False in verdicts


def failing(g, monkeypatch) -> list[str]:
    table, sparse = both_reports(g, monkeypatch)
    assert table == sparse == reference_relations(g)
    return [name for name, ok in table if not ok]


def valid_images(rng, p, n, prec) -> GeneratorImages:
    s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
    tau = MonomialAut.create(rand_gl(rng, n), [rng.randint(1, p - 1) for _ in range(n)], p)
    return FactoredAut(s, tau).to_images()


def with_x(g: GeneratorImages, x: DiffOp, xinv: DiffOp) -> GeneratorImages:
    return GeneratorImages(g.p, g.n, g.precision, (x, *g.x_images[1:]),
                           (xinv, *g.xinv_images[1:]), g.d_images)


def perturbations(rng, g: GeneratorImages, level=None) -> dict:
    """Five ways to break valid images g, by name; the two that add to a
    level image add to `level`, if given."""
    p, n, prec = g.p.p, g.n, g.precision
    ds, (x, *_), (xinv, *_) = g.d_images, g.x_images, g.xinv_images
    i, k, top = rng.randrange(n), rng.randrange(prec), prec - 1
    if level is not None:
        k = top = level
    # the top level feeds no bracket, so its own brackets still pass
    laurent = DiffOp.from_laurent(rand_nonzero_poly(rng, p, n, max_terms=2, span=2))
    bump = rand_op(rng, p, n, max_parts=2, max_order=2, span=2, max_terms=3)
    a, b = rng.sample([(i, k) for i in range(n) for k in range(prec)], 2)
    swapped = with_level(g, *a, ds[b[0]][b[1]])
    return {
        "laurent": with_level(g, i, top, ds[i][top] + laurent),
        "operator": with_level(g, i, k, ds[i][k] + bump),
        "swap": with_level(swapped, *b, ds[a[0]][a[1]]),
        "square": with_x(g, x * x, xinv * xinv),  # det 2: no lattice of monomials
        "sum": with_x(g, x + DiffOp.one(g.p, n), xinv),  # not a monomial
    }


ORACLE_SHAPES = ((2, 1, 3), (2, 2, 3), (2, 2, 4), (3, 1, 3), (3, 2, 2), (5, 2, 2), (2, 3, 2),
                 (7, 1, 2))


def test_reports_equal_the_reference_relations(monkeypatch):
    # valid images and five perturbations of each, on both paths; the
    # Laurent term added to the top level keeps its brackets, so the module
    # action decides some of its failing commutators
    decided = failed = 0
    for p, n, prec in ORACLE_SHAPES:
        rng = random.Random(f"oracle:{p}:{n}:{prec}")
        for _ in range(14):
            g = valid_images(rng, p, n, prec)
            assert all(ok for _, ok in reference_relations(g))
            for name, bad in {"valid": g, **perturbations(rng, g)}.items():
                table, sparse = both_reports(bad, monkeypatch)
                reference = reference_relations(bad)
                assert table == sparse == reference, (name, p, n, prec)
                failed += not all(ok for _, ok in reference)
                brackets = all(ok for name, ok in reference if name.startswith("bracket"))
                decided += name == "laurent" and brackets and not all(ok for _, ok in reference)
    assert failed >= 500 and decided >= 100


def counted_products(m, cls, counts) -> list:
    """Patch cls.__mul__ to record each product that `counts`."""
    calls, original = [], cls.__mul__

    def spy(a, b):
        if counts(a, b):
            calls.append((a, b))
        return original(a, b)

    m.setattr(cls, "__mul__", spy)
    return calls


@pytest.mark.parametrize("p, n, prec", [(2, 2, 5), (2, 3, 4), (2, 1, 6)])
def test_valid_images_make_linearly_many_products(monkeypatch, p, n, prec):
    # valid images are certified by rebuilding each level by the closed
    # form, on both paths: no level image is multiplied and no table is
    # converted.  Deciding their relations anyway, at p = 2 with L = n *
    # prec levels: the brackets multiply each level image by each x image
    # both ways, 2 n L products, and the running products of the images of
    # d_i^[p^k - 1] make fewer than L more; the module action decides every
    # commutator and p-th power (148 products at (2, 2, 5) when every pair
    # was multiplied)
    g = valid_images(random.Random(f"count:{p}:{n}:{prec}"), p, n, prec)
    images = {id(d) for row in g.d_images for d in row}
    levels = [(i, k) for i in range(n) for k in range(prec)]
    decided = []
    for path in (monkeypatch.context, lambda: tables_off(monkeypatch)):
        with path() as m:
            tables = counted_products(m, ThetaTable, lambda a, b: True)
            ops = counted_products(m, DiffOp, lambda a, b: id(a) in images or id(b) in images)
            calls = conversions(m)
            assert validate_generator_images(copy.copy(g)).passed
            assert not tables and not ops and not calls
            # the unit and x checks multiply Laurent polynomials, not level images
            ops = counted_products(m, DiffOp, lambda a, b: not (a.is_laurent() and b.is_laurent()))
            assert all(autgroup._decide_relations(copy.copy(g), levels).values())
            decided.append(len(tables) + len(ops))
    assert decided[0] == decided[1] <= 2 * n * n * prec + n * prec
    assert decided[0] >= 2 * n * n * prec


def trusting_read_shift(g: GeneratorImages, tau: MonomialAut) -> FactoredAut:
    """`autgroup._read_shift` with its level comparison left out: the
    digits are read off the order-0 parts, and nothing is certified."""
    p, n, prec = g.p.p, g.n, g.precision
    digits = [[0] * prec for _ in range(n)]
    for i in range(n):
        for k in range(prec):
            scale, exps = tau.apply_exponents(tuple(-p ** k if j == i else 0 for j in range(n)))
            order0 = g.d_images[i][k].parts.get((0,) * n)
            if order0 is not None:
                digits[i][k] = order0.terms.get(exps, 0) * pow(scale, -1, p) % p
    return FactoredAut(matrix_shift(tau.matrix, ShiftVector.from_digits(digits, g.p)), tau)


def test_the_oracle_catches_a_certificate_that_compares_nothing(monkeypatch):
    # validation trusts its certificate, so a certificate that reads the
    # digits and compares no level passes every perturbation that keeps the
    # x images; the reference relations must see it on these shapes
    monkeypatch.setattr(autgroup, "_read_shift", trusting_read_shift)
    wrong = 0
    for p, n, prec in ORACLE_SHAPES:
        rng = random.Random(f"oracle:{p}:{n}:{prec}")
        g = valid_images(rng, p, n, prec)
        for bad in perturbations(rng, g).values():
            report = [(c.name, c.passed) for c in validate_generator_images(bad).checks]
            if report != reference_relations(bad):
                assert all(ok for _, ok in report)
                wrong += 1
    assert wrong >= len(ORACLE_SHAPES)


@pytest.mark.parametrize("p, n, prec, shift", [(17, 1, 3, [307]), (101, 1, 2, [103]),
                                               (17, 2, 2, [18, 35])])
def test_reports_above_16_equal_the_reference_relations(monkeypatch, p, n, prec, shift):
    # sparse level images (shift digits at most 2, A of zeros and ones, here
    # 1 and the swap, tau's scalars other than 1) keep the reference's p-th
    # powers small.  Valid images
    # certify with no table; perturbed ones convert list tables at n = 1
    # and run on DiffOps at n = 2, read from JSON as well.  A doubled level
    # keeps its p-th power; a Laurent term added to a level makes the
    # reference's p-th power take over a minute at p = 101, so it is added
    # at p = 17 only
    rng = random.Random(f"above 16:{p}:{n}:{prec}")
    tau = MonomialAut.create(rand_gl(rng, n, 0, 1), [rng.randint(2, p - 1) for _ in range(n)], p)
    g = FactoredAut(ShiftVector.from_ints(shift, p, prec), tau).to_images()
    kinds = perturbations(rng, g, level=0)
    sets = {"valid": g, "doubled": with_level(g, n - 1, prec - 1, g.d_images[n - 1][-1].scale(2))}
    names = ("swap", "square", "sum", "laurent")[:3 + (p < 100)]
    sets.update((name, kinds[name]) for name in names)
    for name, bad in sets.items():
        reference = reference_relations(bad)
        assert all(ok for _, ok in reference) == (name == "valid")
        assert table_path(bad) == (n == 1)
        for read in (bad, via_json(bad)):
            table, sparse = both_reports(read, monkeypatch)
            assert table == sparse == reference, (name, p, n, prec)


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
    # the images are certified with no table; doubling the top level breaks
    # its bracket with x_1, and the relations are decided on tables
    g = shift_generator_images(ShiftVector.from_ints(values, p, prec))
    calls = conversions(monkeypatch)
    rep = validate_generator_images(g)
    assert rep.passed, rep.failures()
    assert not calls
    bad = with_level(g, 0, prec - 1, g.d_images[0][prec - 1].scale(2))
    assert [c.name for c in validate_generator_images(bad).failures()] == [
        f"bracket [d[1]^[p^{prec - 1}], x[1]]"]
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


@pytest.mark.parametrize("p, cell_type", [(2, int), (13, bytes), (17, list)])
def test_cells_are_bytes_up_to_16_and_lists_above(monkeypatch, p, cell_type):
    n = 1 if p > 16 else 2  # list tables serve one variable only
    made = []
    original = ThetaTable.from_diffop

    def spy(op, digits):
        made.append(original(op, digits))
        return made[-1]

    g = shift_generator_images(ShiftVector.from_ints([p - 2, 5][:n], p, 1))
    bad = with_level(g, n - 1, 0, g.d_images[n - 1][0] + DiffOp.partial(p, n, 1, 2))
    with monkeypatch.context() as m:
        m.setattr(ThetaTable, "from_diffop", staticmethod(spy))
        assert validate_generator_images(g).passed
        assert not made  # certified
        assert not validate_generator_images(bad).passed
    assert made and all(type(t) is cell_type for table in made for t in table.tables.values())
    table, sparse = both_reports(bad, monkeypatch)
    assert table == sparse == reference_relations(bad) and not all(ok for _, ok in table)


@pytest.mark.parametrize("p", [17, 101])
def test_list_tables_serve_one_variable(monkeypatch, p):
    # p^2 cells fit the budget, but at n = 2 validation runs faster on
    # DiffOps than on list tables, so it converts nothing
    assert p ** 2 <= theta.TABLE_CELLS
    calls = conversions(monkeypatch)
    g = shift_generator_images(ShiftVector.from_ints([p - 2, 5], p, 1))
    assert validate_generator_images(g).passed
    bad = with_level(g, 1, 0, g.d_images[1][0] + DiffOp.partial(p, 2, 1, 2))
    assert "bracket [d[2]^[p^0], x[1]]" in [c.name for c in
                                            validate_generator_images(bad).failures()]
    assert not calls


# -- shifts: the product by a monomial, a roll of the tables ---------------------

# perfbench's aut_roundtrip shapes (p, n, precision)
AUT_SHAPES = ((2, 2, 5), (2, 2, 4), (3, 2, 3), (2, 3, 3), (5, 2, 2))


def rand_gamma_op(rng, p, n, digits, gammas=3, terms=12) -> DiffOp:
    """An operator sum_gamma x^gamma c_gamma(theta) with several gamma and
    indices of up to `digits` base-p digits, of positive order."""
    size = p ** digits
    centres = rng.sample(list(iproduct(range(-4, 5), repeat=n)), gammas)
    parts: dict = {}
    for t in range(terms):
        beta = tuple(rng.randrange(size) for _ in range(n))
        if t == 0:  # one index of full length
            beta = (size - 1,) + beta[1:]
        gamma = centres[t % gammas]
        poly = parts.setdefault(beta, {})
        poly[tuple(g + b for g, b in zip(gamma, beta))] = rng.randrange(1, p)
    return DiffOp(p, n, {beta: LaurentPoly(p, n, t) for beta, t in parts.items()})


def rand_delta(rng, p, n, digits) -> tuple[int, ...]:
    size = p ** digits
    return tuple(rng.choice([rng.randint(-3 * size, -1), rng.randint(size, 3 * size),
                             rng.randint(-3, 3)]) for _ in range(n))


def conjugate(op: DiffOp, t) -> DiffOp:
    """x^-t op x^t by two products of the Leibniz loop."""
    return leibniz(shifted(op, t), DiffOp.monomial(op.p, op.n, t))


def shifted(op: DiffOp, t) -> DiffOp:
    """x^-t op, the left factor of the product by x^t that shifts op by t."""
    return leibniz(DiffOp.monomial(op.p, op.n, tuple(-v for v in t)), op)


def roll(op: DiffOp, t, digits: int) -> DiffOp:
    """x^-t op x^t as the table product by the monomial x^t: a roll."""
    return theta.table_product(shifted(op, t), DiffOp.monomial(op.p, op.n, t), digits)


def roll_rule(op: DiffOp, t) -> int:
    """The rule's answer for the product that shifts op by t."""
    return theta.product_digits(shifted(op, t), DiffOp.monomial(op.p, op.n, t))


def roll_and_loop(op: DiffOp, t, digits: int) -> tuple[DiffOp, DiffOp]:
    """x^-t op x^t by the roll of the tables and by the Leibniz loop."""
    return roll(op, t, digits), conjugate(op, t)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_roll_is_the_leibniz_loop(p, n):
    rng = random.Random(f"roll:{p}:{n}")
    top = table_digits(p, n)
    for trial in range(8):
        digits = rng.randint(1, top)
        op = rand_gamma_op(rng, p, n, digits, gammas=rng.randint(2, 4))
        assert len({tuple(e - b for e, b in zip(exps, beta))
                    for beta, f in op.parts.items() for exps in f.terms}) > 1
        # delta_1 below 0 on even trials and at least p^K on odd ones
        far = rng.randint(1, 3 * p ** digits)
        delta = (-far if trial % 2 == 0 else far + p ** digits,) + rand_delta(rng, p, n, digits)[1:]
        rolled, loop = roll_and_loop(op, delta, digits)
        assert rolled.parts == loop.parts, (op, delta)
        if digits < top:  # a longer period is the same shift
            assert roll(op, delta, top) == loop


@pytest.mark.parametrize("p, n", ((2, 2), (3, 2), (5, 1), (7, 3), (13, 1)))
def test_roll_cancels_back_to_a_short_operator(p, n):
    # the shift by -delta, then by delta, gives P back: the many terms of
    # x^delta P x^-delta cancel
    rng = random.Random(f"cancel:{p}:{n}")
    digits = table_digits(p, n)
    for _ in range(4):
        small = rand_gamma_op(rng, p, n, digits, gammas=2, terms=3)
        delta = rand_delta(rng, p, n, digits)
        minus = tuple(-v for v in delta)
        op = roll(small, minus, digits)
        assert op == conjugate(small, minus)
        rolled, loop = roll_and_loop(op, delta, digits)
        assert rolled == loop == small


@pytest.mark.parametrize("p, n, prec", AUT_SHAPES)
def test_roll_is_the_leibniz_loop_on_level_images(p, n, prec):
    # the shifts of shift_apply on the level images of random automorphisms
    rng = random.Random(f"levels:{p}:{n}:{prec}")
    for _ in range(3):
        tau = MonomialAut.create(rand_gl(rng, n), [rng.randrange(1, p) for _ in range(n)], p)
        s = ShiftVector(tuple(rand_padic(rng, p, prec) for _ in range(n)))
        images = FactoredAut(s, tau).to_images()
        t = tuple(rng.randrange(p ** prec) for _ in range(n))
        for level in (d for row in images.d_images for d in row):
            rolled, loop = roll_and_loop(level, t, prec)
            assert rolled.parts == loop.parts


def test_the_rule_sends_single_levels_and_large_tables_to_the_loop(monkeypatch):
    rng = random.Random(5)
    # d_1^[p^(K-1)] x^t: a handful of contributions against 2^14 .. 3^10 cells
    for p, n, digits in ((3, 2, 5), (5, 2, 3), (2, 2, 7)):
        level = DiffOp.partial(p, n, 1, p ** (digits - 1))
        for t in [(p ** digits - 1,) * n] + [rand_delta(rng, p, n, digits) for _ in range(4)]:
            assert roll_rule(level, t) == 0, (p, n, digits, t)
    # the top level image at (2,2,5) shifted by all-ones digits rolls ...
    images = shift_generator_images(ShiftVector.from_ints([13, 22], 2, 5))
    top, t = images.d_images[0][4], (31, 31)
    assert roll_rule(top, t) == 5
    # ... unless its tables are over the budget, or the operator is one
    # long index, whose tables never fit
    monkeypatch.setattr(theta, "TABLE_CELLS", 2 ** 9)
    assert roll_rule(top, t) == 0
    monkeypatch.undo()
    wide = DiffOp(2, 1, {(2 ** 16 + b,): LaurentPoly.monomial(2, 1, (b,)) for b in range(40)})
    assert roll_rule(wide, (2 ** 17 - 1,)) == 0


def sparse_op(rng, p, n, digits, parts) -> DiffOp:
    """`parts` one-term parts with indices below p^digits, each on a
    gamma near 0, so that most parts have a table of their own."""
    terms = {}
    while len(terms) < parts:
        beta = tuple(rng.randrange(p ** digits) for _ in range(n))
        terms[beta] = LaurentPoly.monomial(
            p, n, tuple(b + rng.randint(-3, 3) for b in beta), rng.randrange(1, p))
    return DiffOp(p, n, terms)


@pytest.mark.parametrize("p, n, digits, parts", [(13, 2, 2, 64), (3, 2, 5, 32)])
def test_the_rule_sends_sparse_operators_of_many_gamma_to_the_loop(p, n, digits, parts):
    # the tables fit, but the roll converts and rolls a table per gamma,
    # some 25-40 of them: on these inputs it took 35-65 ms against 0.4-0.8
    # ms for the loop (2-core x86 Linux, Python 3.11), so the cost model,
    # not the fit alone, must answer
    assert theta.tables_fit(p, n, digits, packed=True)
    rng = random.Random(f"sparse:{p}:{n}:{digits}")
    for _ in range(4):
        op = sparse_op(rng, p, n, digits, parts)
        t = tuple(sum(rng.randrange(2) * p ** k for k in range(digits)) for _ in range(n))
        assert roll_rule(op, t) == 0, t


def test_the_rule_counts_gamma_past_its_lower_bound():
    # 64 one-term parts on about 40 gamma at (5,2,3), shifted by (62, 93):
    # one gamma a term passes the table side, the counted gamma do not.
    # The same indices and term counts on one gamma roll: both answers
    # were the faster engine (82 against 113 ms, 20 against 78 ms; 2-core
    # x86 Linux, Python 3.11)
    rng = random.Random("sparse:5:2:3")
    op = sparse_op(rng, 5, 2, 3, 64)
    one_gamma = DiffOp(5, 2, {beta: LaurentPoly.monomial(5, 2, beta) for beta in op.parts})
    assert roll_rule(op, (62, 93)) == 0 and roll_rule(one_gamma, (62, 93)) == 3


def test_the_rule_sends_list_cells_to_the_loop():
    # no kernel above p = 16 rolls a table: the loop, though the cost model
    # alone would roll these 40 parts on tables of 17^2 cells
    rng = random.Random(1)
    betas = set()
    while len(betas) < 40:
        betas.add(rng.randrange(100, 289))
    op = DiffOp(17, 1, {(b,): LaurentPoly.monomial(17, 1, (b,)) for b in betas})
    t = (288,)
    assert roll_rule(op, t) == 0
    assert shift_apply(ShiftVector.from_ints(t, 17, 2), op) == conjugate(op, t)


def test_products_by_a_monomial_roll_where_the_rule_says(monkeypatch):
    calls = []
    original = theta.table_product

    def spy(left, right, digits):
        calls.append(digits)
        return original(left, right, digits)

    monkeypatch.setattr(theta, "table_product", spy)
    images = shift_generator_images(ShiftVector.from_ints([13, 22], 2, 5))
    top = images.d_images[0][4]
    s = ShiftVector.from_ints([31, 31], 2, 5)
    assert shift_apply(s, top) == conjugate(top, (31, 31)) and calls == [5]
    # a Laurent operator, an operator of few parts, and p > 16 take the loop
    s17 = ShiftVector.from_ints([288], 17, 2)
    wide17 = shift_generator_images(ShiftVector.from_ints([16], 17, 2)).d_images[0][1]
    assert len(wide17.parts) >= TABLE_PARTS
    for s, op in ((s, DiffOp.monomial(2, 2, (3, 1))), (s, images.d_images[0][0]), (s17, wide17)):
        t = tuple(c.to_int() for c in s.components)
        assert shift_apply(s, op) == conjugate(op, t)
    assert calls == [5]


# -- products: the table engine of DiffOp.__mul__ --------------------------------


def zero_product(rng, p, n, digits) -> tuple[DiffOp, DiffOp]:
    """Nonzero factors whose product is 0: every left index ends in the
    digit p - 1 in the first variable, so d^[beta] d_1^[1] = (beta_1 + 1)
    d^[beta + e_1] vanishes mod p, and x^gamma d^[beta] d_1 has nothing to
    move past."""
    size = p ** digits
    return DiffOp(p, n, {(rng.randrange(size // p) * p + p - 1,) + tuple(
        rng.randrange(size) for _ in range(n - 1)): rand_nonzero_poly(rng, p, n)
        for _ in range(TABLE_PARTS)}), DiffOp.partial(p, n, 1)


def cancelling_product(rng, p, n, digits) -> tuple[DiffOp, DiffOp]:
    """(x^t P x^-t) (x^t d^[eps]) = x^t P d^[eps] for a short P: the left
    factor has many terms, the product few."""
    t = rand_delta(rng, p, n, digits)
    small = rand_gamma_op(rng, p, n, digits, gammas=2, terms=3)
    left = conjugate(small, tuple(-v for v in t))
    eps = tuple(rng.randrange(p) for _ in range(n))
    return left, DiffOp(p, n, {eps: LaurentPoly.monomial(p, n, t, rng.randrange(1, p))})


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_table_products_are_leibniz_products(p, n):
    # general right factors, monomials c x^t, zero products, products that
    # cancel to a short result, and factors of different index lengths, all
    # on tables: the reference product and the module action are the oracles
    rng = random.Random(f"table products:{p}:{n}")
    top = table_digits(p, n)
    cases = []
    for _ in range(3):
        kl, kr = rng.randint(1, top), rng.randint(1, top)
        left = rand_gamma_op(rng, p, n, kl, gammas=rng.randint(1, 3), terms=rng.randint(8, 12))
        cases.append(("general", left, rand_gamma_op(rng, p, n, kr, gammas=rng.randint(1, 3),
                                                     terms=rng.randint(1, 5))))
        cases.append(("monomial", left, DiffOp.monomial(
            p, n, rand_delta(rng, p, n, top), rng.randrange(1, p))))
    cases.append(("zero", *zero_product(rng, p, n, top)))
    cases.append(("cancelling", *cancelling_product(rng, p, n, top)))
    for kind, left, right in cases:
        digits = index_digits([*left.parts, *right.parts], p)
        want = leibniz_product(left, right)
        got = theta.table_product(left, right, digits)
        assert got == want == left * right, (kind, left, right)
        if kind == "zero":
            assert left and right and not got
        if kind == "cancelling":
            assert sum(len(f.terms) for f in got.parts.values()) <= 3
        for _ in range(3):
            mono = LaurentPoly.monomial(p, n, [rng.randint(-3 * p, 3 * p) for _ in range(n)])
            assert got.act(mono) == left.act(right.act(mono)), kind
    assert top == 1 or any(index_digits(left.parts, p) != index_digits(right.parts, p)
                           for _, left, right in cases)

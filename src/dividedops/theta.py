"""Operators as theta-tables, on which `DiffOp.__mul__` multiplies where
this module's rule finds them cheaper (a shift among its products),
validation multiplies the images its certificate rejects and the closed
form of `autgroup.FactoredAut` is tabulated.

With theta_i = x_i d_i every divided power is d^[beta] = x^{-beta}
C(theta, beta), so an operator is a finite sum sum_gamma x^gamma
c_gamma(theta), and x^gamma c(theta) sends x^m to c(m) x^{m + gamma}.
When every divided index has at most K base-p digits, Lucas' theorem
makes each c_gamma periodic with period P = p^K in every variable, so it
is a table of residues on (Z/P)^n.  The conversion from the normal form
is the Pascal matrix C(t, b) mod p on t, b < P, which is unitriangular
(the Kronecker power of the p x p Pascal matrix, Mahler's basis), and
operators whose indices are all below P form a subring.  So the tables
are faithful: equal tables mean equal operators.  `from_diffop` applies
that Kronecker power one base-p digit of the index at a time.  A product
is a roll and a pointwise product,

    (x^a f(theta)) (x^b g(theta)) = x^{a + b} f(theta + b) g(theta).

Cells are residues in row-major order, and a kernel (`_cells`, picked
from p and the cell count) does the pointwise work.  There are three:

- p = 2: a table is one int with one bit per cell, cell 0 the most
  significant.  A product is AND, a sum and a difference are XOR, scaling
  keeps the table or zeroes it, and the zero test is x == 0.  Mod 2 the
  Pascal matrix is its own inverse, so the conversion (`_bit_tables`)
  and its inverse (`mahler`) are the same n * K passes x ^= x >> s &
  mask, one per base-2 digit of the cell index.
- 3 <= p <= 16: a table is `bytes`, one residue per byte: two tables pair
  into one byte per cell, u << 4 | v, and `bytes.translate` with a
  256-byte map per operation (product, sum, difference, scaling) takes it
  to the result, so pointwise loops run in C.
- p > PACKED = 16: a table is a list of ints, with comprehensions; the
  rule below keeps such tables to validation in one variable.

Byte and list tables convert by Kronecker passes (`_kronecker_tables`),
written once for both; `binomial_row`, the row C(y, b), is the conversion
of d^[b] in no variables.  A product rolls its left table: a list table by
slicing every row, a bit or byte table as one big int (`_int_roll`: two
shifts and a mask per axis; a byte table turns its first axis by one
slice before), which feeds the AND or the pairing of the product
directly.  The masks, whole-table ints, are cached in one `_Masks`
dict bounded in bytes, MASK_BYTES = 2 MB as sys.getsizeof counts them:
a roll's mask per axis shape, and the whole sequence of one `mahler` per
(p, cells), fetched by one lookup per call (sizes in the README).  A
kernel's two accessors, `cell` and `items`, read one cell and list the
nonzero cells whatever the table holds; `ThetaTable.act` reads one cell
per gamma and term, x^gamma c(theta) x^m = c(m) x^(m + gamma).

This module alone decides where tables are used, by one rule
(`tables_fit` of K = `scalars.index_digits`) that validation
(`validation_tables`), `expansion` and `product_digits` ask: at most
TABLE_CELLS cells, as a table has p^(nK) cells however sparse the
operator; above p = PACKED, where no kernel transforms, rolls or gathers,
list tables only for validation's products in one variable (at n >= 2 its
`DiffOp` path is faster).  `expansion` finds and caches the Mahler
coefficients of the closed form of `autgroup.FactoredAut.apply` on a
table whose factors C(ell . m + t, b) are gathered from slices of the row
C(y, b) of p^K cells and taken through `mahler` (one base-p digit of the
cell index per pass, p - 1 masked big-int steps per pass), or else by
Newton differences.  Validation multiplies its tables and keeps none;
every other caller gets operators back.

`DiffOp.__mul__` asks `product_digits` for a left factor of
`diffop.TABLE_PARTS` parts or more (K from both factors' indices), and
`table_product` multiplies; a right factor c x^t has no table, and rolls
those of c * left by t, a shift.  The rule weighs the Leibniz loop's
contributions, bounded by digit boxes, against the tables' conversions,
rolled products and read-backs (the model and its fit are in the README).
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, islice, product
from math import prod
from operator import add, and_, getitem, mul, sub, xor
from types import SimpleNamespace

from .diffop import DiffOp, power
from .errors import MismatchError
from .laurent import LaurentPoly
from .scalars import _digits_mod, _lucas, _pascal_column, check_index_digits, index_digits

TABLE_CELLS = 2 ** 16  # the most cells, p^(nK), of a table; read at call time
PACKED = 16  # the largest p whose cells are bits or bytes: two residues fill one byte

_NONZERO = re.compile(rb"[^\x00]")  # the nonzero cells of a byte table
_ONES = re.compile("1")  # the set cells of a bit table, written in binary


def tables_fit(p: int, n: int, digits: int, packed: bool) -> bool:
    """The table rule of the module docstring: whether tables of period
    p^digits in n variables are used, by a caller that needs bit or byte
    cells (`packed`: a transform, a roll or a gathered row) or products only."""
    return (p <= PACKED or n == 1 and not packed) and p ** (n * digits) <= TABLE_CELLS


def _list_cells(p: int) -> SimpleNamespace:
    """Cell arithmetic mod p on lists of residues."""
    join = lambda pieces: list(chain.from_iterable(pieces))  # noqa: E731
    cells = SimpleNamespace(
        p=p, new=list, join=join, nonzero=any, cell=getitem,
        items=lambda t: [(i, v) for i, v in enumerate(t) if v],
        mul=lambda f, g: [u * v % p for u, v in zip(f, g)],
        add=lambda f, g: [(u + v) % p for u, v in zip(f, g)],
        sub=lambda f, g: [(u - v) % p for u, v in zip(f, g)],
        scale=lambda f, c: [v * c % p for v in f],
        roll_mul=lambda f, shift, size, g: [
            u * v % p for u, v in zip(_roll(f, shift, size, join), g)])
    cells.tables = partial(_kronecker_tables, cells)
    return cells


def _byte_map(fn, p: int) -> bytes:
    """fn mod p on a cell pair packed into one byte, u << 4 | v (residues
    below 16 shift with no carry)."""
    return bytes(fn(b >> 4, b & 15) % p for b in range(256))


def _pair(x: int, g: bytes, table: bytes) -> bytes:
    """The cells of x, a byte table read as one big int, paired with those
    of g and mapped through `table`."""
    return (x << 4 | int.from_bytes(g, "big")).to_bytes(len(g), "big").translate(table)


def _byte_op(table: bytes):
    return lambda f, g: _pair(int.from_bytes(f, "big"), g, table)


def _byte_cells(p: int) -> SimpleNamespace:
    """Cell arithmetic mod 3 <= p <= 16 on bytes, one residue per byte."""
    scales = [bytes(b * c % p for b in range(256)) for c in range(p)]
    products, differences = _byte_map(mul, p), _byte_map(sub, p)
    cells = SimpleNamespace(
        p=p, new=bytes, join=b"".join, nonzero=lambda t: t != bytes(len(t)), cell=getitem,
        items=lambda t: [(cell.start(), cell[0][0]) for cell in _NONZERO.finditer(t)],
        mul=_byte_op(products), add=_byte_op(_byte_map(add, p)), sub=_byte_op(differences),
        scale=lambda f, c: f.translate(scales[c % p]),
        roll_mul=lambda f, shift, size, g: _pair(_byte_roll(f, shift, size), g, products),
        differences=differences)
    cells.tables = partial(_kronecker_tables, cells)
    return cells


def _bit_cells(count: int) -> SimpleNamespace:
    """Cell arithmetic mod 2 on one int of `count` bits, cell 0 the most
    significant: a product is AND, a sum and a difference are XOR."""
    return SimpleNamespace(
        p=2, new=lambda residues: int("".join(map(str, residues)), 2), nonzero=bool,
        cell=lambda t, index: t >> count - 1 - index & 1,
        items=lambda t: [(cell.start(), 1) for cell in _ONES.finditer(f"{t:0{count}b}")],
        mul=and_, add=xor, sub=xor, scale=lambda f, c: f if c % 2 else 0,
        roll_mul=lambda f, shift, size, g: _int_roll(f, shift, size, count, count, 1) & g,
        tables=lambda terms, passes: _bit_tables(terms, count))


@lru_cache(maxsize=None)  # one kernel per prime and cell count
def _cells(p: int, count: int) -> SimpleNamespace:
    """The kernel of tables of `count` cells mod p: bits at p = 2, bytes up
    to 16, lists above.  An int drops its leading zeros, so the bit kernel
    is told its cell count."""
    if p == 2:
        return _bit_cells(count)
    return _byte_cells(p) if p <= PACKED else _list_cells(p)


def _roll(table, shift, size: int, join):
    """The table of m -> table[m + shift], every axis taken mod size."""
    block = len(table)
    for s in shift:
        chunk, block = block, block // size
        cut = s % size * block
        if cut:
            table = join([table[c + cut:c + chunk] + table[c:c + cut]
                          for c in range(0, len(table), chunk)])
    return table


MASK_BYTES = 2 ** 21  # the most bytes of masks kept, as sys.getsizeof counts; read at call time


def _new_mask(cells: int, chunk: int, lo: int, hi: int, width: int) -> int:
    """The cells at offsets lo .. hi - 1 of every chunk, all `width` bits of
    each set: a byte table's (width 8) or a bit table's (width 1)."""
    zero, one = (b"\x00", b"\xff") if width == 8 else (b"0", b"1")
    row = (zero * lo + one * (hi - lo) + zero * (chunk - hi)) * (cells // chunk)
    return int.from_bytes(row, "big") if width == 8 else int(row, 2)


def _nbytes(masks) -> int:
    """The bytes, as sys.getsizeof counts them, of a mask or a tuple of masks."""
    return sum(map(sys.getsizeof, masks)) if type(masks) is tuple else sys.getsizeof(masks)


class _Masks(dict):
    """Masks by key, at most MASK_BYTES bytes in all: a roll's mask under
    (cells, chunk, hi, width), the whole sequence of a `mahler` under
    (p, cells)."""

    nbytes = 0

    def keep(self, key, masks):
        """masks, an int or a tuple of ints, kept under key unless they
        alone pass MASK_BYTES; a full cache is emptied to make room."""
        size = _nbytes(masks)
        if size <= MASK_BYTES:
            if self.nbytes + size > MASK_BYTES:
                self.clear()
                self.nbytes = 0
            self[key] = masks
            self.nbytes += size
        return masks


_masks = _Masks()


def _int_roll(x: int, shift, size: int, cells: int, chunk: int, width: int) -> int:
    """`_roll` on a table held as one int, `width` bits per cell, along the
    axes of `shift`, the first of which has chunks of `chunk` cells.  On
    each axis the head of every chunk comes from `cut` cells further on (a
    left shift) and its tail from chunk - cut cells back (a right shift),
    and a mask picks between them."""
    for s in shift:
        block = chunk // size
        cut = s % size * block
        if cut:
            back = x >> width * (chunk - cut)
            key = (cells, chunk, chunk - cut, width)
            mask = _masks.get(key) or _masks.keep(
                key, _new_mask(cells, chunk, 0, chunk - cut, width))
            x = ((x << width * cut) ^ back) & mask ^ back
        chunk = block
    return x


def _byte_roll(table: bytes, shift, size: int) -> int:
    """`_roll` on a byte table, as one big int.  The first axis turns the
    whole table, one slice, and `_int_roll` takes the others.  The product
    takes the int as it is, so the roll converts only once."""
    cells = len(table)
    block = cells // size
    cut = shift[0] % size * block
    if cut:
        table = table[cut:] + table[:cut]
    return _int_roll(int.from_bytes(table, "big"), shift[1:], size, cells, block, 8)


def mahler(table, p: int, cells: int):
    """The Mahler coefficients of a table of `cells` cells on (Z/p^K)^n,
    p <= 16: the table c with table(m) = sum_j c_j C(m, j) mod p over the
    j in the same box.

    That is the inverse of the Pascal matrix C(t, b) mod p, the Kronecker
    power of the p x p one, applied one base-p digit of the cell index at
    a time (n * K passes).  Mod 2 the Pascal matrix is its own inverse, so
    on a bit table a pass adds to every cell whose digit is 1 the cell one
    below it on that digit, x ^= x >> stride & mask, and the same passes
    are the conversion of `ThetaTable.from_diffop`.  On a byte table a
    pass is p - 1 Newton steps r = 1 .. p - 1, forward differences along
    its digit: a step subtracts from every cell whose digit is at least r
    the cell one below it on that digit, all at once, as one masked
    big-int shift, one pairing and one `translate` over the whole table."""
    masks = iter(_masks.get((p, cells)) or _mahler_masks(p, cells))
    if p == 2:
        for stride, mask in zip(_strides(2, cells), masks):
            table ^= table >> stride & mask
        return table
    step = _cells(p, cells).differences
    x = int.from_bytes(table, "big")
    for stride in _strides(p, cells):
        for mask in islice(masks, p - 1):
            below = x >> 8 * stride & mask
            x = int.from_bytes((x << 4 | below).to_bytes(cells, "big").translate(step), "big")
    return x.to_bytes(cells, "big")


def _strides(p: int, cells: int) -> list:
    """The strides 1, p, p^2, ... below `cells` of `mahler`'s passes."""
    stride, strides = 1, []
    while stride < cells:
        strides.append(stride)
        stride *= p
    return strides


def _mahler_masks(p: int, cells: int) -> tuple:
    """The masks of `mahler`'s steps in order, the cells whose digit at the
    pass's stride is at least r, for r = 1 .. p - 1; kept under (p, cells)."""
    return _masks.keep((p, cells), tuple(
        _new_mask(cells, p * stride, r * stride, p * stride, 1 if p == 2 else 8)
        for stride in _strides(p, cells) for r in range(1, p)))


def _kronecker(cells: SimpleNamespace, column, table):
    """column (x) table: one copy of table per entry c of column, scaled by
    c, joined, so the column's index becomes the most significant."""
    if len(table) == 1:
        return cells.scale(column, table[0])
    scaled = {c: cells.scale(table, c) for c in set(column)}
    return cells.join(map(scaled.__getitem__, column))


def _kronecker_tables(cells: SimpleNamespace, terms: dict, passes: int) -> dict:
    """The table of each gamma from the terms {(gamma, cell of beta): c}
    of an operator: the Pascal matrix applied one base-p digit of the
    cell index at a time, lowest first.

    Each term starts as a one-cell table keyed by gamma and the unread
    digits of beta, most significant first (at the start, the cell of
    beta in the table).  Each pass pops the lowest unread digit b of every
    key, makes the table T into column b of the p x p Pascal matrix
    tensor T (b becomes its most significant digit) and adds the tables
    whose shortened keys agree.  After n * K passes one table is left per
    gamma; the tables of a pass hold at most p^(nK) cells per gamma,
    however many distinct indices the operator has."""
    p = cells.p
    pending = {key: cells.new([c]) for key, c in terms.items()}
    columns: dict[int, object] = {}  # column b of the Pascal matrix, per digit b met
    for _ in range(passes):
        passed: dict[tuple, object] = {}
        for (gamma, index), table in pending.items():
            index, b = divmod(index, p)
            column = columns.get(b) or columns.setdefault(b, cells.new(_pascal_column(b, p)))
            table = _kronecker(cells, column, table)
            acc = passed.get((gamma, index))
            passed[gamma, index] = table if acc is None else cells.add(acc, table)
        pending = passed
    return {gamma: table for (gamma, _), table in pending.items()}


def _bit_tables(terms: dict, count: int) -> dict:
    """`_kronecker_tables` at p = 2, on bit tables of `count` cells: each
    term sets the bit of its cell in the table of its gamma (every nonzero
    residue is 1), and the Pascal matrix, its own inverse mod 2, is the
    passes of `mahler`."""
    tables: dict[tuple, int] = {}
    for gamma, index in terms:
        tables[gamma] = tables.get(gamma, 0) ^ 1 << count - 1 - index
    return {gamma: mahler(t, 2, count) for gamma, t in tables.items()}


@lru_cache(maxsize=64)  # rows of at most TABLE_CELLS cells; level images reuse b = p^k
def binomial_row(b: int, p: int, digits: int) -> bytes:
    """C(y, b) mod p for y < p^digits, p <= 16, as one row: the table of
    d^[b] in no variables, converted by its kernel, and at p = 2 written in
    binary, one b"0" or b"1" per cell, which int(row, 2) reads back."""
    count = p ** digits
    row = _cells(p, count).tables({((), b): 1}, digits)[()]
    return f"{row:0{count}b}".encode() if p == 2 else row


def linear_table(row: bytes, ell, t: int) -> bytes:
    """The table on (Z/size)^n of m -> row[(ell . m + t) mod size], size =
    len(row), joined from slices of row (residues, or at p = 2 binary
    digits).

    The last axis has coefficient c.  Its lines row[(o + c u) mod size],
    u < size, are the rows of the transpose of the rotations of row by c u,
    so 2 * size slices make all of them; the table joins one line per
    point of the other axes.  At n = 1, where ell is (+-1,), the one line
    is a rotation of row or of row reversed."""
    size = len(row)
    *outer, c = ell
    if not outer:
        if c % size != 1:  # c = -1: row[(t - u) mod size] = row reversed, rotated
            row, t = row[::-1], -1 - t
        t %= size
        return row[t:] + row[:t]
    turns = b"".join(row[c * u % size:] + row[:c * u % size] for u in range(size))
    lines = [turns[o::size] for o in range(size)]
    offsets = [t]
    for a in outer:
        offsets = [o + a * u for o in offsets for u in range(size)]
    return b"".join([lines[o % size] for o in offsets])


# 256 entries: at 512 the peak RSS of a long run of small automorphisms
# stood about 0.2 MB higher
@lru_cache(maxsize=256)
def expansion(ainv: tuple[tuple[int, ...], ...], beta: tuple[int, ...], p: int,
              t: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Nonzero pairs (j, c_j mod p) with prod_i C((ainv m)_i + t_i, beta_i)
    equal to sum_j c_j C(m, j) as functions of m in Z^n: read off a table
    (`_table_expansion`) where the rule admits one for K = `index_digits`
    of beta, and taken by Newton differences (`_theta_expansion`) otherwise."""
    digits = index_digits([beta], p)
    if tables_fit(p, len(beta), digits, packed=True):
        return _table_expansion(ainv, beta, p, t, digits)
    return _theta_expansion(ainv, beta, p, t)


def _theta_expansion(ainv: tuple[tuple[int, ...], ...], beta: tuple[int, ...], p: int,
                     t: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The pairs of `expansion` by Newton differences.

    The product is an integer-valued polynomial of total degree |beta|
    whose degree in m_k is at most the sum of the beta_i with ainv[i][k]
    nonzero, so its Mahler coefficients c_j are the forward differences
    of its values on the points h within those degree bounds.
    """
    total = sum(beta)
    bounds = [sum(b for b, row in zip(beta, ainv) if row[k]) for k in range(len(beta))]
    points = [()]  # lexicographic, so each line along an axis comes out in order
    for bound in bounds:
        points = [h + (u,) for h in points for u in range(min(bound, total - sum(h)) + 1)]
    factors = [(row, ti, b) for row, ti, b in zip(ainv, t, beta) if b]
    vals = dict(zip(points, [
        prod(_lucas(sum(a * u for a, u in zip(row, h)) + ti, b, p) for row, ti, b in factors) % p
        for h in points]))
    # Newton's forward differences along one axis at a time; the point set
    # is closed downwards, so every line starts at 0 on its axis.  They are
    # taken over the integers and reduced mod p every 32 steps, which keeps
    # the integers below 2^32 p.
    for axis in range(len(beta)):
        lines: dict[tuple[int, ...], list] = {}
        for h in points:
            lines.setdefault(h[:axis] + h[axis + 1:], []).append(h)
        for line in lines.values():
            seq = [vals[h] for h in line]
            for r in range(1, len(seq)):
                seq[r:] = map(sub, seq[r:], seq[r - 1:-1])
                if r % 32 == 0:
                    seq = [v % p for v in seq]
            vals.update(zip(line, [v % p for v in seq]))
    return tuple((j, c) for j, c in vals.items() if c)


def _table_expansion(ainv: tuple[tuple[int, ...], ...], beta: tuple[int, ...], p: int,
                     t: tuple[int, ...], digits: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The pairs of `expansion`, read off a bit or byte table of period
    p^digits; needs every entry of beta below p^digits.

    Each factor C(ell_i m + t_i, beta_i) is a table on (Z/p^digits)^n,
    gathered from the row C(y, beta_i) (`linear_table` of `binomial_row`)
    and at p = 2 read as a bit table; their pointwise product goes through
    one inverse Mahler transform (`mahler`), and its nonzero cells are the
    c_j, in row-major order of j."""
    if not any(beta):
        return (((0,) * len(beta), 1),)
    factors = [linear_table(binomial_row(b, p, digits), row, ti)
               for row, b, ti in zip(ainv, beta, t) if b]
    table = reduce(_cells(p, p ** (digits * len(beta))).mul,
                   [int(f, 2) for f in factors] if p == 2 else factors)
    return tuple(_mahler_pairs(table, p, len(beta), p ** digits))


def _mahler_pairs(table, p: int, n: int, size: int) -> list:
    """The nonzero Mahler coefficients (`mahler`) of a table on (Z/size)^n,
    size = p^K and p <= 16, as pairs (j, c_j) in row-major order of j."""
    count, strides = size ** n, [size ** k for k in reversed(range(n))]
    return [(tuple([index // stride % size for stride in strides]), c)
            for index, c in _cells(p, count).items(mahler(table, p, count))]


def product_digits(left: DiffOp, right: DiffOp) -> int:
    """K, the period digits of the tables on which `table_product` finds
    left * right, or 0 where the table rule refuses them or they cost more
    than the Leibniz loop, in Leibniz contributions (the README's model)."""
    p, n = left.p.p, left.n
    digits = index_digits(chain(left.parts, right.parts), p)
    if not tables_fit(p, n, digits, packed=True):
        return 0
    # per right term and variable: the j of a nonzero C(delta, j) lie in the digit
    # box of delta, the beta - j that add to eps with no carry in that of -1 - eps
    boxes = Counter(tuple(min(_digit_box(d, p, digits), _digit_box(-1 - e, p, digits))
                          for d, e in zip(delta, eps))
                    for eps, g in right.parts.items() for delta in g.terms)
    terms, plus = [len(f.terms) for f in left.parts.values()], (1).__add__
    running = accumulate(count * sum([times * prod(map(min, map(plus, beta), box))
                                      for box, times in boxes.items()])
                         for beta, count in zip(left.parts, terms))
    monomial = _monomial(right) is not None
    cells = p ** (n * digits)  # a pass costs one bit a cell at p = 2, p - 1 bytes above
    per_pass = 2 + cells / 3000 if p == 2 else (p - 1) * (6 + cells / 150)
    fixed = 10 + 4 * (sum(terms) - len(terms) + sum(boxes.values()) - len(right.parts))

    def table(gl: int, gr: int, gout: int) -> float:
        gr *= not monomial  # a monomial has no table to convert or roll by
        return (fixed + (gl + gr + gout) * n * digits * per_pass / 2
                + 4 * gl * gr * per_pass / (p - 1))

    bound = table(1, 1, 1)  # a lower bound: the gamma are counted only past it
    first = next((c for c in running if c > bound), None)
    if first is None:
        return 0
    gl, gr = ({tuple(map(sub, exps, beta)) for beta, f in op.parts.items() for exps in f.terms}
              for op in (left, right))
    gout = gl if monomial else {tuple(map(add, a, b)) for a, b in product(gl, gr)}
    bound = table(len(gl), len(gr), len(gout))
    return digits if first > bound or any(c > bound for c in running) else 0


@lru_cache(maxsize=4096)
def _digit_box(m: int, p: int, digits: int) -> int:
    """prod_r (m_r + 1) over the lowest `digits` base-p digits m_r of m."""
    return prod(r + 1 for r in _digits_mod(m, p, digits))


def _monomial(op: DiffOp):
    """(t, c) where op is c x^t, else None."""
    f = op.parts.get((0,) * op.n)
    return next(iter(f.terms.items())) if len(op.parts) == 1 and f and len(f.terms) == 1 else None


def table_product(left: DiffOp, right: DiffOp, digits: int) -> DiffOp:
    """left * right on theta-tables of period p^digits, p <= 16, read back
    by their Mahler coefficients; c x^t on the right rolls the tables of c
    left by t, (x^a f(theta)) x^t = x^(a + t) f(theta + t)."""
    table = ThetaTable.from_diffop(left, digits)
    p, n, size = table.p, left.n, table.size
    monomial = _monomial(right)
    if monomial is None:
        tables = (table * ThetaTable.from_diffop(right, digits)).tables
    else:
        t, c = monomial
        count = size ** n
        tables = {tuple(map(add, gamma, t)): _int_roll(f, t, size, count, count, 1) if p == 2
                  else _byte_roll(f, t, size).to_bytes(count, "big")
                  for gamma, f in (table.scale(c) if c != 1 else table).tables.items()}
    parts: dict[tuple[int, ...], dict] = {}
    for gamma, f in tables.items():
        for j, a in _mahler_pairs(f, p, n, size):
            parts.setdefault(j, {})[tuple(map(add, gamma, j))] = a
    return left._from_terms(parts)


def validation_tables(xs, rows, one):
    """(x tables, level tables, table of one) on which validation multiplies
    the x images xs, the level images rows and the operator one, with K =
    `index_digits` of every index; None where the rule refuses tables."""
    digits = index_digits([beta for op in (*xs, *chain(*rows)) for beta in op.parts], one.p.p)
    if not tables_fit(one.p.p, one.n, digits, packed=False):
        return None
    return ([ThetaTable.from_diffop(x, digits) for x in xs],
            [[ThetaTable.from_diffop(d, digits) for d in row] for row in rows],
            ThetaTable.from_diffop(one, digits))


class ThetaTable:
    """An operator sum_gamma x^gamma c_gamma(theta), each c_gamma a nonzero
    table on (Z/size)^n in row-major order, size = p^K."""

    __slots__ = ("p", "n", "size", "tables", "cells")

    def __init__(self, p: int, n: int, size: int, tables: dict):
        self.p, self.n, self.size = p, n, size
        self.cells = _cells(p, size ** n)
        self.tables = {gamma: t for gamma, t in tables.items() if self.cells.nonzero(t)}

    @classmethod
    def from_diffop(cls, op: DiffOp, digits: int) -> "ThetaTable":
        """Tables of period p^digits; needs every divided index of `op` to
        have at most that many base-p digits.  The kernel converts the
        terms: by Kronecker passes (`_kronecker_tables`), or at p = 2 by
        the passes of `mahler` (`_bit_tables`)."""
        p, n = op.p.p, op.n
        size = p ** digits
        check_index_digits(op.parts, p, digits)
        terms: dict[tuple, int] = {}
        for beta, f in op.parts.items():
            index = 0
            for b in beta:
                index = index * size + b
            for exps, c in f.terms.items():
                terms[tuple(map(sub, exps, beta)), index] = c
        return cls(p, n, size, _cells(p, size ** n).tables(terms, n * digits))

    def act(self, f: LaurentPoly) -> LaurentPoly:
        """Apply the operator to a Laurent polynomial, as `DiffOp.act`:
        x^gamma c(theta) sends x^m to c(m mod size) x^(m + gamma), one cell
        of each table per term of f."""
        if f.p.p != self.p or f.n != self.n:
            raise MismatchError("operand mismatch in action")
        p, size, cell = self.p, self.size, self.cells.cell
        out: dict[tuple[int, ...], int] = {}
        for m, c in f.terms.items():
            index = 0
            for e in m:
                index = index * size + e % size
            for gamma, table in self.tables.items():
                v = cell(table, index)
                if v:
                    key = tuple(map(add, m, gamma))
                    v = (out.get(key, 0) + c * v) % p
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return f._wrap(out)

    def _check(self, other: "ThetaTable"):
        if (self.p, self.n, self.size) != (other.p, other.n, other.size):
            raise MismatchError("theta-tables disagree on prime, variables or period")

    def is_zero(self) -> bool:
        return not self.tables

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaTable):
            return NotImplemented
        self._check(other)
        return self.tables == other.tables

    def scale(self, c: int) -> "ThetaTable":
        return ThetaTable(self.p, self.n, self.size,
                          {g: self.cells.scale(t, c) for g, t in self.tables.items()})

    def __sub__(self, other: "ThetaTable") -> "ThetaTable":
        self._check(other)
        cells = self.cells
        out = dict(self.tables)
        for gamma, t in other.tables.items():
            mine = out.get(gamma)
            out[gamma] = cells.scale(t, -1) if mine is None else cells.sub(mine, t)
        return ThetaTable(self.p, self.n, self.size, out)

    def __mul__(self, other: "ThetaTable") -> "ThetaTable":
        self._check(other)
        cells, size = self.cells, self.size
        out: dict[tuple[int, ...], object] = {}
        for a, f in self.tables.items():
            for b, g in other.tables.items():
                term = cells.roll_mul(f, b, size, g)
                key = tuple(u + v for u, v in zip(a, b))
                acc = out.get(key)
                out[key] = term if acc is None else cells.add(acc, term)
        return ThetaTable(self.p, self.n, size, out)

    def __pow__(self, k: int) -> "ThetaTable":
        return power(self, k, lambda: ThetaTable(
            self.p, self.n, self.size, {(0,) * self.n: self.cells.new([1] * self.size ** self.n)}))

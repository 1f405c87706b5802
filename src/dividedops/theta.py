"""Operators as theta-tables, the representation in which
`validate_generator_images` multiplies generator images and the closed
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

    (x^a f(theta)) (x^b g(theta)) = x^{a + b} f(theta + b) g(theta),

which replaces the Leibniz expansion of `DiffOp.__mul__`.

Cells are residues in row-major order.  For p <= 16 a table is `bytes`,
one residue per byte: two tables pair into one byte per cell, u << 4 | v,
and `bytes.translate` with a 256-byte map per operation (product, sum,
difference, scaling) takes it to the result, so pointwise loops run in C.
Above 16 a table is a list of ints, with comprehensions; `_cells` picks
the kernel from p.  Equality, the zero test and the Kronecker step
(`_kronecker`), which builds the conversion and `binomial_row`, are
written once for both.  A product rolls its left table: a list table by
slicing every row, a byte table as one big int, with two shifts and a
mask per axis after the first, which feeds the pairing of the product
directly.  An array library would cost more to import than these tables
take to multiply.

A table has p^(nK) cells however sparse the operator, so tables are used
only up to TABLE_CELLS cells, by one rule (`index_digits`, `tables_fit`)
that `validate_generator_images` and `expansion` both ask.  `expansion`
finds and caches the Mahler coefficients of the closed form of
`autgroup.FactoredAut.apply`: on a byte table, tabulated from slices of
one row of p^K cells (`binomial_row`, `linear_table`) and taken through
the inverse Pascal matrix (`mahler`: one base-p digit of the cell index
per pass, p - 1 masked big-int steps per pass); otherwise by Newton
differences.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from math import prod
from operator import add, mul, sub
from types import SimpleNamespace

from .diffop import DiffOp, power
from .errors import InsufficientPrecision, MismatchError
from .scalars import _lucas, _pascal_column, padic_length

TABLE_CELLS = 2 ** 16  # the most cells, p^(nK), of a table; read at call time

_NONZERO = re.compile(rb"[^\x00]")  # the nonzero cells of a byte table


def index_digits(betas, p: int) -> int:
    """K >= 1, the most base-p digits of an entry of the divided indices betas."""
    return max([1] + [padic_length(b, p) for beta in betas for b in beta])


def tables_fit(p: int, n: int, digits: int) -> bool:
    """Whether tables of period p^digits in n variables fit TABLE_CELLS."""
    return p ** (n * digits) <= TABLE_CELLS


def _list_cells(p: int) -> SimpleNamespace:
    """Cell arithmetic mod p on lists of residues."""
    join = lambda pieces: list(chain.from_iterable(pieces))  # noqa: E731
    return SimpleNamespace(
        p=p, new=list, join=join,
        mul=lambda f, g: [u * v % p for u, v in zip(f, g)],
        add=lambda f, g: [(u + v) % p for u, v in zip(f, g)],
        sub=lambda f, g: [(u - v) % p for u, v in zip(f, g)],
        scale=lambda f, c: [v * c % p for v in f],
        roll_mul=lambda f, shift, size, g: [
            u * v % p for u, v in zip(_roll(f, shift, size, join), g)])


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
    """Cell arithmetic mod p <= 16 on bytes, one residue per byte."""
    scales = [bytes(b * c % p for b in range(256)) for c in range(p)]
    products, differences = _byte_map(mul, p), _byte_map(sub, p)
    return SimpleNamespace(
        p=p, new=bytes, join=b"".join, mul=_byte_op(products),
        add=_byte_op(_byte_map(add, p)), sub=_byte_op(differences),
        scale=lambda f, c: f.translate(scales[c % p]),
        roll_mul=lambda f, shift, size, g: _pair(_byte_roll(f, shift, size), g, products),
        differences=differences)


@lru_cache(maxsize=None)  # one kernel per prime
def _cells(p: int) -> SimpleNamespace:
    return _byte_cells(p) if p <= 16 else _list_cells(p)


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


# Masks are whole-table ints, so the cache stays small: at TABLE_CELLS
# cells a mask is 64 kB.
@lru_cache(maxsize=128)
def _mask(cells: int, chunk: int, lo: int, hi: int) -> int:
    """The cells at offsets lo .. hi - 1 of every chunk, as 0xff bytes."""
    return int.from_bytes((bytes(lo) + b"\xff" * (hi - lo) + bytes(chunk - hi))
                          * (cells // chunk), "big")


def _byte_roll(table: bytes, shift, size: int) -> int:
    """`_roll` on a byte table, as one big int.  The first axis turns the
    whole table, one slice; on every other axis the head of each chunk
    comes from `cut` bytes further on (a left shift) and its tail from
    chunk - cut bytes back (a right shift), and a mask picks between them.
    The product takes the int as it is, so the roll converts only once."""
    cells = len(table)
    block = cells // size
    cut = shift[0] % size * block
    if cut:
        table = table[cut:] + table[:cut]
    x = int.from_bytes(table, "big")
    for s in shift[1:]:
        chunk, block = block, block // size
        cut = s % size * block
        if cut:
            back = x >> 8 * (chunk - cut)
            x = ((x << 8 * cut) ^ back) & _mask(cells, chunk, 0, chunk - cut) ^ back
    return x


def mahler(table: bytes, p: int) -> bytes:
    """The Mahler coefficients of a byte table on (Z/p^K)^n: the table c
    with table(m) = sum_j c_j C(m, j) mod p over the j in the same box.

    That is the inverse of the Pascal matrix C(t, b) mod p, the Kronecker
    power of the p x p one, applied one base-p digit of the cell index at
    a time (n * K passes).  A pass is p - 1 Newton steps r = 1 .. p - 1,
    forward differences along its digit: a step subtracts from every cell
    whose digit is at least r the cell one below it on that digit, all at
    once, as one masked big-int shift, one pairing and one `translate`
    over the whole table."""
    cells = len(table)
    step = _cells(p).differences
    x = int.from_bytes(table, "big")
    stride = 1
    while stride < cells:
        for r in range(1, p):
            below = x >> 8 * stride & _mask(cells, p * stride, r * stride, p * stride)
            x = int.from_bytes((x << 4 | below).to_bytes(cells, "big").translate(step), "big")
        stride *= p
    return x.to_bytes(cells, "big")


def _kronecker(cells: SimpleNamespace, column, table):
    """column (x) table: one copy of table per entry c of column, scaled by
    c, joined, so the column's index becomes the most significant."""
    if len(table) == 1:
        return cells.scale(column, table[0])
    scaled = {c: cells.scale(table, c) for c in set(column)}
    return cells.join(map(scaled.__getitem__, column))


def binomial_row(b: int, p: int, digits: int):
    """C(y, b) mod p for y < p^digits as one table row: by Lucas' theorem
    the Kronecker product of the Pascal columns of b's digits."""
    cells = _cells(p)
    row = cells.new([1])
    for _ in range(digits):  # lowest digit first; each becomes the outermost
        b, digit = divmod(b, p)
        row = _kronecker(cells, cells.new(_pascal_column(digit, p)), row)
    return row


def linear_table(row: bytes, ell, t: int) -> bytes:
    """The byte table on (Z/size)^n of m -> row[(ell . m + t) mod size],
    size = len(row), joined from slices of row.

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
    equal to sum_j c_j C(m, j) as functions of m in Z^n.  With K =
    `index_digits` of beta, they are read off a byte table
    (`_table_expansion`) when p <= 16 and p^(nK) cells fit, and taken by
    Newton differences (`_theta_expansion`) otherwise."""
    digits = index_digits([beta], p)
    if p <= 16 and tables_fit(p, len(beta), digits):
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
    """The pairs of `expansion`, read off a byte theta-table of period
    p^digits; needs every entry of beta below p^digits.

    Each factor C(ell_i m + t_i, beta_i) is a table on (Z/p^digits)^n
    gathered from the row C(y, beta_i), y < p^digits (`linear_table`);
    their pointwise product goes through one inverse Mahler transform
    (`mahler`), and its nonzero cells are the c_j, in row-major order of j."""
    if not any(beta):
        return (((0,) * len(beta), 1),)
    size, pointwise = p ** digits, _cells(p).mul
    table = None
    for row, b, ti in zip(ainv, beta, t):
        if b:
            factor = linear_table(binomial_row(b, p, digits), row, ti)
            table = factor if table is None else pointwise(table, factor)
    pairs = []
    coeffs = mahler(table, p)
    for cell in _NONZERO.finditer(coeffs):
        index, j = cell.start(), []
        for _ in beta:
            index, jk = divmod(index, size)
            j.append(jk)
        pairs.append((tuple(reversed(j)), coeffs[cell.start()]))
    return tuple(pairs)


class ThetaTable:
    """An operator sum_gamma x^gamma c_gamma(theta), each c_gamma a nonzero
    table on (Z/size)^n in row-major order, size = p^K."""

    __slots__ = ("p", "n", "size", "tables", "cells")

    def __init__(self, p: int, n: int, size: int, tables: dict):
        self.p, self.n, self.size = p, n, size
        self.cells = _cells(p)
        self.tables = {gamma: t for gamma, t in tables.items() if t.count(0) < len(t)}

    @classmethod
    def from_diffop(cls, op: DiffOp, digits: int) -> "ThetaTable":
        """Tables of period p^digits; needs every divided index of `op` to
        have at most that many base-p digits.

        The conversion is the Pascal matrix applied one base-p digit of
        the index at a time, lowest first.  Each term starts as a one-cell
        table keyed by gamma and the unread digits of beta, most
        significant first (at the start, the cell of beta in the table).
        Each pass pops the lowest unread digit b of every key, makes the
        table T into column b of the p x p Pascal matrix tensor T (b
        becomes its most significant digit) and adds the tables whose
        shortened keys agree.  After n * digits passes one table is left
        per gamma; the tables of a pass hold at most p^(n * digits) cells
        per gamma, however many distinct indices `op` has."""
        p, n = op.p.p, op.n
        size, cells = p ** digits, _cells(p)
        pending: dict[tuple, object] = {}
        for beta, f in op.parts.items():
            if max(beta) >= size:
                raise InsufficientPrecision(
                    f"index {max(beta)} needs {padic_length(max(beta), p)} digits, "
                    f"tables have {digits}")
            index = 0
            for b in beta:
                index = index * size + b
            for exps, c in f.terms.items():
                pending[tuple(e - b for e, b in zip(exps, beta)), index] = cells.new([c])
        columns: dict[int, object] = {}  # column b of the Pascal matrix, per digit b met
        for _ in range(n * digits):
            passed: dict[tuple, object] = {}
            for (gamma, index), table in pending.items():
                index, b = divmod(index, p)
                column = columns.get(b) or columns.setdefault(b, cells.new(_pascal_column(b, p)))
                table = _kronecker(cells, column, table)
                acc = passed.get((gamma, index))
                passed[gamma, index] = table if acc is None else cells.add(acc, table)
            pending = passed
        return cls(p, n, size, {gamma: table for (gamma, _), table in pending.items()})

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
            self.p, self.n, self.size, {(0,) * self.n: self.cells.new([1]) * self.size ** self.n}))

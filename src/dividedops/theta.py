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
the kernel from p.  Equality, the zero test and the conversion are
written once for both: a conversion pass joins one scaled copy of a table
per row of a Pascal column.  A product rolls its left table: a list
table by slicing every row, a byte table as one big int, with two shifts
and a mask per axis after the first, which feeds the pairing of the
product directly.  An array library would cost more to import than these
tables take to multiply.

Byte tables also carry the closed form.  `mahler` applies the inverse
Pascal matrix to a whole byte table, one base-p digit of the cell index
per pass and p - 1 masked big-int steps per pass, which takes a table to
its Mahler coefficients.  `binomial_row` and `linear_table` tabulate
m -> C(ell . m + t, b) from slices of one row of p^K cells.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add, mul, sub
from types import SimpleNamespace

from .diffop import DiffOp, power
from .errors import InsufficientPrecision, MismatchError
from .scalars import _pascal_column, padic_length


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


# Masks are whole-table ints, so the caches stay small: at TABLE_CELLS
# cells a mask is 64 kB.
@lru_cache(maxsize=64)
def _head_mask(cells: int, chunk: int, cut: int) -> int:
    """The cells at offsets below chunk - cut of every chunk, as 0xff bytes."""
    return int.from_bytes((b"\xff" * (chunk - cut) + bytes(cut)) * (cells // chunk), "big")


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
            x = ((x << 8 * cut) ^ back) & _head_mask(cells, chunk, cut) ^ back
    return x


@lru_cache(maxsize=64)
def _digit_mask(p: int, cells: int, stride: int, r: int) -> int:
    """The cells whose index has base-p digit >= r at the place of `stride`,
    as 0xff bytes."""
    return int.from_bytes((bytes(r * stride) + b"\xff" * ((p - r) * stride))
                          * (cells // (p * stride)), "big")


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
            below = x >> 8 * stride & _digit_mask(p, cells, stride, r)
            x = int.from_bytes((x << 4 | below).to_bytes(cells, "big").translate(step), "big")
        stride *= p
    return x.to_bytes(cells, "big")


def binomial_row(b: int, p: int, digits: int):
    """C(y, b) mod p for y < p^digits as one table row: by Lucas' theorem
    the Kronecker product of the Pascal columns of b's digits."""
    cells = _cells(p)
    row = cells.new([1])
    for _ in range(digits):  # lowest digit first; each becomes the outermost
        b, digit = divmod(b, p)
        column = _pascal_column(digit, p)
        scaled = {c: cells.scale(row, c) for c in set(column)}
        row = cells.join(map(scaled.__getitem__, column))
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
                if len(table) == 1:  # the first pass: the column itself, scaled
                    table = cells.scale(column, table[0])
                else:  # one scaled copy of the table per row
                    scaled = {c: cells.scale(table, c) for c in set(column)}
                    table = cells.join(map(scaled.__getitem__, column))
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

"""Operators as theta-tables, the representation in which
`validate_generator_images` multiplies generator images.

With theta_i = x_i d_i every divided power is d^[beta] = x^{-beta}
C(theta, beta), so an operator is a finite sum sum_gamma x^gamma
c_gamma(theta), and x^gamma c(theta) sends x^m to c(m) x^{m + gamma}.
When every divided index has at most K base-p digits, Lucas' theorem
makes each c_gamma periodic with period P = p^K in every variable, so it
is a table of residues on (Z/P)^n.  The conversion from the normal form
is the Pascal matrix C(t, b) mod p on t, b < P, which is unitriangular
(the Kronecker power of the p x p Pascal matrix, Mahler's basis), and
operators whose indices are all below P form a subring.  So the tables
are faithful: equal tables mean equal operators.  A product is a roll
and a pointwise product,

    (x^a f(theta)) (x^b g(theta)) = x^{a + b} f(theta + b) g(theta),

which replaces the Leibniz expansion of `DiffOp.__mul__`.

Cells are residues in row-major order.  For p <= 16 a table is `bytes`,
one residue per byte: two tables pair into one byte per cell, u << 4 | v,
and `bytes.translate` with a 256-byte map per operation (product, sum,
difference, scaling) takes it to the result, so pointwise loops run in C.
Above 16 a table is a list of ints, with comprehensions; `_cells` picks
the kernel from p.  Rolls (slicing), equality, the zero test and the
conversion are written once for both: the conversion joins Kronecker
rows, one copy of a group's table of the other indices per row t,
scaled by C(t, b) for the group's first index b.  An array library
would cost more to import than these tables take to multiply.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add, mul, sub
from types import SimpleNamespace

from .diffop import DiffOp, power
from .errors import InsufficientPrecision, MismatchError
from .scalars import _lucas_column, padic_length


def _list_cells(p: int) -> SimpleNamespace:
    """Cell arithmetic mod p on lists of residues."""
    return SimpleNamespace(
        p=p, new=list, join=lambda pieces: list(chain.from_iterable(pieces)),
        mul=lambda f, g: [u * v % p for u, v in zip(f, g)],
        add=lambda f, g: [(u + v) % p for u, v in zip(f, g)],
        sub=lambda f, g: [(u - v) % p for u, v in zip(f, g)],
        scale=lambda f, c: [v * c % p for v in f])


def _byte_op(fn, p: int):
    """fn mod p cell by cell on byte tables: a cell pair becomes the byte
    u << 4 | v (residues below 16 shift with no carry), looked up in a map."""
    table = bytes(fn(b >> 4, b & 15) % p for b in range(256))
    return lambda f, g: (int.from_bytes(f, "big") << 4 | int.from_bytes(g, "big")).to_bytes(
        len(f), "big").translate(table)


def _byte_cells(p: int) -> SimpleNamespace:
    """Cell arithmetic mod p <= 16 on bytes, one residue per byte."""
    scales = [bytes(b * c % p for b in range(256)) for c in range(p)]
    return SimpleNamespace(
        p=p, new=bytes, join=b"".join, mul=_byte_op(mul, p), add=_byte_op(add, p),
        sub=_byte_op(sub, p), scale=lambda f, c: f.translate(scales[c % p]))


@lru_cache(maxsize=None)  # one kernel per prime
def _cells(p: int) -> SimpleNamespace:
    return _byte_cells(p) if p <= 16 else _list_cells(p)


def _expand(terms: dict, columns: dict, cells):
    """The table of m -> sum_beta c_beta prod_i C(m_i, beta_i), grouped by
    the first index b of beta: a group is the Kronecker product of the
    column of C(t, b) (columns[b]) with the group's table of the other
    indices, one scaled copy of that table per row t."""
    if not len(next(iter(terms))):
        return cells.new([sum(terms.values()) % cells.p])
    by_first: dict[int, dict] = {}
    for beta, c in terms.items():
        by_first.setdefault(beta[0], {})[beta[1:]] = c
    out = None
    for b, rest in by_first.items():
        inner, column = _expand(rest, columns, cells), columns[b]
        if len(inner) == 1:  # the last axis: the column itself, scaled
            rows = cells.scale(column, inner[0])
        else:
            scaled = {c: cells.scale(inner, c) for c in set(column)}
            rows = cells.join(map(scaled.__getitem__, column))
        out = rows if out is None else cells.add(out, rows)
    return out


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
        have at most that many base-p digits."""
        p, n = op.p.p, op.n
        size, cells = p ** digits, _cells(p)
        groups: dict[tuple[int, ...], dict] = {}
        for beta, f in op.parts.items():
            if max(beta) >= size:
                raise InsufficientPrecision(
                    f"index {max(beta)} needs {padic_length(max(beta), p)} digits, "
                    f"tables have {digits}")
            for exps, c in f.terms.items():
                groups.setdefault(tuple(e - b for e, b in zip(exps, beta)), {})[beta] = c
        columns = {}
        for b in {b for beta in op.parts for b in beta}:
            column = [0] * size
            for t, v in _lucas_column(b, p, digits):
                column[t] = v
            columns[b] = cells.new(column)
        return cls(p, n, size, {gamma: _expand(terms, columns, cells)
                                for gamma, terms in groups.items()})

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
                term = cells.mul(_roll(f, b, size, cells.join), g)
                key = tuple(u + v for u, v in zip(a, b))
                acc = out.get(key)
                out[key] = term if acc is None else cells.add(acc, term)
        return ThetaTable(self.p, self.n, size, out)

    def __pow__(self, k: int) -> "ThetaTable":
        return power(self, k, lambda: ThetaTable(
            self.p, self.n, self.size, {(0,) * self.n: self.cells.new([1]) * self.size ** self.n}))

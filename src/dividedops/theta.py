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

which replaces the Leibniz expansion of `DiffOp.__mul__`.  Tables are
plain lists, rolled by slicing one axis at a time; numpy would cost more
to import than these small tables take to multiply.
"""

from __future__ import annotations

from .diffop import DiffOp, power
from .errors import InsufficientPrecision, MismatchError
from .scalars import _lucas_column, padic_length


def _expand(terms: dict, columns: dict, size: int, p: int) -> list[int]:
    """The table of m -> sum_beta c_beta prod_i C(m_i, beta_i) on
    (Z/size)^len(beta), grouped by the first index of beta: each group adds
    its table of the other indices to the rows where C(m_1, beta_1) != 0,
    which columns[beta_1] lists with their values."""
    axes = len(next(iter(terms)))
    if not axes:
        return [sum(terms.values()) % p]
    by_first: dict[int, dict] = {}
    for beta, c in terms.items():
        by_first.setdefault(beta[0], {})[beta[1:]] = c
    block = size ** (axes - 1)
    out = [0] * (size * block)
    for b, rest in by_first.items():
        inner = _expand(rest, columns, size, p)
        if block == 1:  # one cell per row: no slices, which cost more than the cell
            w = inner[0]
            for t, v in columns[b]:
                out[t] = (out[t] + v * w) % p
            continue
        for t, v in columns[b]:
            lo = t * block
            out[lo:lo + block] = [(u + v * w) % p for u, w in zip(out[lo:lo + block], inner)]
    return out


def _roll(table: list[int], shift, size: int) -> list[int]:
    """The table of m -> table[m + shift], every axis taken mod size."""
    block = len(table)
    for s in shift:
        chunk, block = block, block // size
        cut = s % size * block
        if cut:
            out = []
            for c in range(0, len(table), chunk):
                out += table[c + cut:c + chunk]
                out += table[c:c + cut]
            table = out
    return table


class ThetaTable:
    """An operator sum_gamma x^gamma c_gamma(theta), each c_gamma a nonzero
    table on (Z/size)^n in row-major order, size = p^K."""

    __slots__ = ("p", "n", "size", "tables")

    def __init__(self, p: int, n: int, size: int, tables: dict[tuple[int, ...], list[int]]):
        self.p, self.n, self.size = p, n, size
        self.tables = {gamma: t for gamma, t in tables.items() if any(t)}

    @classmethod
    def from_diffop(cls, op: DiffOp, digits: int) -> "ThetaTable":
        """Tables of period p^digits; needs every divided index of `op` to
        have at most that many base-p digits."""
        p, n = op.p.p, op.n
        size = p ** digits
        groups: dict[tuple[int, ...], dict] = {}
        for beta, f in op.parts.items():
            if max(beta) >= size:
                raise InsufficientPrecision(
                    f"index {max(beta)} needs {padic_length(max(beta), p)} digits, "
                    f"tables have {digits}")
            for exps, c in f.terms.items():
                groups.setdefault(tuple(e - b for e, b in zip(exps, beta)), {})[beta] = c
        columns = {b: _lucas_column(b, p, digits) for b in {b for beta in op.parts for b in beta}}
        return cls(p, n, size, {gamma: _expand(terms, columns, size, p)
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
        p = self.p
        return ThetaTable(p, self.n, self.size,
                          {g: [v * c % p for v in t] for g, t in self.tables.items()})

    def __sub__(self, other: "ThetaTable") -> "ThetaTable":
        self._check(other)
        p = self.p
        out = dict(self.tables)
        for gamma, t in other.tables.items():
            mine = out.get(gamma)
            out[gamma] = ([-v % p for v in t] if mine is None
                          else [(u - v) % p for u, v in zip(mine, t)])
        return ThetaTable(p, self.n, self.size, out)

    def __mul__(self, other: "ThetaTable") -> "ThetaTable":
        self._check(other)
        p, size = self.p, self.size
        out: dict[tuple[int, ...], list[int]] = {}
        for a, f in self.tables.items():
            for b, g in other.tables.items():
                rolled = _roll(f, b, size)
                key = tuple(u + v for u, v in zip(a, b))
                acc = out.get(key)
                out[key] = ([u * v % p for u, v in zip(rolled, g)] if acc is None
                            else [(w + u * v) % p for w, u, v in zip(acc, rolled, g)])
        return ThetaTable(p, self.n, size, out)

    def __pow__(self, k: int) -> "ThetaTable":
        return power(self, k, lambda: ThetaTable(self.p, self.n, self.size,
                                                 {(0,) * self.n: [1] * self.size ** self.n}))

"""Sparse multivariate Laurent polynomials over F_p.

Terms are a dict mapping exponent tuples (entries may be negative) to
nonzero residues in [0, p).  Values are immutable by convention: no
operation mutates its operands, and the term dict of a constructed
polynomial must not be modified.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import MismatchError, NotAUnit, NumberTooLong
from .scalars import FpScalar, Prime, _lucas, as_prime


def term_string(coeff: int, exps: tuple[int, ...], dindex: tuple[int, ...] | None = None) -> str:
    """Canonical rendering of one term c * x^exps * d^[dindex]."""
    factors = []
    try:
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e != 0:
                factors.append(f"x{i + 1}^{e}")
        for i, k in enumerate(dindex or ()):
            if k > 0:
                factors.append(f"d{i + 1}[{k}]")
    except ValueError:  # an int past str()'s digit limit
        raise NumberTooLong() from None
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return "*".join(factors)


class LaurentPoly:
    """An element of F_p[x_1^{+-1}, ..., x_n^{+-1}]."""

    __slots__ = ("p", "n", "_terms")

    def __init__(self, p: int | Prime, n: int, terms=None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.p = as_prime(p)
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        pp = self.p.p
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, c in items:
                exps = tuple(exps)
                if len(exps) != n:
                    raise MismatchError(f"exponent vector {exps} has length != {n}")
                c = c % pp
                if c:
                    prev = clean.get(exps, 0)
                    s = (prev + c) % pp
                    if s:
                        clean[exps] = s
                    elif exps in clean:
                        del clean[exps]
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, n) -> "LaurentPoly":
        return cls(p, n)

    @classmethod
    def constant(cls, p, n, c: int) -> "LaurentPoly":
        return cls(p, n, {(0,) * n: c})

    @classmethod
    def one(cls, p, n) -> "LaurentPoly":
        return cls.constant(p, n, 1)

    @classmethod
    def monomial(cls, p, n, exps: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        return cls(p, n, {tuple(exps): coeff})

    @classmethod
    def variable(cls, p, n, i: int, exponent: int = 1) -> "LaurentPoly":
        """x_i^exponent for a 1-based variable index."""
        if not 1 <= i <= n:
            raise MismatchError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = exponent
        return cls.monomial(p, n, exps)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The term dict; treat as read-only."""
        return self._terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in the canonical order: lexicographically descending."""
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0,) * self.n: 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.p, self.n, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(term_string(c, e) for e, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"LaurentPoly(p={self.p.p}, n={self.n}, {self})"

    def _check(self, other: "LaurentPoly"):
        if self.p != other.p or self.n != other.n:
            raise MismatchError(
                f"operand mismatch: (p={self.p.p}, n={self.n}) vs (p={other.p.p}, n={other.n})"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        pp = self.p.p
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = (out.get(exps, 0) + c) % pp
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return self._wrap(out)

    def __neg__(self) -> "LaurentPoly":
        pp = self.p.p
        return self._wrap({e: pp - c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        pp = self.p.p
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = (out.get(exps, 0) + c1 * c2) % pp
                if s:
                    out[exps] = s
                elif exps in out:
                    del out[exps]
        return self._wrap(out)

    def scale(self, c: int | FpScalar) -> "LaurentPoly":
        if isinstance(c, FpScalar):
            if c.p != self.p:
                raise MismatchError("scalar prime mismatch")
            c = c.value
        c %= self.p.p
        if c == 0:
            return self._wrap({})
        if c == 1:
            return self
        pp = self.p.p
        return self._wrap({e: cf * c % pp for e, cf in self._terms.items()})

    def times_monomial(self, coeff: int, shift: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by coeff * x^shift in one pass."""
        coeff %= self.p.p
        if coeff == 0:
            return self._wrap({})
        pp = self.p.p
        out = {}
        for e, c in self._terms.items():
            v = c * coeff % pp
            if v:
                out[tuple(a + b for a, b in zip(e, shift))] = v
        return self._wrap(out)

    def _wrap(self, terms: dict) -> "LaurentPoly":
        f = LaurentPoly.__new__(LaurentPoly)
        f.p = self.p
        f.n = self.n
        f._terms = terms
        return f

    # -- structure maps ----------------------------------------------------

    def frobenius(self) -> "LaurentPoly":
        """The p-th power map.  Over F_p it rescales every exponent vector
        by p and fixes coefficients (Fermat)."""
        pp = self.p.p
        return self._wrap({tuple(pp * a for a in e): c for e, c in self._terms.items()})

    def divided_partial(self, i: int, k: int) -> "LaurentPoly":
        """Apply the divided power d_i^[k] termwise:
        x^beta picks up the factor C(beta_i, k) and shifts to x^{beta - k e_i}."""
        if not 1 <= i <= self.n:
            raise MismatchError(f"variable index {i} out of range 1..{self.n}")
        if k < 0:
            raise ValueError("divided power index must be a natural")
        if k == 0:
            return self
        pp = self.p.p
        ix = i - 1
        out: dict[tuple[int, ...], int] = {}
        for e, c in self._terms.items():
            b = _lucas(e[ix], k, pp)
            if b:
                shifted = list(e)
                shifted[ix] -= k
                out[tuple(shifted)] = b * c % pp
        return self._wrap(out)

    def unit_decompose(self) -> tuple[FpScalar, tuple[int, ...]]:
        """Write a unit as c * x^gamma; anything that is not a single
        nonzero term raises NotAUnit."""
        if len(self._terms) != 1:
            raise NotAUnit(f"{self} is not a scalar monomial")
        (exps, c), = self._terms.items()
        return FpScalar(c, self.p), exps

    def exponents(self) -> Iterator[tuple[int, ...]]:
        return iter(self._terms)

"""Exact mod-p scalars, Lucas binomials, and truncated p-adic integers.

Conventions used throughout the package:

* residues live in [0, p);
* p-adic digit vectors are least significant digit first;
* every operation is exact integer arithmetic, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InsufficientPrecision, MismatchError, PrecisionMismatch

MAX_PRIME = 1 << 16
DEFAULT_PRECISION = 8


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Prime:
    """A prime modulus below 2^16, so scalar products fit native ints."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < MAX_PRIME):
            raise ValueError(f"prime must lie in [2, 2^16), got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __int__(self) -> int:
        return self.p

    def __index__(self) -> int:
        return self.p

    def __repr__(self) -> str:
        return f"Prime({self.p})"


def as_prime(p: int | Prime) -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


@dataclass(frozen=True)
class FpScalar:
    """A residue in [0, p) tagged with its prime."""

    value: int
    p: Prime

    def __post_init__(self):
        if not 0 <= self.value < self.p.p:
            raise ValueError(f"residue {self.value} out of range for p={self.p.p}")

    @classmethod
    def reduce(cls, m: int, p: int | Prime) -> "FpScalar":
        p = as_prime(p)
        return cls(m % p.p, p)

    def _coerce(self, other) -> "FpScalar":
        if isinstance(other, int):
            return FpScalar.reduce(other, self.p)
        if other.p != self.p:
            raise MismatchError(f"prime mismatch: {self.p.p} vs {other.p.p}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return FpScalar((self.value + other.value) % self.p.p, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        return FpScalar((self.value - other.value) % self.p.p, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return FpScalar(self.value * other.value % self.p.p, self.p)

    def __neg__(self):
        return FpScalar(-self.value % self.p.p, self.p)

    def inverse(self) -> "FpScalar":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse mod p")
        return FpScalar(pow(self.value, -1, self.p.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.p.p})"


@lru_cache(maxsize=8)
def _digit_binom_table(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Factorials and inverse factorials of 0..p-1 mod p, so that for digits
    a >= b the binomial C(a, b) is fact[a] * inv[b] * inv[a - b] mod p.

    A table costs about 5 MB at p near 2^16; the cache keeps eight."""
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    inv = [p - 1] * p  # (p-1)! = -1 mod p (Wilson)
    for i in range(p - 1, 0, -1):
        inv[i - 1] = inv[i] * i % p
    return tuple(fact), tuple(inv)


def _inverse_factorial(k: int, p: int) -> int:
    """(k!)^{-1} mod p for 0 <= k < p."""
    return _digit_binom_table(p)[1][k]


def padic_length(k: int, p: int) -> int:
    """Number of base-p digits of k >= 0; zero for k = 0."""
    if k < 0:
        raise ValueError("p-adic length is defined for naturals only")
    length = 0
    while k:
        length += 1
        k //= p
    return length


def _digits_mod(m: int, p: int, count: int) -> tuple[int, ...]:
    """First `count` base-p digits of m, i.e. the digits of m mod p^count.

    For negative m this is the truncation of the infinite complement
    expansion (for example -1 gives all digits p-1).
    """
    out = []
    for _ in range(count):
        out.append(m % p)
        m //= p
    return tuple(out)


def _lucas(m: int, k: int, p: int) -> int:
    """C(m, k) mod p by Lucas' theorem; m may be negative.

    Python's floor division and modulus walk the infinite digit string of
    a negative m (for example -1 has every digit p-1), which reduces the
    integer-valued binomial polynomial C(m, k) correctly mod p.
    """
    if k < 0:
        return 0
    fact, inv = _digit_binom_table(p)
    r = 1
    while k:
        b = k % p
        if b:
            a = m % p
            if a < b:
                return 0
            r = r * fact[a] * inv[b] * inv[a - b] % p
        m //= p
        k //= p
    return r


@lru_cache(maxsize=65536)
def _nonzero_binoms(m: int, bound: int, p: int) -> tuple[tuple[int, int], ...]:
    """Pairs (j, C(m, j) mod p) for the j in [0, bound] with C(m, j) nonzero,
    j increasing; m may be negative.

    By Lucas' theorem these are the j whose every base-p digit is at most
    the matching digit of m (for negative m, of its infinite expansion), so
    the digits are chosen from the top down and no zero binomial is visited.
    """
    if bound < 0:
        return ()
    fact, inv = _digit_binom_table(p)
    pairs = [(0, 1)]
    for r in reversed(range(padic_length(bound, p))):
        a = m // p**r % p
        top = bound // p**r
        pairs = [
            (j * p + b, c * fact[a] * inv[b] * inv[a - b] % p)
            for j, c in pairs
            for b in range(min(a, top - j * p) + 1)
        ]
    return tuple(pairs)


def _leibniz_terms(
    beta: tuple[int, ...], delta: tuple[int, ...], eps: tuple[int, ...], p: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The nonzero terms of the Leibniz rule for d^[beta] x^delta d^[eps]:
    triples (beta - j + eps, delta - j, prod_i C(delta_i, j_i)
    C(beta_i - j_i + eps_i, eps_i) mod p) over the j <= beta whose
    coefficient is nonzero.

    Both binomials factor over the variables, so each variable lists only
    its j_i with both factors nonzero, and the product of those lists
    visits no zero term.  A variable with beta_i = 0 has the single
    choice j_i = 0 and coefficient 1.
    """
    fact, inv = _digit_binom_table(p)
    terms: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 1)]
    for b, d, e in zip(beta, delta, eps):
        if b == 0:
            choices = [(e, d, 1)]
        else:
            choices = []
            for j, c in _nonzero_binoms(d, b, p):
                m = b - j
                # C(m + e, e) digit by digit: zero iff adding m and e carries
                rest, lo = m, e
                while lo and c:
                    a, r = rest % p, lo % p
                    c = c * fact[a + r] * inv[a] * inv[r] % p if a + r < p else 0
                    rest //= p
                    lo //= p
                if c:
                    choices.append((m + e, d - j, c))
            if not choices:
                return []
        terms = [(out + (o,), shift + (s,), cc * c % p)
                 for out, shift, cc in terms for o, s, c in choices]
    return terms


def _pascal_column(b: int, p: int) -> list[int]:
    """Column b < p of the p x p Pascal matrix mod p: C(t, b) mod p for
    t < p, zero above the diagonal and nonzero on and below it."""
    fact, inv = _digit_binom_table(p)
    return [0] * b + [fact[t] * inv[b] * inv[t - b] % p for t in range(b, p)]


def binom_int_mod_p(m: int, k: int, p: int | Prime) -> FpScalar:
    """The integer binomial C(m, k) = m(m-1)...(m-k+1)/k! reduced mod p.

    m may be negative: Lucas' theorem runs over the digits of m's infinite
    p-adic expansion (see _lucas), of which only the first padic_length(k)
    affect the value.
    """
    if k < 0:
        raise ValueError("lower index must be a natural")
    p = as_prime(p)
    return FpScalar(_lucas(m, k, p.p), p)


@dataclass(frozen=True)
class PadicInt:
    """A p-adic integer truncated to `precision` base-p digits.

    Represents the residue class sum(d_k p^k) mod p^precision.  Digits are
    least significant first.  Operands of arithmetic must agree on both p
    and precision; mismatches are hard errors, never silent truncation.
    """

    digits: tuple[int, ...]
    p: Prime

    def __post_init__(self):
        if len(self.digits) < 1:
            raise ValueError("precision must be at least 1")
        if any(not 0 <= d < self.p.p for d in self.digits):
            raise ValueError(f"digits out of range for p={self.p.p}: {self.digits}")

    @property
    def precision(self) -> int:
        return len(self.digits)

    @classmethod
    def from_int(cls, m: int, p: int | Prime, precision: int = DEFAULT_PRECISION) -> "PadicInt":
        p = as_prime(p)
        if precision < 1:
            raise ValueError("precision must be at least 1")
        return cls(_digits_mod(m, p.p, precision), p)

    def to_int(self) -> int:
        """The canonical representative in [0, p^precision)."""
        v = 0
        for d in reversed(self.digits):
            v = v * self.p.p + d
        return v

    def _check(self, other: "PadicInt"):
        if self.p != other.p:
            raise MismatchError(f"prime mismatch: {self.p.p} vs {other.p.p}")
        if self.precision != other.precision:
            raise PrecisionMismatch(
                f"precision mismatch: {self.precision} vs {other.precision}"
            )

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check(other)
        return PadicInt.from_int(self.to_int() + other.to_int(), self.p, self.precision)

    def __neg__(self) -> "PadicInt":
        return PadicInt.from_int(-self.to_int(), self.p, self.precision)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        self._check(other)
        return PadicInt.from_int(self.to_int() - other.to_int(), self.p, self.precision)

    def scale(self, m: int) -> "PadicInt":
        """Multiply by an ordinary integer, truncated at p^precision."""
        return PadicInt.from_int(m * self.to_int(), self.p, self.precision)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    def __repr__(self) -> str:
        return f"PadicInt({list(self.digits)}, p={self.p.p})"


def binom_padic(s: PadicInt, k: int) -> FpScalar:
    """C(s, k) mod p for a truncated p-adic upper argument.

    Only the first padic_length(k) digits of s matter; if k has a nonzero
    digit at an index the truncation does not cover, the value is not
    determined and InsufficientPrecision is raised.
    """
    if k < 0:
        raise ValueError("lower index must be a natural")
    p = s.p.p
    if padic_length(k, p) > s.precision:
        raise InsufficientPrecision(
            f"C(s, {k}) needs {padic_length(k, p)} digits, have {s.precision}"
        )
    return FpScalar(_lucas(s.to_int(), k, p), s.p)

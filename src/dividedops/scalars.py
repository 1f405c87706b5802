"""Exact mod-p scalars, Lucas binomials, and truncated p-adic integers.

Conventions used throughout the package:

* residues live in [0, p);
* p-adic digit vectors are least significant digit first;
* every operation is exact integer arithmetic, no floating point.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from .errors import InsufficientPrecision, MismatchError, PrecisionMismatch

MAX_PRIME = 1 << 16
DEFAULT_PRECISION = 8


@lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_assign = object.__setattr__  # sets a slot of a _Value: a memo, or a field _validate normalizes


class _Value:
    """An immutable value, the one base of the package's value classes (see
    the README).  Its fields are the __slots__ names with no leading
    underscore, in constructor order; equality, hash, repr, copy and pickle
    go by them.  A slot with a leading underscore is a memo, set at most once."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        memos = tuple(name for name in cls.__slots__ if name[0] == "_")
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields + memos)
        cls._unset = (None,) * len(memos)  # the memos' values at construction
        # the fields as one value, a tuple if several (self._key(x) reads x)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_slot, value in zip(self._setters, args + self._unset):
            set_slot(self, value)
        self._validate()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The fields in order from the arguments and `_defaults`, or TypeError."""
        given = dict(zip(cls._fields, args))
        values = {name: make() for name, make in cls._defaults.items()} | given | kwargs
        if len(given) < len(args) or given.keys() & kwargs or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the arguments {', '.join(cls._fields)}")
        return tuple(values[name] for name in cls._fields)

    def _validate(self):
        """Check the fields; a subclass may normalize one with _assign."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class Prime(_Value):
    """A prime modulus below 2^16, so scalar products fit native ints."""

    __slots__ = ("p",)

    def _validate(self):
        if type(self.p) is not int:
            raise ValueError(f"prime must be an int, got {self.p!r}")
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


def read_prime(value: int) -> Prime:
    """The Prime of a value read from outside the library, a command line
    or a file; one that is no prime below 2^16 raises MismatchError."""
    try:
        return as_prime(value)
    except ValueError as exc:
        raise MismatchError(str(exc)) from None


class FpScalar(_Value):
    """A residue in [0, p) tagged with its prime."""

    __slots__ = ("value", "p")

    def _validate(self):
        _assign(self, "p", as_prime(self.p))
        if type(self.value) is not int:
            raise ValueError(f"residue must be an int, got {self.value!r}")
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


def index_digits(betas, p: int) -> int:
    """K >= 1, the most base-p digits of an entry of the divided indices betas."""
    return max(1, padic_length(max(map(max, betas), default=0), p))


def check_index_digits(betas, p: int, digits: int):
    """Raise InsufficientPrecision, naming the first entry past p^digits,
    unless every entry of the divided indices betas has at most `digits` digits."""
    bound = p ** digits
    for beta in betas:
        if max(beta) >= bound:
            b = next(b for b in beta if b >= bound)
            raise InsufficientPrecision(
                f"index {b} needs {padic_length(b, p)} digits, precision is {digits}")


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


# _leibniz_factor caches the lists of b <= CACHED_INDEX only, so that each
# of its 1,024 entries holds at most CACHED_INDEX + 1 survivors; both bounds
# are measured on real products, see the README
CACHED_INDEX = 256


@lru_cache(maxsize=1024)
def _leibniz_factor(b: int, d: int, e: int, p: int) -> tuple[tuple[int, int, int], ...]:
    """_leibniz_terms for one variable with b > 0."""
    # digits from the bottom, each with the carries (c0: 0, c1: 1) the digits
    # below can send into it; j_r + m_r + c_r = b_r + p c_(r+1)
    digits, q, dq, eq, c0, c1 = [], b, d, e, True, False
    while q:
        (q, br), (dq, dr), (eq, er) = divmod(q, p), divmod(dq, p), divmod(eq, p)
        digits.append((br, dr, er, c0, c1))
        top = dr + p - 1 - er  # the largest j_r + m_r
        c0, c1 = ((c0 and br <= top) or (c1 and 0 < br <= top + 1),
                  (c0 and br + p <= top) or (c1 and br + p <= top + 1))
        if not (c0 or c1):
            return ()
    fact, inv = _digit_binom_table(p)
    walk = [(0, 1, 0)]  # (top digits of j, their coefficient, carry out of digit r)
    for br, a, f, c0, c1 in reversed(digits):
        room = p - 1 - f
        nxt = []
        for j, coef, out in walk:
            t = br + p * out  # = j_r + m_r + (carry into digit r)
            j, coef = j * p, coef * fact[a] * inv[f] % p
            for x in range(max(0, t - room - c1), min(a, t - (not c0)) + 1):
                cx, mc = coef * inv[x] * inv[a - x], t - x  # mc = m_r + carry in
                # carry 0 first: with carry 1 the lower digits of j exceed b's
                if c0 and mc <= room:
                    nxt.append((j + x, cx * fact[mc + f] * inv[mc] % p, 0))
                if c1 and mc:
                    nxt.append((j + x, cx * fact[mc - 1 + f] * inv[mc - 1] % p, 1))
        walk = nxt
    return tuple((b - j + e, d - j, c) for j, c, _ in walk)


def _leibniz_terms(
    beta: tuple[int, ...], delta: tuple[int, ...], eps: tuple[int, ...], p: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The nonzero terms of the Leibniz rule for d^[beta] x^delta d^[eps]:
    triples (beta - j + eps, delta - j, prod_i C(delta_i, j_i)
    C(beta_i - j_i + eps_i, eps_i) mod p) over the j <= beta whose
    coefficient is nonzero, each variable's j_i increasing.

    Both binomials factor over the variables.  For one variable (b, d, e)
    and m = b - j, Lucas' theorem makes the coefficient nonzero iff every
    digit j_r <= d_r (of d's infinite expansion when d < 0) and every m_r
    <= p - 1 - e_r (no carry in m + e), and it is then the product of the
    digit binomials C(d_r, j_r) C(m_r + e_r, e_r); only the L digits of b
    matter.  `_leibniz_factor` lists these j straight from the digits.
    The digits of j and m are linked by the carries of j + m = b: the walk
    goes from the top digit down with the carry into the current digit as
    its only state, each (state, carry) admits one interval of j_r, and a
    bottom-up pass first marks the carries the lower digits can produce
    (and stops if they can produce none), so no prefix is thrown away.
    For b < p this is one interval of j, and when e = 0 mod p^L it is the
    digit box of d below b.  The lists of b <= CACHED_INDEX are cached; a
    variable with b = 0 has the single choice j = 0 and coefficient 1.
    """
    terms: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 1)]
    for b, d, e in zip(beta, delta, eps):
        if not b:
            choices = ((e, d, 1),)
        elif b <= CACHED_INDEX:
            choices = _leibniz_factor(b, d, e, p)
        else:  # rebuilt on every use: see CACHED_INDEX
            choices = _leibniz_factor.__wrapped__(b, d, e, p)
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


class PadicInt(_Value):
    """A p-adic integer truncated to `precision` base-p digits.

    Represents the residue class sum(d_k p^k) mod p^precision.  Digits are
    least significant first.  Operands of arithmetic must agree on both p
    and precision; mismatches are hard errors, never silent truncation.
    """

    __slots__ = ("digits", "p")

    def _validate(self):
        _assign(self, "p", as_prime(self.p))
        if len(self.digits) < 1:
            raise ValueError("precision must be at least 1")
        if any(type(d) is not int or not 0 <= d < self.p.p for d in self.digits):
            if any(type(d) is not int for d in self.digits):
                raise ValueError(f"each digit must be an int, got {self.digits}")
            raise ValueError(f"digits out of range for p={self.p.p}: {self.digits}")

    @property
    def precision(self) -> int:
        return len(self.digits)

    @classmethod
    def from_int(cls, m: int, p: int | Prime, precision: int = DEFAULT_PRECISION) -> "PadicInt":
        p = as_prime(p)
        return cls(_digits_mod(m, p.p, precision), p)  # _validate checks precision >= 1

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
    check_index_digits(((k,),), s.p.p, s.precision)
    return binom_int_mod_p(s.to_int(), k, s.p)

"""Normal-form arithmetic in the ring of divided-power differential
operators on Laurent polynomials.

An operator is stored as a finite sum  sum_beta f_beta * d^[beta]  with
Laurent coefficients on the left and beta a multi-index of naturals.
This direct-sum form is the unique normal form; multiplication rewrites
products back into it with the rule

    (x^gamma d^[beta]) (x^delta d^[eps])
        = sum_{j <= beta} C(delta, j) C(beta - j + eps, eps)
          x^{gamma + delta - j} d^[beta - j + eps]

where C(delta, j) may have negative upper entries.  The rule is a
consequence of the commutation relations; the test suite certifies it
against the module action, which is the ground truth.  `DiffOp.__mul__`
runs the loop below (`leibniz`) unless its left factor has TABLE_PARTS
parts or more and `theta.product_digits` finds theta-tables cheaper.

The loop sums, for each left part f_beta, the right factor's scalar
contributions into one coefficient per (output index beta - j + eps,
shift delta - j), then adds coefficient * f_beta * x^shift once per
nonzero pair; `scalars._leibniz_terms` lists only the j whose two
binomials are both nonzero, straight from the base-p digits: per variable
a walk down the digits whose only state is the carry of
j_i + (beta_i - j_i) = beta_i (the digit box of delta_i when eps_i cannot
carry).  When the last variable's (b, d, e) has b < p its j is one run,
max(0, b + 1 + (e mod p) - p) <= j <= min(b, d mod p), whose outputs
b - j + e are consecutive, whose shifts d - j lie on the line
d - e - b = shift - output, and whose coefficients
C(d mod p, j) C(b - j + (e mod p), e mod p) are products of four slices of
the digit tables.  A run of at least RUN summands whose right term shares
delta - eps and e // p with another (so that runs can meet) is added as
one slice into a dense row per (other variables' output and shift, line,
e // p), whose entries are walked beside the coefficients once per part;
other runs, b >= p and every product at p < RUN take the walk.  Powers of
an order-0 operator f use the Frobenius, f^(p^r) = f(x^(p^r)), on the
base-p digits of the exponent; other powers square and multiply.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, product as iproduct
from operator import add, sub
from typing import Callable

from .errors import InconsistentAction, MismatchError
from .laurent import LaurentPoly, term_string
from .scalars import Prime, _digit_binom_table, _leibniz_terms, _lucas, as_prime

MonomialAction = Callable[[tuple[int, ...]], LaurentPoly]

REPLAY_PROBES = 8  # random monomials normal_form_from_action replays after solving
RUN = 8  # the shortest run of the last variable summed as a slice, see the README
TABLE_PARTS = 8  # the fewest left parts for which theta's rule is asked, see the README


class DiffOp:
    """A differential operator in normal form sum_beta f_beta d^[beta]."""

    __slots__ = ("p", "n", "_parts")

    def __init__(self, p: int | Prime, n: int, parts=None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.p = as_prime(p)
        self.n = n
        clean: dict[tuple[int, ...], LaurentPoly] = {}
        if parts:
            items = parts.items() if isinstance(parts, dict) else parts
            for beta, f in items:
                beta = tuple(beta)
                if len(beta) != n or any(b < 0 for b in beta):
                    raise MismatchError(f"bad divided index {beta}")
                if f.p != self.p or f.n != n:
                    raise MismatchError("coefficient polynomial mismatch")
                if f:
                    if beta in clean:
                        g = clean[beta] + f
                        if g:
                            clean[beta] = g
                        else:
                            del clean[beta]
                    else:
                        clean[beta] = f
        self._parts = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, n) -> "DiffOp":
        return cls(p, n)

    @classmethod
    def one(cls, p, n) -> "DiffOp":
        return cls.from_laurent(LaurentPoly.one(p, n))

    @classmethod
    def from_laurent(cls, f: LaurentPoly) -> "DiffOp":
        return cls(f.p, f.n, {(0,) * f.n: f} if f else {})

    @classmethod
    def partial(cls, p, n, i: int, k: int = 1) -> "DiffOp":
        """The divided power d_i^[k] (1-based variable index)."""
        if not 1 <= i <= n:
            raise MismatchError(f"variable index {i} out of range 1..{n}")
        if k < 0:
            raise ValueError("divided power index must be a natural")
        beta = [0] * n
        beta[i - 1] = k
        return cls(p, n, {tuple(beta): LaurentPoly.one(p, n)})

    @classmethod
    def monomial(cls, p, n, exps, coeff: int = 1) -> "DiffOp":
        return cls.from_laurent(LaurentPoly.monomial(p, n, exps, coeff))

    def _wrap(self, parts: dict) -> "DiffOp":
        d = DiffOp.__new__(DiffOp)
        d.p = self.p
        d.n = self.n
        d._parts = parts
        return d

    # -- inspection --------------------------------------------------------

    @property
    def parts(self) -> dict[tuple[int, ...], LaurentPoly]:
        """Divided index -> coefficient polynomial; treat as read-only."""
        return self._parts

    def sorted_parts(self) -> list[tuple[tuple[int, ...], LaurentPoly]]:
        """Parts in canonical order: total degree descending, then lex descending."""
        return sorted(self._parts.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def order(self) -> int | None:
        """Maximal |beta| over nonzero parts; None for the zero operator."""
        if not self._parts:
            return None
        return max(sum(b) for b in self._parts)

    def is_zero(self) -> bool:
        return not self._parts

    def __bool__(self) -> bool:
        return bool(self._parts)

    def is_laurent(self) -> bool:
        """True when the operator is multiplication by a Laurent polynomial."""
        return len(self._parts) <= 1 and not any(map(any, self._parts))

    def to_laurent(self) -> LaurentPoly:
        if self.is_zero():
            return LaurentPoly.zero(self.p, self.n)
        if not self.is_laurent():
            raise MismatchError(f"{self} has positive order, not a Laurent polynomial")
        return self._parts[(0,) * self.n]

    def is_polynomial_coefficient(self) -> bool:
        """True when every coefficient exponent is nonnegative, i.e. the
        operator lies in the polynomial-coefficient subring."""
        return all(
            all(e >= 0 for e in exps)
            for f in self._parts.values()
            for exps in f.exponents()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self._parts == other._parts

    def __hash__(self):
        return hash((self.p, self.n, frozenset((b, hash(f)) for b, f in self._parts.items())))

    def __str__(self) -> str:
        if not self._parts:
            return "0"
        chunks = []
        for beta, f in self.sorted_parts():
            for exps, c in f.sorted_terms():
                chunks.append(term_string(c, exps, beta))
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"DiffOp(p={self.p.p}, n={self.n}, {self})"

    def _check(self, other: "DiffOp"):
        if self.p != other.p or self.n != other.n:
            raise MismatchError(
                f"operand mismatch: (p={self.p.p}, n={self.n}) vs (p={other.p.p}, n={other.n})"
            )

    # -- additive structure --------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        out = dict(self._parts)
        for beta, f in other._parts.items():
            if beta in out:
                g = out[beta] + f
                if g:
                    out[beta] = g
                else:
                    del out[beta]
            else:
                out[beta] = f
        return self._wrap(out)

    def __neg__(self) -> "DiffOp":
        return self._wrap({b: -f for b, f in self._parts.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, c: int) -> "DiffOp":
        c %= self.p.p
        if c == 0:
            return self._wrap({})
        out = {}
        for b, f in self._parts.items():
            g = f.scale(c)
            if g:
                out[b] = g
        return self._wrap(out)

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        """`theta.table_product` past TABLE_PARTS where theta's rule says so, else `leibniz`."""
        self._check(other)
        if len(self._parts) >= TABLE_PARTS:
            from .theta import product_digits, table_product
            if digits := product_digits(self, other):
                return table_product(self, other, digits)
        return leibniz(self, other)

    def _from_terms(self, acc: dict) -> "DiffOp":
        """The operator of acc = {beta: {exps: residue}}, residues nonzero."""
        proto = LaurentPoly.zero(self.p, self.n)
        return self._wrap({b: proto._wrap(t) for b, t in acc.items() if t})

    def __pow__(self, k: int) -> "DiffOp":
        if k < 0 or not self.is_laurent():
            return power(self, k, lambda: DiffOp.one(self.p, self.n))
        # order 0: f^k = prod_r (f^(p^r))^(k_r) over the base-p digits k_r
        # of k, and f^(p^r) is f(x^(p^r)) over F_p (Frobenius)
        pp = self.p.p
        f = self.to_laurent()
        one = LaurentPoly.one(self.p, self.n)
        result = one
        while k:
            k, digit = divmod(k, pp)
            if digit:
                result = result * power(f, digit, lambda: one)
            f = f.frobenius()
        return DiffOp.from_laurent(result)

    # -- module action -------------------------------------------------------

    def act(self, f: LaurentPoly) -> LaurentPoly:
        """Apply the operator to a Laurent polynomial."""
        if f.p != self.p or f.n != self.n:
            raise MismatchError("operand mismatch in action")
        pp = self.p.p
        n = self.n
        out: dict[tuple[int, ...], int] = {}
        for beta, g in self._parts.items():
            for delta, c in f.terms.items():
                b = 1
                for i in range(n):
                    b = b * _lucas(delta[i], beta[i], pp) % pp
                    if b == 0:
                        break
                if b == 0:
                    continue
                cb = c * b % pp
                for gam, cg in g.terms.items():
                    key = tuple(gam[i] + delta[i] - beta[i] for i in range(n))
                    s = (out.get(key, 0) + cg * cb) % pp
                    if s:
                        out[key] = s
                    elif key in out:
                        del out[key]
        return LaurentPoly.zero(self.p, n)._wrap(out)

    def act_monomial(self, exps: tuple[int, ...], coeff: int = 1) -> LaurentPoly:
        return self.act(LaurentPoly.monomial(self.p, self.n, exps, coeff))

    def action(self) -> MonomialAction:
        """The operator as a black-box action on monomial exponent vectors."""
        return lambda exps: self.act_monomial(tuple(exps))


def leibniz(left: DiffOp, right: DiffOp) -> DiffOp:
    """left * right by the Leibniz loop of the module docstring."""
    pp = left.p.p
    right_terms = [(eps, delta, cg) for eps, g in right._parts.items()
                   for delta, cg in g.terms.items()]
    shared = ()  # the right terms (eps, delta) whose line another right term shares
    if RUN < pp and len(right_terms) > 1 and any(RUN <= b[-1] + 1 <= pp for b in left._parts):
        # a row pays only where runs meet, which needs two right terms of one
        # delta - eps and last e // p; asked only where a left part can run
        lines = [(tuple(map(sub, delta, eps)), eps[-1] // pp) for eps, delta, _ in right_terms]
        count = Counter(lines)
        shared = {(eps, delta) for (eps, delta, _), line in zip(right_terms, lines)
                  if count[line] > 1}
    acc: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    rows: dict[tuple, list] = {}
    for beta, f in left._parts.items():
        # the right factor's scalar contributions, one coefficient per
        # (output index, shift); f_beta is then walked once per pair
        coeffs: dict[tuple, int] = {}
        ranged = shared and RUN <= beta[-1] + 1 <= pp  # b < p: the last j is one run
        for eps, delta, cg in right_terms:
            if ranged:
                b, d, e = beta[-1], delta[-1], eps[-1]
                lo, hi = max(0, b + 1 + e % pp - pp), min(b, d % pp)
                if hi - lo >= RUN - 1 and (eps, delta) in shared:
                    for out, shift, c in _leibniz_terms(beta[:-1], delta[:-1], eps[:-1], pp):
                        _add_run(rows, (out, shift, d - e - b, e // pp),
                                 b, d, e, lo, hi, cg * c, pp)
                    continue
            for newbeta, shift, c in _leibniz_terms(beta, delta, eps, pp):
                pair = (newbeta, shift)
                coeffs[pair] = (coeffs.get(pair, 0) + cg * c) % pp
        pairs = coeffs.items()
        if rows:  # each row's entries, reduced, go beside coeffs
            pairs = chain(pairs, *[
                zip(zip([out + (m,) for m in ms], [shift + (m + line,) for m in ms]),
                    map(pp.__rmod__, row))
                for (out, shift, line, _), (base, row) in rows.items()
                for ms in [range(base, base + len(row))]])
            rows.clear()
        _add_into(acc, pairs, f.terms.items(), pp)
    return left._from_terms(acc)


def _add_into(acc: dict, pairs, terms, p: int):
    """acc[beta] += c x^shift f mod p for each ((beta, shift), c) of pairs,
    f given by its `terms` (exponents, residue); a zero sum drops its term."""
    for (beta, shift), c in pairs:
        if not c:
            continue
        bucket = acc.setdefault(beta, {})
        for gam, cf in terms:
            key = tuple(map(add, gam, shift))
            s = (bucket.get(key, 0) + cf * c) % p
            if s:
                bucket[key] = s
            else:
                bucket.pop(key, None)


def _add_run(rows: dict, key, b: int, d: int, e: int, lo: int, hi: int, c: int, p: int):
    """Add c C(d, j) C(b - j + e, e) at output index b - j + e of the row
    rows[key] = [its first index, its values] for j = lo..hi, growing the
    row at either end: one Leibniz pair's run in the last variable, whose
    b < p makes both binomials those of the lowest digits of d and e."""
    fact, inv = _digit_binom_table(p)
    d, f = d % p, e % p
    start = b - hi + e  # the run's lowest output index
    row = rows.setdefault(key, [start, []])
    if start < row[0]:
        row[1][:0] = [0] * (row[0] - start)
        row[0] = start
    first, vals = row
    a, z = start - first, start - first + hi - lo + 1
    vals += [0] * (z - len(vals))
    # j descending; C(d, j) C(b - j + f, f) is
    # fact[d] inv[f] * inv[j] inv[d - j] fact[b - j + f] inv[b - j]
    k = c * fact[d] * inv[f] % p
    vals[a:z] = [v + k * w * x * y * u for v, w, x, y, u in zip(
        vals[a:z], inv[hi:lo - 1 if lo else None:-1], inv[d - hi:d - lo + 1],
        fact[b - hi + f:b - lo + f + 1], inv[b - hi:b - lo + 1])]


def power(base, k: int, one: Callable):
    """base^k by repeated squaring, at most 2 log2(k) products; one() is base^0."""
    if k < 0:
        raise ValueError("operator powers need natural exponents")
    if k < 2:
        return base if k else one()
    half = power(base, k // 2, one)
    return half * half * base if k & 1 else half * half


def normal_form_from_action(
    action: MonomialAction,
    p: int | Prime,
    n: int,
    bound: int,
) -> DiffOp:
    """Recover the unique normal form of an operator of order <= bound from
    its action on monomials.

    Probing x^delta for delta in the box [0, bound]^n gives a triangular
    system with unit diagonal:

        action(x^delta) = f_delta + sum_{delta' < delta} C(delta, delta')
                          f_{delta'} x^{delta - delta'}

    which is solved by increasing total degree.  REPLAY_PROBES random extra
    monomials (negative exponents included, drawn under a fixed seed) are
    then replayed against the recovered operator; any disagreement raises
    InconsistentAction.
    """
    p = as_prime(p)
    pp = p.p
    if bound < 0:
        raise ValueError("order bound must be a natural")
    recovered: dict[tuple[int, ...], LaurentPoly] = {}
    for delta in sorted(iproduct(*[range(bound + 1)] * n), key=lambda t: (sum(t), t)):
        corr = LaurentPoly.zero(p, n)
        for dprime, f in recovered.items():
            if all(dprime[i] <= delta[i] for i in range(n)):
                c = 1
                for i in range(n):
                    c = c * _lucas(delta[i], dprime[i], pp) % pp
                    if c == 0:
                        break
                if c:
                    corr = corr + f.times_monomial(
                        c, tuple(delta[i] - dprime[i] for i in range(n))
                    )
        got = action(delta)
        f_delta = got - corr
        if f_delta:
            recovered[delta] = f_delta
    result = DiffOp(p, n, recovered)
    rng = random.Random(0)
    lo, hi = -bound - 2, bound + 2
    for _ in range(REPLAY_PROBES):
        gamma = tuple(rng.randint(lo, hi) for _ in range(n))
        if result.act_monomial(gamma) != action(gamma):
            raise InconsistentAction(
                f"action disagrees with recovered operator at x^{gamma}"
            )
    return result

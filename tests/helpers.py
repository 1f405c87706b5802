"""Shared random generators for the test suite.

Everything takes an explicit random.Random so suites stay deterministic
under a seed.
"""

import os
import random
import sys
from contextlib import contextmanager
from functools import partial
from itertools import product as iproduct
from pathlib import Path

from dividedops import interchange, theta
from dividedops.diffop import DiffOp, leibniz
from dividedops.errors import InsufficientPrecision, MismatchError, ParseError
from dividedops.expr import MAX_NESTING, BinOp, Num, Partial, Pow, Var
from dividedops.laurent import LaurentPoly
from dividedops.scalars import (
    PadicInt,
    Prime,
    _digit_binom_table,
    _inverse_factorial,
    _lucas,
    padic_length,
)


def rand_poly(rng: random.Random, p, n, max_terms=3, span=3, allow_zero=True) -> LaurentPoly:
    pp = int(p)
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(n))
        terms[exps] = rng.randint(1, pp - 1)
    f = LaurentPoly(p, n, terms)
    if not allow_zero or f:
        return f
    return f


def rand_nonzero_poly(rng, p, n, max_terms=3, span=3) -> LaurentPoly:
    while True:
        f = rand_poly(rng, p, n, max_terms=max_terms, span=span, allow_zero=False)
        if f:
            return f


def rand_op(rng: random.Random, p, n, max_parts=3, max_order=3, span=3, max_terms=2) -> DiffOp:
    parts = {}
    for _ in range(rng.randint(0, max_parts)):
        while True:
            beta = tuple(rng.randint(0, max_order) for _ in range(n))
            if sum(beta) <= max_order:
                break
        f = rand_poly(rng, p, n, max_terms=max_terms, span=span, allow_zero=False)
        if f:
            parts[beta] = parts.get(beta, DiffOp.zero(p, n).parts.get(beta)) or f
    return DiffOp(p, n, parts)


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


def leibniz_product(a: DiffOp, b: DiffOp) -> DiffOp:
    """a * b term by term by the divided-power Leibniz rule

        (x^gamma d^[beta]) (x^delta d^[eps])
            = sum_{j <= beta} C(delta, j) C(beta - j + eps, eps)
              x^{gamma + delta - j} d^[beta - j + eps],

    walking every term of a's coefficient for every Leibniz term: the
    reference that DiffOp.__mul__ is tested against.  Each variable's j
    are kept where C(delta_i, j_i) C(beta_i - j_i + eps_i, eps_i) is
    nonzero before the variables are paired, so every combination is a
    term of the product, p being prime."""
    assert a.p == b.p and a.n == b.n
    pp = a.p.p
    n = a.n
    acc: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for beta, f in a.parts.items():
        for eps, g in b.parts.items():
            for delta, cg in g.terms.items():
                choices = [[(j, cj) for j, c in _nonzero_binoms(delta[i], beta[i], pp)
                            if (cj := c * _lucas(beta[i] - j + eps[i], eps[i], pp) % pp)]
                           for i in range(n)]
                for combo in iproduct(*choices):
                    cj = cg
                    for _, c in combo:
                        cj = cj * c % pp
                    newbeta = tuple(beta[i] - combo[i][0] + eps[i] for i in range(n))
                    shift = tuple(delta[i] - combo[i][0] for i in range(n))
                    bucket = acc.setdefault(newbeta, {})
                    for gam, cf in f.terms.items():
                        key = tuple(gam[i] + shift[i] for i in range(n))
                        bucket[key] = (bucket.get(key, 0) + cf * cj) % pp
    return DiffOp(a.p, n, {beta: LaurentPoly(a.p, n, terms) for beta, terms in acc.items()})


def leibniz_power(op: DiffOp, k: int) -> DiffOp:
    """op^k by repeated squaring in the Leibniz loop alone, whatever engine
    DiffOp.__mul__ would pick: the oracles that check the tables use it."""
    result, base = DiffOp.one(op.p, op.n), op
    while k:
        if k & 1:
            result = leibniz(result, base)
        k >>= 1
        if k:
            base = leibniz(base, base)
    return result


def reference_parse(text: str):
    """Parse an operator expression one character at a time, by recursive
    descent with a method per grammar rule: the reference that the token
    parser `expr.parse` is tested against, trees and ParseErrors alike."""
    return _ReferenceParser(text).parse()


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, message: str):
        raise ParseError(message, self.pos)

    def _expect(self, ch: str):
        if self._peek() != ch:
            self._fail(f"expected '{ch}'")
        self.pos += 1

    def _nat(self) -> int:
        self._skip_ws()
        start = self.pos
        while _is_digit(self._peek()):
            self.pos += 1
        if self.pos == start:
            self._fail("expected a number")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            self.pos = start
            self._fail(f"number of more than {sys.get_int_max_str_digits()} digits")

    def _signed_int(self) -> int:
        self._skip_ws()
        sign = 1
        if self._peek() == "-":
            sign = -1
            self.pos += 1
        return sign * self._nat()

    def parse(self):
        node = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail("unexpected trailing input")
        return node

    def _expr(self):
        node = self._term()
        while True:
            self._skip_ws()
            c = self._peek()
            if c == "+" or c == "-":
                self.pos += 1
                node = BinOp(c, node, self._term())
            else:
                return node

    def _term(self):
        node = self._factor()
        while True:
            self._skip_ws()
            if self._peek() == "*":
                self.pos += 1
                node = BinOp("*", node, self._factor())
            else:
                return node

    def _factor(self):
        node = self._atom()
        self._skip_ws()
        if self._peek() == "^":
            self.pos += 1
            return Pow(node, self._nat())
        return node

    def _atom(self):
        self._skip_ws()
        c = self._peek()
        if c == "(":
            if self.depth == MAX_NESTING:
                self._fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            node = self._expr()
            self._skip_ws()
            self._expect(")")
            self.depth -= 1
            return node
        if _is_digit(c):
            return Num(self._nat())
        if c == "x":
            self.pos += 1
            idx = self._nat()
            exponent = 1
            self._skip_ws()
            if self._peek() == "^":
                self.pos += 1
                exponent = self._signed_int()
            return Var(idx, exponent)
        if c == "d":
            self.pos += 1
            idx = self._nat()
            self._skip_ws()
            self._expect("[")
            order = self._nat()
            self._skip_ws()
            self._expect("]")
            return Partial(idx, order)
        self._fail("expected an atom")


def reference_op_from_dict(data, prime=None) -> DiffOp:
    """Read an operator object one term at a time, each term's fields
    checked in turn and every part built through the normalizing
    constructors: the reference that `interchange.op_from_dict`, which
    checks a whole term list at once, is tested against, operators and
    MismatchErrors alike."""
    p, n = interchange._header(data, prime)
    interchange._known_fields(data, interchange._OP_FIELDS, "an operator")
    parts: dict = {}
    for entry in interchange._field(data, "terms", list):
        beta, exps, c = interchange._term(entry, n, p.p)
        terms = parts.setdefault(beta, {})
        if exps in terms:
            raise MismatchError(f"repeated term with x_exp {list(exps)} and d_exp {list(beta)}")
        terms[exps] = c
    return DiffOp(p, n, {b: LaurentPoly(p, n, t) for b, t in parts.items()})


def monomial_compose_images(tau, h):
    """Images of the monomial automorphism tau after h, conjugating every
    image of h."""
    from dividedops.autgroup import GeneratorImages, monomial_apply

    return GeneratorImages(
        h.p, h.n, h.precision,
        tuple(monomial_apply(tau, img) for img in h.x_images),
        tuple(monomial_apply(tau, img) for img in h.xinv_images),
        tuple(tuple(monomial_apply(tau, img) for img in row) for row in h.d_images))


def divided_image_from_levels(levels, j: int) -> DiffOp:
    """Assemble the image of d^[j] from images of the levels d^[p^k].

    Writing j = sum j_k p^k in base p, the divided power factors as
    prod_k (d^[p^k])^{j_k} / j_k!, so the same product of the level images
    gives the image of d^[j] under any ring homomorphism.
    """
    if not levels:
        raise ValueError("need at least one level image")
    if j < 0:
        raise ValueError("divided power index must be a natural")
    p = levels[0].p
    n = levels[0].n
    if padic_length(j, p.p) > len(levels):
        raise InsufficientPrecision(
            f"index {j} needs {padic_length(j, p.p)} levels, have {len(levels)}"
        )
    result = DiffOp.one(p, n)
    k = 0
    while j:
        jk = j % p.p
        if jk:
            factor = leibniz_power(levels[k], jk).scale(_inverse_factorial(jk, p.p))
            result = leibniz(result, factor)
        j //= p.p
        k += 1
    return result


def generic_apply_images(g, op: DiffOp) -> DiffOp:
    """Apply the ring map presented by the images g to op through products
    of powers of the level images: coefficients map through the Laurent
    restriction of g, each d_i^[beta_i] through divided_image_from_levels.
    It checks the x images alone and never the level images, so it is a
    reference for `autgroup.apply_images` on valid images only."""
    if op.p != g.p or op.n != g.n:
        raise MismatchError("operand mismatch")
    tau = g.restriction()
    result = DiffOp.zero(g.p, g.n)
    for beta, f in op.parts.items():
        term = DiffOp.from_laurent(tau.apply_laurent(f))
        for i in range(g.n):
            if beta[i]:
                term = leibniz(term, divided_image_from_levels(g.d_images[i], beta[i]))
        result = result + term
    return result


def generic_compose_images(g, h):
    """Images of g after h, applying g generically to every image of h."""
    from dividedops.autgroup import GeneratorImages

    assert (g.p, g.n, g.precision) == (h.p, h.n, h.precision)
    fn = partial(generic_apply_images, g)
    return GeneratorImages(
        h.p, h.n, h.precision,
        tuple(fn(img) for img in h.x_images),
        tuple(fn(img) for img in h.xinv_images),
        tuple(tuple(fn(img) for img in row) for row in h.d_images))


def reference_relations(g) -> list[tuple[str, bool]]:
    """(name, passed) of every defining relation of the images g, with the
    names and in the order of `validate_generator_images`, each decided by
    full products of `DiffOp`s in the Leibniz loop: every pair of level
    images multiplied both ways, every bracket against the image of d_i^[p^k - 1] assembled by
    `divided_image_from_levels`, and every p-th power taken.  The oracle of
    validation's module-action shortcut and of its theta-tables."""
    p, n, prec = g.p, g.n, g.precision
    xs, xinv, ds = g.x_images, g.xinv_images, g.d_images
    one = DiffOp.one(p, n)
    rows = [(f"unit x[{i + 1}]",
             leibniz(xs[i], xinv[i]) == one and leibniz(xinv[i], xs[i]) == one)
            for i in range(n)]
    rows += [(f"commute x[{i + 1}] x[{j + 1}]", leibniz(xs[i], xs[j]) == leibniz(xs[j], xs[i]))
             for i in range(n) for j in range(i + 1, n)]
    levels = [(i, k) for i in range(n) for k in range(prec)]
    rows += [(f"commute d[{i + 1}]^[p^{k}] d[{j + 1}]^[p^{l}]",
              leibniz(ds[i][k], ds[j][l]) == leibniz(ds[j][l], ds[i][k]))
             for a, (i, k) in enumerate(levels) for j, l in levels[a + 1:]]
    for i, k in levels:
        below = divided_image_from_levels(ds[i], p.p ** k - 1)
        for j in range(n):
            com = leibniz(ds[i][k], xs[j]) - leibniz(xs[j], ds[i][k])
            rows.append((f"bracket [d[{i + 1}]^[p^{k}], x[{j + 1}]]",
                         com == below if i == j else com.is_zero()))
    rows += [(f"p-th power d[{i + 1}]^[p^{k}]", leibniz_power(ds[i][k], p.p).is_zero())
             for i, k in levels]
    return rows


def rand_shift_digits(rng: random.Random, p, n, precision) -> list[list[int]]:
    pp = int(p)
    return [[rng.randint(0, pp - 1) for _ in range(precision)] for _ in range(n)]


def rand_padic(rng: random.Random, p, precision) -> PadicInt:
    pp = int(p)
    return PadicInt(tuple(rng.randint(0, pp - 1) for _ in range(precision)), Prime(pp))


def rand_gl(rng: random.Random, n, lo=-2, hi=2) -> tuple[tuple[int, ...], ...]:
    """A random integer matrix with determinant +-1, entries in [lo, hi]."""
    from dividedops.autgroup import int_det

    while True:
        a = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
        if int_det(a) in (1, -1):
            return a


ROOT = Path(__file__).resolve().parent.parent


def table_digits(p, n) -> int:
    """The most digits K with p^(nK) cells in a small table."""
    k = 1
    while p ** (n * (k + 1)) <= 2 ** 12:
        k += 1
    return k


def subprocess_env() -> dict:
    """Environment for a child Python that imports this checkout's sources."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def conversions(monkeypatch) -> list:
    """Record the digit count of every table conversion."""
    calls = []
    original = theta.ThetaTable.from_diffop

    def spy(op, digits):
        calls.append(digits)
        return original(op, digits)

    monkeypatch.setattr(theta.ThetaTable, "from_diffop", staticmethod(spy))
    return calls


@contextmanager
def tables_off(monkeypatch):
    """theta.TABLE_CELLS = 0, so every rule picks the Newton or DiffOp
    path, with theta.expansion's cache cleared on entry and on exit: no
    table result is read inside, and no Newton result outlives the patch.
    Yields the monkeypatch context for further patches."""
    with monkeypatch.context() as m:
        m.setattr(theta, "TABLE_CELLS", 0)
        theta.expansion.cache_clear()
        try:
            yield m
        finally:
            theta.expansion.cache_clear()

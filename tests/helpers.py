"""Shared random generators for the test suite.

Everything takes an explicit random.Random so suites stay deterministic
under a seed.
"""

import os
import random
import sys
from contextlib import contextmanager
from itertools import product as iproduct
from pathlib import Path

from dividedops import theta
from dividedops.diffop import DiffOp
from dividedops.errors import ParseError
from dividedops.expr import MAX_NESTING, BinOp, Num, Partial, Pow, Var
from dividedops.laurent import LaurentPoly
from dividedops.scalars import PadicInt, Prime, _lucas, _nonzero_binoms


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


def leibniz_product(a: DiffOp, b: DiffOp) -> DiffOp:
    """a * b term by term by the divided-power Leibniz rule

        (x^gamma d^[beta]) (x^delta d^[eps])
            = sum_{j <= beta} C(delta, j) C(beta - j + eps, eps)
              x^{gamma + delta - j} d^[beta - j + eps],

    walking every term of a's coefficient for every Leibniz term: the
    reference that DiffOp.__mul__ is tested against."""
    assert a.p == b.p and a.n == b.n
    pp = a.p.p
    n = a.n
    acc: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for beta, f in a.parts.items():
        for eps, g in b.parts.items():
            for delta, cg in g.terms.items():
                choices = [_nonzero_binoms(delta[i], beta[i], pp) for i in range(n)]
                for combo in iproduct(*choices):
                    cj = cg
                    for _, c in combo:
                        cj = cj * c % pp
                    newbeta = tuple(beta[i] - combo[i][0] + eps[i] for i in range(n))
                    for i in range(n):
                        cj = cj * _lucas(newbeta[i], eps[i], pp) % pp
                    if cj == 0:
                        continue
                    shift = tuple(delta[i] - combo[i][0] for i in range(n))
                    bucket = acc.setdefault(newbeta, {})
                    for gam, cf in f.terms.items():
                        key = tuple(gam[i] + shift[i] for i in range(n))
                        bucket[key] = (bucket.get(key, 0) + cf * cj) % pp
    return DiffOp(a.p, n, {beta: LaurentPoly(a.p, n, terms) for beta, terms in acc.items()})


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


def monomial_compose_images(tau, h):
    """Images of the monomial automorphism tau after h, conjugating every
    image of h."""
    from dividedops.autgroup import GeneratorImages, monomial_apply

    return GeneratorImages(
        h.p, h.n, h.precision,
        tuple(monomial_apply(tau, img) for img in h.x_images),
        tuple(monomial_apply(tau, img) for img in h.xinv_images),
        tuple(tuple(monomial_apply(tau, img) for img in row) for row in h.d_images))


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


def subprocess_env() -> dict:
    """Environment for a child Python that imports this checkout's sources."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


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

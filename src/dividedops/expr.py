"""Operator expression parser and evaluator.

Grammar (whitespace insensitive, explicit '*' between factors):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := nat | 'x'idx('^'int)? | 'd'idx'['nat']' | '(' expr ')'

Multiplication is noncommutative and evaluated in written order.  Syntax
errors report the byte offset of the first offending character, and so
do parentheses nested deeper than MAX_NESTING.

The evaluator folds a run of atoms already in normal order (numbers,
x_j before any d_j, divided powers) into one term c x^gamma d^[beta]
with no operator product, and adds the terms of a '+'/'-' chain into
one dict in place, so a printed normal form evaluates without products.
Long sums and products are walked in loops; only parentheses recurse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diffop import DiffOp
from .errors import MismatchError, ParseError
from .laurent import LaurentPoly
from .scalars import Prime, _lucas, as_prime

# Each level of parentheses costs a few parser and evaluator stack frames,
# so this keeps both well inside the interpreter's recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    index: int
    exponent: int = 1


@dataclass(frozen=True)
class Partial:
    index: int
    order: int


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    power: int


class _Parser:
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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self._fail("expected a number")
        return int(self.text[start:self.pos])

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
        if c.isdigit():
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


def parse(text: str):
    """Parse an operator expression into its syntax tree."""
    return _Parser(text).parse()


def eval_expr(node, p: int | Prime, n: int) -> DiffOp:
    """Evaluate a syntax tree to the unique normal form."""
    p = as_prime(p)
    # walk the left spine of a long sum in a loop, not by recursion: only
    # parentheses nest the right operands
    terms = []
    while isinstance(node, BinOp) and node.op != "*":
        terms.append((node.op == "-", node.right))
        node = node.left
    if not terms:
        return _eval_product(node, p, n)
    terms.append((False, node))
    pp = p.p
    acc: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for negate, term in reversed(terms):
        for beta, f in _eval_product(term, p, n).parts.items():
            bucket = acc.setdefault(beta, {})
            for gam, c in f.terms.items():
                s = (bucket.get(gam, 0) + (-c if negate else c)) % pp
                if s:
                    bucket[gam] = s
                else:
                    del bucket[gam]
    return DiffOp(p, n, {b: LaurentPoly(p, n, t) for b, t in acc.items() if t})


def _eval_product(node, p: Prime, n: int) -> DiffOp:
    """Evaluate a product in written order.

    A run of atoms already in normal order folds into one term
    c x^gamma d^[beta] with no operator product: a number scales c, x_j
    joins gamma while d_j has not appeared in the run, and d_i^[k] joins
    beta by d_i^[a] d_i^[k] = C(a + k, k) d_i^[a + k].  Any other factor
    (x_j after d_j, a power, a parenthesised sum) closes the run, and the
    runs are multiplied.
    """
    factors = []
    while isinstance(node, BinOp) and node.op == "*":
        factors.append(node.right)
        node = node.left
    factors.append(node)
    pp = p.p
    acc = None  # product of the closed runs and other factors
    c, gamma, beta = 1, [0] * n, [0] * n  # the open run
    for factor in reversed(factors):
        if isinstance(factor, Num):
            c = c * factor.value % pp
            continue
        if isinstance(factor, Var):
            j = _variable(factor.index, n, "x")
            if not beta[j]:
                gamma[j] += factor.exponent
                continue
        elif isinstance(factor, Partial):
            i = _variable(factor.index, n, "d")
            if beta[i]:
                c = c * _lucas(beta[i] + factor.order, factor.order, pp) % pp
            beta[i] += factor.order
            continue
        if c != 1 or any(gamma) or any(beta):
            acc = _times(acc, _term(p, n, c, gamma, beta))
            c, gamma, beta = 1, [0] * n, [0] * n
        if isinstance(factor, Var):
            gamma[j] = factor.exponent
        elif isinstance(factor, Pow):
            acc = _times(acc, eval_expr(factor.base, p, n) ** factor.power)
        elif isinstance(factor, BinOp):
            acc = _times(acc, eval_expr(factor, p, n))
        else:
            raise TypeError(f"not a syntax node: {factor!r}")
    if acc is None or c != 1 or any(gamma) or any(beta):
        acc = _times(acc, _term(p, n, c, gamma, beta))
    return acc


def _times(acc: DiffOp | None, op: DiffOp) -> DiffOp:
    return op if acc is None else acc * op


def _variable(index: int, n: int, name: str) -> int:
    if not 1 <= index <= n:
        raise MismatchError(f"variable {name}{index} out of range 1..{n}")
    return index - 1


def _term(p: Prime, n: int, c: int, gamma: list[int], beta: list[int]) -> DiffOp:
    return DiffOp(p, n, {tuple(beta): LaurentPoly(p, n, {tuple(gamma): c})})


def eval_operator(text: str, p, n: int) -> DiffOp:
    return eval_expr(parse(text), p, n)


def eval_laurent(text: str, p, n: int) -> LaurentPoly:
    """Evaluate an expression that must stay inside the coefficient ring."""
    op = eval_operator(text, p, n)
    if not op.is_laurent():
        raise MismatchError(f"'{text}' is a differential operator, not a Laurent polynomial")
    return op.to_laurent()

"""Operator expression parser and evaluator.

Grammar (whitespace insensitive, explicit '*' between factors):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := nat | 'x'idx('^'int)? | 'd'idx'['nat']' | '(' expr ')'

Multiplication is noncommutative and evaluated in written order.  Syntax
errors report the byte offset of the first offending character, and so
do parentheses nested deeper than MAX_NESTING.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .diffop import DiffOp
from .errors import MismatchError, ParseError
from .laurent import LaurentPoly
from .scalars import Prime, as_prime

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


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_expr(node, p: int | Prime, n: int) -> DiffOp:
    """Evaluate a syntax tree to the unique normal form."""
    p = as_prime(p)
    if isinstance(node, Num):
        return DiffOp.from_laurent(LaurentPoly.constant(p, n, node.value))
    if isinstance(node, Var):
        if not 1 <= node.index <= n:
            raise MismatchError(f"variable x{node.index} out of range 1..{n}")
        return DiffOp.from_laurent(LaurentPoly.variable(p, n, node.index, node.exponent))
    if isinstance(node, Partial):
        if not 1 <= node.index <= n:
            raise MismatchError(f"variable d{node.index} out of range 1..{n}")
        return DiffOp.partial(p, n, node.index, node.order)
    if isinstance(node, BinOp):
        # walk the left spine of a long sum or product in a loop, not by
        # recursion: only parentheses nest the right operands
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        acc = eval_expr(node, p, n)
        for step in reversed(spine):
            acc = _BINARY[step.op](acc, eval_expr(step.right, p, n))
        return acc
    if isinstance(node, Pow):
        return eval_expr(node.base, p, n) ** node.power
    raise TypeError(f"not a syntax node: {node!r}")


def eval_operator(text: str, p, n: int) -> DiffOp:
    return eval_expr(parse(text), p, n)


def eval_laurent(text: str, p, n: int) -> LaurentPoly:
    """Evaluate an expression that must stay inside the coefficient ring."""
    op = eval_operator(text, p, n)
    if not op.is_laurent():
        raise MismatchError(f"'{text}' is a differential operator, not a Laurent polynomial")
    return op.to_laurent()

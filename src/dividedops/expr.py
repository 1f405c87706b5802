"""Operator expression parser and evaluator.

Grammar (whitespace insensitive, explicit '*' between factors):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := nat | 'x'idx('^'int)? | 'd'idx'['nat']' | '(' expr ')'

Numbers are ASCII digits [0-9] only, at most as many as int() converts
(sys.get_int_max_str_digits()).  Multiplication is noncommutative and
evaluated in written order.  Syntax errors report the offset of the first
offending character (an index into the text, in characters), and so do
parentheses nested deeper than MAX_NESTING and numbers with too many
digits (at their first digit).

The parser works per token, not per character: one compiled pattern
splits the text into whole tokens (a number, 'x'idx with its optional
'^'int, 'd'idx'['nat']', or one other character), and a loop over the
token list builds the left-nested tree; equal atom tokens share one
node.  Syntax nodes are tuples that compare equal only to nodes of
their own class.  An 'x' or 'd' token stops where a part is missing, so
a malformed one ends just where a character-by-character reading fails;
on an error the text is scanned again up to the failing token to find
the offset.

The evaluator folds a run of atoms already in normal order (numbers,
x_j before any d_j, divided powers) into one term c x^gamma d^[beta]
with no operator product, and adds the terms of a '+'/'-' chain into
one dict in place, so a printed normal form evaluates without products
and without building an operator per term.
Long sums and products are walked in loops; only parentheses recurse.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from itertools import islice

from .diffop import DiffOp
from .errors import MismatchError, ParseError
from .laurent import LaurentPoly
from .scalars import Prime, _lucas, as_prime

# Each level of parentheses costs a few parser and evaluator stack frames,
# so this keeps both well inside the interpreter's recursion limit.
MAX_NESTING = 100


class _Node:
    """Mixin for syntax nodes: a node is a tuple of its fields that equals
    only nodes of its own class, so Var(1, 2) != Partial(1, 2)."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Num(_Node, namedtuple("Num", "value")):
    __slots__ = ()


class Var(_Node, namedtuple("Var", "index exponent", defaults=(1,))):
    __slots__ = ()


class Partial(_Node, namedtuple("Partial", "index order")):
    __slots__ = ()


class BinOp(_Node, namedtuple("BinOp", "op left right")):  # op is '+', '-' or '*'
    __slots__ = ()


class Pow(_Node, namedtuple("Pow", "base power")):
    __slots__ = ()


# One token after any whitespace: a number, an x or d atom, or any other
# single character.  An x or d atom stops where a part is missing, so a
# well-formed one ends in a digit or ']' and a malformed one ends just
# where the character parser would fail.
_TOKEN = re.compile(r"""\s*(
    [0-9]+
  | x \s* (?: [0-9]+ (?: \s* \^ \s* (?: - \s* )? [0-9]* )? )?
  | d \s* (?: [0-9]+ \s* (?: \[ \s* (?: [0-9]+ \s* \]? )? )? )?
  | \S
)""", re.VERBOSE)
_DIGITS = re.compile(r"[0-9]+")


def parse(text: str):
    """Parse an operator expression into its syntax tree."""
    # trailing whitespace is no token; stripping it keeps the scan linear
    tokens = _TOKEN.findall(text, 0, len(text.rstrip()))
    tokens.append("")  # the end of the text
    node, i = _parse_expr(text, tokens, 0, 0, {})
    if i != len(tokens) - 1:
        _fail(text, i, "unexpected trailing input")
    return node


def _parse_expr(text: str, tokens: list[str], i: int, depth: int, atoms: dict):
    """The expression starting at token i, and the index of the token
    after it.  `atoms` maps each atom token met so far to its node, so
    equal atoms share one node.  Only parentheses recurse."""
    new = tuple.__new__  # a node without the named tuple's Python-level constructor
    node = op = None
    while True:
        term = None
        while True:
            tok = tokens[i]
            atom = atoms.get(tok)
            if atom is None:
                if tok == "(":
                    if depth == MAX_NESTING:
                        _fail(text, i, f"parentheses nested deeper than {MAX_NESTING}")
                    atom, i = _parse_expr(text, tokens, i + 1, depth + 1, atoms)
                    if tokens[i] != ")":
                        _fail(text, i, "expected ')'")
                else:
                    atom = atoms[tok] = _atom(text, i, tok)
            i += 1
            c = tokens[i]
            if c == "^":
                i += 1
                power = tokens[i]
                if not "0" <= power[:1] <= "9":
                    _fail(text, i, "expected a number")
                atom = new(Pow, (atom, _int(text, i, power)))
                i += 1
                c = tokens[i]
            term = atom if term is None else new(BinOp, ("*", term, atom))
            if c != "*":
                break
            i += 1
        node = term if op is None else new(BinOp, (op, node, term))
        if c != "+" and c != "-":
            return node, i
        op = c
        i += 1


def _atom(text: str, i: int, tok: str):
    """The node of token i, a number or an x or d atom."""
    kind = tok[:1]
    if "0" <= kind <= "9":
        return Num(_int(text, i, tok))
    if kind == "x":
        if "0" <= tok[-1] <= "9":
            index, _, exponent = "".join(tok[1:].split()).partition("^")
            return Var(_int(text, i, index), _int(text, i, exponent) if exponent else 1)
        _fail(text, i, "expected a number", at_end=True)
    if kind == "d":
        if tok[-1] == "]":
            index, _, order = "".join(tok[1:-1].split()).partition("[")
            return Partial(_int(text, i, index), _int(text, i, order))
        read = "".join(tok.split())
        if read == "d" or read[-1] == "[":
            _fail(text, i, "expected a number", at_end=True)
        _fail(text, i, "expected ']'" if "[" in read else "expected '['", at_end=True)
    _fail(text, i, "expected an atom")


def _int(text: str, i: int, digits: str) -> int:
    """int(digits), a run of digits in token i (an x exponent may carry a
    '-').  A run longer than int() converts is a ParseError at its first
    digit."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        tok = next(islice(_TOKEN.finditer(text), i, None))
        run = next(run for run in _DIGITS.finditer(text, tok.start(1), tok.end())
                   if run.end() - run.start() > limit)
        raise ParseError(f"number of more than {limit} digits", run.start()) from None


def _fail(text: str, i: int, message: str, at_end: bool = False):
    """Raise ParseError at token i: at its first character, or with
    `at_end` (an atom missing a part) just after it.  The text is scanned
    again to find the token.  Past the last token, and for a part missing
    at the end of the text, the offset is the end of the text, trailing
    whitespace included."""
    end = len(text.rstrip())
    m = next(islice(_TOKEN.finditer(text, 0, end), i, None), None)
    offset = end if m is None else m.end() if at_end else m.start(1)
    raise ParseError(message, len(text) if offset == end else offset)


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
        return _close(p, n, *_eval_product(node, p, n))
    terms.append((False, node))
    pp = p.p
    acc: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for negate, term in reversed(terms):
        prod, c, gamma, beta = _eval_product(term, p, n)
        if prod is None:  # a lone run is one term: no DiffOp is built for it
            parts = {tuple(beta): {tuple(gamma): c}} if c else {}
        else:
            parts = {b: f.terms for b, f in _close(p, n, prod, c, gamma, beta).parts.items()}
        for b, f in parts.items():
            bucket = acc.setdefault(b, {})
            for gam, coeff in f.items():
                s = (bucket.get(gam, 0) + (-coeff if negate else coeff)) % pp
                if s:
                    bucket[gam] = s
                else:
                    del bucket[gam]
    return DiffOp(p, n, {b: LaurentPoly(p, n, t) for b, t in acc.items() if t})


def _eval_product(node, p: Prime, n: int):
    """Evaluate a product in written order, as the product of its closed
    runs and other factors (None if there were none) and the open run
    (c, gamma, beta) that ends it.

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
    return acc, c, gamma, beta


def _close(p: Prime, n: int, acc: DiffOp | None, c: int, gamma: list[int],
           beta: list[int]) -> DiffOp:
    """The product acc times the run c x^gamma d^[beta]."""
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

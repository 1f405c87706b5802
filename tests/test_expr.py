"""Expression grammar: parsing, evaluation, printing round trips."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dividedops.diffop import DiffOp
from dividedops.errors import DividedOpsError, MismatchError, ParseError
from dividedops.expr import (
    MAX_NESTING,
    BinOp,
    Num,
    Partial,
    Pow,
    Var,
    eval_expr,
    eval_laurent,
    eval_operator,
    parse,
)
from dividedops.laurent import LaurentPoly

from helpers import leibniz_product, rand_op, reference_parse


def atomwise_eval(node, p, n) -> DiffOp:
    """Evaluate a syntax tree one atom at a time, multiplying with the
    reference Leibniz product: the oracle for eval_expr's folding."""
    if isinstance(node, Num):
        return DiffOp.from_laurent(LaurentPoly.constant(p, n, node.value))
    if isinstance(node, Var):
        return DiffOp.from_laurent(LaurentPoly.variable(p, n, node.index, node.exponent))
    if isinstance(node, Partial):
        return DiffOp.partial(p, n, node.index, node.order)
    if isinstance(node, Pow):
        base = atomwise_eval(node.base, p, n)
        acc = DiffOp.one(p, n)
        for _ in range(node.power):
            acc = leibniz_product(acc, base)
        return acc
    left, right = atomwise_eval(node.left, p, n), atomwise_eval(node.right, p, n)
    if node.op == "*":
        return leibniz_product(left, right)
    return left + right if node.op == "+" else left - right


def test_parse_examples():
    assert parse("d1[2]*x1") == BinOp("*", Partial(1, 2), Var(1, 1))
    assert parse("x1^-1") == Var(1, -1)
    with pytest.raises(ParseError) as err:
        parse("d1[2]*")
    assert err.value.offset == 6


def test_parse_structure():
    assert parse("1 + x2 - d1[1]") == BinOp(
        "-", BinOp("+", Num(1), Var(2, 1)), Partial(1, 1)
    )
    assert parse("(x1 + 1)^3") == Pow(BinOp("+", Var(1, 1), Num(1)), 3)
    assert parse("x1 ^ 2") == Var(1, 2)
    assert parse("2*x1*d2[10]") == BinOp("*", BinOp("*", Num(2), Var(1, 1)), Partial(2, 10))


def test_parse_error_offsets():
    cases = [
        ("", 0),
        ("d1", 2),
        ("d1[", 3),
        ("d1[2", 4),
        ("x", 1),
        ("(x1", 3),
        ("x1 + ", 5),
        ("x1 x2", 3),
        ("^2", 0),
        ("x1^-(", 4),
        ("d1[2 ", 5),
        # digits are ASCII: any other digit is an error at its offset
        ("x1^\u00b2", 3),
        ("x\u0661", 1),
        ("d1[\u0663]", 3),
        ("\u0663", 0),
        ("x12\u0663", 3),
    ]
    for text, offset in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset, text


def test_nodes_compare_by_class():
    assert Var(1, 2) != Partial(1, 2)
    assert not Var(1, 2) == Partial(1, 2)
    assert Var(1, 2) != (1, 2)
    assert Var(1) == Var(1, 1)
    assert hash(Var(1, 2)) == hash(Var(1, 2))
    assert repr(BinOp("*", Num(2), Var(1))) == (
        "BinOp(op='*', left=Num(value=2), right=Var(index=1, exponent=1))")


PARSE_ALPHABET = "0123456789xd[]()+-*^ \t"
PARSE_PIECES = ("x1", "x2", "x3^-2", "^", "^-", "d1[2]", "d2[", "]", "[", "(", ")",
                "+", "-", "*", "12", "0", " ", "\t", "x", "d")
PARSE_ATOMS = ("x1", "x2^-3", "x 3 ^ - 2", "d1[2]", "d 2 [ 10 ]", "7", "0", "(x1 + d1[1])",
               "(2*x2)^3", "d1[1]^2", "x1^2^3")
PARSE_OPS = ("+", "-", "*", " * ", " + ", "\t-\t")


@st.composite
def near_expressions(draw):
    """A well-formed expression, or one with a character replaced or inserted."""
    atoms = draw(st.lists(st.sampled_from(PARSE_ATOMS), min_size=1, max_size=6))
    text = atoms[0] + "".join(draw(st.sampled_from(PARSE_OPS)) + a for a in atoms[1:])
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(text)))
        cut = pos + draw(st.integers(0, 1))
        text = text[:pos] + draw(st.sampled_from(PARSE_ALPHABET)) + text[cut:]
    return text


def parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return ("ParseError", exc.offset, exc.reason)


@given(st.text(alphabet=PARSE_ALPHABET, max_size=24)
       | st.lists(st.sampled_from(PARSE_PIECES), max_size=16).map("".join)
       | near_expressions())
@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
def test_parse_matches_reference_parser(text):
    assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)


def test_numbers_too_long_for_int_match_the_reference():
    big = "7" * (sys.get_int_max_str_digits() + 1)
    for text in (big, "x1^" + big, "x1 ^ -" + big, "x" + big, "d1[" + big + "]",
                 "d" + big + "[2]", "(x1)^" + big, "x1 + " + big + "*x2"):
        got = parse_outcome(parse, text)
        assert got == parse_outcome(reference_parse, text)
        assert got[:2] == ("ParseError", text.index(big)), text[:12]


def test_parse_matches_reference_on_printed_forms():
    rng = random.Random(31)
    for p, n in ((2, 1), (3, 2), (101, 3)):
        for _ in range(20):
            text = str(rand_op(rng, p, n, max_order=2 * p))
            assert parse(text) == reference_parse(text)
    text = "(" * MAX_NESTING + "x1^-2*d1[3]" + ")" * MAX_NESTING
    assert parse(text) == reference_parse(text)


def test_eval_normalizes():
    assert str(eval_operator("d1[2]*x1", 3, 1)) == "x1*d1[2] + d1[1]"
    assert str(eval_operator("(d1[1]+x1^-1)^2", 2, 1)) == "0"
    assert str(eval_operator("d1[1]*d1[1]", 2, 1)) == "0"


def test_eval_written_order_matters():
    left = eval_operator("d1[1]*x1", 5, 1)
    right = eval_operator("x1*d1[1]", 5, 1)
    assert left != right
    assert left - right == DiffOp.one(5, 1)


def test_eval_coefficient_reduction():
    assert str(eval_operator("7*x1", 5, 1)) == "2*x1"
    assert str(eval_operator("x1 - x1", 5, 1)) == "0"


def test_eval_range_checks():
    with pytest.raises(MismatchError):
        eval_operator("x3", 3, 2)
    with pytest.raises(MismatchError):
        eval_operator("d2[1]", 3, 1)


def test_eval_laurent():
    f = eval_laurent("x1^2 + 2*x2^-1", 3, 2)
    assert f == LaurentPoly(3, 2, {(2, 0): 1, (0, -1): 2})
    with pytest.raises(MismatchError):
        eval_laurent("d1[1]", 3, 1)


def test_print_parse_round_trip():
    rng = random.Random(23)
    for p, n in ((2, 1), (3, 2), (5, 2)):
        for _ in range(40):
            op = rand_op(rng, p, n)
            assert eval_operator(str(op), p, n) == op


WRITTEN_ORDER = ("d1[2]*x1", "x2*d1[3]*x1", "d1[2]*d1[3]", "3*d1[2]*5", "x1*d1[1]*x1")


def test_fold_matches_atomwise_evaluation():
    rng = random.Random(29)
    for p in (2, 3, 5, 101):
        for text in WRITTEN_ORDER:
            assert eval_operator(text, p, 2) == atomwise_eval(parse(text), p, 2), (text, p)
        for n in (1, 2, 3):
            for _ in range(15):
                text = str(rand_op(rng, p, n))
                assert eval_operator(text, p, n) == atomwise_eval(parse(text), p, n), text
            # random products and sums of atoms in any order, powers included
            atoms = [f"x{rng.randint(1, n)}^{rng.randint(-2, 2)}" for _ in range(3)]
            atoms += [f"d{rng.randint(1, n)}[{rng.choice((1, 2, p - 1, p, p + 1))}]" for _ in range(3)]
            atoms += [str(rng.randint(0, 2 * p)), "(x1 + d1[1])^2"]
            for _ in range(15):
                terms = ["*".join(rng.choices(atoms, k=rng.randint(1, 5)))
                         for _ in range(rng.randint(1, 3))]
                text = " - ".join(terms)
                assert eval_operator(text, p, n) == atomwise_eval(parse(text), p, n), text


def test_long_sums_and_products_do_not_recurse():
    n_terms = 20000
    total = eval_operator(" + ".join(f"x1^{k}" for k in range(n_terms)), 3, 1)
    assert total.to_laurent() == LaurentPoly(3, 1, {(k,): 1 for k in range(n_terms)})
    # each x1 after d1[1] closes a run, so the 10,000 runs x1*d1[1] are
    # multiplied one by one; (x d)^2 = x d + 2 x^2 d^[2] = x d at p = 2
    theta = eval_operator("*".join(["x1", "d1[1]"] * (n_terms // 2)), 2, 1)
    assert theta == eval_operator("x1*d1[1]", 2, 1)
    k = n_terms // 4
    folded = eval_operator("*".join(["x1", "2", "x2^-1", "d1[0]"] * k), 5, 2)
    assert folded == DiffOp.monomial(5, 2, (k, -k), pow(2, k, 5))


@given(st.text(alphabet="0123456789xd[]()+-*^ ", max_size=16),
       st.sampled_from((2, 3, 5, 101)), st.integers(1, 3))
@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
def test_eval_operator_returns_or_raises_typed_error(text, p, n):
    try:
        result = eval_operator(text, p, n)
    except DividedOpsError:
        return
    assert isinstance(result, DiffOp)

"""Command line interface: output conventions, exit codes, interchange."""

import copy
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dividedops.autgroup import (
    FactoredAut,
    GeneratorImages,
    MonomialAut,
    ShiftVector,
    factorize,
    matrix_shift,
    monomial_generator_images,
    shift_compose_images,
    shift_generator_images,
)
from dividedops.cli import main
from dividedops.diffop import DiffOp
from dividedops.errors import DividedOpsError, NotSigmaForm, NumberTooLong
from dividedops.expr import MAX_NESTING, eval_operator
from dividedops.interchange import (
    dumps,
    images_from_dict,
    images_to_dict,
    op_from_dict,
    op_to_dict,
)
from dividedops.laurent import LaurentPoly, term_string

from helpers import subprocess_env

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_example(capsys):
    code, out, _ = run(capsys, "normalize", "d1[2]*x1", "--p", "3", "--n", "1")
    assert code == 0
    assert out.strip() == "x1*d1[2] + d1[1]"


def test_normalize_corollary_instance(capsys):
    code, out, _ = run(capsys, "normalize", "(d1[1]+x1^-1)^2", "--p", "2")
    assert code == 0
    assert out.strip() == "0"


def test_normalize_machine_round_trip(capsys):
    code, out, _ = run(capsys, "normalize", "d1[2]*x1 + x2^-3", "--p", "5", "--n", "2",
                       "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert op_from_dict(data) == eval_operator("d1[2]*x1 + x2^-3", 5, 2)


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "d1[2]*", "--p", "3")
    assert code == 1
    assert "offset 6" in err


def test_non_ascii_digit_is_parse_error(capsys):
    code, out, err = run(capsys, "normalize", "x1^\u00b2", "--p", "3")
    assert code == 1
    assert out == ""
    assert "offset 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, offset", [
    ("1" * 5000, 0),
    ("x1^" + "1" * 5000, 3),
    ("x1 + d2[" + "7" * 4301 + "]", 8),
])
def test_number_too_long_for_int_is_parse_error(capsys, text, offset):
    # int() converts at most sys.get_int_max_str_digits() digits
    code, out, err = run(capsys, "normalize", text, "--p", "3", "--n", "2")
    assert code == 1 and not out
    assert f"more than {sys.get_int_max_str_digits()} digits (offset {offset})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_result_too_long_to_write_is_an_error(capsys, fmt):
    # both numbers parse, but the exponent of the result has about 5,000
    # digits, more than str() converts
    text = f"(x1^{'9' * 3000})^{'9' * 2000}"
    code, out, err = run(capsys, "normalize", text, "--p", "3", "--format", fmt)
    assert code == 1 and not out
    limit = sys.get_int_max_str_digits()
    assert err == f"error: cannot write a number of more than {limit} digits\n"


def test_parse_error_offsets_count_characters(tmp_path, capsys):
    # non-ASCII text before the fault: offsets count characters, not bytes
    code, _, err = run(capsys, "normalize", "x1 +\u2003\u00a0)", "--p", "3")
    assert code == 1 and "offset 6" in err
    path = tmp_path / "images.json"
    path.write_bytes('{"\u00e9": '.encode("utf-8") + b"\xff}")  # the bad byte is byte 7
    code, _, err = run(capsys, "extract", str(path))
    assert code == 1 and "is not UTF-8 text" in err and "offset 6" in err
    path.write_text('{"\u00e9\u00e9": x}', encoding="utf-8")
    code, _, err = run(capsys, "extract", str(path))
    assert code == 1 and "bad JSON" in err and "offset 7" in err
    # "\r\n" counts two characters in both kinds of error
    path.write_bytes('{\r\n"\u00e9": '.encode("utf-8") + b"\xff}")
    code, _, err = run(capsys, "extract", str(path))
    assert code == 1 and "is not UTF-8 text" in err and "offset 8" in err
    path.write_bytes('{\r\n"\u00e9": x}'.encode("utf-8"))
    code, _, err = run(capsys, "extract", str(path))
    assert code == 1 and "bad JSON" in err and "offset 8" in err


def test_normalize_long_flat_sum(capsys):
    text = " + ".join(f"x1^{k}" for k in range(1, 1200))
    code, out, _ = run(capsys, "normalize", text)
    assert code == 0
    assert len(out.strip().split(" + ")) == 1199


def test_deep_nesting_is_parse_error(capsys):
    code, _, err = run(capsys, "normalize", "(" * 5000 + "x1" + ")" * 5000)
    assert code == 1
    assert f"offset {MAX_NESTING}" in err
    code, out, _ = run(capsys, "normalize", "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING)
    assert code == 0
    assert out.strip() == "x1"


def test_inverted_window_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "kernel", "--window", "5:1")
    assert code == 1
    assert "LO <= HI" in err


def _extract_non_shift(tmp_path) -> list[str]:
    tau = MonomialAut.create([[1, 1], [0, 1]], [1, 2], 3)
    aut = FactoredAut(ShiftVector.from_digits([[1, 0], [2, 1]], 3), tau)
    path = tmp_path / "images.json"
    path.write_text(dumps(images_to_dict(aut.to_images())))
    return ["extract", str(path), "--p", "3", "--n", "2"]


# one trigger per row of the CLI's error table, in the table's order
@pytest.mark.parametrize("argv, line, exit_code", [
    (lambda _: ["normalize", "x1", "--p", "6"], "usage error: 6 is not prime", 1),
    (lambda _: ["normalize", "d1[2]*", "--p", "3"],
     "syntax error: expected an atom (offset 6)", 1),
    (lambda _: ["sigma", "--digits", "1", "apply", "d1[2]", "--p", "2", "--precision", "1"],
     "insufficient precision: index 2 needs 2 digits, precision is 1", 3),
    (_extract_non_shift,
     "invalid automorphism input: images do not fix the variables pointwise", 4),
    (lambda _: ["normalize", "x2", "--p", "3", "--n", "1"],
     "usage error: variable x2 out of range 1..1", 1),
    (lambda _: ["verify", "kernel", "--p", "3", "--window=-5000:5000"],
     "usage error: window holds 10001 monomials, budget is 10000", 1),
    (lambda _: ["normalize", f"(x1^{'9' * 3000})^{'9' * 2000}", "--p", "3"],
     f"error: cannot write a number of more than {sys.get_int_max_str_digits()} digits", 1),
], ids=["usage", "parse", "precision", "bad-aut", "mismatch", "window", "other"])
def test_error_table_row(tmp_path, capsys, argv, line, exit_code):
    assert run(capsys, *argv(tmp_path)) == (exit_code, "", line + "\n")


def test_act(capsys):
    code, out, _ = run(capsys, "act", "d1[2]", "x1^5", "--p", "3")
    assert code == 0
    assert out.strip() == "x1^3"


def test_act_rejects_operator_operand(capsys):
    code, _, _ = run(capsys, "act", "d1[1]", "d1[1]", "--p", "3")
    assert code == 1


def test_sigma_apply(capsys):
    code, out, _ = run(capsys, "sigma", "--digits", "1", "apply", "d1[1]", "--p", "2")
    assert code == 0
    assert out.strip() == "d1[1] + x1^-1"


RESULT_COMMANDS = [
    ("normalize", "d1[2]*x1 + x2^-3", "--p", "5", "--n", "2"),
    ("act", "d1[2]*x1 + x2^-1", "x1^5*x2 + 3", "--p", "3", "--n", "2"),
    ("sigma", "--digits", "1,1;0,1", "apply", "d1[1]*d2[2] + x1", "--p", "2", "--n", "2"),
]


@pytest.mark.parametrize("argv", RESULT_COMMANDS, ids=lambda argv: argv[0])
def test_machine_format_renders_no_text(monkeypatch, capsys, argv):
    code, want, _ = run(capsys, *argv, "--format", "machine")
    assert code == 0

    def refuse(self):
        raise AssertionError("text rendered for machine output")

    monkeypatch.setattr(DiffOp, "__str__", refuse)
    monkeypatch.setattr(LaurentPoly, "__str__", refuse)
    assert run(capsys, *argv, "--format", "machine") == (0, want, "")


@pytest.mark.parametrize("argv", RESULT_COMMANDS, ids=lambda argv: argv[0])
def test_text_format_builds_no_machine_dict(monkeypatch, capsys, argv):
    code, want, _ = run(capsys, *argv)
    assert code == 0

    def refuse(value):
        raise AssertionError("machine dict built for text output")

    for name in ("op_to_dict", "poly_to_dict", "dumps"):
        monkeypatch.setattr(f"dividedops.cli.{name}", refuse)
    assert run(capsys, *argv) == (0, want, "")


def test_build_sigma_extract_round_trip(tmp_path, capsys):
    path = tmp_path / "sigma.json"
    code, _, _ = run(capsys, "build-sigma", "--digits", "1,1", "--p", "2",
                     "--precision", "2", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "extract", str(path), "--p", "2", "--precision", "2")
    assert code == 0
    assert out.strip() == "s[1] = 1 + 1*2"


def test_build_sigma_unwritable_output_is_usage_error(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "x.json"
    code, _, err = run(capsys, "build-sigma", "--digits", "1,0", "--out", str(out))
    assert code == 1
    assert "cannot write" in err


def test_extract_rejects_malformed_images(tmp_path, capsys):
    g = shift_generator_images(ShiftVector.from_digits([[1, 0]], 2))
    data = images_to_dict(g)
    # corrupt the level-0 image: perturbation on x^{+1} instead of x^{-1}
    data["d_images"][0][0]["terms"][-1]["x_exp"] = [1]
    path = tmp_path / "bad.json"
    path.write_text(dumps(data))
    code, _, err = run(capsys, "extract", str(path))
    assert code == 4


@pytest.mark.parametrize("digits", [[1, 0], [0, 0]])
def test_extract_oversized_divided_index_is_not_sigma_form(tmp_path, capsys, digits):
    # d1^[4] needs three digits at precision 2, whatever the lower digit is
    g = shift_generator_images(ShiftVector.from_digits([digits], 2))
    rows = ((g.d_images[0][0], g.d_images[0][1] + DiffOp.partial(2, 1, 1, 4)),)
    bad = GeneratorImages(g.p, g.n, g.precision, g.x_images, g.xinv_images, rows)
    path = tmp_path / "bad.json"
    path.write_text(dumps(images_to_dict(bad)))
    code, _, err = run(capsys, "extract", str(path))
    assert code == 4
    assert "perturbation of d1^[2] has positive order" in err


def test_extract_bad_json_is_parse_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "extract", str(path))
    assert code == 1


def test_extract_missing_file(capsys):
    code, _, _ = run(capsys, "extract", "/nonexistent/sigma.json")
    assert code == 1


def test_factor_command(tmp_path, capsys):
    from dividedops.autgroup import compose_images

    s = ShiftVector.from_digits([[1, 0], [0, 1]], 2)
    tau = MonomialAut.create(((0, 1), (1, 0)), (1, 1), 2)
    g = compose_images(shift_generator_images(s), monomial_generator_images(tau, 2))
    path = tmp_path / "aut.json"
    path.write_text(dumps(images_to_dict(g)))
    code, out, _ = run(capsys, "factor", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s[1] = 1"
    assert lines[1] == "s[2] = 1*2"
    assert lines[2] == "matrix = [[0, 1], [1, 0]]"
    assert lines[3] == "scalars = [1, 1]"


@pytest.mark.parametrize("case", ["positive order", "not a monomial", "sits on"])
def test_factor_reports_perturbation_in_the_frame_of_the_images(tmp_path, capsys, case):
    # g = tau after the shift t, whose top digit of t_1 is 0; the top
    # level image of d1 is read against tau(x1^-9) = lambda_1^-1 x^(-9 A e_1)
    p, prec, target = 3, 3, 9
    a = ((2, 1), (1, 1))
    t = ShiftVector.from_digits([[2, 1, 0], [1, 0, 2]], p)
    tau = MonomialAut.create(a, (2, 1), p)
    g = FactoredAut(matrix_shift(a, t), tau).to_images()
    top = tuple(-target * row[0] for row in a)
    off = (top[0] + 1, top[1])
    perturbation, reason = {
        "positive order": (DiffOp.partial(p, 2, 1), "has positive order"),
        "not a monomial": (DiffOp.monomial(p, 2, (top[0] + off[0], top[1] + off[1]))
                           + DiffOp.monomial(p, 2, off), "is not a monomial"),
        "sits on": (DiffOp.monomial(p, 2, off), f"sits on x^{off}, expected x^{top}"),
    }[case]
    rows = [list(row) for row in g.d_images]
    rows[0][prec - 1] = rows[0][prec - 1] + perturbation
    bad = GeneratorImages(g.p, g.n, prec, g.x_images, g.xinv_images, tuple(map(tuple, rows)))
    with pytest.raises(NotSigmaForm) as exc:
        factorize(bad)
    assert str(exc.value) == f"perturbation of d1^[{target}] {reason}"
    path = tmp_path / "aut.json"
    path.write_text(dumps(images_to_dict(bad)))
    code, _, err = run(capsys, "factor", str(path))
    assert code == 4
    assert "Traceback" not in err
    assert str(exc.value) in err


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--p", "2", "--n", "1")
    assert code == 0
    assert "OK" in out


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--p", "2", "--n", "1", "--seed", "3")
    assert code == 0
    assert "OK" in out


@pytest.mark.parametrize("suite", ["kernel", "all"])
def test_verify_window_of_negative_exponents_only(suite):
    # the polynomial window keeps the constant monomial when --window stays below 0
    out = subprocess.run([sys.executable, "-m", "dividedops.cli", "verify", suite,
                          "--window=-3:-1"],
                         capture_output=True, text=True, env=subprocess_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "OK"
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("fmt, golden", [("text", "verify_all_p3_n2_seed0.txt"),
                                         ("machine", "verify_all_p3_n2_seed0.json")])
def test_verify_transcript_matches_golden(capsys, fmt, golden):
    code, out, err = run(capsys, "verify", "all", "--p", "3", "--n", "2", "--seed", "0",
                         "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


def test_verify_failure_exit_code(capsys):
    # a window that misses x^-1 makes the kernel check legitimately fail
    code, out, err = run(capsys, "verify", "kernel", "--p", "3", "--n", "1",
                         "--window", "0:4")
    assert (code, err) == (2, "")
    assert out.splitlines()[-1] == "FAILED"


def test_verify_machine_format(capsys):
    code, out, _ = run(capsys, "verify", "kernel", "--p", "3", "--n", "1",
                       "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["suites"]


def test_images_file_round_trip(tmp_path):
    s = ShiftVector.from_digits([[1, 2, 0], [2, 0, 1]], 3)
    g = shift_generator_images(s)
    text = dumps(images_to_dict(g))
    assert images_from_dict(json.loads(text)) == g
    # serialization is stable byte for byte
    assert dumps(images_to_dict(images_from_dict(json.loads(text)))) == text


def test_operator_dict_round_trip():
    op = eval_operator("d1[3]*x1^-2 + 2*x2*d2[1] + 1", 5, 2)
    assert op_from_dict(op_to_dict(op)) == op


def _set(path, value):
    def mutate(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value
    return mutate


def _duplicate_first_term(data):
    terms = data["d_images"][0][0]["terms"]
    terms.append(copy.deepcopy(terms[0]))


FIRST_TERM = ("d_images", 0, 0, "terms", 0)


@pytest.mark.parametrize("mutate", [
    _set(FIRST_TERM + ("coeff",), 1.7),
    _set(FIRST_TERM + ("coeff",), True),
    _set(FIRST_TERM + ("x_exp", 0), 1.9),
    _set(FIRST_TERM + ("d_exp", 0), True),
    _set(("p",), 2.0),
    _set(("n",), True),
    _set(("precision",), 2.0),
    _set(("p",), 4),
    _set(("precision",), 0),
    _duplicate_first_term,
    lambda data: data.pop("d_images"),
    lambda data: data["x_images"][0].pop("terms"),
    lambda data: data["d_images"][0][0]["terms"][0].pop("coeff"),
    _set(("d_images",), "levels"),
    _set(("d_images", 0), 7),
    _set(("x_images",), {"0": 1}),
    _set(FIRST_TERM + ("x_exp",), [0, 0, 0]),
    _set(FIRST_TERM + ("d_exp",), 1),
    _set(FIRST_TERM, [1, [0], [1]]),
    _set(FIRST_TERM + ("coeff",), 3),
    _set(FIRST_TERM + ("coeff",), -1),
    _set(FIRST_TERM + ("coeff",), 0),
    _set(FIRST_TERM + ("coeff",), 2),
    _set(FIRST_TERM + ("junk",), 3),
    _set(("d_images", 0, 0, "junk"), 3),
    _set(("junk",), 3),
], ids=[
    "float-coeff", "bool-coeff", "float-exponent", "bool-d-exponent", "float-p", "bool-n",
    "float-precision", "non-prime-p", "zero-precision", "repeated-term", "missing-d_images",
    "missing-terms", "missing-coeff", "string-d_images", "int-row", "object-x_images",
    "long-x_exp", "int-d_exp", "list-term", "coeff-above-p", "negative-coeff", "zero-coeff",
    "coeff-p", "unknown-term-field", "unknown-operator-field", "unknown-top-level-field",
])
def test_images_reader_rejects_malformed_files(tmp_path, capsys, mutate):
    s = ShiftVector.from_digits([[1, 0], [0, 1]], 2)
    tau = MonomialAut.create(((0, 1), (1, 0)), (1, 1), 2)
    data = images_to_dict(shift_compose_images(s, monomial_generator_images(tau, 2)))
    mutate(data)
    with pytest.raises(DividedOpsError):
        images_from_dict(data)
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "factor", str(path), "--p", "2", "--n", "2")
    assert code == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", [
    b'{"p": 2, "n": "\xe9"}',
    b"[" * 200_000 + b"]" * 200_000,
    b'{"p": ' + b"1" * 5000 + b"}",
], ids=["latin-1", "nested-200000-deep", "5000-digit-integer"])
def test_unreadable_images_file_is_parse_error(tmp_path, capsys, raw):
    path = tmp_path / "aut.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "factor", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("syntax error: ")
    assert str(path) in err
    assert "Traceback" not in err


FIELDS = ("p", "n", "precision", "terms", "coeff", "x_exp", "d_exp",
          "x_images", "xinv_images", "d_images")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.fixed_dictionaries({}, optional={key: inner for key in FIELDS}),
    max_leaves=12)
OP_FILES = (op_to_dict(eval_operator("3*x1^-2*d1[7] + d1[5]*x1 + 2", 5, 1)),
            op_to_dict(eval_operator("d1[1]*x2^-1 + x1*d2[3]", 2, 2)))
IMAGE_FILES = (images_to_dict(shift_generator_images(ShiftVector.from_ints([3, 1], 2, 2))),)


@st.composite
def near_valid(draw, files):
    """One of `files` with one subtree, at a random depth, replaced by an
    arbitrary JSON value."""
    doc = copy.deepcopy(draw(st.sampled_from(files)))
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not child or not isinstance(child, (dict, list)) or draw(st.booleans()):
            node[key] = draw(JSON_VALUES)
            return doc
        node = child


@given(st.tuples(st.just(op_from_dict), near_valid(OP_FILES) | JSON_VALUES)
       | st.tuples(st.just(images_from_dict), near_valid(IMAGE_FILES) | JSON_VALUES))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_interchange_readers_return_or_raise_typed_error(case):
    reader, data = case
    try:
        result = reader(data)
    except DividedOpsError:
        return
    assert isinstance(result, DiffOp if reader is op_from_dict else GeneratorImages)


WRONG_SCALARS = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
                 | st.integers(-3, 3))
DUMPS_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(FIELDS), inner, max_size=4)
    | st.fixed_dictionaries({"coeff": WRONG_SCALARS, "d_exp": st.lists(WRONG_SCALARS, max_size=3),
                             "x_exp": st.lists(WRONG_SCALARS, max_size=3)})
    | st.fixed_dictionaries({"coeff": st.integers(), "d_exp": st.lists(st.integers(), max_size=3),
                             "x_exp": st.lists(st.integers(), max_size=3) | st.tuples(inner)}),
    max_leaves=16)


@given(DUMPS_VALUES)
@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
def test_dumps_matches_json_module(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_dumps_rejects_non_string_keys():
    with pytest.raises(TypeError):
        dumps({"terms": [{1: 2}]})


@pytest.mark.parametrize("obj", [
    {"terms": [{"coeff": 1, "d_exp": [0], "x_exp": [10 ** 5000]}]},
    {"precision": 10 ** 5000},
])
def test_dumps_rejects_ints_too_long_to_write(obj):
    with pytest.raises(NumberTooLong, match="cannot write a number"):
        dumps(obj)


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, dividedops.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=subprocess_env())
    assert out.stdout.strip() == "False"


def test_table_validation_leaves_numpy_unloaded():
    code = ("import sys\n"
            "from dividedops import autgroup, theta\n"
            "g = autgroup.shift_generator_images(autgroup.ShiftVector.from_ints([5, 7], 3, 2))\n"
            "assert 3 ** (2 * 2) <= theta.TABLE_CELLS\n"
            "assert autgroup.validate_generator_images(g).passed\n"
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=subprocess_env())
    assert out.stdout.strip() == "False"


def test_verify_and_table_validation_run_without_numpy():
    code = ("import sys\n"
            "sys.modules['numpy'] = None  # any import of numpy now fails\n"
            "from dividedops import autgroup\n"
            "from dividedops.cli import main\n"
            "g = autgroup.shift_generator_images(autgroup.ShiftVector.from_ints([5, 7], 3, 2))\n"
            "assert autgroup.validate_generator_images(g).passed\n"
            "sys.exit(main(['verify', 'all', '--p', '2', '--n', '2']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "OK"


BIG_P = 65521  # the largest prime below 2^16
S_BIG = 65520 + 1 * BIG_P  # the shift digits 65520, 1


@pytest.mark.parametrize("argv, expected", [
    (["normalize", "d1[3]*x1"],
     [(1, (1,), (3,)), (math.comb(1, 1), (0,), (2,))]),
    (["act", "d1[40000]", "x1^60000"],
     [(math.comb(60000, 40000), (20000,), None)]),
    (["sigma", "--digits", "65520,1", "apply", "d1[3]", "--precision", "2"],
     [(math.comb(S_BIG, 3 - j), (j - 3,), (j,)) for j in (3, 2, 1, 0)]),
])
def test_largest_prime_within_memory_cap(argv, expected):
    cap = 600 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = subprocess.run([sys.executable, "-m", "dividedops.cli", *argv, "--p", str(BIG_P)],
                          capture_output=True, text=True, env=subprocess_env(),
                          preexec_fn=limit, timeout=120)
    assert done.returncode == 0, done.stderr
    terms = [term_string(c % BIG_P, x, d) for c, x, d in expected if c % BIG_P]
    assert done.stdout.strip() == (" + ".join(terms) or "0")

"""Command line front end.

Exit codes: 0 success, 2 verification failure.  An error prints one line
to stderr and exits by `ERROR_EXITS`, whose first matching row wins:
usage errors, operand mismatches and windows over the size budget print
"usage error:" and exit 1, syntax errors "syntax error:" and 1,
insufficient precision 3, invalid automorphism input 4, and any other
`DividedOpsError` "error:" and 1.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import TYPE_CHECKING, Callable

from .diffop import DiffOp
from .errors import (
    DividedOpsError,
    InsufficientPrecision,
    InvalidAutomorphism,
    MismatchError,
    NotSigmaForm,
    ParseError,
    WindowTooLarge,
)
from .expr import eval_laurent, eval_operator
from .laurent import LaurentPoly
from .scalars import Prime, read_prime

# the automorphism half (autgroup, theta, oracles, report) and the JSON
# writers are imported by the commands that use them, so that normalize
# and act load neither
if TYPE_CHECKING:
    from .autgroup import ShiftVector
    from .oracles import ExponentWindow
    from .report import CheckReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_PRECISION = 3
EXIT_BAD_AUT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the interface reserves
    # 2 for verification failures, so reroute through the error mapping
    def error(self, message):
        raise _UsageError(message)


# (error classes, stderr prefix, exit code); `main` takes the first row that matches
ERROR_EXITS = (
    (_UsageError, "usage error", EXIT_USAGE),
    (ParseError, "syntax error", EXIT_USAGE),
    (InsufficientPrecision, "insufficient precision", EXIT_PRECISION),
    (InvalidAutomorphism, "invalid automorphism input", EXIT_BAD_AUT),
    ((MismatchError, WindowTooLarge), "usage error", EXIT_USAGE),
    (DividedOpsError, "error", EXIT_USAGE),
)


def _check_common(args):
    """Check the options every command shares, once; --p becomes a Prime."""
    args.p = read_prime(args.p)
    if args.n < 1:
        raise _UsageError("need --n at least 1")
    if args.precision < 1:
        raise _UsageError("need --precision at least 1")


def _window(args) -> ExponentWindow:
    from .oracles import ExponentWindow

    lo, hi = args.window or (-2 * args.p.p, 2 * args.p.p)
    return ExponentWindow.cube(lo, hi, args.n)


def _suite_precision(args) -> int:
    """Largest level count whose top divided index stays within --order-bound."""
    k = 1
    while k < args.precision and args.p.p ** k <= args.order_bound:
        k += 1
    return k


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must look like LO:HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window needs LO <= HI, got {text!r}")
    return lo, hi


def _parse_digit_rows(args) -> ShiftVector:
    from .autgroup import ShiftVector

    rows = []
    for chunk in args.digits.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise _UsageError("empty digit list")
        try:
            row = [int(d) for d in chunk.split(",")]
        except ValueError:
            raise _UsageError(f"bad digit list {chunk!r}")
        rows.append(row)
    if len(rows) != args.n:
        raise _UsageError(f"got digits for {len(rows)} variables, session has n={args.n}")
    padded = []
    for row in rows:
        if len(row) > args.precision:
            raise _UsageError(f"{len(row)} digits exceed precision {args.precision}")
        if any(not 0 <= d < args.p.p for d in row):
            raise _UsageError(f"digits must lie in [0, {args.p.p})")
        padded.append(row + [0] * (args.precision - len(row)))
    return ShiftVector.from_digits(padded, args.p)


def format_padic_digits(digits, p: int) -> str:
    """Render a digit vector as a sum of digit * p^k contributions."""
    pieces = []
    for k, d in enumerate(digits):
        if d == 0:
            continue
        if k == 0:
            pieces.append(str(d))
        elif k == 1:
            pieces.append(f"{d}*{p}")
        else:
            pieces.append(f"{d}*{p}^{k}")
    return " + ".join(pieces) if pieces else "0"


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _random_shift(rng: random.Random, p: Prime, n: int, precision: int) -> ShiftVector:
    from .autgroup import ShiftVector

    return ShiftVector.from_digits(
        [[rng.randint(0, p.p - 1) for _ in range(precision)] for _ in range(n)], p
    )


def kernel_report(args) -> CheckReport:
    from .oracles import ExponentWindow, kernel_bruteforce
    from .report import CheckReport

    p, n = args.p, args.n
    rep = CheckReport(f"frobenius kernel p={p.p} n={n}")
    window = _window(args)
    poly_window = ExponentWindow.cube(0, max(0, max(window.hi)), n)
    for i in range(1, n + 1):
        expected = tuple(-1 if j == i - 1 else 0 for j in range(n))
        basis = kernel_bruteforce(i, window, p, n)
        rep.add(f"kernel variable {i} window {window.lo[0]}..{window.hi[0]}",
                len(basis) == 1 and basis[0].terms == {expected: 1},
                "; ".join(str(f) for f in basis) or "empty")
        poly_basis = kernel_bruteforce(i, poly_window, p, n)
        rep.add(f"kernel variable {i} polynomial window", poly_basis == [],
                "; ".join(str(f) for f in poly_basis) or "empty")
    return rep


def corollary_report(args) -> CheckReport:
    from .oracles import pth_power_instances
    from .report import CheckReport

    p, n = args.p, args.n
    rep = CheckReport(f"binomial p-th power p={p.p} n={n}")
    instances = pth_power_instances(p, n, random.Random(args.seed), trials=30)
    rep.tally("p-th power identity", instances, "random instances")
    return rep


def grouplaw_report(args) -> CheckReport:
    from .autgroup import shift_compose_images, shift_generator_images
    from .report import CheckReport

    p, n = args.p, args.n
    prec = _suite_precision(args)
    rng = random.Random(args.seed)
    rep = CheckReport(f"shift group law p={p.p} n={n} precision={prec}")
    draws = ((_random_shift(rng, p, n, prec), _random_shift(rng, p, n, prec))
             for _ in range(5))
    rep.tally("composition matches digit addition", (
        (shift_generator_images(s + t) == shift_compose_images(s, shift_generator_images(t)),
         lambda: f"s={s.digit_rows()} t={t.digit_rows()}")
        for s, t in draws), "random pairs")
    return rep


def roundtrip_report(args) -> CheckReport:
    from .autgroup import GeneratorImages, extract_digits, shift_generator_images
    from .report import CheckReport

    p, n = args.p, args.n
    prec = _suite_precision(args)
    rng = random.Random(args.seed)
    rep = CheckReport(f"digit extraction round trip p={p.p} n={n} precision={prec}")
    shifts = (_random_shift(rng, p, n, prec) for _ in range(5))
    rep.tally("extract(build(s)) = s", (
        (extract_digits(shift_generator_images(s)) == s, lambda: f"s={s.digit_rows()}")
        for s in shifts), "random vectors")

    ident = GeneratorImages.identity(p, n, prec)
    corrupted_rows = list(list(row) for row in ident.d_images)
    corrupted_rows[0][0] = ident.d_images[0][0] + DiffOp.from_laurent(
        LaurentPoly.variable(p, n, 1)
    )
    corrupted = GeneratorImages(
        p, n, prec,
        ident.x_images, ident.xinv_images,
        tuple(tuple(row) for row in corrupted_rows),
    )
    try:
        extract_digits(corrupted)
        rep.add("malformed input rejected", False, "extraction accepted d1 + x1")
    except NotSigmaForm:
        rep.add("malformed input rejected", True)
    return rep


def relations_report(args) -> CheckReport:
    from .oracles import relation_suite

    max_index = min(args.p.p ** 3, 125)
    return relation_suite(args.p, args.n, max_index, trials=40, seed=args.seed)


SUITE_REPORTS = {
    "relations": relations_report,
    "kernel": kernel_report,
    "corollary": corollary_report,
    "grouplaw": grouplaw_report,
    "roundtrip": roundtrip_report,
}
SUITES = (*SUITE_REPORTS, "all")


def run_suites(args) -> list[CheckReport]:
    chosen = SUITE_REPORTS if args.suite == "all" else (args.suite,)
    return [SUITE_REPORTS[suite](args) for suite in chosen]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _emit(args, text: Callable[[], str], machine: Callable[[object], dict]):
    """Render the result in the chosen --format only, and write it; `machine`
    gets the interchange module, which text output never loads."""
    if args.format == "machine":
        from . import interchange

        sys.stdout.write(interchange.dumps(machine(interchange)))
    else:
        print(text())


def cmd_normalize(args) -> int:
    op = eval_operator(args.expr, args.p, args.n)
    _emit(args, lambda: str(op), lambda ic: ic.op_to_dict(op))
    return EXIT_OK


def cmd_act(args) -> int:
    op = eval_operator(args.expr, args.p, args.n)
    f = eval_laurent(args.operand, args.p, args.n)
    result = op.act(f)
    _emit(args, lambda: str(result), lambda ic: ic.poly_to_dict(result))
    return EXIT_OK


def cmd_sigma(args) -> int:
    from .autgroup import shift_apply

    shift = _parse_digit_rows(args)
    op = eval_operator(args.expr, args.p, args.n)
    result = shift_apply(shift, op)
    _emit(args, lambda: str(result), lambda ic: ic.op_to_dict(result))
    return EXIT_OK


def cmd_build_sigma(args) -> int:
    from .autgroup import shift_generator_images
    from .interchange import dumps, images_to_dict

    shift = _parse_digit_rows(args)
    payload = dumps(images_to_dict(shift_generator_images(shift)))
    if args.out and args.out != "-":
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _load_images(path: str):
    from .interchange import images_from_dict, loads

    try:
        # newline="" keeps "\r\n" as two characters, so JSON offsets count
        # the characters of the file, as the UTF-8 offsets below do
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:  # exc.start counts bytes; offsets count characters
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}",
                         len(exc.object[:exc.start].decode("utf-8")))
    return images_from_dict(loads(text, path))


def _shift_lines(shift: ShiftVector) -> list[str]:
    return [
        f"s[{i + 1}] = {format_padic_digits(c.digits, shift.p.p)}"
        for i, c in enumerate(shift.components)
    ]


def cmd_extract(args) -> int:
    from .autgroup import extract_digits

    g = _load_images(args.images)
    shift = extract_digits(g)
    _emit(args, lambda: "\n".join(_shift_lines(shift)), lambda ic: ic.shift_to_dict(shift))
    return EXIT_OK


def cmd_factor(args) -> int:
    from .autgroup import factorize

    g = _load_images(args.images)
    fac = factorize(g)
    matrix = [list(row) for row in fac.tau.matrix]
    scalars = [lam.value for lam in fac.tau.scalars]
    _emit(args,
          lambda: "\n".join([*_shift_lines(fac.shift), f"matrix = {matrix}",
                             f"scalars = {scalars}"]),
          lambda ic: {"shift": ic.shift_to_dict(fac.shift), "matrix": matrix,
                      "scalars": scalars})
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suites(args)
    passed = all(r.passed for r in reports)
    _emit(args,
          lambda: "\n".join([*(line for r in reports for line in r.lines()),
                             "OK" if passed else "FAILED"]),
          lambda _: {"passed": passed, "suites": [r.to_dict() for r in reports]})
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--p", type=int, default=2, help="prime modulus (default 2)")
    common.add_argument("--n", type=int, default=1, help="number of variables (default 1)")
    common.add_argument("--precision", type=int, default=8,
                        help="p-adic digit precision (default 8)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    common.add_argument("--window", type=_parse_window, default=None, metavar="LO:HI",
                        help="per-variable exponent window, as --window=LO:HI (default -2p:2p)")
    common.add_argument("--order-bound", type=int, default=16,
                        help="largest operator order driven through verification suites")
    common.add_argument("--format", choices=("text", "machine"), default="text")

    parser = _Parser(prog="dividedops",
                     description="Exact divided-power differential operator arithmetic "
                                 "and order preserving automorphisms")
    sub = parser.add_subparsers(dest="command", required=True)
    images_help = ("generator images file, which sets p, n and precision; "
                   "--p, --n and --precision are ignored")

    sp = sub.add_parser("normalize", parents=[common], help="normalize an operator expression")
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("act", parents=[common], help="apply an operator to a Laurent polynomial")
    sp.add_argument("expr")
    sp.add_argument("operand")
    sp.set_defaults(func=cmd_act)

    sp = sub.add_parser("sigma", parents=[common],
                        help="apply the shift automorphism with the given digits")
    sp.add_argument("--digits", required=True,
                    help="per-variable digit lists, least significant first, "
                         "e.g. '1,0,1' or '1,0;2,1'")
    sp.add_argument("mode", choices=("apply",))
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("build-sigma", parents=[common],
                        help="emit generator images of a shift automorphism")
    sp.add_argument("--digits", required=True)
    sp.add_argument("--out", "-o", default="-", help="output file (default stdout)")
    sp.set_defaults(func=cmd_build_sigma)

    sp = sub.add_parser("extract", parents=[common],
                        help="recover shift digits from a generator images file")
    sp.add_argument("images", help=images_help)
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("factor", parents=[common],
                        help="factor generator images into shift and monomial parts")
    sp.add_argument("images", help=images_help)
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("verify", parents=[common], help="run verification suites")
    sp.add_argument("suite", choices=SUITES)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_common(args)
        return args.func(args)
    except (_UsageError, DividedOpsError) as exc:
        prefix, code = next((prefix, code) for classes, prefix, code in ERROR_EXITS
                            if isinstance(exc, classes))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Exit codes: 0 success, 1 parse or usage error, 2 verification failure,
3 insufficient precision, 4 invalid automorphism input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from .autgroup import (
    GeneratorImages,
    ShiftVector,
    extract_digits,
    factorize,
    shift_apply,
    shift_compose_images,
    shift_generator_images,
)
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
from .interchange import (
    dumps,
    images_from_dict,
    images_to_dict,
    op_to_dict,
    poly_to_dict,
    shift_to_dict,
)
from .laurent import LaurentPoly
from .oracles import ExponentWindow, kernel_bruteforce, pth_power_failure, relation_suite
from .report import CheckReport
from .scalars import Prime, as_prime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_PRECISION = 3
EXIT_BAD_AUT = 4

SUITES = ("relations", "kernel", "corollary", "grouplaw", "roundtrip", "all")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the interface reserves
    # 2 for verification failures, so reroute through the error mapping
    def error(self, message):
        raise _UsageError(message)


@dataclass
class Session:
    p: Prime
    n: int
    precision: int
    seed: int
    window: tuple[int, int] | None
    order_bound: int
    fmt: str

    @classmethod
    def from_args(cls, args) -> "Session":
        try:
            p = as_prime(args.p)
        except ValueError as exc:
            raise _UsageError(str(exc))
        if args.n < 1:
            raise _UsageError("need --n at least 1")
        if args.precision < 1:
            raise _UsageError("need --precision at least 1")
        return cls(
            p=p,
            n=args.n,
            precision=args.precision,
            seed=args.seed,
            window=args.window,
            order_bound=args.order_bound,
            fmt=args.format,
        )

    def default_window(self) -> ExponentWindow:
        if self.window is not None:
            lo, hi = self.window
            return ExponentWindow.cube(lo, hi, self.n)
        return ExponentWindow.cube(-2 * self.p.p, 2 * self.p.p, self.n)

    def suite_precision(self) -> int:
        """Largest level count whose top divided index stays within the
        configured order bound."""
        k = 1
        while k < self.precision and self.p.p ** k <= self.order_bound:
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


def _parse_digit_rows(text: str, session: Session) -> ShiftVector:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise _UsageError("empty digit list")
        try:
            row = [int(d) for d in chunk.split(",")]
        except ValueError:
            raise _UsageError(f"bad digit list {chunk!r}")
        rows.append(row)
    if len(rows) != session.n:
        raise _UsageError(f"got digits for {len(rows)} variables, session has n={session.n}")
    padded = []
    for row in rows:
        if len(row) > session.precision:
            raise _UsageError(
                f"{len(row)} digits exceed precision {session.precision}"
            )
        if any(not 0 <= d < session.p.p for d in row):
            raise _UsageError(f"digits must lie in [0, {session.p.p})")
        padded.append(row + [0] * (session.precision - len(row)))
    return ShiftVector.from_digits(padded, session.p)


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
    return ShiftVector.from_digits(
        [[rng.randint(0, p.p - 1) for _ in range(precision)] for _ in range(n)], p
    )


def kernel_report(session: Session) -> CheckReport:
    p, n = session.p, session.n
    rep = CheckReport(f"frobenius kernel p={p.p} n={n}")
    window = session.default_window()
    poly_window = ExponentWindow.cube(0, max(0, max(window.hi)), n)
    for i in range(1, n + 1):
        expected = tuple(-1 if j == i - 1 else 0 for j in range(n))
        basis = kernel_bruteforce(i, window, p, n)
        ok = len(basis) == 1 and basis[0].terms == {expected: 1}
        rep.add(
            f"kernel variable {i} window {window.lo[0]}..{window.hi[0]}",
            ok,
            "; ".join(str(f) for f in basis) or "empty",
        )
        poly_basis = kernel_bruteforce(i, poly_window, p, n)
        rep.add(
            f"kernel variable {i} polynomial window",
            poly_basis == [],
            "empty" if not poly_basis else "; ".join(str(f) for f in poly_basis),
        )
    return rep


def corollary_report(session: Session, trials: int = 30) -> CheckReport:
    p, n = session.p, session.n
    rep = CheckReport(f"binomial p-th power p={p.p} n={n}")
    bad = pth_power_failure(p, n, random.Random(session.seed), trials)
    rep.add("p-th power identity", bad is None, bad or f"{trials} random instances")
    return rep


def grouplaw_report(session: Session, pairs: int = 5) -> CheckReport:
    p, n = session.p, session.n
    prec = session.suite_precision()
    rng = random.Random(session.seed)
    rep = CheckReport(f"shift group law p={p.p} n={n} precision={prec}")
    bad = None
    for _ in range(pairs):
        s = _random_shift(rng, p, n, prec)
        t = _random_shift(rng, p, n, prec)
        if shift_generator_images(s + t) != shift_compose_images(s, shift_generator_images(t)):
            bad = bad or f"s={s.digit_rows()} t={t.digit_rows()}"
    rep.add("composition matches digit addition", bad is None, bad or f"{pairs} random pairs")
    return rep


def roundtrip_report(session: Session, cases: int = 5) -> CheckReport:
    p, n = session.p, session.n
    prec = session.suite_precision()
    rng = random.Random(session.seed)
    rep = CheckReport(f"digit extraction round trip p={p.p} n={n} precision={prec}")
    bad = None
    for _ in range(cases):
        s = _random_shift(rng, p, n, prec)
        if extract_digits(shift_generator_images(s)) != s:
            bad = bad or f"s={s.digit_rows()}"
    rep.add("extract(build(s)) = s", bad is None, bad or f"{cases} random vectors")

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


def relations_report(session: Session) -> CheckReport:
    max_index = min(session.p.p ** 3, 125)
    return relation_suite(session.p, session.n, max_index, trials=40, seed=session.seed)


SUITE_REPORTS = {
    "relations": relations_report,
    "kernel": kernel_report,
    "corollary": corollary_report,
    "grouplaw": grouplaw_report,
    "roundtrip": roundtrip_report,
}


def run_suites(name: str, session: Session) -> list[CheckReport]:
    chosen = SUITES[:-1] if name == "all" else (name,)
    return [SUITE_REPORTS[suite](session) for suite in chosen]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _emit(session: Session, text: str, machine: dict):
    if session.fmt == "machine":
        sys.stdout.write(dumps(machine))
    else:
        print(text)


def cmd_normalize(args, session: Session) -> int:
    op = eval_operator(args.expr, session.p, session.n)
    _emit(session, str(op), op_to_dict(op))
    return EXIT_OK


def cmd_act(args, session: Session) -> int:
    op = eval_operator(args.expr, session.p, session.n)
    f = eval_laurent(args.operand, session.p, session.n)
    result = op.act(f)
    _emit(session, str(result), poly_to_dict(result))
    return EXIT_OK


def cmd_sigma(args, session: Session) -> int:
    shift = _parse_digit_rows(args.digits, session)
    op = eval_operator(args.expr, session.p, session.n)
    result = shift_apply(shift, op)
    _emit(session, str(result), op_to_dict(result))
    return EXIT_OK


def cmd_build_sigma(args, session: Session) -> int:
    shift = _parse_digit_rows(args.digits, session)
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
    try:
        # newline="" keeps "\r\n" as two characters, so JSON offsets count
        # the characters of the file, as the UTF-8 offsets below do
        with open(path, encoding="utf-8", newline="") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc.msg}", exc.pos)
    except UnicodeDecodeError as exc:  # exc.start counts bytes; offsets count characters
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}",
                         len(exc.object[:exc.start].decode("utf-8")))
    except ValueError as exc:  # an integer too long for int()
        raise ParseError(f"bad JSON in {path}: {exc}", 0)
    except RecursionError:
        raise ParseError(f"JSON in {path} is nested too deeply to read", 0)
    return images_from_dict(data)


def _shift_lines(shift: ShiftVector) -> list[str]:
    return [
        f"s[{i + 1}] = {format_padic_digits(c.digits, shift.p.p)}"
        for i, c in enumerate(shift.components)
    ]


def cmd_extract(args, session: Session) -> int:
    g = _load_images(args.images)
    shift = extract_digits(g)
    _emit(session, "\n".join(_shift_lines(shift)), shift_to_dict(shift))
    return EXIT_OK


def cmd_factor(args, session: Session) -> int:
    g = _load_images(args.images)
    fac = factorize(g)
    lines = _shift_lines(fac.shift)
    lines.append(f"matrix = {[list(row) for row in fac.tau.matrix]}")
    lines.append(f"scalars = {[lam.value for lam in fac.tau.scalars]}")
    machine = {
        "shift": shift_to_dict(fac.shift),
        "matrix": [list(row) for row in fac.tau.matrix],
        "scalars": [lam.value for lam in fac.tau.scalars],
    }
    _emit(session, "\n".join(lines), machine)
    return EXIT_OK


def cmd_verify(args, session: Session) -> int:
    reports = run_suites(args.suite, session)
    passed = all(r.passed for r in reports)
    if session.fmt == "machine":
        sys.stdout.write(
            dumps({"passed": passed, "suites": [r.to_dict() for r in reports]})
        )
    else:
        for rep in reports:
            for line in rep.lines():
                print(line)
        print("OK" if passed else "FAILED")
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
                        help="per-variable exponent window (default -2p:2p)")
    common.add_argument("--order-bound", type=int, default=16,
                        help="largest operator order driven through verification suites")
    common.add_argument("--format", choices=("text", "machine"), default="text")

    parser = _Parser(prog="dividedops",
                     description="Exact divided-power differential operator arithmetic "
                                 "and order preserving automorphisms")
    sub = parser.add_subparsers(dest="command", required=True)

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
    sp.add_argument("images")
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("factor", parents=[common],
                        help="factor generator images into shift and monomial parts")
    sp.add_argument("images")
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("verify", parents=[common], help="run verification suites")
    sp.add_argument("suite", choices=SUITES)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        session = Session.from_args(args)
        return args.func(args, session)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientPrecision as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except InvalidAutomorphism as exc:
        print(f"invalid automorphism input: {exc}", file=sys.stderr)
        return EXIT_BAD_AUT
    except (MismatchError, WindowTooLarge) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DividedOpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

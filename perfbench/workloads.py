"""The three workloads: seeded inputs, the operation, and its checks.

Every workload is a list of whole rounds.  A round is a fixed sequence of
slots (shape, prime, command kind); the seed only fills the slots, so two
runs of the same length always carry the same mix.  ``run`` drives the
library through its public functions (or, for ``cli_cold``, through the
``dividedops`` console entry in a fresh process) and returns what it
produced; ``check`` compares that output with a computation made apart
from the program, or with a property the method must have, and returns
a list of failures.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "cli_shim.py"


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """Independent, reproducible random streams per (workload, seed, use)."""
    return random.Random(f"{workload}:{seed}:{stream}")


# ---------------------------------------------------------------------------
# aut_roundtrip
# ---------------------------------------------------------------------------

# (p, n, precision); (2,2,5) comes three times per round, so that the
# slowest tenth of the operations, where the tail is read, lies inside the
# cluster of its costly conjugations rather than at the cluster's edge
AUT_SHAPES = ((2, 2, 5), (2, 2, 5), (2, 2, 5), (2, 2, 4), (3, 2, 3), (2, 3, 3), (5, 2, 2))
# Matrices are drawn per round from four bands of entry size |A|_1, so that
# every round holds cheap and costly conjugations in the same proportion.
AUT_BANDS = {2: ((2, 2), (3, 3), (4, 4), (5, 10)), 3: ((3, 4), (5, 6), (7, 8), (9, 18))}


def _det(a) -> int:
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return sum(
        (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


def random_gl(rng: random.Random, n: int, band: tuple[int, int]):
    """A random n x n integer matrix with entries in [-2, 2], determinant
    +-1 and entry sum |A|_1 inside `band`."""
    lo, hi = band
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if lo <= sum(abs(e) for row in a for e in row) <= hi and _det(a) in (1, -1):
            return tuple(tuple(row) for row in a)


def aut_inputs(rng: random.Random, rounds: int) -> list[dict]:
    ops = []
    for _ in range(rounds):
        for p, n, prec in AUT_SHAPES:
            for band in AUT_BANDS[n]:
                ops.append({
                    "p": p, "n": n, "precision": prec,
                    "matrix": random_gl(rng, n, band),
                    "scalars": [rng.randint(1, p - 1) for _ in range(n)],
                    "digits": [[rng.randint(0, p - 1) for _ in range(prec)] for _ in range(n)],
                })
    return ops


def aut_run(inp: dict):
    from dividedops import (
        MonomialAut, ShiftVector, factorize, monomial_generator_images,
        shift_compose_images, validate_generator_images,
    )
    from dividedops.interchange import dumps, images_from_dict, images_to_dict, loads

    p = inp["p"]
    tau = MonomialAut.create(inp["matrix"], inp["scalars"], p)
    s = ShiftVector.from_digits(inp["digits"], p)
    images = shift_compose_images(s, monomial_generator_images(tau, inp["precision"]))
    restored = images_from_dict(loads(dumps(images_to_dict(images))))
    report = validate_generator_images(restored)
    fac = factorize(restored)
    return {
        "valid": report.passed,
        "digits": fac.shift.digit_rows(),
        "matrix": tuple(tuple(r) for r in fac.tau.matrix),
        "scalars": [lam.value for lam in fac.tau.scalars],
        "precision": fac.shift.precision,
    }


def aut_check(inp: dict, out) -> list[str]:
    bad = []
    if not out["valid"]:
        bad.append("validate_generator_images failed")
    for key in ("digits", "matrix", "scalars", "precision"):
        if out[key] != inp[key]:
            bad.append(f"factorize {key}: got {out[key]}, chose {inp[key]}")
    return bad


# ---------------------------------------------------------------------------
# op_algebra
# ---------------------------------------------------------------------------

ALG_PRIMES = (2, 3, 5, 7, 11, 101)
ALG_MAX_INDEX = {1: 80, 2: 4, 3: 2}
ALG_REPARSE_LIMIT = 600  # printed forms above this many terms are not re-parsed


def stratified(rng: random.Random, rounds: int) -> list[float]:
    """One uniform variate per round, round r taking its own slice of
    [0, 1) in shuffled order (a Latin hypercube column): every run covers
    the whole range of each random choice evenly, whatever the seed."""
    order = list(range(rounds))
    rng.shuffle(order)
    return [(k + rng.random()) / rounds for k in order]


def _pick(u, lo: int, hi: int) -> int:
    """The integer in [lo, hi] that the next variate of `u` selects."""
    return lo + min(int(next(u) * (hi - lo + 1)), hi - lo)


def _alg_expr(u, p: int, n: int, max_index: dict) -> str:
    """A product of two sums of one or two c*x^gamma*d^[beta] terms."""
    sums = []
    for _ in range(2):
        count = _pick(u, 1, 2)
        terms = []
        for t in range(2):
            factors = [str(_pick(u, 1, p - 1))]
            exps = [_pick(u, -3, 3) for _ in range(n)]
            idx = [_pick(u, 0, max_index[n]) for _ in range(n)]
            factors += [f"x{i}^{e}" for i, e in enumerate(exps, 1) if e]
            factors += [f"d{i}[{k}]" for i, k in enumerate(idx, 1) if k]
            if t < count:
                terms.append("*".join(factors))
        sums.append("(" + " + ".join(terms) + ")")
    return "*".join(sums)


def alg_inputs(rng: random.Random, rounds: int, max_index: dict = ALG_MAX_INDEX) -> list[dict]:
    slots = [(n, p) for n in (1, 2, 3) for p in ALG_PRIMES]
    ops: list[dict] = [{} for _ in range(rounds * len(slots))]
    for j, (n, p) in enumerate(slots):
        draws = 4 * (3 + 4 * n) + 4 * n  # two expressions, three monomials, a shift
        columns = [stratified(rng, rounds) for _ in range(draws)]
        for r in range(rounds):
            u = iter([col[r] for col in columns])
            ops[r * len(slots) + j] = {
                "p": p, "n": n,
                "a": _alg_expr(u, p, n, max_index), "b": _alg_expr(u, p, n, max_index),
                "monomials": [tuple(_pick(u, -3, 3) for _ in range(n)) for _ in range(3)],
                # the shift's first digit, per variable; higher digits are zero
                "shift": [_pick(u, 0, min(p - 1, 3)) for _ in range(n)],
            }
    return ops


def alg_run(inp: dict):
    from dividedops import LaurentPoly, ShiftVector, eval_operator, shift_apply
    from dividedops.interchange import dumps, loads, op_from_dict, op_to_dict
    from dividedops.scalars import padic_length

    p, n = inp["p"], inp["n"]
    a = eval_operator(inp["a"], p, n)
    b = eval_operator(inp["b"], p, n)
    prod = a * b
    acted = [prod.act(LaurentPoly.monomial(p, n, m)) for m in inp["monomials"]]
    prec = max([1] + [padic_length(k, p) for beta in prod.parts for k in beta])
    s = ShiftVector.from_digits([[d] + [0] * (prec - 1) for d in inp["shift"]], p)
    shifted = shift_apply(s, prod)
    terms = sum(len(f.terms) for f in shifted.parts.values())
    text = str(shifted)
    reparsed = eval_operator(text, p, n) if terms <= ALG_REPARSE_LIMIT else None
    via_json = op_from_dict(loads(dumps(op_to_dict(shifted))))
    return {"a": a, "b": b, "prod": prod, "acted": acted, "shifted": shifted,
            "reparsed": reparsed, "via_json": via_json, "terms": terms}


def alg_check(inp: dict, out) -> list[str]:
    from dividedops import LaurentPoly

    p, n = inp["p"], inp["n"]
    bad = []
    a, b, prod, shifted = out["a"], out["b"], out["prod"], out["shifted"]
    for m, got in zip(inp["monomials"], out["acted"]):
        if got != a.act(b.act(LaurentPoly.monomial(p, n, m))):
            bad.append(f"(A*B).x^{m} != A.(B.x^{m})")
    # sigma_s(D) x^m = x^-s (D x^(m+s)) for the integer representative s
    s = tuple(inp["shift"])
    for m in inp["monomials"]:
        moved = tuple(mi + si for mi, si in zip(m, s))
        want = prod.act(LaurentPoly.monomial(p, n, moved)).times_monomial(1, tuple(-si for si in s))
        if shifted.act(LaurentPoly.monomial(p, n, m)) != want:
            bad.append(f"sigma_s(D).x^{m} != x^-s (D.x^(m+s))")
    if out["terms"] <= ALG_REPARSE_LIMIT and out["reparsed"] != shifted:
        bad.append("eval_operator(str(D)) != D")
    if out["via_json"] != shifted:
        bad.append("op_from_dict(op_to_dict(D)) != D")
    return bad


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_VERIFY_PRIMES = (2, 3, 5)
# (p, n, precision, band of |A|_1) of the images files that factor reads
CLI_FACTOR_SHAPES = ((2, 2, 5, 3), (2, 3, 4, 1), (2, 3, 4, 2))


def child_env(extra_path: str | None = None) -> dict:
    """Environment of a dividedops child: the checkout's sources come first."""
    paths = [str(SRC)] + ([extra_path] if extra_path else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _digits_arg(rows) -> str:
    return ";".join(",".join(str(d) for d in row) for row in rows)


def cli_inputs(rng: random.Random, rounds: int, workdir: Path) -> list[dict]:
    """One round: normalize and act at large primes, sigma apply, build-sigma
    then extract on the file it wrote, factor on a file written here, and
    verify all.  Image files for factor are produced by the library now,
    during set-up."""
    from dividedops import MonomialAut, ShiftVector, monomial_generator_images, shift_compose_images
    from dividedops.interchange import dumps, images_to_dict

    ops = []
    for r in range(rounds):
        # a trio of commands at each of two large primes: each pays for
        # building its p x p digit-binomial table
        for p, lo, hi in ((1009, 500, 1000), (2039, 1000, 2000)):
            k = rng.randint(lo, hi)
            ops.append({"kind": "normalize", "p": p, "k": k, "m": rng.randint(k, 4 * p)})
            ops.append({"kind": "act", "p": p, "k": rng.randint(lo, hi),
                        "m": rng.randint(p, 4 * p)})
            ops.append({"kind": "normalize", "p": p, "k": rng.randint(20, 200),
                        "m": rng.randint(-3000, -1)})
        p, prec = 11, 3
        ops.append({"kind": "sigma", "p": p, "n": 2, "precision": prec,
                    "a": rng.randint(300, p ** prec - 1), "b": rng.randint(300, p ** prec - 1),
                    "digits": [[rng.randint(0, 6) for _ in range(prec)] for _ in range(2)]})
        p, prec = 3, 7
        path = str(workdir / f"sigma-{r}.json")
        digits = [[rng.randint(0, p - 1) for _ in range(prec)] for _ in range(2)]
        ops.append({"kind": "build-sigma", "p": p, "n": 2, "precision": prec,
                    "digits": digits, "path": path})
        ops.append({"kind": "extract", "p": p, "n": 2, "precision": prec,
                    "digits": digits, "path": path})
        p, n, prec, band = CLI_FACTOR_SHAPES[r % len(CLI_FACTOR_SHAPES)]
        path = workdir / f"aut-{r}.json"
        matrix = random_gl(rng, n, AUT_BANDS[n][band])
        scalars = [rng.randint(1, p - 1) for _ in range(n)]
        digits = [[rng.randint(0, p - 1) for _ in range(prec)] for _ in range(n)]
        images = shift_compose_images(
            ShiftVector.from_digits(digits, p),
            monomial_generator_images(MonomialAut.create(matrix, scalars, p), prec),
        )
        path.write_text(dumps(images_to_dict(images)))
        ops.append({"kind": "factor", "p": p, "n": n, "precision": prec, "matrix": matrix,
                    "scalars": scalars, "digits": digits, "path": str(path)})
        ops.append({"kind": "verify", "p": CLI_VERIFY_PRIMES[r % 3], "seed": rng.randint(0, 999)})
    for op in ops:
        op["argv"] = cli_argv(op)
    return ops


def cli_argv(op: dict) -> list[str]:
    kind, p = op["kind"], str(op["p"])
    if kind == "normalize":
        return ["normalize", f"d1[{op['k']}]*x1^{op['m']}", "--p", p]
    if kind == "act":
        return ["act", f"d1[{op['k']}]", f"x1^{op['m']}", "--p", p]
    if kind == "sigma":
        return ["sigma", "--digits", _digits_arg(op["digits"]), "apply",
                f"d1[{op['a']}]*d2[{op['b']}]", "--p", p, "--n", "2",
                "--precision", str(op["precision"])]
    if kind == "build-sigma":
        return ["build-sigma", "--digits", _digits_arg(op["digits"]), "--p", p, "--n", "2",
                "--precision", str(op["precision"]), "--out", op["path"]]
    if kind in ("extract", "factor"):
        return [kind, op["path"], "--p", p, "--n", str(op["n"]),
                "--precision", str(op["precision"]), "--format", "machine"]
    return ["verify", "all", "--n", "2", "--p", p, "--seed", str(op["seed"])]


def cli_run(op: dict, workdir: Path, *, trace_file: str | None = None,
            extra_path: str | None = None):
    """Run one fresh dividedops process; return its exit code, output and
    peak resident set size (from os.wait4).  Its output goes through
    unnamed files in `workdir`."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "dividedops.cli", *op["argv"]]
    else:
        cmd = [sys.executable, str(SHIM), "--trace-out", trace_file, "--", *op["argv"]]
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=str(ROOT),
                                env=child_env(extra_path))
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"rc": proc.returncode, "stdout": out.read().decode(),
                "stderr": err.read().decode(), "rss_kb": usage.ru_maxrss}


def parse_printed(text: str, n: int) -> dict[tuple[int, ...], int]:
    """A printed operator -> {(x exponents..., divided indices...): coeff}.

    Read here, apart from the library, so the check does not trust the
    library's own parser."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for piece in text.split(" + "):
        coeff, key = 1, [0] * (2 * n)
        for factor in piece.split("*"):
            m = re.fullmatch(r"(\d+)|x(\d+)(?:\^(-?\d+))?|d(\d+)\[(\d+)\]", factor)
            if not m:
                raise ValueError(f"cannot read term {piece!r}")
            c, xi, xe, di, dk = m.groups()
            if c is not None:
                coeff = int(c)
            elif xi is not None:
                key[int(xi) - 1] = int(xe) if xe is not None else 1
            else:
                key[n + int(di) - 1] = int(dk)
        if tuple(key) in out:
            raise ValueError(f"term {piece!r} printed twice")
        out[tuple(key)] = coeff
    return out


def cli_expected(op: dict):
    """The answer computed with math.comb mod p, apart from the library."""
    p, kind = op["p"], op["kind"]
    if kind == "normalize":
        # d^[k] x^m = sum_j C(m, j) x^(m-j) d^[k-j]
        k, m = op["k"], op["m"]
        terms = {}
        for j in range(k + 1):
            c = _comb_int(m, j) % p
            if c:
                terms[(m - j, k - j)] = c
        return terms
    if kind == "act":
        c = _comb_int(op["m"], op["k"]) % p
        return {(op["m"] - op["k"], 0): c} if c else {}
    if kind == "sigma":
        # sigma_s(d_i^[k]) = sum_j C(s_i, k-j) x_i^(j-k) d_i^[j], one factor per variable
        s = [sum(d * p ** i for i, d in enumerate(row)) for row in op["digits"]]
        factors = []
        for si, k in zip(s, (op["a"], op["b"])):
            factors.append([(j, c) for j in range(k + 1) if (c := math.comb(si, k - j) % p)])
        return {
            (j1 - op["a"], j2 - op["b"], j1, j2): c1 * c2 % p
            for j1, c1 in factors[0] for j2, c2 in factors[1]
        }
    return None


def _comb_int(m: int, k: int) -> int:
    """The binomial polynomial C(m, k) = m(m-1)...(m-k+1)/k! for any integer m."""
    if m >= 0:
        return math.comb(m, k)
    return (-1) ** k * math.comb(k - m - 1, k)


def cli_check(op: dict, out) -> list[str]:
    kind = op["kind"]
    if out["rc"] != 0:
        return [f"{kind} exited {out['rc']}: {out['stderr'].strip()[-200:]}"]
    text = out["stdout"]
    try:
        if kind in ("normalize", "act", "sigma"):
            got = parse_printed(text, 2 if kind == "sigma" else 1)
        elif kind == "build-sigma":
            data = json.loads(Path(op["path"]).read_text())
            want = {"p": op["p"], "n": op["n"], "precision": op["precision"]}
            got_head = {key: data.get(key) for key in want}
            return [] if got_head == want else [f"build-sigma header {got_head}"]
        elif kind == "extract":
            got = json.loads(text)["digits"]
            return [] if got == op["digits"] else [f"extract digits {got}, chose {op['digits']}"]
        elif kind == "factor":
            data = json.loads(text)
            bad = []
            if data["shift"]["digits"] != op["digits"]:
                bad.append(f"factor digits {data['shift']['digits']}, chose {op['digits']}")
            if data["matrix"] != [list(r) for r in op["matrix"]]:
                bad.append(f"factor matrix {data['matrix']}, chose {op['matrix']}")
            if data["scalars"] != op["scalars"]:
                bad.append(f"factor scalars {data['scalars']}, chose {op['scalars']}")
            return bad
        else:
            last = text.strip().splitlines()[-1] if text.strip() else ""
            return [] if last == "OK" else [f"verify printed {last!r}"]
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return [f"{kind}: unreadable output: {exc}"]
    want = cli_expected(op)
    return [] if got == want else [f"{kind} {op['argv'][1]}: output differs from math.comb"]


def import_seconds(extra_path: str | None = None) -> float:
    """Wall time of one fresh interpreter that imports dividedops."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dividedops"], check=True, cwd=str(ROOT),
                   env=child_env(extra_path))
    return time.perf_counter() - t0

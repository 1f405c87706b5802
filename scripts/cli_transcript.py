#!/usr/bin/env python3
"""Print a transcript of the command line: every subcommand, one trigger per error row.

Each case runs `dividedops.cli.main` of this checkout's src/ in-process,
in a temporary directory that holds the image files the cases read, and
prints the command, its exit code, its stdout and its stderr.  Every
subcommand runs in both --format values; then one command triggers each
row of the CLI's error table, so a change to any output, message prefix or
exit code shows up as a line of difference between two transcripts.

Usage:
    python3 scripts/cli_transcript.py > transcript.txt
"""

import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ["normalize", "d1[2]*x1 + x2^-3", "--p", "5", "--n", "2"],
    ["act", "d1[2]*x1 + x2^-1", "x1^5*x2 + 3", "--p", "3", "--n", "2"],
    ["sigma", "--digits", "1,1;0,1", "apply", "d1[1]*d2[2] + x1", "--p", "2", "--n", "2"],
    ["build-sigma", "--digits", "1,0;2,1", "--p", "3", "--n", "2", "--precision", "2"],
    ["extract", "sigma.json", "--p", "3", "--n", "2"],
    ["factor", "factored.json"],
    *(["verify", suite, "--p", "2", "--n", "1", "--seed", "3"]
      for suite in ("relations", "kernel", "corollary", "grouplaw", "roundtrip", "all")),
    ["verify", "kernel", "--p", "3", "--n", "1", "--window", "0:4"],
)

ERROR_TRIGGERS = (
    ["normalize", "x1", "--p", "6"],
    ["normalize", "x1", "--n", "0"],
    ["normalize", "x1", "--precision", "0"],
    ["normalize", "x1", "--p", "three"],
    ["sigma", "--digits", "1,2", "apply", "d1[1]"],
    ["build-sigma", "--digits", "1", "--out", "no_such_dir/x.json"],
    ["extract", "missing.json"],
    ["normalize", "d1[2]*", "--p", "3"],
    ["extract", "garbage.json"],
    ["sigma", "--digits", "1", "apply", "d1[2]", "--p", "2", "--precision", "1"],
    ["extract", "factored.json", "--p", "3", "--n", "2"],
    ["normalize", "x2", "--p", "3", "--n", "1"],
    ["verify", "kernel", "--p", "3", "--window=-5000:5000"],
    ["normalize", f"(x1^{'9' * 3000})^{'9' * 2000}", "--p", "3"],
)


def write_inputs(directory: Path):
    """The image files the cases read: a shift, a shift after a monomial
    automorphism, and a file that is not JSON."""
    from dividedops.autgroup import FactoredAut, MonomialAut, ShiftVector
    from dividedops.interchange import dumps, images_to_dict

    shift = ShiftVector.from_digits([[1, 0], [2, 1]], 3)
    (directory / "sigma.json").write_text(
        dumps(images_to_dict(FactoredAut(shift, MonomialAut.identity(3, 2)).to_images())))
    tau = MonomialAut.create([[1, 1], [0, 1]], [1, 2], 3)
    (directory / "factored.json").write_text(
        dumps(images_to_dict(FactoredAut(shift, tau).to_images())))
    (directory / "garbage.json").write_text("{not json")


def run(argv: list[str]) -> str:
    from dividedops.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"$ dividedops {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    cases = [[*argv, "--format", fmt] for argv in COMMANDS for fmt in ("text", "machine")]
    cases += ERROR_TRIGGERS
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            for argv in cases:
                sys.stdout.write(run(argv))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()

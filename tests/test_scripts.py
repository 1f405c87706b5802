"""Smoke tests: the runnable experiments in scripts/ finish cleanly."""

import json
import subprocess
import sys

import pytest

from helpers import ROOT, subprocess_env


@pytest.mark.parametrize("argv", [
    ["scripts/factor_demo.py", "--p", "2", "--n", "2", "--precision", "3"],
])
def test_script_exits_cleanly(argv):
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_bench_ladder_writes_a_number_or_capped_per_cell(tmp_path):
    out = tmp_path / "bench.json"
    runs = [("small", ["--shapes", "2,1,2", "3,2,2", "--repeat", "2", "--cap", "20"]),
            ("starved", ["--shapes", "2,1,2", "--repeat", "1", "--cap", "0.01"])]
    for label, argv in runs:
        done = subprocess.run([sys.executable, "scripts/bench_ladder.py", "--label", label,
                               "--out", str(out), *argv], cwd=ROOT, capture_output=True,
                              text=True, env=subprocess_env(), timeout=60)
        assert done.returncode == 0, done.stdout + done.stderr
    data = json.loads(out.read_text())
    assert data["steps"] == ["build", "factorize", "validate"]
    cells = {label: [v for row in run["seconds"].values() for v in row.values()]
             for label, run in data["runs"].items()}
    assert len(cells["small"]) == 6 and len(cells["starved"]) == 3
    for values in cells.values():
        assert all(v == "capped" or isinstance(v, float) for v in values)
    assert all(isinstance(v, float) for v in cells["small"])
    assert cells["starved"] == ["capped"] * 3


def test_cli_transcript_matches_golden():
    # every subcommand in both formats, and one trigger per row of the error table
    done = subprocess.run([sys.executable, "scripts/cli_transcript.py"], cwd=ROOT,
                          capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (ROOT / "tests" / "golden" / "cli_transcript.txt").read_text()

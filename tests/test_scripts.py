"""Smoke tests: the runnable experiments in scripts/ finish cleanly."""

import json
import subprocess
import sys

import pytest

from helpers import ROOT, subprocess_env


@pytest.mark.parametrize("argv", [
    ["scripts/factor_demo.py", "--p", "2", "--n", "2", "--precision", "3"],
    ["scripts/factor_demo.py", "--p", "3", "--n", "2", "--precision", "3", "--seed", "5"],
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
    assert data["steps"] == ["build", "factorize", "validate", "write", "read"]
    cells = {label: [v for row in run["seconds"].values() for v in row.values()]
             for label, run in data["runs"].items()}
    assert len(cells["small"]) == 10 and len(cells["starved"]) == 5
    for values in cells.values():
        assert all(v == "capped" or isinstance(v, float) for v in values)
    assert all(isinstance(v, float) for v in cells["small"])
    assert cells["starved"] == ["capped"] * 5
    # the images' term count, for the boundary's cost per term
    terms = data["runs"]["small"]["terms"]
    assert sorted(terms) == ["2,1,2", "3,2,2"]
    assert all(type(t) is int and t > 0 for t in terms.values())
    assert data["runs"]["starved"]["terms"] == {"2,1,2": None}


def test_cli_transcript_matches_golden():
    # every subcommand in both formats, and one trigger per row of the error table
    done = subprocess.run([sys.executable, "scripts/cli_transcript.py"], cwd=ROOT,
                          capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (ROOT / "tests" / "golden" / "cli_transcript.txt").read_text()


def test_src_lines_totals_match_a_plain_line_count():
    done = subprocess.run([sys.executable, "scripts/src_lines.py"], cwd=ROOT,
                          capture_output=True, text=True, env=subprocess_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    rows = [line.strip("|").split("|") for line in done.stdout.splitlines()[2:]]
    counts = {name.strip(): (int(total), int(code)) for name, total, code in rows}
    modules = sorted((ROOT / "src" / "dividedops").glob("*.py"))
    assert sorted(counts) == sorted([path.name for path in modules] + ["total"])
    for path in modules:
        total, code = counts[path.name]
        assert total == len(path.read_text().splitlines()) and 0 < code < total
    assert counts["total"] == tuple(map(sum, zip(*(counts[path.name] for path in modules))))
    assert counts["total"][0] == sum(len(path.read_text().splitlines()) for path in modules)


def test_src_lines_leaves_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "m.py").write_text('"""A module\n\ndocstring."""\n\n# a comment\n'
                                   'def f(x):\n    """One line."""\n    return """a\nb"""  # c\n')
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[2:] == ["| m.py | 9 | 3 |", "| total | 9 | 3 |"]

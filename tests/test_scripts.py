"""Smoke tests: the runnable experiments in scripts/ finish cleanly."""

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

"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs one round of operations: untouched, it must pass its
checks; with a deliberately wrong library it must report the wrong
answers.  The traced run must repeat its counts exactly and account for
every operation's wall time with self times.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import faults  # noqa: E402
import run as bench  # noqa: E402

bench.load_library()


def one_round(workload, *, seed=3, trace=False, extra_path=None):
    return bench.run_workload(workload, seed, 1, trace, rounds=1, extra_path=extra_path,
                              measure_setup_time=False)


def with_fault(workload, fault, tmp_path, monkeypatch):
    """One round with `fault` in the library from the first timed operation on."""
    if workload == "cli_cold":
        (tmp_path / "sitecustomize.py").write_text(faults.sitecustomize_source(fault))
        return one_round(workload, extra_path=str(tmp_path))
    undo = []
    setup = bench.in_process_setup

    def setup_then_break(*args):
        plan = setup(*args)
        undo.append(faults.install(fault))
        return plan

    monkeypatch.setattr(bench, "in_process_setup", setup_then_break)
    try:
        return one_round(workload)
    finally:
        for restore in undo:
            restore()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untouched_library_passes(workload):
    res = one_round(workload)
    assert res["correct"] and res["failed"] == 0, res["problems"]
    assert res["attempted"] == bench.ROUND[workload]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_perturbed_product_is_caught(workload, tmp_path, monkeypatch):
    res = with_fault(workload, "mul", tmp_path, monkeypatch)
    # a wrong product either reaches a checked output or makes the library
    # reject its own intermediate result (factorize raises NotSigmaForm)
    assert not res["correct"] or res["failed"] == res["attempted"], res["problems"]
    assert res["problems"]


# op_algebra never calls factorize, so a wrong digit cannot show there
@pytest.mark.parametrize("workload", ["aut_roundtrip", "cli_cold"])
def test_wrong_digit_is_caught(workload, tmp_path, monkeypatch):
    res = with_fault(workload, "digit", tmp_path, monkeypatch)
    assert not res["correct"], res["problems"]
    assert any("digits" in p for p in res["problems"]), res["problems"]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload):
    first = one_round(workload, trace=True)
    second = one_round(workload, trace=True)
    assert first["correct"] and second["correct"], first["problems"] + second["problems"]
    for res in (first, second):
        assert res["self_time_gap_s"] < 1e-6
        assert set(res["metrics"]) == set(bench.PER_LAYER)
    for name in bench.PER_LAYER:
        if name.endswith((".calls", ".terms_in", ".terms_out", ".bytes")):
            assert first["metrics"][name] == second["metrics"][name], name


def test_tail_quantile_keeps_ten_samples_beyond():
    assert bench.tail_quantile(48) == 75.0
    assert bench.tail_quantile(180) == 90.0
    assert bench.tail_quantile(1200) == 99.0
    assert bench.tail_quantile(12) == 50.0


def test_refuses_to_run_without_library_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "op_algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: bench.unit_of(name) for name in bench.PER_LAYER}
    res = one_round("op_algebra")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in res["metrics"].items()}

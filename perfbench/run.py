#!/usr/bin/env python3
"""Benchmark of the dividedops library, run from the root of a checkout.

    python3 perfbench/run.py --workload aut_roundtrip --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

A run sets the workload up, runs a seeded list of whole rounds of
operations (its length follows from --seconds and a nominal rate, never
from the clock), checks every output, and prints as its last line one
JSON object with the operations attempted and failed and the metrics:
the end-to-end metrics untraced (--trace 0), the per-layer metrics from
a traced run (--trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("aut_roundtrip", "op_algebra", "cli_cold")
# nominal operations per second on a 2-core x86 machine, and round sizes
RATE = {"aut_roundtrip": 5.6, "op_algebra": 33.0, "cli_cold": 1.8}
ROUND = {"aut_roundtrip": 28, "op_algebra": 18, "cli_cold": 11}
SETUP_PROBES = 3  # fresh interpreters timed per run for setup_s
IMPORT_PROBES = 5  # fresh `import dividedops` runs timed for cli_cold's setup_s
REF_SAMPLES = 5  # machine reference loops before and after the timed list
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

PER_LAYER = (
    "scalars.first_use_s",
    "laurent.add.calls", "laurent.add.self_s", "laurent.times_monomial.self_s",
    "diffop.mul.calls", "diffop.mul.self_s", "diffop.mul.terms_in", "diffop.mul.terms_out",
    "diffop.act.calls", "diffop.act.self_s",
    "diffop.normal_form_from_action.calls", "diffop.normal_form_from_action.self_s",
    "autgroup.shift_apply.calls", "autgroup.shift_apply.self_s",
    "autgroup.shift_apply.terms_out",
    "autgroup.monomial_apply.calls", "autgroup.monomial_apply.self_s",
    "autgroup.apply_images.calls", "autgroup.apply_images.self_s",
    "autgroup.validate_generator_images.self_s", "autgroup.extract_digits.self_s",
    "autgroup.factorize.self_s",
    "expr.parse.calls", "expr.parse.self_s", "expr.eval_operator.self_s",
    "interchange.op_to_dict.self_s", "interchange.images_from_dict.self_s",
    "interchange.dumps.self_s", "interchange.dumps.bytes",
    "cli.import_s", "cli.main.self_s",
    "bench.op.self_s",
    "machine.ref_loop_s",
)


def unit_of(name: str) -> str:
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_library():
    """Import dividedops from this checkout's src/, and nowhere else."""
    if not (SRC / "dividedops" / "__init__.py").is_file():
        fail(f"no library sources at {SRC}; run from the root of a dividedops checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dividedops

    if Path(dividedops.__file__).resolve().parent != (SRC / "dividedops").resolve():
        fail(f"imported dividedops from {dividedops.__file__}, not from {SRC}")
    return dividedops


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if count * (1 - q / 100.0) >= 10:
            return q
    return 50.0


def ref_loop() -> float:
    """A fixed pure-Python loop; it moves with the machine, not the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds * RATE[workload] / ROUND[workload]))


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


class Plan:
    """Inputs and callables of one workload for one seed."""

    def __init__(self, workload: str, seed: int, rounds: int, workdir: Path | None = None,
                 extra_path: str | None = None):
        import workloads as w

        timed_rng = w.rng_for(workload, seed, "timed")
        warm_rng = w.rng_for(workload, seed, "warmup")
        if workload == "aut_roundtrip":
            self.ops = w.aut_inputs(timed_rng, rounds)
            # one operation per shape slot, from the cheapest band of matrices
            self.warmup = w.aut_inputs(warm_rng, 1)[::len(w.AUT_BANDS[2])]
            self.run, self.check = w.aut_run, w.aut_check
        elif workload == "op_algebra":
            self.ops = w.alg_inputs(timed_rng, rounds)
            # one small operation per slot: fills the per-prime tables cheaply
            self.warmup = w.alg_inputs(warm_rng, 1, {1: 8, 2: 2, 3: 1})
            self.run, self.check = w.alg_run, w.alg_check
        else:
            self.ops = w.cli_inputs(timed_rng, rounds, workdir)
            self.warmup = []
            self.run = lambda op, **kw: w.cli_run(op, workdir, extra_path=extra_path, **kw)
            self.check = w.cli_check


def in_process_setup(workload: str, seed: int, rounds: int) -> Plan:
    load_library()
    plan = Plan(workload, seed, rounds)
    for op in plan.warmup:
        problems = plan.check(op, plan.run(op))
        if problems:
            fail(f"warm-up operation failed its check: {problems[0]}")
    return plan


def measure_setup(workload: str, seed: int, seconds: int, extra_path: str | None) -> float:
    """setup_s: median over fresh interpreters of the time to the first
    timed operation; for cli_cold, median fresh import plus input files."""
    import workloads as w

    if workload == "cli_cold":
        imports = [w.import_seconds(extra_path) for _ in range(IMPORT_PROBES)]
        return statistics.median(imports)
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--setup-only"],
            check=True, cwd=str(ROOT), stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, *,
                 rounds: int | None = None, extra_path: str | None = None,
                 measure_setup_time: bool = True) -> dict:
    """Set up, run the timed list, check every output; return the result."""
    rounds = rounds or rounds_for(workload, seconds)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{workload}-") as workdir:
        return _run_workload(workload, seed, seconds, trace, rounds, extra_path,
                             measure_setup_time, Path(workdir))


def _run_workload(workload, seed, seconds, trace, rounds, extra_path, measure_setup_time,
                  workdir) -> dict:
    setup_s = None
    if measure_setup_time and not trace:
        setup_s = measure_setup(workload, seed, seconds, extra_path)
    if workload == "cli_cold":
        load_library()
        t0 = time.perf_counter()
        plan = Plan(workload, seed, rounds, workdir, extra_path)
        if setup_s is not None:
            setup_s += time.perf_counter() - t0
    else:
        plan = in_process_setup(workload, seed, rounds)

    tracer = None
    if trace:
        import tracer as tr

        tracer = tr.Tracer()
        tr.instrument(tracer)

    refs = [ref_loop() for _ in range(REF_SAMPLES)]
    # Each output is checked as soon as its operation ends, outside the
    # operation's timing, so no output outlives its check.
    latencies, errors, wrong = [], [], []
    child_rss_kb = 0
    for i, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.op_id = i
            tracer.active = True
            root = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            if workload == "cli_cold" and tracer is not None:
                trace_file = workdir / f"trace-{i}.json"
                out = plan.run(op, trace_file=str(trace_file))
                tracer.adopt(json.loads(trace_file.read_text()), root)
                trace_file.unlink()
            else:
                out = plan.run(op)
        except Exception as exc:  # an operation that raises counts as failed
            out = None
            errors.append(f"op {i} ({op_label(op)}): {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
            tracer.active = False
        if out is None:
            continue
        latencies.append(t1 - t0)
        if workload == "cli_cold":
            child_rss_kb = max(child_rss_kb, out["rss_kb"])
        wrong += [f"op {i} ({op_label(op)}): {problem}" for problem in plan.check(op, out)]
    wall = sum(latencies)  # the timed list's time in operations
    refs += [ref_loop() for _ in range(REF_SAMPLES)]

    result = {
        "workload": workload, "seed": seed, "rounds": rounds, "trace": int(trace),
        "attempted": len(plan.ops), "failed": len(errors), "timed_s": wall,
        "ref_loops_s": refs,
    }
    if tracer is not None:
        tracer.uninstall()
        balance = tracer.op_balance()
        result["self_time_gap_s"] = balance
        if balance > 1e-6:
            wrong.append(f"self times miss an operation's wall time by {balance:.3g} s")
        result["metrics"] = layer_metrics(tracer, refs)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        q = tail_quantile(len(latencies))
        result["tail_percentile"] = q
        result["latencies_s"] = latencies
        rss_kb = (child_rss_kb if workload == "cli_cold"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_ops_s": {"value": len(latencies) / wall if wall else None, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies) if latencies else None,
                              "unit": "s"},
            "latency_tail_s": {"value": percentile(latencies, q) if latencies else None,
                               "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    result["wrong"] = len(wrong)
    result["problems"] = (errors + wrong)[:20]
    result["correct"] = not wrong
    return result


def op_label(op: dict) -> str:
    if "kind" in op:
        return f"{op['kind']} p={op['p']}"
    if "precision" in op:
        return f"p={op['p']} n={op['n']} precision={op['precision']} A={op['matrix']}"
    return f"p={op['p']} n={op['n']} {op['a']} * {op['b']}"


def layer_metrics(tracer, refs: list[float]) -> dict:
    totals = tracer.self_times()
    values = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name == "machine.ref_loop_s":
            value = statistics.median(refs)
        elif name == "scalars.first_use_s":
            value = totals.get("scalars.first_use", [0, 0.0])[1]
        elif name == "cli.import_s":
            value = totals.get("cli.import", [0, 0.0])[1]
        elif stat == "calls":
            value = totals.get(base, [0, 0.0])[0]
        elif stat == "self_s":
            value = totals.get(base, [0, 0.0])[1]
        else:
            value = tracer.counts.get(name, 0)
        values[name] = {"value": value, "unit": unit_of(name)}
    return values


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def summary_lines(result: dict) -> list[str]:
    lines = [f"{result['workload']}: seed {result['seed']}, {result['rounds']} rounds, "
             f"attempted {result['attempted']}, failed {result['failed']}, "
             f"wrong {result['wrong']}, {result['timed_s']:.3f} s in operations"
             + (f", tail = p{result['tail_percentile']:g}" if "tail_percentile" in result else "")]
    for name, m in result["metrics"].items():
        v = m["value"]
        lines.append(f"  {name:44s} {v if isinstance(v, int) else f'{v:.6g}':>14} {m['unit']}")
    for problem in result["problems"]:
        lines.append(f"  problem: {problem}")
    return lines


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            fail(f"{workload} exited {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25,
                    help="nominal run length; sets how many rounds run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        load_library()
        return run_all(args)
    if args.setup_only:
        in_process_setup(args.workload, args.seed, rounds_for(args.workload, args.seconds))
        return 0
    load_library()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print("\n".join(summary_lines(result)))
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

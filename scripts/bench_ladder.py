#!/usr/bin/env python3
"""Time the automorphism pipeline along a ladder of shapes (p, n, precision).

For each shape the images of one automorphism, the shift s after the
monomial automorphism x_j -> x^(A e_j), are timed through five steps:
building them (`FactoredAut.to_images`), `factorize`,
`validate_generator_images`, and their JSON boundary, `write`
(`images_to_dict` and `dumps`) and `read` (`loads` and
`images_from_dict`).  A is [[1]] at n = 1, [[1,1],[0,1]] at n = 2 and
[[1,1,0],[0,1,1],[0,0,1]] at n = 3; s is drawn from a seeded
random.Random.  The run records the images' term count per shape, so the
boundary's cost per term can be read off.  Every cell is the minimum
over --repeat runs, measured in a fresh child process that imports this
checkout's src/; the caches of the closed form (`theta.expansion`, both
engines, and the rows of `theta.binomial_row`) are cleared before each
run, so build and factorize pay for their expansions as a first call
does, and each run gets a fresh copy of the images, so validate and
factorize certify them as a first call does (both keep the certified
factorization on the images); a full garbage collection runs just before each
timed run, so no collection falls due inside one from the setup.  A
child that has not finished within --cap seconds (its import and
inputs included) is stopped, and the cell records the minimum of the
runs it finished, or "capped" when it finished none.  Every result is
checked: the images must validate and factor back into s and A, and the
text written must read back into the same images.

Usage:
    python3 scripts/bench_ladder.py --label NAME [--out BENCH.json]
        [--shapes 2,2,5 2,2,6 ...] [--repeat 3] [--cap 60] [--seed 0]

With --out, the run is stored under its label in that file; the runs
under other labels are kept, so two checkouts can share one file.
"""

import argparse
import copy
import gc
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ((2, 2, 5), (2, 2, 6), (2, 2, 7), (2, 2, 8), (2, 2, 9), (2, 2, 10), (2, 2, 11),
          (3, 2, 4), (3, 2, 5), (3, 2, 6), (3, 2, 7), (5, 2, 4), (7, 2, 3), (2, 3, 4), (2, 3, 6),
          (2, 3, 7), (17, 2, 2), (17, 1, 3), (101, 1, 2), (17, 3, 1))
STEPS = ("build", "factorize", "validate", "write", "read")


def matrix(n: int) -> list[list[int]]:
    """The unipotent matrix with ones on the diagonal and just above it."""
    return [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]


def run_cell(p: int, n: int, prec: int, step: str, repeat: int, seed: int):
    """Child process: print the images' term count, then the seconds of
    each run of one step, one line each."""
    sys.path.insert(0, str(ROOT / "src"))
    from dividedops.autgroup import (FactoredAut, MonomialAut, ShiftVector, factorize,
                                     validate_generator_images)
    from dividedops.interchange import dumps, images_from_dict, images_to_dict, loads
    from dividedops.theta import binomial_row, expansion

    rng = random.Random(f"ladder:{seed}:{p},{n},{prec}")
    shift = ShiftVector.from_ints([rng.randrange(p ** prec) for _ in range(n)], p, prec)
    aut = FactoredAut(shift, MonomialAut.create(matrix(n), [1] * n, p))
    images = aut.to_images()
    ops = (*images.x_images, *images.xinv_images, *(op for row in images.d_images for op in row))
    print("terms", sum(len(f.terms) for op in ops for f in op.parts.values()), flush=True)
    text = dumps(images_to_dict(images)) if step == "read" else None
    for _ in range(repeat):
        expansion.cache_clear()
        binomial_row.cache_clear()
        fresh = copy.copy(images)  # equal images with nothing kept
        gc.collect()  # no collection left due from the setup falls inside the run
        t0 = time.perf_counter()
        if step == "build":
            result = FactoredAut(aut.shift, aut.tau).to_images()
        elif step == "factorize":
            result = factorize(fresh)
        elif step == "validate":
            result = validate_generator_images(fresh).passed
        elif step == "write":
            result = dumps(images_to_dict(fresh))
        else:
            result = images_from_dict(loads(text))
        seconds = time.perf_counter() - t0
        expected = {"factorize": aut, "validate": True}.get(step, images)
        if step == "write":
            result = images_from_dict(loads(result))
        if result != expected:
            sys.exit(f"wrong {step} result at {(p, n, prec)}")
        print(seconds, flush=True)


def time_cell(shape, step: str, repeat: int, cap: float, seed: int):
    """(the minimum seconds or "capped", the term count or None)."""
    argv = [sys.executable, __file__, "--cell", ",".join(map(str, shape)), step,
            "--repeat", str(repeat), "--seed", str(seed)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=cap)
        if done.returncode:
            sys.exit(done.stderr.strip() or f"{step} at {shape} exited {done.returncode}")
        out = done.stdout
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        out = out.decode() if isinstance(out, bytes) else out
    lines = out.splitlines()
    terms = int(lines.pop(0).split()[1]) if lines and lines[0].startswith("terms") else None
    times = [float(line) for line in lines if line.strip()]
    return (round(min(times), 6) if times else "capped"), terms


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--label", default="run")
    ap.add_argument("--out")
    ap.add_argument("--shapes", nargs="+", default=[",".join(map(str, s)) for s in SHAPES])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--cap", type=float, default=60.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cell", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.cell:
        run_cell(*map(int, args.cell[0].split(",")), args.cell[1], args.repeat, args.seed)
        return
    cells, terms = {}, {}
    for text in args.shapes:
        shape = tuple(map(int, text.split(",")))
        cells[text] = {}
        for step in STEPS:
            cells[text][step], count = time_cell(shape, step, args.repeat, args.cap, args.seed)
            terms[text] = terms.get(text) or count
        print(text, cells[text], flush=True)
    run = {"repeat": args.repeat, "cap_s": args.cap, "seed": args.seed,
           "machine": {"python": platform.python_version(), "system": platform.system(),
                       "machine": platform.machine(), "cpus": os.cpu_count()},
           "seconds": cells, "terms": terms}
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {
            "steps": list(STEPS), "matrices": {n: matrix(n) for n in (1, 2, 3)}, "runs": {}}
        data["runs"][args.label] = run
        path.write_text(json.dumps(data, indent=2) + "\n")
    else:
        print(json.dumps(run, indent=2))


if __name__ == "__main__":
    main()

"""Traced stand-in for the ``dividedops`` console entry.

    python3 perfbench/cli_shim.py --trace-out FILE -- <dividedops arguments>

Times the import of ``dividedops.cli`` as the span ``cli.import``, wraps
the library's layer boundaries, runs ``dividedops.cli.main`` under the
span ``cli.main``, writes the spans to FILE and exits with main's code.
The library is found through PYTHONPATH, as for ``python3 -m
dividedops.cli``.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: cli_shim.py --trace-out FILE -- ARGS...", file=sys.stderr)
        return 1
    trace_out, args = argv[1], argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tr

    t0 = time.perf_counter()
    import dividedops.cli

    t1 = time.perf_counter()
    tracer = tr.Tracer()
    tracer.add_finished("cli.import", t0, t1, -1, 0.0)
    tr.instrument(tracer)
    tracer.active = True
    rec = tracer.open("cli.main")
    try:
        code = dividedops.cli.main(args)
    finally:
        tracer.close(rec)
        tracer.active = False
        with open(trace_out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

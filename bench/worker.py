"""One benchmark pass, in a fresh single-threaded process started by run.py.

    python3 bench/worker.py --workload NAME --seed N --size full|tiny --out DIR
                            [--trace] [--setup-only]

Imports numpy, scipy and `inertbarrier` (from ./src), writes every
invocation's config under DIR and prints `ready`: that is the set-up run.py
times.  It then calls `inertbarrier.cli.run(argv)` once per invocation and
prints one JSON line with the pass's wall and CPU time and each invocation's
exit code and seconds.  With --trace the calls run through the span wrappers
of spans.py, the spans go to DIR/spans.csv and the line also carries the
per-layer metrics.  An invocation that raises is recorded with exit code
null and its traceback on stderr, so it counts as failed instead of ending
the pass.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import inertbarrier
    from inertbarrier import cli
    from workloads import invocations

    src = os.path.abspath("src")
    if not os.path.abspath(inertbarrier.__file__).startswith(src + os.sep):
        print(f"inertbarrier was imported from {inertbarrier.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    invs = invocations(args.workload, args.seed, args.size)
    for inv in invs:
        outdir = os.path.join(args.out, inv.key)
        os.makedirs(outdir, exist_ok=True)
        if inv.config:
            with open(os.path.join(outdir, "config.txt"), "w") as fh:
                fh.write(inv.config_text())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    run, tracer = cli.run, None
    if args.trace:
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        run = install(tracer)

    records = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for inv in invs:
        t0 = time.perf_counter()
        try:
            code = run(inv.argv(os.path.join(args.out, inv.key)))
        except Exception:
            traceback.print_exc()
            code = None
        records.append({"key": inv.key, "exit_code": code, "seconds": time.perf_counter() - t0})
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "invocations": records,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "inertbarrier": inertbarrier.__version__,
        },
    }
    if tracer is not None:
        tracer.write(os.path.join(args.out, "spans.csv"))
        result["spans"] = tracer.per_name()
        result["layers"] = layer_metrics(tracer, result["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of cone-min-lab: certified scans, the flux oracle, witness re-checks.

Run from the root of a checkout (see bench/README.md):

    python3 bench/run.py --workload scan-wide --seed 1 --seconds 20 --trace 0

Prints a line with the interpreter and library versions, then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of the workload;
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics.  Exits with code 2, printing no result, when ``src/conelab`` is
missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5

# Everything runs serially in one process; keep native libraries to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan-wide", "scan-edge", "oracle", "witness"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str) -> float:
    """Median wall time of fresh interpreters running warmup.py."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "warmup.py"),
                        workload, OUT_DIR], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_plain(wl, seconds: float):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.round())
    return rounds, wl.metrics(rounds)


def run_traced(wl, seconds: float, workload: str, seed: int):
    """Pairs of an untraced and a traced round, the order alternating, so
    that whatever favours the first or the second round of a pair stays out
    of ``trace.overhead_s``.

    Times are lower medians over the traced rounds.  Work counts are the
    first traced round's: inputs change from round to round, and that
    round's are fixed by the seed alone, so its counts repeat exactly.
    """
    import tracing

    tracer = tracing.Tracer()
    rounds, overheads, per_round = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if len(overheads) % 2:
            with tracer.installed():
                traced = wl.round()
            plain = wl.round()
        else:
            plain = wl.round()
            with tracer.installed():
                traced = wl.round()
        rounds += [plain, traced]
        overheads.append(traced.seconds - plain.seconds)
        per_round.append(tracer.take())
    with open(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(per_round, fh, indent=1, sort_keys=True)
    layers = [tracing.layer_metrics(totals) for totals in per_round]
    metrics = {name: (statistics.median_low(m[name][0] for m in layers) if unit == "s"
                      else value, unit)
               for name, (value, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median_low(overheads), "s")
    return rounds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "conelab", "__init__.py")):
        print(f"conelab sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)

    import mpmath
    import numpy
    import scipy

    import workloads

    print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                      "nproc": len(os.sched_getaffinity(0)),
                      "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    problems = workloads.selftest(OUT_DIR)
    if problems:
        print("checker self-test failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.trace:
        rounds, metrics = run_traced(wl, args.seconds, args.workload, args.seed)
    else:
        setup_s = measure_setup(args.workload)
        rounds, metrics = run_plain(wl, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")

    errors = [e for r in rounds for e in r.errors]
    for line in errors[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference figures that are not workloads.

1. scan-wide's 10,005 points with ``parallelism=2`` (the process pool)
   against serial: PAIRS pairs run back to back, the order alternating.
   The host drifts more than the two differ, so the pool is judged by the
   pairs it wins: with 10 pairs, one side winning 9 or more happens by
   chance with probability 0.02.
2. The Tier-1 suite's wall time (``pytest -q``).  It is no workload because
   the suite changes whenever tests are added.

Run from the root of a checkout:

    python3 bench/reference.py
"""

import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "src")
PAIRS = 10


def main() -> int:
    sys.path.insert(0, SRC_DIR)
    import numpy as np

    from conelab import phase

    grid = np.linspace(0.5, 1.0, 2001)
    times = {1: [], 2: []}
    for i in range(PAIRS):
        for workers in ((1, 2) if i % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            phase.scan([2, 3, 4, 5, 6], grid, parallelism=workers)
            times[workers].append(time.perf_counter() - start)
    for workers, ts in times.items():
        print(f"scan-wide parallelism={workers}: median {statistics.median(ts):.3f} s "
              f"over {len(ts)} ({', '.join(f'{t:.3f}' for t in ts)})")
    pool_wins = sum(pool < serial for serial, pool in zip(times[1], times[2]))
    print(f"parallelism=2 faster in {pool_wins} of {PAIRS} pairs")

    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    print(f"tier-1 suite: {elapsed:.1f} s wall ({summary})")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

"""Set-up probe: a fresh interpreter imports conelab and finishes one warm-up op.

``run.py`` times this script from launch to exit to get ``setup_s``.  It
imports nothing of the benchmark's checkers, so their cost stays out.

    python3 bench/warmup.py <workload> <out_dir>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from conelab import competitors, phase, shooting  # noqa: E402
from conelab.geometry import ConeSpace  # noqa: E402


def scan_op(lam, out_dir):
    records = phase.scan([3], [lam])
    phase.emit(records, "csv", os.path.join(out_dir, "warmup.csv"))


def oracle_op():
    space = ConeSpace(2, 0.85)
    for H0, outcome in shooting.find_extending_shots(space, count=3):
        shooting.flux_consistency(space, H0, outcome)


def witness_op():
    space = ConeSpace(3, 0.9)
    res = competitors.competitor_search(space)
    competitors.exp_profile_area(space, res.delta, res.alpha)


def main(workload, out_dir):
    if workload == "scan-wide":
        scan_op(0.9, out_dir)
    elif workload == "scan-edge":
        scan_op(2.0 * 2.0 ** 0.5 / 3.0 - 1e-6, out_dir)
    elif workload == "oracle":
        oracle_op()
    elif workload == "witness":
        witness_op()
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

"""The four workloads: seeded inputs, one timed round of calls, its checks.

Every round of a workload runs the same operations in the same order, so
the share of failed operations is the same in every run.  Program calls go
through module attributes (``phase.scan``, ``shooting.shoot`` ...), which is
where the traced run installs its wrappers.  Only program calls are timed;
the checks run after them.

The host's speed swings by up to 2x within seconds.  So each timed unit (a
``phase.scan`` call, the ``phase.emit`` call, a witness) is reported at its
best time over the run's rounds, the min over repeats of ``timeit``: a unit
that met a fast stretch of the host once reports the same time whatever the
rest of the run did.  Oracle queries, a second or more each, are the
exception (see ``Oracle.metrics``).

Outside ``scan-edge`` no input repeats between the rounds of a run, so a
cache keyed on inputs gains nothing that a single pass would not: witness
lambdas are drawn afresh each round from the same strata, and other inputs
move up by one ulp a round (``nudged``), which keeps every verdict and
failure as it is.  ``scan-edge``'s points are defined to the ulp around
lambda*, and a nudge would move its faults.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from conelab import competitors, phase, shooting
from conelab.errors import NumericError
from conelab.geometry import ConeSpace
from conelab.profiles import LengthProfile


@dataclass
class Round:
    times: list = field(default_factory=list)   # seconds per timed unit, fixed order
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.times)

    def timed(self, fn, *args):
        """Call fn(*args) and record its time as the round's next unit."""
        start = time.perf_counter()
        result = fn(*args)
        self.times.append(time.perf_counter() - start)
        return result


def best_times(rounds) -> np.ndarray:
    """Each timed unit's minimum over the rounds."""
    return np.min(np.array([r.times for r in rounds]), axis=0)


def nudged(x: float, r: int) -> float:
    """Round r's copy of a fixed input: r ulps above x."""
    return x + r * math.ulp(x)


def stratified(rng: random.Random, lo: float, hi: float, m: int) -> list[float]:
    """One uniform draw from each of m equal strata of [lo, hi]."""
    h = (hi - lo) / m
    return [lo + (i + rng.random()) * h for i in range(m)]


def edge_lambdas(n: int) -> list[float]:
    """lam*, lam* +- 10^-k (k = 2..14), lam*(1 +- k 2^-52) (k = 1, 10, 1e6)."""
    s = checks.lam_star(n)
    lams = {s}
    for k in range(2, 15):
        lams.update((s - 10.0 ** -k, s + 10.0 ** -k))
    for k in (1, 10, 10 ** 6):
        lams.update((s * (1 - k * 2.0 ** -52), s * (1 + k * 2.0 ** -52)))
    return sorted(lam for lam in lams if 0.0 < lam <= 1.0)


class Scan:
    """Certified ``phase.scan`` calls, one per n, then one ``phase.emit``.

    With ``nudge``, round r scans every lambda below 1 nudged by r ulps.
    """

    def __init__(self, blocks, path, nudge=False):
        self.blocks = blocks            # [(n, lambdas)], one phase.scan call each
        self.size = sum(len(lams) for _, lams in blocks)
        self.path = path
        self.nudge = nudge
        self.rounds = 0

    def round(self) -> Round:
        r = Round(ops=self.size)
        blocks = self.blocks
        if self.nudge:
            blocks = [(n, [nudged(lam, self.rounds) if lam < 1.0 else lam for lam in lams])
                      for n, lams in blocks]
        self.rounds += 1
        records = []
        for n, lams in blocks:
            records.extend(r.timed(phase.scan, [n], lams))
        r.timed(phase.emit, records, "csv", self.path)
        r.failed, r.errors = checks.check_scan_csv(self.path, dict(blocks))
        return r

    def metrics(self, rounds):
        """Points decided and emitted per second."""
        return {"ops_per_s": (self.size / best_times(rounds).sum(), "1/s")}


def scan_wide(seed: int, out_dir: str) -> Scan:
    """n = 2..6 x 2001 lambdas in [0.5, 1], one ``phase.scan`` per n over its
    whole sorted grid; the seed orders n.  lambda = 1 is never nudged: at
    n = 2 it is the threshold itself.
    """
    rng = random.Random(seed)
    grid = [float(x) for x in np.linspace(0.5, 1.0, 2001)]
    ns = [2, 3, 4, 5, 6]
    rng.shuffle(ns)
    return Scan([(n, list(grid)) for n in ns],
                os.path.join(out_dir, f"scan-wide-{seed}.csv"), nudge=True)


EDGE_NS = list(range(2, 31)) + [50, 100, 200, 1000]


def scan_edge(seed: int, out_dir: str) -> Scan:
    """edge_lambdas(n) for each n in EDGE_NS; the seed orders n and lambda."""
    rng = random.Random(seed)
    blocks = []
    for n in EDGE_NS:
        lams = edge_lambdas(n)
        rng.shuffle(lams)
        blocks.append((n, lams))
    rng.shuffle(blocks)
    return Scan(blocks, os.path.join(out_dir, f"scan-edge-{seed}.csv"))


# n -> lambda range where queries succeed today.  Three queries a round
# (about 3 s) make 5-8 rounds a run.
ORACLE_RANGES = {2: (0.7, 0.95), 3: (0.5, 0.7)}
ORACLE_FIXED = (4, 0.8)                          # returns [] today: counted failed


class Oracle:
    """``find_extending_shots(count=3)``, then ``flux_consistency`` per hit.

    The seed draws one lambda per n in ORACLE_RANGES and orders the queries;
    round r nudges every lambda by r ulps.  A fresh draw each round would
    add its own cost to the host's noise in a query's time, which has only
    the run's few rounds to settle.
    """

    def __init__(self, seed: int, out_dir: str):
        rng = random.Random(seed)
        self.base = [(n, rng.uniform(lo, hi)) for n, (lo, hi) in ORACLE_RANGES.items()]
        self.base.append(ORACLE_FIXED)
        rng.shuffle(self.base)
        self.rounds = 0

    def round(self) -> Round:
        queries = [(n, nudged(lam, self.rounds)) for n, lam in self.base]
        self.rounds += 1
        r = Round(ops=len(queries))
        for n, lam in queries:
            hits = r.timed(query, n, lam)
            if not hits:
                r.failed += 1
            for H0, area, flux in hits:
                r.errors.extend(checks.check_hit(n, H0, area, flux))
        return r

    def metrics(self, rounds):
        """Queries per second, from each query's median over the rounds, not its
        best time: a query spans many of the host's fast and slow stretches,
        and the best of a run's few such spans scatters more from run to run
        than their median.
        """
        typical = np.median(np.array([r.times for r in rounds]), axis=0)
        return {"ops_per_s": (len(typical) / typical.sum(), "1/s")}


def query(n: int, lam: float) -> list:
    """(H0, area, flux) for each extending shot; [] when none is found."""
    space = ConeSpace(n, lam)
    try:
        hits = shooting.find_extending_shots(space, count=3)
        return [(H0, *shooting.flux_consistency(space, H0, outcome))
                for H0, outcome in hits]
    except NumericError:
        return []


WITNESS_NS = (2, 3, 4, 5, 6)
WITNESS_PER_N = 220   # 1,100 witnesses a round
WITNESS_LO, WITNESS_GAP = 0.5, 1e-4       # lambda in [0.5, lam*(n) - 1e-4]
DISKS = ((1e-4, 0.9), (0.01, 0.5), (0.1, 0.3), (0.3, 0.7))
ROUND_SPHERE = LengthProfile.round_sphere()


class Witness:
    """``competitor_search``, then ``exp_profile_area`` at the witness; plus disks.

    Each round draws a lambda afresh in every stratum, in an order the seed
    fixes once; the disks' delta is nudged by the round's ulps.
    """

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(seed)
        self.slots = [(n, i) for n in WITNESS_NS for i in range(WITNESS_PER_N)]
        self.rng.shuffle(self.slots)
        self.rounds = 0

    def round(self) -> Round:
        drawn = {n: stratified(self.rng, WITNESS_LO, checks.lam_star(n) - WITNESS_GAP,
                               WITNESS_PER_N) for n in WITNESS_NS}
        lams = [(n, drawn[n][i]) for n, i in self.slots]
        disks = [(nudged(delta, self.rounds), alpha) for delta, alpha in DISKS]
        self.rounds += 1
        r = Round(ops=len(lams) + len(disks))
        witnesses = [r.timed(competitor_witness, n, lam) for n, lam in lams]
        areas = [r.timed(disk_area, delta, alpha) for delta, alpha in disks]
        for (n, lam), witness in zip(lams, witnesses):
            if witness is None:
                r.failed += 1
                continue
            res, area = witness
            r.errors.extend(checks.check_witness(
                n, lam, res.log_delta, res.alpha, res.margin, res.log_margin_gap,
                res.bound, area))
        for (delta, alpha), area in zip(disks, areas):
            if area is None:
                r.failed += 1
            else:
                r.errors.extend(checks.check_disk(delta, alpha, ROUND_SPHERE.L0, area))
        return r

    def metrics(self, rounds):
        """Witnesses and disks per second."""
        best = best_times(rounds)
        return {"ops_per_s": (len(best) / best.sum(), "1/s")}


def competitor_witness(n: int, lam: float):
    """(SearchResult, quadrature area or None), or None when no witness is found."""
    space = ConeSpace(n, lam)
    try:
        res = competitors.competitor_search(space)
        if not res.found:
            return None
        area = (competitors.exp_profile_area(space, res.delta, res.alpha)
                if res.delta > 0.0 else None)
    except NumericError:
        return None
    return res, area


def disk_area(delta: float, alpha: float):
    try:
        return competitors.disk_profile(delta, alpha, ROUND_SPHERE)[1]
    except NumericError:
        return None


WORKLOADS = {
    "scan-wide": scan_wide,
    "scan-edge": scan_edge,
    "oracle": Oracle,
    "witness": Witness,
}


def selftest(out_dir: str) -> list[str]:
    """Show on real outputs that each checker accepts them and rejects a corruption.

    Corruptions: a flipped scan verdict, a flux off by a relative 1e-5, and
    a witness whose alpha is nudged by a relative 1e-6.
    """
    problems = []
    points = {3: [0.8, 0.95]}
    path = os.path.join(out_dir, "selftest.csv")
    phase.emit(phase.scan([3], points[3]), "csv", path)
    if checks.check_scan_csv(path, points) != (0, []):
        problems.append("scan checker rejects a true scan")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    flipped = os.path.join(out_dir, "selftest-flipped.csv")
    with open(flipped, "w", encoding="utf-8") as fh:
        fh.write(text.replace(",NotMinimizing,", ",Minimizing,", 1))
    if not checks.check_scan_csv(flipped, points)[1]:
        problems.append("scan checker accepts a flipped verdict")

    H0, area, flux = query(2, 0.85)[0]
    if checks.check_hit(2, H0, area, flux):
        problems.append("flux checker rejects a true hit")
    if not checks.check_hit(2, H0, area, flux * (1 + 1e-5)):
        problems.append("flux checker accepts a flux off by 1e-5")

    for n, lam in ((3, 0.8), (3, 0.9), (2, 0.9999)):   # grid, deep, underflowed delta
        res, area = competitor_witness(n, lam)
        args = (res.log_delta, res.alpha, res.margin, res.log_margin_gap, res.bound, area)
        if checks.check_witness(n, lam, *args):
            problems.append(f"witness checker rejects the true witness at ({n}, {lam})")
        nudged = (res.log_delta, res.alpha * (1 + 1e-6)) + args[2:]
        if not checks.check_witness(n, lam, *nudged):
            problems.append(f"witness checker accepts a nudged alpha at ({n}, {lam})")
    return problems

"""Per-layer self time and work counts for the traced run.

The tracer wraps public functions of ``phase``, ``shooting``, ``profiles``
and ``competitors`` by patching the module attributes the program and the
workloads call through, and restores them afterwards.  A function's self
time is its span minus the spans of wrapped calls made inside it; the
per-round totals of every function go to the trace dump, and
``layer_metrics`` picks the metrics every workload reports.  Work counts
come from return values, so they repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import time
from collections import Counter

from conelab import competitors, phase, shooting
from conelab.phase import Certificate, Verdict

# Competitor certificates with a junction below this angle come from the deep
# sweep: the coarse grid and its refinements stop near 1e-6.
DEEP_LOG_DELTA = math.log(1e-8)

# Call sites: the module attribute that is called, so that is what is patched.
SITES = (
    (phase, "scan"), (phase, "decide"), (phase, "emit"),
    (phase, "barrier_certificate"), (phase, "competitor_search"),
    (shooting, "find_extending_shots"), (shooting, "shoot"),
    (shooting, "reconstruct_f"), (shooting, "s_functional"),
    (competitors, "competitor_search"), (competitors, "exp_profile_area"),
    (competitors, "disk_profile"),
)

# Every traced run reports every metric below, whatever its workload: (name, unit).
# Times are per round.  ``trace.program_s`` is the span of the calls the
# workload makes into conelab; ``trace.entry_self_s`` the part of it spent in
# those calls' own code rather than in the wrapped calls they make (dispatch,
# which a batched scan removes).  No layer runs on every workload, so
# per-function self times, which would read 0 on the workloads that do not
# call the function, are left to the per-round dump; the counts below are 0
# where their layer does not run.
LAYER_METRICS = (
    ("trace.program_s", "s"),
    ("trace.entry_self_s", "s"),
    ("phase.decide.calls", "count"),
    ("phase.path.barrier", "count"),
    ("phase.path.grid", "count"),
    ("phase.path.deep", "count"),
    ("phase.path.undetermined", "count"),
    ("phase.emit.bytes", "B"),
    ("shooting.barrier_certificate.calls", "count"),
    ("shooting.barrier_certificate.samples", "count"),
    ("competitors.competitor_search.calls", "count"),
    ("competitors.competitor_search.evaluations", "count"),
    ("shooting.shoot.calls", "count"),
    ("shooting.shoot.steps", "count"),
    ("shooting.find_extending_shots.hit_ratio", "ratio"),
    ("profiles.s_functional.calls", "count"),
    ("profiles.s_functional.evals", "count"),
    ("competitors.exp_profile_area.calls", "count"),
    ("competitors.disk_profile.calls", "count"),
)


class Tracer:
    """Accumulates per-layer totals for one round; ``take`` returns and resets them."""

    def __init__(self):
        self.totals = Counter()
        self._stack = []          # child time of each open span
        self._last_search = None

    def take(self) -> dict:
        totals = dict(self.totals)
        self.totals.clear()
        return totals

    @contextlib.contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr in SITES]
        try:
            for module, attr, fn in originals:
                setattr(module, attr, self._wrap(fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _wrap(self, fn):
        layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"   # e.g. profiles.s_functional
        before = getattr(self, f"_before_{fn.__name__}", None)
        after = getattr(self, f"_after_{fn.__name__}", None)
        totals, stack = self.totals, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                child = stack.pop()
                totals[f"{layer}.self_s"] += span - child
                totals[f"{layer}.calls"] += 1
                if stack:
                    stack[-1] += span
                else:
                    totals["trace.program_s"] += span
                    totals["trace.entry_self_s"] += span - child
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # work counts, read from arguments and return values ---------------------

    def _after_competitor_search(self, args, kwargs, result):
        self.totals["competitors.competitor_search.evaluations"] += result.evaluations
        self._last_search = result

    def _after_shoot(self, args, kwargs, result):
        self.totals["shooting.shoot.steps"] += len(result.thetas)

    def _after_barrier_certificate(self, args, kwargs, result):
        self.totals["shooting.barrier_certificate.samples"] += len(result.thetas)

    def _after_emit(self, args, kwargs, result):
        path = kwargs.get("path", args[2] if len(args) > 2 else None)
        self.totals["phase.emit.bytes"] += os.path.getsize(path)

    def _after_find_extending_shots(self, args, kwargs, result):
        self.totals["shooting.find_extending_shots.hits"] += len(result)

    def _after_decide(self, args, kwargs, decision):
        # a competitor certificate comes from the search this decide just ran
        if decision.verdict is Verdict.UNDETERMINED:
            path = "undetermined"
        elif decision.certificate is Certificate.BARRIER_LINE:
            path = "barrier"
        elif self._last_search.log_delta < DEEP_LOG_DELTA:
            path = "deep"
        else:
            path = "grid"
        self.totals[f"phase.path.{path}"] += 1

    def _before_s_functional(self, args):
        profile, inner = args[0], args[0].eval
        totals = self.totals

        def counted(theta):
            totals["profiles.s_functional.evals"] += 1
            return inner(theta)

        return (dataclasses.replace(profile, eval=counted),) + tuple(args[1:])


def layer_metrics(totals: dict) -> dict:
    """name -> (value, unit) for every metric of LAYER_METRICS."""
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "shooting.find_extending_shots.hit_ratio":
            shots = totals.get("shooting.shoot.calls", 0)
            hits = totals.get("shooting.find_extending_shots.hits", 0)
            out[name] = (hits / shots if shots else 0.0, unit)
        else:
            out[name] = (totals.get(name, 0), unit)
    return out

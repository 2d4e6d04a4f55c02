"""Checkers that re-derive every benchmark output apart from the program.

Nothing here imports ``conelab``.  Scan verdicts are compared with the exact
sign of (n*lam)^2 - 4(n-1) on the rational value of the double lambda; flux
values with the closed form cos(H0)/n; competitor witnesses with their
margin recomputed in mpmath; disk areas with 1/2 L0 alpha^2 cos^2(delta).

Each checker returns ``(failed, errors)``: ``failed`` counts operations that
gave no verdict or hit a fault named in the README, ``errors`` lists outputs
that are wrong.  A run is correct when no checker reports an error.
"""

from __future__ import annotations

import csv
import math
import sys
from fractions import Fraction

import mpmath

MP_DIGITS = 60
FLUX_TOL = 1e-6          # |area - flux| <= FLUX_TOL * flux
FLUX_FORM_TOL = 1e-12    # program flux against cos(H0)/n, relative
MARGIN_TOL = 1e-10       # reported margin against mpmath, relative to gain + cost
GAP_TOL = 1e-12          # reported log gap against mpmath, relative to its terms
BOUND_TOL = 1e-12        # reported bound against the mpmath bound, absolute
AREA_SLACK = 1e-9        # exp_profile_area <= bound + AREA_SLACK
DISK_TOL = 1e-10         # disk area against its closed form, absolute


def lam_star(n: int) -> float:
    """The double nearest the expression 2 sqrt(n-1)/n, as the scans use it."""
    return 2.0 * math.sqrt(n - 1.0) / n


def exact_verdict(n: int, lam: float) -> str:
    """Minimizing iff (n lam)^2 >= 4(n-1), evaluated on Fraction(lam).

    The tie (only at n = 2, lam = 1) is Minimizing by the program's convention.
    """
    q = Fraction(lam)
    return "Minimizing" if (n * q) ** 2 - 4 * (n - 1) >= 0 else "NotMinimizing"


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def check_scan_csv(path, points: dict) -> tuple[int, list[str]]:
    """Check every verdict of an emitted scan CSV.

    ``points`` maps n to the lambdas handed to the scan; the CSV must hold
    each (n, lambda) exactly once.  Undetermined rows count as failed, and
    so does Minimizing at lambda = lam_star(n) where the exact sign says
    NotMinimizing, the named threshold fault.  Any other wrong verdict is an
    error.
    """
    expected = {(n, lam) for n, lams in points.items() for lam in lams}
    seen = set()
    failed, errors = 0, []
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in rows:
            n, lam, verdict = int(row["n"]), float(row["lambda"]), row["verdict"]
            key = (n, lam)
            if key not in expected or key in seen:
                errors.append(f"unexpected or repeated row n={n} lambda={lam!r}")
                continue
            seen.add(key)
            if verdict == "Undetermined":
                failed += 1
            elif verdict != exact_verdict(n, lam):
                if lam == lam_star(n) and verdict == "Minimizing":
                    failed += 1
                else:
                    errors.append(f"n={n} lambda={lam!r}: {verdict}, "
                                  f"exact sign says {exact_verdict(n, lam)}")
    missing = len(expected) - len(seen)
    if missing:
        errors.append(f"{missing} scan points missing from {path}")
    return failed, errors


# ---------------------------------------------------------------------------
# flux oracle
# ---------------------------------------------------------------------------

def check_hit(n: int, H0: float, area: float, flux: float) -> list[str]:
    """An extending shot from H0: flux is cos(H0)/n < 1/n and matches the area."""
    errors = []
    reference = math.cos(H0) / n
    if not abs(flux - reference) <= FLUX_FORM_TOL * reference:
        errors.append(f"n={n} H0={H0!r}: flux {flux!r} != cos(H0)/n = {reference!r}")
    if not flux < 1.0 / n:
        errors.append(f"n={n} H0={H0!r}: flux {flux!r} not below 1/n")
    if not abs(area - flux) <= FLUX_TOL * flux:
        errors.append(f"n={n} H0={H0!r}: area {area!r} differs from flux {flux!r}")
    return errors


# ---------------------------------------------------------------------------
# competitor witnesses
# ---------------------------------------------------------------------------

def _exact_margin_terms(n: int, lam: float, log_delta: float, alpha: float):
    """(gain, cost, log-gap scale) of the witness, in mpmath.

    margin*n = alpha^n sin(delta)^p - (1 - alpha^n)(sqrt(1+x) - 1), with
    p = n lam / sqrt(n-1) and x = (lam delta / ln alpha)^2.  sqrt(1+x) - 1 is
    written as x / (sqrt(1+x) + 1), which is the same number without the
    cancellation that would zero it for tiny delta.
    """
    with mpmath.workdps(MP_DIGITS):
        lam_, a, ld = mpmath.mpf(lam), mpmath.mpf(alpha), mpmath.mpf(log_delta)
        p = n * lam_ / mpmath.sqrt(n - 1)
        delta = mpmath.exp(ld)
        x = (lam_ * delta / mpmath.log(a)) ** 2
        an = a ** n
        gain = an * mpmath.sin(delta) ** p
        cost = (1 - an) * x / (mpmath.sqrt(1 + x) + 1)
        scale = abs(n * mpmath.log(a)) + (p + 2) * abs(ld) + 1
        return gain, cost, scale


def check_witness(n: int, lam: float, log_delta: float, alpha: float,
                  margin: float, log_gap: float, bound: float,
                  area=None) -> list[str]:
    """A competitor witness (log delta, alpha) must beat the cone.

    The margin recomputed at 60 digits must be positive, and the reported
    margin (when it is a normal double), log gap (otherwise) and bound must
    match the recomputation; a quadrature area must not exceed the bound.
    """
    errors = []
    gain, cost, scale = _exact_margin_terms(n, lam, log_delta, alpha)
    tag = f"n={n} lambda={lam!r} log_delta={log_delta!r} alpha={alpha!r}"
    with mpmath.workdps(MP_DIGITS):
        exact = (gain - cost) / n
        if not exact > 0:
            errors.append(f"{tag}: margin {mpmath.nstr(exact, 5)} is not positive")
        if abs(margin) >= sys.float_info.min:
            # a double difference of gain and cost is good to a few ulps of the terms
            if not abs(margin - exact) <= MARGIN_TOL * (gain + cost) / n:
                errors.append(f"{tag}: margin {margin!r} != {mpmath.nstr(exact, 17)}")
        else:
            exact_gap = mpmath.log(gain) - mpmath.log(cost)
            if not abs(log_gap - exact_gap) <= GAP_TOL * scale:
                errors.append(f"{tag}: log gap {log_gap!r} != {mpmath.nstr(exact_gap, 17)}")
        exact_bound = mpmath.mpf(1) / n - exact
        if not abs(bound - exact_bound) <= BOUND_TOL:
            errors.append(f"{tag}: bound {bound!r} != {mpmath.nstr(exact_bound, 17)}")
    if area is not None and not area <= bound + AREA_SLACK:
        errors.append(f"{tag}: quadrature area {area!r} exceeds bound {bound!r}")
    return errors


def check_disk(delta: float, alpha: float, L0: float, area: float) -> list[str]:
    """Round-sphere disk area telescopes to 1/2 L0 alpha^2 cos^2(delta)."""
    reference = 0.5 * L0 * alpha ** 2 * math.cos(delta) ** 2
    if abs(area - reference) <= DISK_TOL:
        return []
    return [f"disk delta={delta!r} alpha={alpha!r}: area {area!r} != {reference!r}"]

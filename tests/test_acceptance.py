"""Acceptance suite: one test per headline claim, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as the
criteria complete.
"""

import math
import time

import numpy as np

from conelab.competitors import (catenoid_area_closed_form, competitor_search,
                                 disk_profile, exp_profile_area,
                                 exp_profile_bound, solve_catenoid)
from conelab.geometry import (ConeSpace, RevolutionSurface, density_ratio,
                              equator_cone)
from conelab.phase import empirical_threshold, scan, threshold
from conelab.profiles import LengthProfile
from conelab.shooting import (OutcomeKind, barrier_certificate,
                              find_extending_shots, flux_consistency, shoot)
from conelab.stability import (TestFunctionEta, instability_certificate,
                               stability_gap)
from conelab.geometry import cone_ricci, cone_sectional

L0 = 2 * math.pi


def _report(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} — {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_1_threshold_reproduction():
    worst = 0.0
    for n in (3, 4, 5, 6):
        start = time.perf_counter()
        lam_star = threshold(n)
        grid = np.linspace(lam_star - 0.05, lam_star + 0.05, 2001)
        records = scan([n], grid, mode="certified", measure_time=False)
        crossover = empirical_threshold(records, n)
        elapsed = time.perf_counter() - start
        worst = max(worst, abs(crossover - lam_star))
        assert elapsed < 120.0, f"n={n} scan took {elapsed:.1f}s"
    _report(1, f"certified crossover matches 2*sqrt(n-1)/n "
               f"(worst error {worst:.2e} <= 1e-3)", worst <= 1e-3)


def test_criterion_2_n2_never_minimizing_below_one():
    ok = True
    for lam in (0.5, 0.9, 0.99):
        space = ConeSpace(2, lam)
        res = competitor_search(space)
        # margin is the compensated evaluation of 1/2 - bound; positivity is
        # the certified statement bound < 1/2 even when the difference is
        # far below the resolution of the bound's own floating-point value
        ok &= res.found and res.margin > 0.0
        numeric = exp_profile_area(space, res.delta, res.alpha)
        ok &= numeric <= res.bound + 1e-9
    _report(2, "n=2 competitors beat 1/2 for lambda in {0.5, 0.9, 0.99}, "
               "confirmed by quadrature", ok)


def test_criterion_3_closed_form_flux_oracle():
    space = ConeSpace(3, 0.90)
    hits = find_extending_shots(space, count=3)
    ok = len(hits) == 3
    worst = 0.0
    for H0, outcome in hits:
        area, flux = flux_consistency(space, H0, outcome)
        worst = max(worst, abs(area - flux) / flux)
    ok &= worst <= 1e-6
    _report(3, f"3 extending shots: quadrature area matches closed-form flux "
               f"(worst rel {worst:.2e} <= 1e-6)", ok)


def test_criterion_3_flux_oracle_on_several_separatrices():
    worst_area = worst_closed = 0.0
    ok = True
    for n, lam in ((2, 0.75), (2, 0.9), (3, 0.55), (3, 0.9)):
        space = ConeSpace(n, lam)
        hits = find_extending_shots(space, count=3)
        ok &= len(hits) == 3
        for H0, outcome in hits:
            area, flux = flux_consistency(space, H0, outcome)
            worst_area = max(worst_area, abs(area - flux) / flux)
            worst_closed = max(worst_closed, abs(flux - math.cos(H0) / n))
    ok &= worst_area <= 1e-6 and worst_closed <= 1e-12
    _report(3, f"extending shots on 4 separatrices: quadrature area matches "
               f"closed-form flux (worst rel {worst_area:.2e} <= 1e-6), flux "
               f"matches cos(H0)/n (worst {worst_closed:.1e} <= 1e-12)", ok)


def test_criterion_4_catenoid_expansion():
    alpha = 0.5
    target = alpha**2 * (1 + 1 / (-math.log(alpha)))  # ~0.61067
    coefs = {}
    for delta in (1e-2, 3e-3, 1e-3):
        params = solve_catenoid(delta, alpha)
        area = catenoid_area_closed_form(params, L0)
        coefs[delta] = (area * 2 / L0 - (1 - alpha**2)) / delta**2
    d1, d2 = 3e-3, 1e-3
    extrap = (coefs[d2] * d1 - coefs[d1] * d2) / (d1 - d2)
    neck_ratio = solve_catenoid(1e-3, alpha).a / 1e-3
    neck_target = alpha / (-math.log(alpha))  # ~0.72135
    ok = (abs(extrap - target) <= 0.02 * target
          and abs(neck_ratio - neck_target) <= 0.01 * neck_target)
    _report(4, f"catenoid area coefficient {extrap:.5f} ~ {target:.5f} (2%) "
               f"and neck ratio {neck_ratio:.5f} ~ {neck_target:.5f} (1%)", ok)


def test_criterion_5_disk_exact_round_sphere():
    delta, alpha = 0.1, 0.5
    profile, area = disk_profile(delta, alpha, LengthProfile.round_sphere())
    closed = 0.5 * L0 * alpha**2 * math.cos(delta) ** 2
    ok = abs(area - closed) <= 1e-10
    # quadratic-defect bound with the round-sphere constants L(0) = F = 2*pi
    bound = 0.5 * L0 * (alpha**2 - alpha**2 * delta**2) + 0.5 * L0 * alpha**2 * delta**4
    ok &= area <= bound
    _report(5, f"disk area matches (1/2)L0 a^2 cos^2(d) to {abs(area - closed):.1e} "
               "and satisfies the quadratic defect bound", ok)


def test_criterion_6_stability_gap():
    eta = TestFunctionEta(1.0, math.exp(3.0))
    gap = stability_gap(1 / math.sqrt(2), eta)
    ok = abs(gap - 1.0) <= 1e-12
    for lam in (0.5, 0.7, 0.9):
        cert = instability_certificate(lam)
        ok &= cert is not None and cert.gap > 0.0
    ok &= instability_certificate(1.0) is None
    _report(6, f"stability gap at (1/sqrt2, e^3) = {gap!r}; certificates exist "
               "below radius 1 and vanish at 1", ok)


def test_criterion_7_monotonicity():
    cone = equator_cone(ConeSpace(3, 0.9))
    ratios = [density_ratio(cone, r) for r in (0.1, 1.0, 10.0)]
    ok = (max(ratios) - min(ratios)) <= 1e-10 * ratios[0]
    catenoid = RevolutionSurface.catenoid()
    vals = [density_ratio(catenoid, float(r)) for r in np.linspace(1.2, 30.0, 20)]
    ok &= all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))
    _report(7, "cone density ratio constant over a decade of radii; catenoid "
               "density nondecreasing across 20 radii", ok)


def test_criterion_8_barrier_certificate():
    ok = True
    for n in (3, 4, 5, 6):
        lam = min(1.0, (2 * math.sqrt(n - 1) + 0.01) / n)
        space = ConeSpace(n, lam)
        cert = barrier_certificate(space, samples=1000)
        ok &= cert.margin > 0.0
        for H0 in np.linspace(math.pi / 40, math.pi / 2, 20):
            ok &= shoot(space, float(H0)).kind is not OutcomeKind.EXTENDS_TO_HALF_PI
    _report(8, "barrier margin positive over 1000 line samples and no shot "
               "from 20 start angles extends to pi/2", ok)


def test_criterion_9_curvature_sanity():
    ok = True
    for n in (2, 3, 4, 6):
        flat = ConeSpace(n, 1.0)
        for t in (0.1, 1.0, 10.0):
            ok &= cone_sectional(flat, t, "tangential") == 0.0
            ok &= cone_ricci(flat, t, "tangential") == 0.0
            ok &= cone_sectional(flat, t, "radial") == 0.0
        curved = ConeSpace(n, 0.7)
        base_s = cone_sectional(curved, 1.0, "tangential")
        base_r = cone_ricci(curved, 1.0, "tangential")
        for t in (0.01, 0.5, 3.0, 100.0):
            ok &= abs(cone_sectional(curved, t, "tangential") * t * t - base_s) \
                <= 1e-12 * abs(base_s)
            ok &= abs(cone_ricci(curved, t, "tangential") * t * t - base_r) \
                <= 1e-12 * abs(base_r)
    _report(9, "all curvatures vanish at radius 1; inverse-square radial "
               "scaling exact to 1e-12", ok)

"""Command-line front end.

One subcommand per module: ``scan`` sweeps the (n, lambda) plane, ``shoot``
integrates a single trajectory of the angle ODE, ``competitor`` searches or
evaluates explicit competitors, ``stability`` prints instability
certificates, ``curvature`` evaluates cone curvatures, and ``monotonicity``
tabulates density ratios.  A JSON config file may supply any flag; explicit
command-line flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import geometry, phase, shooting, stability
from .competitors import _margin_and_log_gap, competitor_search, exp_profile_area
from .geometry import ConeSpace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cone-min-lab",
        description="Numerical laboratory for area-minimizing hypercones "
                    "over round spheres.")
    parser.add_argument("--config", help="JSON file supplying default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="sweep the (n, lambda) plane")
    p.add_argument("--n", type=int, nargs="+", default=None,
                   help="cross-section dimensions (default: 2 3 4 5 6)")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--lambda-points", type=int, default=None)
    p.add_argument("--mode", choices=["certified", "formula-only"], default=None)
    p.add_argument("--parallelism", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json", "svg"], default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--no-timing", action="store_true", default=None,
                   help="zero the wall_time_ms column for reproducible output")

    p = sub.add_parser("shoot", help="integrate one trajectory of the angle ODE")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--h0", type=float, required=True, help="start angle in (0, pi/2]")
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--output", default=None, help="write (theta, H, f) samples here")

    p = sub.add_parser("competitor", help="evaluate or search for a competitor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--output", default=None, help="write the report as JSON")

    p = sub.add_parser("stability", help="instability certificate for a 2-d cone")
    p.add_argument("--lam", type=float, required=True)

    p = sub.add_parser("curvature", help="cone curvatures at a given radius")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--t", type=float, default=1.0)

    p = sub.add_parser("monotonicity", help="density ratios across ball radii")
    p.add_argument("--surface", choices=["equator-cone", "hyperplane", "catenoid"],
                   default="equator-cone")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--lam", type=float, default=0.9)
    p.add_argument("--radii", type=float, nargs="+", default=None)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset (None) flags from the JSON config, if one was given."""
    if not args.config:
        return
    with open(args.config, encoding="utf-8") as fh:
        defaults = json.load(fh)
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def _cmd_scan(args) -> int:
    ns = args.n or [2, 3, 4, 5, 6]
    lo = args.lambda_min if args.lambda_min is not None else 0.5
    hi = args.lambda_max if args.lambda_max is not None else 1.0
    pts = args.lambda_points if args.lambda_points is not None else 26
    grid = np.linspace(lo, hi, pts)
    records = phase.scan(ns, grid, mode=args.mode or "certified",
                            parallelism=args.parallelism or 1,
                            measure_time=not args.no_timing)
    fmt = args.format or "csv"
    if args.output:
        phase.emit(records, fmt, args.output)
        print(f"wrote {len(records)} records to {args.output}")
    else:
        for rec in records:
            d = rec.decision
            print(f"n={rec.n} lambda={rec.lam:.6f} -> {d.verdict.value}"
                  f" ({d.certificate.value if d.certificate else '-'},"
                  f" margin={d.margin:.3e})")
    for n in sorted(set(ns)):
        try:
            emp = phase.empirical_threshold(records, n)
            print(f"n={n}: empirical threshold {emp:.6f}"
                  f" (formula {phase.threshold(n):.6f})")
        except ValueError:
            pass
    return 0


def _cmd_shoot(args) -> int:
    space = ConeSpace(n=args.n, lam=args.lam)
    rtol = shooting.RTOL if args.rtol is None else args.rtol
    outcome = shooting.shoot(space, args.h0, rtol=rtol)
    print(f"outcome: {outcome.kind.value}")
    print(f"steps: {outcome.steps} accepted, {outcome.rejected} rejected")
    if outcome.diagnostics:
        print(f"diagnostics: {outcome.diagnostics}")
    if outcome.theta_exit is not None:
        print(f"theta_exit: {outcome.theta_exit:.12g}")
    if outcome.f_end is not None:
        print(f"f(pi/2): {outcome.f_end:.12g}")
        area, flux = shooting.flux_consistency(space, args.h0, outcome)
        print(f"normalized area (quadrature): {area:.12g}")
        print(f"boundary flux (closed form):  {flux:.12g}")
    if args.output:
        shooting.write_trajectory(args.output, outcome)
        print(f"wrote trajectory to {args.output}")
    return 0


def _cmd_competitor(args) -> int:
    space = ConeSpace(n=args.n, lam=args.lam)
    if args.delta is not None:   # main has checked that alpha is given too
        # exp_profile_area first: it rejects a junction outside (0, pi/2) x (0, 1)
        numeric = exp_profile_area(space, args.delta, args.alpha)
        delta, alpha, log_delta = args.delta, args.alpha, math.log(args.delta)
        margin, log_gap = (float(v) for v in _margin_and_log_gap(
            space.n, np.float64(space.lam), math.log(alpha), log_delta, delta))
    else:
        res = competitor_search(space)
        delta, alpha, log_delta = res.delta, res.alpha, res.log_delta
        margin, log_gap = res.margin, res.log_margin_gap
        # log_delta and log_margin_gap still check a witness whose delta is 0.0
        numeric = exp_profile_area(space, delta, alpha) if res.found and delta > 0.0 else None
    report = {"n": space.n, "lambda": space.lam, "delta": delta, "log_delta": log_delta,
              "alpha": alpha, "bound": 1.0 / space.n - margin, "numeric": numeric,
              "margin": margin, "log_margin_gap": log_gap,
              "verdict": "NotMinimizing" if log_gap > 0.0 else "Inconclusive"}
    for key, value in report.items():
        print(f"{key}: {value}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote report to {args.output}")
    return 0


def _cmd_stability(args) -> int:
    cert = stability.instability_certificate(args.lam)
    if cert is None:
        print(f"lambda={args.lam}: stable (flat hyperplane), no certificate")
        return 0
    print(f"lambda={args.lam}: unstable")
    print(f"log(R/eps): {cert.log_ratio:.12g}  (gap {cert.gap:.6g})")
    if cert.R is not None:
        print(f"certifying pair: eps={cert.epsilon}, R={cert.R:.6g}")
    else:
        print("ratio exceeds double range; exponent reported instead")
    print(f"critical log(R/eps): {stability.critical_log_ratio(args.lam):.12g}")
    return 0


def _cmd_curvature(args) -> int:
    space = ConeSpace(n=args.n, lam=args.lam)
    for fn, name in [(geometry.cone_sectional, "sectional"),
                     (geometry.cone_ricci, "ricci")]:
        for direction in (geometry.TANGENTIAL, geometry.RADIAL):
            print(f"{name}[{direction}](t={args.t}): "
                  f"{fn(space, args.t, direction):.12g}")
    return 0


def _cmd_monotonicity(args) -> int:
    radii = args.radii or [0.1, 0.5, 1.0, 2.0, 10.0]
    if args.surface == "equator-cone":
        surface = geometry.equator_cone(ConeSpace(n=args.n, lam=args.lam))
    elif args.surface == "hyperplane":
        surface = geometry.hyperplane(args.n)
    else:
        surface = geometry.RevolutionSurface.catenoid()
        radii = [r for r in radii if r > surface.rho(0.0)] or [2.0, 5.0]
    for r in radii:
        print(f"r={r:g}: density ratio {geometry.density_ratio(surface, r):.12g}")
    return 0


_COMMANDS = {
    "scan": _cmd_scan,
    "shoot": _cmd_shoot,
    "competitor": _cmd_competitor,
    "stability": _cmd_stability,
    "curvature": _cmd_curvature,
    "monotonicity": _cmd_monotonicity,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _apply_config(args)
    if args.command == "competitor" and (args.delta is None) != (args.alpha is None):
        parser.error("competitor: give both --delta and --alpha, or neither")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

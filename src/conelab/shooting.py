"""First-order angle ODE for rotationally symmetric area-stationary graphs.

The substitution angle H satisfies  H' = n*lam - (n-1) tan(theta) cot(H)
with f recovered from f'/f = -lam cot(H).  Trajectories live in the box
0 < theta < pi/2, 0 < H < pi/2; exits through the floor (H -> 0, vertical
tangent) or the ceiling (H -> pi/2, profile turning increasing) disqualify
a candidate minimizer, and only trajectories reaching theta = pi/2 inside
the box reconstruct admissible decreasing profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .errors import NumericError
from .geometry import ConeSpace
from .profiles import QuadratureConfig, RadialProfile, s_functional

HALF_PI = math.pi / 2.0


class OutcomeKind(Enum):
    EXTENDS_TO_HALF_PI = "ExtendsToHalfPi"
    EXITS_AT_FLOOR = "ExitsAtFloor"
    EXITS_AT_CEILING = "ExitsAtCeiling"
    STALLED_NUMERIC = "StalledNumeric"


@dataclass(frozen=True)
class ShootConfig:
    h_floor: float = 1e-9       # H at or below this counts as a floor exit
    h_switch: float = 1e-4      # swap independent variable below this H
    theta_pad: float = 1e-6     # integrate up to pi/2 - theta_pad
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.h_floor < self.h_switch < HALF_PI:
            raise ValueError("need 0 < h_floor < h_switch < pi/2")
        if not 0.0 < self.theta_pad < 0.1:
            raise ValueError("theta_pad must be in (0, 0.1)")


@dataclass(frozen=True)
class ShootingOutcome:
    kind: OutcomeKind
    thetas: np.ndarray          # sampled polar angles
    Hs: np.ndarray              # substitution angle along the trajectory
    log_fs: np.ndarray          # log f along the trajectory (f(0) = 1)
    theta_exit: Optional[float] = None
    f_end: Optional[float] = None
    diagnostics: str = ""
    dense: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class BarrierCertificate:
    c: float
    thetas: np.ndarray
    rhs_values: np.ndarray
    margin: float


def h_rhs(theta: float, H: float, space: ConeSpace) -> float:
    """Right-hand side of the angle ODE."""
    if not 0.0 <= theta < HALF_PI:
        raise ValueError(f"theta must lie in [0, pi/2), got {theta}")
    if not 0.0 < H < math.pi:
        raise ValueError(f"H must lie in (0, pi) for cot(H), got {H}")
    return space.n * space.lam - (space.n - 1) * math.tan(theta) / math.tan(H)


BARRIER_SAMPLES = 1000  # interior sample angles on each barrier line


def _larger_roots(n: int, lams: np.ndarray) -> np.ndarray:
    """Larger root of c^2 - n*lam*c + (n-1) = 0 per lambda, NaN where not real."""
    nl = n * lams
    disc = nl * nl - 4.0 * (n - 1)
    real = disc >= 0.0
    cs = np.full(lams.shape, np.nan)
    cs[real] = (nl[real] + np.sqrt(disc[real])) / 2.0
    return cs


def barrier_roots(space: ConeSpace):
    """Both roots of c^2 - n*lam*c + (n-1) = 0, or None below the discriminant."""
    c = float(_larger_roots(space.n, np.array([space.lam]))[0])
    return None if math.isnan(c) else ((space.n - 1) / c, c)


def barrier_slope(space: ConeSpace) -> Optional[float]:
    """Larger root of c = n*lam - (n-1)/c, when real (n*lam >= 2 sqrt(n-1))."""
    roots = barrier_roots(space)
    return None if roots is None else roots[1]


def _barrier_lines(n: int, lams: np.ndarray, samples: int):
    """The barrier line H = c*theta of every lambda as (c, thetas, rhs, margin).

    c and margin hold one entry per lambda, NaN where n*lam < 2 sqrt(n-1)
    and no line exists; thetas and rhs (H' along the line) hold one row per
    line that exists.  The samples split (0, theta_max) evenly, theta_max =
    pi/2 * min(1, 1/c) keeping c*theta inside (0, pi/2); the margin is the
    least rhs - c over them.
    """
    cs = _larger_roots(n, lams)
    real = ~np.isnan(cs)
    c = cs[real]
    theta_max = HALF_PI * np.minimum(1.0, 1.0 / c)
    thetas = theta_max[:, None] * np.arange(1, samples + 1) / (samples + 1)
    # rhs = n*lam - (n-1) tan(theta) / tan(c theta), computed in place
    rhs = np.tan(thetas)
    rhs *= n - 1
    c_thetas = c[:, None] * thetas
    rhs /= np.tan(c_thetas, out=c_thetas)
    np.subtract((n * lams[real])[:, None], rhs, out=rhs)
    margins = np.full(lams.shape, np.nan)
    # rounding is monotone, so min(rhs) - c is the least of the rhs - c
    margins[real] = rhs.min(axis=1) - c
    return cs, thetas, rhs, margins


def barrier_margins(n: int, lams: np.ndarray) -> np.ndarray:
    """Barrier margin of ``barrier_certificate`` for every lambda at once.

    NaN where no barrier line exists.  The samples make BARRIER_SAMPLES
    columns per lambda, so callers bound the temporaries' size by the number
    of lambdas they pass.
    """
    return _barrier_lines(n, np.asarray(lams, dtype=float), BARRIER_SAMPLES)[3]


def barrier_certificate(space: ConeSpace,
                        samples: int = BARRIER_SAMPLES) -> BarrierCertificate:
    """Check H' > c on the line H = c*theta at interior sample points.

    A positive minimum margin certifies that no trajectory can cross the
    line from left to right inside the working box.
    """
    cs, thetas, rhs, margins = _barrier_lines(space.n, np.array([space.lam]), samples)
    if math.isnan(cs[0]):
        raise ValueError("no barrier slope: n*lam < 2 sqrt(n-1)")
    return BarrierCertificate(c=float(cs[0]), thetas=thetas[0], rhs_values=rhs[0],
                              margin=float(margins[0]))


def boundary_flux(A: float, space: ConeSpace) -> float:
    """Closed-form normalized area of a profile solving the ODE up to pi/2.

    Equals -A / (n sqrt(A^2 + lam^2)) for initial slope A <= 0; strictly
    below 1/n for finite A.
    """
    if A > 0.0:
        raise ValueError(f"initial slope must be <= 0, got {A}")
    if math.isinf(A):
        return 1.0 / space.n
    return -A / (space.n * math.hypot(A, space.lam))


def initial_slope(H0: float, space: ConeSpace) -> float:
    """Initial profile slope A = f'(0) corresponding to a start angle H0."""
    if not 0.0 < H0 <= HALF_PI:
        raise ValueError(f"H0 must lie in (0, pi/2], got {H0}")
    return -space.lam / math.tan(H0)


def _floor_tail(space: ConeSpace, theta_e: float, H_e: float, logf_e: float,
                cfg: ShootConfig):
    """Integrate theta as a function of H from H_e down to the floor."""
    n, lam = space.n, space.lam

    def rhs(H, y):
        theta = y[0]
        slope = n * lam - (n - 1) * math.tan(theta) / math.tan(H)
        return [1.0 / slope, -lam / math.tan(H) / slope]

    sol = solve_ivp(rhs, (H_e, cfg.h_floor), [theta_e, logf_e],
                    method="RK45", rtol=cfg.rtol, atol=cfg.atol)
    if not sol.success:
        return None
    return sol


def shoot(space: ConeSpace, H0: float, cfg: ShootConfig = ShootConfig()) -> ShootingOutcome:
    """Integrate the angle ODE from theta = 0 until an exit or theta = pi/2.

    Near the floor the right-hand side blows up, so below ``h_switch`` the
    roles of theta and H are swapped and the tail is integrated in H.
    """
    if not 0.0 < H0 <= HALF_PI:
        raise ValueError(f"H0 must lie in (0, pi/2], got {H0}")
    n, lam = space.n, space.lam
    ceiling = HALF_PI - cfg.h_floor

    if H0 >= ceiling:
        # H'(0) = n*lam > 0 pushes the trajectory straight out of the box.
        return ShootingOutcome(kind=OutcomeKind.EXITS_AT_CEILING,
                               thetas=np.array([0.0]), Hs=np.array([H0]),
                               log_fs=np.array([0.0]), theta_exit=0.0)

    def rhs(theta, y):
        cot = 1.0 / math.tan(y[0])
        return [n * lam - (n - 1) * math.tan(theta) * cot, -lam * cot]

    theta_end = HALF_PI - cfg.theta_pad
    theta0, y0 = 0.0, [H0, 0.0]
    thetas_acc, Hs_acc, logfs_acc = [], [], []
    switch = min(cfg.h_switch, H0 / 2.0)
    dense, restarted = None, False

    for _ in range(40):
        floor_ev = lambda t, y, s=switch: y[0] - s
        floor_ev.terminal, floor_ev.direction = True, -1.0
        ceil_ev = lambda t, y: y[0] - ceiling
        ceil_ev.terminal, ceil_ev.direction = True, 1.0

        sol = solve_ivp(rhs, (theta0, theta_end), y0, method="RK45",
                        rtol=cfg.rtol, atol=cfg.atol, dense_output=True,
                        events=[floor_ev, ceil_ev])
        thetas_acc.append(sol.t)
        Hs_acc.append(sol.y[0])
        logfs_acc.append(sol.y[1])
        # dense output spans one solve_ivp call only; useless after a restart
        dense = None if restarted else sol.sol

        if not sol.success and sol.status != 1:
            # the plunge toward the floor is stiff in theta; if the state is
            # falling steeply, finish it in the swapped variable instead
            te, He, logfe = float(sol.t[-1]), float(sol.y[0][-1]), float(sol.y[1][-1])
            slope_here = n * lam - (n - 1) * math.tan(te) / math.tan(He)
            if slope_here < -1.0 and He < HALF_PI / 2.0:
                tail = _floor_tail(space, te, He, logfe, cfg)
                if tail is not None:
                    thetas_acc.append(tail.y[0])
                    Hs_acc.append(tail.t)
                    logfs_acc.append(tail.y[1])
                    return _finish(OutcomeKind.EXITS_AT_FLOOR, thetas_acc, Hs_acc,
                                   logfs_acc, theta_exit=float(tail.y[0][-1]))
            return _finish(OutcomeKind.STALLED_NUMERIC, thetas_acc, Hs_acc, logfs_acc,
                           diagnostics=sol.message, dense=dense)

        if sol.status == 0:
            return _finish(OutcomeKind.EXTENDS_TO_HALF_PI, thetas_acc, Hs_acc,
                           logfs_acc, theta_exit=theta_end, dense=dense,
                           f_end=math.exp(sol.y[1][-1]))

        if sol.t_events[1].size:  # ceiling
            te = float(sol.t_events[1][0])
            return _finish(OutcomeKind.EXITS_AT_CEILING, thetas_acc, Hs_acc,
                           logfs_acc, theta_exit=te, dense=dense)

        # floor event at H = switch
        te = float(sol.t_events[0][0])
        He, logfe = float(sol.y_events[0][0][0]), float(sol.y_events[0][0][1])
        slope_here = n * lam - (n - 1) * math.tan(te) / math.tan(He)
        if slope_here < -1e-3 or switch <= 10.0 * cfg.h_floor:
            tail = _floor_tail(space, te, He, logfe, cfg)
            if tail is None:
                return _finish(OutcomeKind.STALLED_NUMERIC, thetas_acc, Hs_acc,
                               logfs_acc, diagnostics="floor tail failed", dense=dense)
            thetas_acc.append(tail.y[0])
            Hs_acc.append(tail.t)
            logfs_acc.append(tail.y[1])
            return _finish(OutcomeKind.EXITS_AT_FLOOR, thetas_acc, Hs_acc, logfs_acc,
                           theta_exit=float(tail.y[0][-1]))
        # grazing: the trajectory may still turn around; resume with a lower switch
        theta0, y0, switch = te, [He, logfe], switch / 10.0
        restarted = True

    return _finish(OutcomeKind.STALLED_NUMERIC, thetas_acc, Hs_acc, logfs_acc,
                   diagnostics="switch threshold underflow", dense=dense)


def _finish(kind, thetas_acc, Hs_acc, logfs_acc, theta_exit=None, f_end=None,
            diagnostics="", dense=None):
    thetas = np.concatenate(thetas_acc)
    Hs = np.concatenate(Hs_acc)
    logfs = np.concatenate(logfs_acc)
    return ShootingOutcome(kind=kind, thetas=thetas, Hs=Hs, log_fs=logfs,
                           theta_exit=theta_exit, f_end=f_end,
                           diagnostics=diagnostics, dense=dense)


def reconstruct_f(outcome: ShootingOutcome, space: ConeSpace) -> RadialProfile:
    """Profile f(theta) = exp(-lam * integral of cot H) along a trajectory.

    Only trajectories that stay off the floor reconstruct a graph; beyond the
    recorded end the profile is continued by its final value (the derivative
    there is O(pad), which is below quadrature tolerance for the uses here).
    """
    if outcome.kind is OutcomeKind.EXITS_AT_FLOOR:
        raise ValueError("trajectory reaches the floor: profile has a vertical tangent")
    lam = space.lam
    t_last = float(outcome.thetas[-1])
    f_last = math.exp(float(outcome.log_fs[-1]))

    if outcome.dense is not None:
        dense = outcome.dense
        t_hi = dense.t_max

        def f_eval(theta):
            if theta >= t_hi:
                return f_last
            return math.exp(float(dense(theta)[1]))

        def f_deriv(theta):
            if theta >= t_hi:
                return 0.0
            H, logf = dense(theta)
            return -lam * math.exp(float(logf)) / math.tan(float(H))
    else:
        t, idx = np.unique(outcome.thetas, return_index=True)
        if t.size < 4:
            raise ValueError("trajectory too short to interpolate")
        logf_sp = CubicSpline(t, outcome.log_fs[idx])
        H_sp = CubicSpline(t, outcome.Hs[idx])

        def f_eval(theta):
            if theta >= t_last:
                return f_last
            return math.exp(float(logf_sp(theta)))

        def f_deriv(theta):
            if theta >= t_last:
                return 0.0
            return -lam * f_eval(theta) / math.tan(float(H_sp(theta)))

    return RadialProfile(lo=0.0, hi=HALF_PI, eval=f_eval, deriv=f_deriv,
                         kind="sampled", breakpoints=(min(t_last, HALF_PI - 1e-12),))


def find_extending_shots(space: ConeSpace, count: int = 3,
                         cfg: ShootConfig = ShootConfig(), max_iter: int = 200):
    """Bisection over H0 between floor and ceiling exits.

    Returns up to ``count`` pairs (H0, outcome) whose trajectories reach
    pi/2 inside the box; empty when the bracket collapses without a hit.
    """
    lo, hi = 1e-3, HALF_PI
    out_lo = shoot(space, lo, cfg)
    if out_lo.kind is not OutcomeKind.EXITS_AT_FLOOR:
        lo = 1e-6
        out_lo = shoot(space, lo, cfg)
        if out_lo.kind is not OutcomeKind.EXITS_AT_FLOOR:
            raise NumericError("could not bracket: low shot does not exit at floor")
    hits = []
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        out = shoot(space, mid, cfg)
        if out.kind is OutcomeKind.EXTENDS_TO_HALF_PI:
            hits.append((mid, out))
            if len(hits) >= count:
                break
            lo = mid  # keep narrowing; nearby midpoints keep extending
        elif out.kind is OutcomeKind.EXITS_AT_FLOOR:
            lo = mid
        elif out.kind is OutcomeKind.EXITS_AT_CEILING:
            hi = mid
        else:
            raise NumericError(f"shoot stalled at H0={mid}: {out.diagnostics}")
    return hits


def flux_consistency(space: ConeSpace, H0: float, outcome: ShootingOutcome,
                     quad_cfg: QuadratureConfig = QuadratureConfig()):
    """Quadrature area of the reconstructed profile vs the closed-form flux."""
    profile = reconstruct_f(outcome, space)
    area = s_functional(profile, space, quad_cfg)
    flux = boundary_flux(initial_slope(H0, space), space)
    return area, flux


def write_trajectory(path, outcome: ShootingOutcome) -> None:
    """Dump a trajectory as three-column text (theta, H, f)."""
    data = np.column_stack([outcome.thetas, outcome.Hs, np.exp(outcome.log_fs)])
    np.savetxt(path, data, fmt="%.17g")

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
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import NumericError
from .geometry import ConeSpace, threshold_discriminant
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
    steps: int = 0              # accepted integrator steps, theta- and H-phase
    rejected: int = 0           # rejected integrator steps
    # the theta-phase's continuous extension: t_max and theta -> (H, log f)
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
    """Larger root of c^2 - n*lam*c + (n-1) = 0 per lambda, NaN where the exact D < 0."""
    nl = n * lams
    disc = threshold_discriminant(n, lams)
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


# Dormand-Prince 5(4) as in scipy's RK45 (Hairer, Norsett & Wanner, *Solving
# ODEs I*, II.4-5): stage nodes C, stage weights A, 5th-order weights B, error
# weights E (B minus the embedded 4th-order weights; the 7th stage is f at the
# new point) and the rows of P, the 4th-order continuous extension, for the
# stages 1, 3, 4, 5, 6, 7 (stage 2's row is zero).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_P = ((1, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
      (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5    # -1 / (order of the error estimate + 1)
_SQRT2 = 2 ** 0.5
_EVENT_TOL = 4 * sys.float_info.epsilon
_TOO_SMALL = "Required step size is less than spacing between numbers."


class _Path:
    """Accepted steps of one ``_dopri`` run for a state (y, z) over t.

    ``ts``, ``ys`` and ``zs`` hold the nodes; ``stages`` holds, per step, what
    the 4th-order continuous extension needs.  Called at t it returns (y, z)
    from the step covering t (the earlier one at a node, as scipy's dense
    output does); only paths with increasing t are called.
    """

    __slots__ = ("ts", "ys", "zs", "stages", "coefs", "steps", "rejected", "failed")

    def __init__(self, t: float, y: float, z: float):
        self.ts, self.ys, self.zs = [t], [y], [z]
        self.stages, self.coefs = [], []
        self.steps = self.rejected = 0
        self.failed = False

    @property
    def t_max(self) -> float:
        return self.ts[-1]

    def __call__(self, t: float):
        i = min(max(bisect_left(self.ts, t) - 1, 0), len(self.stages) - 1)
        return self._at(i, t)

    def _at(self, i: int, t: float):
        coefs = self.coefs[i]
        if coefs is None:
            t0, h, y0, z0, *k = self.stages[i]
            qs = [sum(k[2 * s + c] * _P[s][j] for s in range(6))
                  for c in (0, 1) for j in range(4)]
            coefs = self.coefs[i] = (t0, h, y0, z0, *qs)
        t0, h, y0, z0, qy1, qy2, qy3, qy4, qz1, qz2, qz3, qz4 = coefs
        x = (t - t0) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (y0 + h * (qy1 * x + qy2 * x2 + qy3 * x3 + qy4 * x4),
                z0 + h * (qz1 * x + qz2 * x2 + qz3 * x3 + qz4 * x4))

    def crossing(self, level: float) -> float:
        """Where the last step's interpolant of y meets ``level``."""
        i = len(self.stages) - 1
        return brentq(lambda t: self._at(i, t)[0] - level, self.ts[-2], self.ts[-1],
                      xtol=_EVENT_TOL, rtol=_EVENT_TOL)

    def cut(self, t: float) -> None:
        """End the path at t inside its last step."""
        self.ys[-1], self.zs[-1] = self._at(len(self.stages) - 1, t)
        self.ts[-1] = t


def _initial_step(fun, t, y, z, fy, fz, t_bound, direction, rtol, atol):
    """scipy's starting step rule (Hairer, Norsett & Wanner, II.4) for order 4."""
    span = abs(t_bound - t)
    if span == 0.0:
        return 0.0
    sy, sz = atol + abs(y) * rtol, atol + abs(z) * rtol
    d0 = math.hypot(y / sy, z / sz) / _SQRT2
    d1 = math.hypot(fy / sy, fz / sz) / _SQRT2
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    hd = h0 * direction
    gy, gz = fun(t + hd, y + hd * fy, z + hd * fz)
    d2 = math.hypot((gy - fy) / sy, (gz - fz) / sz) / _SQRT2 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _dopri(fun, t: float, y: float, z: float, t_bound: float, rtol: float,
           atol: float, watch=None) -> _Path:
    """Integrate (y, z)' = fun(t, y, z) from t to t_bound, in either direction.

    Dormand-Prince 5(4) in plain floats with scipy RK45's controller: RMS
    error norm with scale atol + max(|y|, |y_new|) * rtol, safety 0.9, step
    factor in [0.2, 10] and no growth right after a rejection.  The run stops
    at t_bound, when the step falls below 10 ulp of t (``failed``), or when
    ``watch(path)``, called after every accepted step, returns True.
    """
    path = _Path(t, y, z)
    ts, ys, zs, stages, coefs = path.ts, path.ys, path.zs, path.stages, path.coefs
    direction = 1.0 if t_bound > t else -1.0
    toward = direction * math.inf
    fy, fz = fun(t, y, z)
    h_abs = _initial_step(fun, t, y, z, fy, fz, t_bound, direction, rtol, atol)
    while t != t_bound:
        min_step = 10.0 * abs(math.nextafter(t, toward) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                path.failed = True
                return path
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k2y, k2z = fun(t + _C2 * h, y + fy * _A21 * h, z + fz * _A21 * h)
            k3y, k3z = fun(t + _C3 * h, y + (fy * _A31 + k2y * _A32) * h,
                           z + (fz * _A31 + k2z * _A32) * h)
            k4y, k4z = fun(t + _C4 * h,
                           y + (fy * _A41 + k2y * _A42 + k3y * _A43) * h,
                           z + (fz * _A41 + k2z * _A42 + k3z * _A43) * h)
            k5y, k5z = fun(t + _C5 * h,
                           y + (fy * _A51 + k2y * _A52 + k3y * _A53 + k4y * _A54) * h,
                           z + (fz * _A51 + k2z * _A52 + k3z * _A53 + k4z * _A54) * h)
            k6y, k6z = fun(t + h,
                           y + (fy * _A61 + k2y * _A62 + k3y * _A63 + k4y * _A64
                                + k5y * _A65) * h,
                           z + (fz * _A61 + k2z * _A62 + k3z * _A63 + k4z * _A64
                                + k5z * _A65) * h)
            y_new = y + h * (fy * _B1 + k3y * _B3 + k4y * _B4 + k5y * _B5 + k6y * _B6)
            z_new = z + h * (fz * _B1 + k3z * _B3 + k4z * _B4 + k5z * _B5 + k6z * _B6)
            k7y, k7z = fun(t + h, y_new, z_new)
            ey = (fy * _E1 + k3y * _E3 + k4y * _E4 + k5y * _E5 + k6y * _E6
                  + k7y * _E7) * h / (atol + max(abs(y), abs(y_new)) * rtol)
            ez = (fz * _E1 + k3z * _E3 + k4z * _E4 + k5z * _E5 + k6z * _E6
                  + k7z * _E7) * h / (atol + max(abs(z), abs(z_new)) * rtol)
            error = math.sqrt(ey * ey + ez * ez) / _SQRT2
            if error < 1.0:
                factor = (_MAX_FACTOR if error == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
            path.rejected += 1
        stages.append((t, h, y, z, fy, fz, k3y, k3z, k4y, k4z, k5y, k5z,
                       k6y, k6z, k7y, k7z))
        coefs.append(None)
        ts.append(t_new)
        ys.append(y_new)
        zs.append(z_new)
        path.steps += 1
        t, y, z, fy, fz = t_new, y_new, z_new, k7y, k7z
        if watch is not None and watch(path):
            break
    return path


def _floor_tail(space: ConeSpace, theta_e: float, H_e: float, logf_e: float,
                cfg: ShootConfig) -> _Path:
    """Integrate (theta, log f) as functions of H from H_e down to the floor."""
    nl, nm1, lam = space.n * space.lam, space.n - 1, space.lam

    def rhs(H, theta, logf):
        tan_H = math.tan(H)
        slope = nl - nm1 * math.tan(theta) / tan_H
        return 1.0 / slope, -lam / tan_H / slope

    return _dopri(rhs, H_e, theta_e, logf_e, cfg.h_floor, cfg.rtol, cfg.atol)


def shoot(space: ConeSpace, H0: float, cfg: ShootConfig = ShootConfig()) -> ShootingOutcome:
    """Integrate the angle ODE from theta = 0 until an exit or theta = pi/2.

    Near the floor the right-hand side blows up, so once H falls through the
    switch level (``h_switch``, or H0/2 if lower) the roles of theta and H
    are swapped and the tail is integrated in H.
    """
    if not 0.0 < H0 <= HALF_PI:
        raise ValueError(f"H0 must lie in (0, pi/2], got {H0}")
    nl, nm1, lam = space.n * space.lam, space.n - 1, space.lam
    ceiling = HALF_PI - cfg.h_floor

    if H0 >= ceiling:
        # H'(0) = n*lam > 0 pushes the trajectory straight out of the box.
        return ShootingOutcome(kind=OutcomeKind.EXITS_AT_CEILING,
                               thetas=np.array([0.0]), Hs=np.array([H0]),
                               log_fs=np.array([0.0]), theta_exit=0.0)

    def rhs(theta, H, logf):
        cot = 1.0 / math.tan(H)
        return nl - nm1 * math.tan(theta) * cot, -lam * cot

    # Once H' <= 0, H'' = (n-1) (tan(theta) H' / sin^2 H - cot H / cos^2 theta)
    # < 0: a falling trajectory keeps falling ever faster, so crossing the
    # switch downward is a floor exit, and a steep one.  Crossing at a slope
    # in [-1e-3, 0) would take a fall of at least `switch` (from a peak above
    # H0 >= 2 switch), so theta >= 1000 switch there, which makes
    # H' <= n lam - (n-1) theta / tan(switch) < -900.
    switch = min(cfg.h_switch, H0 / 2.0)
    exit_kind = None

    def watch(path):
        nonlocal exit_kind
        H_old, H_new = path.ys[-2], path.ys[-1]
        if H_old >= switch >= H_new:
            exit_kind, level = OutcomeKind.EXITS_AT_FLOOR, switch
        elif H_old <= ceiling <= H_new:
            exit_kind, level = OutcomeKind.EXITS_AT_CEILING, ceiling
        else:
            return False
        path.cut(path.crossing(level))
        return True

    theta_end = HALF_PI - cfg.theta_pad
    path = _dopri(rhs, 0.0, H0, 0.0, theta_end, cfg.rtol, cfg.atol, watch)
    te, He, logfe = path.ts[-1], path.ys[-1], path.zs[-1]
    if path.failed:
        # the plunge toward the floor is stiff in theta; if the state is
        # falling steeply, finish it in the swapped variable instead
        if nl - nm1 * math.tan(te) / math.tan(He) < -1.0 and He < HALF_PI / 2.0:
            exit_kind = OutcomeKind.EXITS_AT_FLOOR
        else:
            return _finish(OutcomeKind.STALLED_NUMERIC, path, diagnostics=_TOO_SMALL)
    if exit_kind is OutcomeKind.EXITS_AT_FLOOR:
        tail = _floor_tail(space, te, He, logfe, cfg)
        if tail.failed:
            return _finish(OutcomeKind.STALLED_NUMERIC, path,
                           diagnostics=_TOO_SMALL if path.failed else "floor tail failed")
        return _finish(OutcomeKind.EXITS_AT_FLOOR, path, tail, theta_exit=tail.ys[-1])
    if exit_kind is OutcomeKind.EXITS_AT_CEILING:
        return _finish(exit_kind, path, theta_exit=te)
    return _finish(OutcomeKind.EXTENDS_TO_HALF_PI, path, theta_exit=theta_end,
                   f_end=math.exp(logfe))


def _finish(kind, path: _Path, tail: Optional[_Path] = None, theta_exit=None,
            f_end=None, diagnostics=""):
    """Outcome from the theta-phase path and, after a floor exit, the H-phase tail."""
    thetas, Hs, logfs = path.ts, path.ys, path.zs
    steps, rejected = path.steps, path.rejected
    if tail is not None:
        thetas, Hs, logfs = thetas + tail.ys, Hs + tail.ts, logfs + tail.zs
        steps, rejected = steps + tail.steps, rejected + tail.rejected
    return ShootingOutcome(kind=kind, thetas=np.array(thetas), Hs=np.array(Hs),
                           log_fs=np.array(logfs), theta_exit=theta_exit,
                           f_end=f_end, diagnostics=diagnostics, steps=steps,
                           rejected=rejected, dense=path)


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
                         breakpoints=(min(t_last, HALF_PI - 1e-12),))


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

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
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
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


BARRIER_SAMPLES = 1000  # interior sample angles of barrier_certificate


def _larger_roots(n: int, lams: np.ndarray, disc=None) -> np.ndarray:
    """Larger root of c^2 - n*lam*c + (n-1) = 0 per lambda, NaN where the exact D < 0.

    D = disc, or ``threshold_discriminant(n, lams)`` if None.
    """
    disc = threshold_discriminant(n, lams) if disc is None else disc
    real = disc >= 0.0
    cs = np.full(lams.shape, np.nan)
    cs[real] = (n * lams[real] + np.sqrt(disc[real])) / 2.0
    return cs


def barrier_roots(space: ConeSpace):
    """Both roots of c^2 - n*lam*c + (n-1) = 0, or None below the discriminant."""
    c = float(_larger_roots(space.n, np.array([space.lam]))[0])
    return None if math.isnan(c) else ((space.n - 1) / c, c)


def barrier_slope(space: ConeSpace) -> Optional[float]:
    """Larger root of c = n*lam - (n-1)/c, when real (n*lam >= 2 sqrt(n-1))."""
    roots = barrier_roots(space)
    return None if roots is None else roots[1]


def barrier_margins(n: int, lams, disc=None, /) -> np.ndarray:
    """Normalized margin (n-1)(c^2-1)/(3c) of the barrier line of every lambda.

    NaN where the exact D < 0 and no line exists; disc is D, if known.
    Along H = c*theta the margin is m(theta) = H' - c = (n-1)(1/c - tan(theta)/tan(c*theta)).
    Every Taylor coefficient a_k of tan is positive (Abramowitz & Stegun
    4.3.67), so tan(c theta) - c tan(theta) = sum a_k (c^(2k+1) - c)
    theta^(2k+1) >= 0 for c >= 1 and 0 < c*theta < pi/2: the line is a
    barrier wherever D >= 0.  The normalized margin is the theta -> 0 limit
    of m(theta)/theta^2, which a 50-digit probe found to be its infimum.
    """
    cs = _larger_roots(n, np.asarray(lams, dtype=float), disc)
    return (n - 1) * (cs - 1.0) * (cs + 1.0) / (3.0 * cs)


def barrier_certificate(space: ConeSpace,
                        samples: int = BARRIER_SAMPLES) -> BarrierCertificate:
    """Check H' > c on the line H = c*theta at interior sample points.

    A positive minimum margin certifies that no trajectory can cross the
    line from left to right inside the working box; this sampled form
    re-checks ``barrier_margins``' lemma.  The samples split (0, theta_max)
    evenly, theta_max = pi/2 * min(1, 1/c) keeping c*theta inside
    (0, pi/2); the margin is the least H' - c over them.
    """
    c = barrier_slope(space)
    if c is None:
        raise ValueError("no barrier slope: n*lam < 2 sqrt(n-1)")
    n = space.n
    thetas = HALF_PI * min(1.0, 1.0 / c) * np.arange(1, samples + 1) / (samples + 1)
    rhs = n * space.lam - (n - 1) * np.tan(thetas) / np.tan(c * thetas)
    return BarrierCertificate(c=c, thetas=thetas, rhs_values=rhs, margin=float(rhs.min() - c))


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
_P_COLUMNS = tuple(zip(*_P))    # per power of x, the weights of the six stages
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5    # -1 / (order of the error estimate + 1)
_SQRT2 = 2 ** 0.5
_EVENT_TOL = 4 * sys.float_info.epsilon
_TOO_SMALL = "Required step size is less than spacing between numbers."


class _Path:
    """Accepted steps of one ``_dopri`` run for a state (y, z) over t.

    ``ts``, ``ys`` and ``zs`` hold the nodes; ``stages`` holds, per step, what
    the 4th-order continuous extension needs.  Called at t it returns (y, z)
    from the step covering t (the one nearer the start at a node), whichever
    way t runs.
    """

    __slots__ = ("ts", "ys", "zs", "stages", "coefs", "steps", "rejected", "failed")

    def __init__(self, t: float, y: float, z: float):
        self.ts, self.ys, self.zs = [t], [y], [z]
        self.stages, self.coefs = [], []
        self.steps = self.rejected = 0
        self.failed = False

    @property
    def t_max(self) -> float:
        return max(self.ts[0], self.ts[-1])

    def __call__(self, t: float):
        if self.ts[-1] >= self.ts[0]:
            i = bisect_left(self.ts, t) - 1
        else:
            i = bisect_left(self.ts, -t, key=operator.neg) - 1
        return self._at(min(max(i, 0), len(self.stages) - 1), t)

    def _at(self, i: int, t: float):
        coefs = self.coefs[i]
        if coefs is None:
            coefs = self.coefs[i] = _extension(*self.stages[i])
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

    def shift(self, dz: float) -> None:
        """Add dz to z along the whole path, nodes and extension alike."""
        self.zs = [z + dz for z in self.zs]
        self.stages = [(t, h, y, z + dz, *k) for t, h, y, z, *k in self.stages]
        self.coefs = [None] * len(self.stages)

    def cut(self, t: float) -> None:
        """End the path at t inside its last step."""
        self.ys[-1], self.zs[-1] = self._at(len(self.stages) - 1, t)
        self.ts[-1] = t


def _extension(t0, h, y0, z0, k1y, k1z, k3y, k3z, k4y, k4z, k5y, k5z, k6y, k6z,
               k7y, k7z):
    """One step's continuous-extension coefficients from its stored stages."""
    return (t0, h, y0, z0,
            *[k1y * p1 + k3y * p3 + k4y * p4 + k5y * p5 + k6y * p6 + k7y * p7
              for p1, p3, p4, p5, p6, p7 in _P_COLUMNS],
            *[k1z * p1 + k3z * p3 + k4z * p4 + k5z * p5 + k6z * p6 + k7z * p7
              for p1, p3, p4, p5, p6, p7 in _P_COLUMNS])


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


def _theta_rhs(space: ConeSpace):
    """(H, log f)' over theta: the angle ODE and f'/f = -lam cot H."""
    nl, nm1, lam = space.n * space.lam, space.n - 1, space.lam

    def rhs(theta, H, logf):
        cot = 1.0 / math.tan(H)
        return nl - nm1 * math.tan(theta) * cot, -lam * cot

    return rhs


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
    nl, nm1 = space.n * space.lam, space.n - 1
    ceiling = HALF_PI - cfg.h_floor

    if H0 >= ceiling:
        # H'(0) = n*lam > 0 pushes the trajectory straight out of the box.
        return ShootingOutcome(kind=OutcomeKind.EXITS_AT_CEILING,
                               thetas=np.array([0.0]), Hs=np.array([H0]),
                               log_fs=np.array([0.0]), theta_exit=0.0)

    rhs = _theta_rhs(space)

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
    if outcome.dense is None:
        raise ValueError("outcome carries no continuous extension (dense)")
    lam = space.lam
    t_last = float(outcome.thetas[-1])
    f_last = math.exp(float(outcome.log_fs[-1]))
    dense = outcome.dense
    t_hi = dense.t_max
    last_theta, last_value = math.nan, None

    def at(theta):
        # dense(theta), kept for the next call: the area integrand asks for
        # f and f' at the same theta
        nonlocal last_theta, last_value
        if theta != last_theta:
            last_theta, last_value = theta, dense(theta)
        return last_value

    def f_eval(theta):
        if theta >= t_hi:
            return f_last
        return math.exp(float(at(theta)[1]))

    def f_deriv(theta):
        if theta >= t_hi:
            return 0.0
        H, logf = at(theta)
        return -lam * math.exp(float(logf)) / math.tan(float(H))

    return RadialProfile(lo=0.0, hi=HALF_PI, eval=f_eval, deriv=f_deriv,
                         breakpoints=(min(t_last, HALF_PI - 1e-12),))


# the start radii's H0 agree to ~1e-11 relative; a wider spread means the
# C*u^(1-n) term has not decayed by theta = 0
_H0_AGREEMENT = 1e-9


def _shoot_back(space: ConeSpace, u0: float, cfg: ShootConfig):
    """(H0, outcome) of one shot from theta = pi/2 - u0 on w = lam*u back to 0."""
    def watch(path):
        return path.ys[-1] <= cfg.h_floor

    theta_top = HALF_PI - u0
    path = _dopri(_theta_rhs(space), theta_top, HALF_PI - space.lam * u0, 0.0, 0.0,
                  cfg.rtol, cfg.atol, watch)
    if path.failed or path.ts[-1] != 0.0:
        where = "stalled" if path.failed else "reached the floor"
        raise NumericError(f"backward shot from u0={u0:g} {where} at theta={path.ts[-1]!r}, "
                           f"H={path.ys[-1]!r}")
    H0 = path.ys[-1]
    if H0 < cfg.h_switch:
        raise NumericError(f"H0={H0!r} below h_switch={cfg.h_switch:g}: the area "
                           f"quadrature misses f's boundary layer at theta = 0")
    path.shift(-path.zs[-1])
    outcome = ShootingOutcome(kind=OutcomeKind.EXTENDS_TO_HALF_PI,
                              thetas=np.array(path.ts[::-1]), Hs=np.array(path.ys[::-1]),
                              log_fs=np.array(path.zs[::-1]), theta_exit=theta_top,
                              f_end=math.exp(path.zs[0]), steps=path.steps,
                              rejected=path.rejected, dense=path)
    return H0, outcome


def find_extending_shots(space: ConeSpace, count: int = 3,
                         cfg: ShootConfig = ShootConfig()):
    """Extending shots, each integrated backward from the singular corner.

    Near theta = H = pi/2, with u = pi/2 - theta and w = pi/2 - H, the
    solutions are w = lam*u + C*u^(1-n).  Shooting forward, C grows, so the
    extending window in H0 is narrower than one ulp for n >= 4; shooting
    backward, the C term decays, so a shot started on w = lam*u at u0 lands
    on the separatrix and reads its H0 off at theta = 0.  Returns ``count``
    pairs (H0, outcome), from u0 = theta_pad * 10^-k for k = 0..count-1,
    with f(0) = 1; [] where the exact D >= 0, since the barrier line then
    proves that no graph extends.  Raises ``NumericError`` when a shot
    stalls or reaches the floor, when the radii disagree on H0, or when H0
    falls below ``h_switch``, where the area quadrature is not trusted.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if threshold_discriminant(space.n, [space.lam])[0] >= 0.0:
        return []
    hits = [_shoot_back(space, cfg.theta_pad * 10.0 ** -k, cfg) for k in range(count)]
    H0 = hits[0][0]
    spread = max(abs(h - H0) for h, _ in hits)
    if spread > _H0_AGREEMENT * H0:
        raise NumericError(f"start radii disagree on H0={H0!r} by {spread:.3g}",
                           residual=spread)
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

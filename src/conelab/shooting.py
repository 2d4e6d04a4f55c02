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
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .errors import AREA_TOL, NumericError, QuadratureError, checked_quad, sign_change
from .geometry import ConeSpace, threshold_discriminant
from .profiles import RadialProfile
# not called here since flux_consistency integrates the mesh itself; kept as a
# module attribute because bench/tracing.py's SITES patches shooting.s_functional
from .profiles import s_functional  # noqa: F401

HALF_PI = math.pi / 2.0


class OutcomeKind(Enum):
    EXTENDS_TO_HALF_PI = "ExtendsToHalfPi"
    EXITS_AT_FLOOR = "ExitsAtFloor"
    EXITS_AT_CEILING = "ExitsAtCeiling"
    STALLED_NUMERIC = "StalledNumeric"


H_FLOOR = 1e-9      # a floor exit at H <= H_FLOOR, a ceiling exit at H >= pi/2 - H_FLOOR
H_SWITCH = 1e-4     # swap the independent variable below this H
THETA_PAD = 1e-6    # a forward shot integrates up to pi/2 - THETA_PAD
RTOL = 1e-10        # the integrator's relative error tolerance
ATOL = 1e-12        # the integrator's absolute error tolerance


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


BARRIER_SAMPLES = 1000  # interior sample angles of barrier_certificate


def barrier_slope(space: ConeSpace) -> Optional[float]:
    """The barrier line's slope n*lam/2, or None where the exact D < 0."""
    if threshold_discriminant(space.n, np.float64(space.lam)) < 0.0:
        return None
    return space.n * space.lam / 2.0


def barrier_margins(n: int, lams, disc=None, /):
    """Lower bound D/(2 n lam) on the margin of every lambda's barrier line.

    NaN where the exact D < 0 and no line exists.  lams is a 1-d sequence or
    one ``np.float64``, which gives that row bit for bit; disc is D, if known.
    Along H = c*theta, c = n*lam/2, the margin is m(theta) = H' - c =
    D/(4c) + (n-1)(1/c - tan(theta)/tan(c*theta)), as c^2 - n*lam*c + (n-1)
    is -D/4 at its vertex.  Every Taylor coefficient a_k of tan is positive
    (Abramowitz & Stegun 4.3.67), so tan(c theta) - c tan(theta) =
    sum a_k (c^(2k+1) - c) theta^(2k+1) >= 0 for c >= 1 and 0 < c*theta < pi/2,
    and D >= 0 gives c >= sqrt(n-1) >= 1: m(theta) >= D/(2 n lam) on the whole
    line.  The value is that bound to within D's rounding error, about
    3 * 2^-53 (n lam)^2 (1.3e-15 (n-1) near lambda*; exact, rounded once, where
    ``threshold_discriminant`` takes the exact ratio), over 2 n lam.
    """
    lams = np.float64(lams)
    disc = threshold_discriminant(n, lams) if disc is None else disc
    margins = np.asarray(disc / (2.0 * n * lams))   # a fresh result, 0-d for one lambda
    margins[disc < 0.0] = np.nan
    return margins[()]


def barrier_certificate(space: ConeSpace,
                        samples: int = BARRIER_SAMPLES) -> BarrierCertificate:
    """Check H' > c on the line H = c*theta, c = n*lam/2, at interior sample points.

    A positive minimum margin certifies that no trajectory can cross the
    line from left to right inside the working box; this sampled form
    re-checks ``barrier_margins``' lemma.  The samples split (0, pi/(2c))
    evenly, keeping c*theta inside (0, pi/2); the margin is the least H' - c
    over them.
    """
    c = barrier_slope(space)
    if c is None:
        raise ValueError("no barrier slope: n*lam < 2 sqrt(n-1)")
    n = space.n
    thetas = HALF_PI / c * np.arange(1, samples + 1) / (samples + 1)
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
_P_MATRIX = np.array(_P)        # stages x powers x, x^2, x^3, x^4
_POWERS = np.arange(1, 5)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5    # -1 / (order of the error estimate + 1)
_SQRT2 = 2 ** 0.5
_TOO_SMALL = "Required step size is less than spacing between numbers."


def _extension(stages: np.ndarray, scale, nodes, dz: float = 0.0):
    """(y, z + dz) on each step's 4th-order continuous extension: steps x nodes arrays.

    A step is a row of ``_Path.stages``, evaluated at x = (t - t0) / h = scale * node.
    """
    h, powers, node_powers = stages[:, 1:2], scale ** _POWERS, nodes ** _POWERS[:, None]
    return (stages[:, 2:3] + h * ((stages[:, 4::2] @ _P_MATRIX) * powers) @ node_powers,
            stages[:, 3:4] + dz + h * ((stages[:, 5::2] @ _P_MATRIX) * powers) @ node_powers)


class _Path:
    """Accepted steps of one ``_dopri`` run for a state (y, z) over t.

    ``ts``, ``ys`` and ``zs`` hold the nodes; ``stages`` holds, per step, what
    the 4th-order continuous extension needs.  The path's z is the stored z
    plus the offset ``dz`` (a backward shot's log f, set so that f(0) = 1).
    Called at t it returns (y, z + dz) from the step covering t (the one
    nearer the start at a node), whichever way t runs.
    """

    __slots__ = ("ts", "ys", "zs", "stages", "dz", "steps", "rejected", "failed")

    def __init__(self, t: float, y: float, z: float):
        self.ts, self.ys, self.zs = [t], [y], [z]
        self.stages, self.dz = [], 0.0
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
        return self._at(min(max(i, 0), len(self.stages) - 1), t, self.dz)

    def _at(self, i: int, t: float, dz: float = 0.0):
        stage = self.stages[i]
        y, z = _extension(np.array([stage]), (t - stage[0]) / stage[1], 1.0, dz)
        return float(y[0, 0]), float(z[0, 0])

    def crossing(self, level: float) -> float:
        """The last double t before the last step's interpolant of y crosses ``level``."""
        return sign_change(lambda t: self._at(-1, t)[0] - level, self.ts[-2], self.ts[-1])

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
    gy, gz = fun(t + hd, y + hd * fy)
    d2 = math.hypot((gy - fy) / sy, (gz - fz) / sz) / _SQRT2 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _dopri(fun, t: float, y: float, z: float, t_bound: float, rtol: float,
           atol: float, watch=None) -> _Path:
    """Integrate (y, z)' = fun(t, y) from t to t_bound, in either direction.

    The right-hand side does not depend on z, so each stage builds only its y
    argument; z is the running integral of fun's second component.

    Dormand-Prince 5(4) in plain floats with scipy RK45's controller: RMS
    error norm with scale atol + max(|y|, |y_new|) * rtol, safety 0.9, step
    factor in [0.2, 10] and no growth right after a rejection.  The run stops
    at t_bound, when the step falls below 10 ulp of t (``failed``), or when
    ``watch(path)``, called after every accepted step, returns True.
    """
    path = _Path(t, y, z)
    ts, ys, zs, stages = path.ts, path.ys, path.zs, path.stages
    direction = 1.0 if t_bound > t else -1.0
    toward = direction * math.inf
    fy, fz = fun(t, y)
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
            k2y, k2z = fun(t + _C2 * h, y + fy * _A21 * h)
            k3y, k3z = fun(t + _C3 * h, y + (fy * _A31 + k2y * _A32) * h)
            k4y, k4z = fun(t + _C4 * h, y + (fy * _A41 + k2y * _A42 + k3y * _A43) * h)
            k5y, k5z = fun(t + _C5 * h,
                           y + (fy * _A51 + k2y * _A52 + k3y * _A53 + k4y * _A54) * h)
            k6y, k6z = fun(t + h, y + (fy * _A61 + k2y * _A62 + k3y * _A63 + k4y * _A64
                                       + k5y * _A65) * h)
            y_new = y + h * (fy * _B1 + k3y * _B3 + k4y * _B4 + k5y * _B5 + k6y * _B6)
            z_new = z + h * (fz * _B1 + k3z * _B3 + k4z * _B4 + k5z * _B5 + k6z * _B6)
            k7y, k7z = fun(t + h, y_new)
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

    def rhs(theta, H):
        cot = 1.0 / math.tan(H)
        return nl - nm1 * math.tan(theta) * cot, -lam * cot

    return rhs


def _floor_tail(space: ConeSpace, theta_e: float, H_e: float, logf_e: float,
                rtol: float) -> _Path:
    """Integrate (theta, log f) as functions of H from H_e down to the floor, if above it."""
    nl, nm1, lam = space.n * space.lam, space.n - 1, space.lam

    def rhs(H, theta):
        tan_H = math.tan(H)
        slope = nl - nm1 * math.tan(theta) / tan_H
        return 1.0 / slope, -lam / tan_H / slope

    return _dopri(rhs, H_e, theta_e, logf_e, min(H_e, H_FLOOR), rtol, ATOL)


def shoot(space: ConeSpace, H0: float, rtol: float = RTOL) -> ShootingOutcome:
    """Integrate the angle ODE from theta = 0 until an exit or theta = pi/2.

    Near the floor the right-hand side blows up, so once H falls through the
    switch level (``H_SWITCH``, or H0/2 if lower, but never below
    ``H_FLOOR``) the roles of theta and H are swapped and the tail is
    integrated in H down to ``H_FLOOR``.  A start below the switch rises
    first (H'(0) = n*lam > 0); if it turns before reaching the switch, it
    exits at the floor where it turns.  A start at or above pi/2 - ``H_FLOOR``
    is a ceiling exit at theta = 0.  Both phases run at relative tolerance
    ``rtol`` and absolute tolerance ``ATOL``.
    """
    if not 0.0 < H0 <= HALF_PI:
        raise ValueError(f"H0 must lie in (0, pi/2], got {H0}")
    if not rtol > 0.0:
        raise ValueError(f"rtol must be positive, got {rtol}")
    nl, nm1 = space.n * space.lam, space.n - 1
    ceiling = HALF_PI - H_FLOOR

    if H0 >= ceiling:
        # H'(0) = n*lam > 0 pushes the trajectory straight out through the ceiling
        return ShootingOutcome(kind=OutcomeKind.EXITS_AT_CEILING, thetas=np.array([0.0]),
                               Hs=np.array([H0]), log_fs=np.array([0.0]), theta_exit=0.0)

    rhs = _theta_rhs(space)

    # Once H' <= 0, H'' = (n-1) (tan(theta) H' / sin^2 H - cot H / cos^2 theta)
    # < 0: a falling trajectory keeps falling ever faster, so crossing the
    # switch downward, or turning below it, is a floor exit.  The switch is
    # at least H_FLOOR, so the tail runs down.  Where it is min(H_SWITCH,
    # H0/2) the crossing is steep: at a slope in [-1e-3, 0) it would take a
    # fall of at least `switch` (from a peak above H0 >= 2 switch), so
    # theta >= 1000 switch there, which makes
    # H' <= n lam - (n-1) theta / tan(switch) < -900.
    switch = max(min(H_SWITCH, H0 / 2.0), H_FLOOR)
    exit_kind = None

    def watch(path):
        nonlocal exit_kind
        H_old, H_new = path.ys[-2], path.ys[-1]
        if switch >= H_new < H_old:
            exit_kind, level = OutcomeKind.EXITS_AT_FLOOR, switch
            if H_old < switch:      # a start below the switch turned under it
                return True
        elif H_old <= ceiling <= H_new:
            exit_kind, level = OutcomeKind.EXITS_AT_CEILING, ceiling
        else:
            return False
        path.cut(path.crossing(level))
        return True

    theta_end = HALF_PI - THETA_PAD
    path = _dopri(rhs, 0.0, H0, 0.0, theta_end, rtol, ATOL, watch)
    te, He, logfe = path.ts[-1], path.ys[-1], path.zs[-1]
    if path.failed:
        # the plunge toward the floor is stiff in theta; if the state is
        # falling steeply, finish it in the swapped variable instead
        if nl - nm1 * math.tan(te) / math.tan(He) < -1.0 and He < HALF_PI / 2.0:
            exit_kind = OutcomeKind.EXITS_AT_FLOOR
        else:
            return _finish(OutcomeKind.STALLED_NUMERIC, path, diagnostics=_TOO_SMALL)
    if exit_kind is OutcomeKind.EXITS_AT_FLOOR:
        tail = _floor_tail(space, te, He, logfe, rtol)
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
    """Outcome from the theta-phase path and, after a floor exit, the H-phase tail's nodes.

    The tail's first node is the path's last, so it is left out.
    """
    thetas, Hs, logfs = path.ts, path.ys, path.zs
    steps, rejected = path.steps, path.rejected
    if tail is not None:
        thetas, Hs, logfs = thetas + tail.ys[1:], Hs + tail.ts[1:], logfs + tail.zs[1:]
        steps, rejected = steps + tail.steps, rejected + tail.rejected
    return ShootingOutcome(kind=kind, thetas=np.array(thetas), Hs=np.array(Hs),
                           log_fs=np.array(logfs), theta_exit=theta_exit,
                           f_end=f_end, diagnostics=diagnostics, steps=steps,
                           rejected=rejected, dense=path)


def _graph_dense(outcome: ShootingOutcome):
    """The outcome's continuous extension, if its trajectory reconstructs a graph."""
    if outcome.kind is OutcomeKind.EXITS_AT_FLOOR:
        raise ValueError("trajectory reaches the floor: profile has a vertical tangent")
    if outcome.dense is None:
        raise ValueError("outcome carries no continuous extension (dense)")
    return outcome.dense


def reconstruct_f(outcome: ShootingOutcome, space: ConeSpace) -> RadialProfile:
    """Profile f(theta) = exp(-lam * integral of cot H) along a trajectory.

    Only trajectories that stay off the floor reconstruct a graph; beyond the
    recorded end the profile is continued by its final value (the derivative
    there is O(pad), which is below quadrature tolerance for the uses here).
    Each (f, f') pair evaluates ``dense`` once at one theta.  No command
    calls it: the tests take ``s_functional`` of this profile as the
    reference for ``flux_consistency``, which integrates the area on the
    integrator's own steps instead, and bench/tracing.py's SITES patches it.
    """
    dense = _graph_dense(outcome)
    lam = space.lam
    t_last = float(outcome.thetas[-1])
    f_last = math.exp(float(outcome.log_fs[-1]))
    t_hi = dense.t_max

    def jet(theta):
        if theta >= t_hi:
            return f_last, 0.0
        H, logf = dense(theta)
        f = math.exp(float(logf))
        return f, -lam * f / math.tan(float(H))

    return RadialProfile(lo=0.0, hi=HALF_PI, eval=jet,
                         breakpoints=(min(t_last, HALF_PI - 1e-12),))


# the start radii's H0 agree to ~1e-11 relative; a wider spread means the
# C*u^(1-n) term has not decayed by theta = 0
_H0_AGREEMENT = 1e-9


def _shoot_back(space: ConeSpace, u0: float):
    """(H0, outcome) of one shot from theta = pi/2 - u0 on w = lam*u back to 0."""
    def watch(path):
        return path.ys[-1] <= H_FLOOR

    theta_top = HALF_PI - u0
    path = _dopri(_theta_rhs(space), theta_top, HALF_PI - space.lam * u0, 0.0, 0.0,
                  RTOL, ATOL, watch)
    if path.failed or path.ts[-1] != 0.0:
        where = "stalled" if path.failed else "reached the floor"
        raise NumericError(f"backward shot from u0={u0:g} {where} at theta={path.ts[-1]!r}, "
                           f"H={path.ys[-1]!r}")
    H0 = path.ys[-1]
    path.dz = -path.zs[-1]
    log_fs = np.array(path.zs[::-1]) + path.dz
    outcome = ShootingOutcome(kind=OutcomeKind.EXTENDS_TO_HALF_PI,
                              thetas=np.array(path.ts[::-1]), Hs=np.array(path.ys[::-1]),
                              log_fs=log_fs, theta_exit=theta_top,
                              f_end=math.exp(log_fs[-1]), steps=path.steps,
                              rejected=path.rejected, dense=path)
    return H0, outcome


def find_extending_shots(space: ConeSpace, count: int = 3):
    """Extending shots, each integrated backward from the singular corner.

    Near theta = H = pi/2, with u = pi/2 - theta and w = pi/2 - H, the
    solutions are w = lam*u + C*u^(1-n).  Shooting forward, C grows, so the
    extending window in H0 is narrower than one ulp for n >= 4; shooting
    backward, the C term decays, so a shot started on w = lam*u at u0 lands
    on the separatrix and reads its H0 off at theta = 0.  Returns ``count``
    pairs (H0, outcome), from u0 = ``THETA_PAD`` * 10^-k for k = 0..count-1,
    with f(0) = 1, each integrated at the tolerances ``RTOL`` and ``ATOL``;
    [] where the exact D >= 0, since the barrier line then proves that no
    graph extends.  Raises ``NumericError`` when a shot stalls or reaches
    the floor (``H_FLOOR``), or when the radii disagree on H0.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if threshold_discriminant(space.n, np.float64(space.lam)) >= 0.0:
        return []
    hits = [_shoot_back(space, THETA_PAD * 10.0 ** -k) for k in range(count)]
    H0 = hits[0][0]
    spread = max(abs(h - H0) for h, _ in hits)
    if spread > _H0_AGREEMENT * H0:
        raise NumericError(f"start radii disagree on H0={H0!r} by {spread:.3g}",
                           residual=spread)
    return hits


# Gauss-Legendre rules of 4 and 5 nodes on [-1, 1] in radicals (Abramowitz &
# Stegun 25.4.29), mapped to [0, 1] side by side: the area is the 5-node sum,
# and its gap to the 4-node sum is the error estimate
_G4 = [(s * math.sqrt(3 / 7 - e * 2 / 7 * math.sqrt(6 / 5)), (18 + e * math.sqrt(30)) / 36)
       for s in (-1, 1) for e in (-1, 1)]
_G5 = [(0.0, 128 / 225)] + [
    (s * math.sqrt(5 - e * 2 * math.sqrt(10 / 7)) / 3, (322 + e * 13 * math.sqrt(70)) / 900)
    for s in (-1, 1) for e in (-1, 1)]
_NODES = np.array([x for x, _ in _G4 + _G5]) / 2.0 + 0.5
_WEIGHTS = np.zeros((_NODES.size, 2))
_WEIGHTS[:4, 0] = [w / 2.0 for _, w in _G4]
_WEIGHTS[4:, 1] = [w / 2.0 for _, w in _G5]


def _mesh_area(space: ConeSpace, path: _Path, logf_last: float) -> float:
    """Normalized area of the profile on the accepted steps of ``path``.

    With f' = -lam f cot H the integrand sqrt(f'^2 + lam^2 f^2) f^(n-1)
    cos^(n-1)(theta) is lam f^n cos^(n-1)(theta) / sin H.  It is summed over
    each step's Gauss nodes on the step's continuous extension, all steps at
    once.  Raises ``QuadratureError`` when the 4- and 5-node sums differ,
    step by step, by more than max(``AREA_TOL``, ``AREA_TOL`` * that sum) in
    total.  Past t_max, f keeps its last value exp(logf_last), and the
    integral of cos^(n-1) over [t_max, pi/2] is that of sin^(n-1) over
    [0, pi/2 - t_max], one ``checked_quad`` at ``AREA_TOL``.
    """
    m = len(path.stages)
    stages = np.fromiter(chain.from_iterable(path.stages), float, 16 * m).reshape(m, 16)
    width = np.diff(path.ts)[:, None]               # h, but for a cut last step
    Hs, logfs = _extension(stages, width / stages[:, 1:2], _NODES, path.dz)
    thetas = stages[:, 0:1] + width * _NODES
    n = space.n
    values = np.exp(n * logfs) * np.cos(thetas) ** (n - 1) / np.sin(Hs)
    sums = (values @ _WEIGHTS) * np.abs(width)
    mesh = float(sums[:, 1].sum())
    residual = space.lam * float(np.abs(sums[:, 1] - sums[:, 0]).sum())
    if residual > max(AREA_TOL, AREA_TOL * space.lam * mesh):
        raise QuadratureError(f"mesh quadrature residual {residual:.3e} exceeds "
                              f"tolerance", residual=residual)
    tail = checked_quad(lambda u: math.sin(u) ** (n - 1), 0.0, HALF_PI - path.t_max,
                        AREA_TOL, AREA_TOL)
    return space.lam * (mesh + math.exp(n * logf_last) * tail)


def flux_consistency(space: ConeSpace, H0: float, outcome: ShootingOutcome):
    """(area, flux): the profile's normalized area vs the closed-form flux.

    The area is integrated on the accepted steps of the outcome's own
    integrator, whose mesh already resolves f, including its boundary layer
    at theta = 0 when H0 is tiny; ``_mesh_area`` bounds the gap between two
    Gauss rules on that mesh.  The tests check it against ``s_functional``
    on ``reconstruct_f``'s profile wherever that quadrature resolves f.
    """
    area = _mesh_area(space, _graph_dense(outcome), float(outcome.log_fs[-1]))
    flux = boundary_flux(initial_slope(H0, space), space)
    return area, flux


def write_trajectory(path, outcome: ShootingOutcome) -> None:
    """Dump a trajectory as three-column text (theta, H, f)."""
    data = np.column_stack([outcome.thetas, outcome.Hs, np.exp(outcome.log_fs)])
    np.savetxt(path, data, fmt="%.17g")

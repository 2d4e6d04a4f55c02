"""Radial profiles of rotationally symmetric hypersurfaces and their areas.

Two area functionals are provided: the graph-over-cross-section area of a
2-dimensional surface of revolution in a 3-dimensional cone, and the
normalized area of a radial graph over the polar angle in the cone over
``S^n(lambda)``.  Both are evaluated by adaptive quadrature that splits at
declared profile breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import QuadratureError
from .geometry import ConeSpace

_CONTINUITY_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 60

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class RadialProfile:
    """Positive piecewise-smooth profile over a closed interval.

    ``eval`` and ``deriv`` are scalar callables; ``breakpoints`` lists the
    interior abscissae where the derivative may jump so quadrature never
    straddles one.
    """

    lo: float
    hi: float
    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    breakpoints: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("profile domain must be a nondegenerate interval")
        for b in self.breakpoints:
            if not self.lo < b < self.hi:
                raise ValueError(f"breakpoint {b} outside the open domain")

    def __call__(self, x: float) -> float:
        return self.eval(x)

    @classmethod
    def constant(cls, value: float, lo: float = 0.0, hi: float = math.pi / 2.0) -> "RadialProfile":
        if value <= 0.0:
            raise ValueError("profile values must be positive")
        return cls(lo=lo, hi=hi, eval=lambda x: value, deriv=lambda x: 0.0)

    @classmethod
    def from_samples(cls, xs: Sequence[float], fs: Sequence[float]) -> "RadialProfile":
        xs = np.asarray(xs, dtype=float)
        fs = np.asarray(fs, dtype=float)
        if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 4:
            raise ValueError("need matching 1-d sample arrays with at least 4 points")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("sample abscissae must be strictly increasing")
        if np.any(fs <= 0.0):
            raise ValueError("profile values must be positive")
        spline = CubicSpline(xs, fs)
        dspline = spline.derivative()
        return cls(lo=float(xs[0]), hi=float(xs[-1]),
                   eval=lambda x: float(spline(x)), deriv=lambda x: float(dspline(x)))

    @classmethod
    def piecewise(cls, pieces: Sequence["RadialProfile"]) -> "RadialProfile":
        """Concatenate adjacent profiles; values must match at the junctions."""
        pieces = sorted(pieces, key=lambda p: p.lo)
        breaks = []
        for left, right in zip(pieces, pieces[1:]):
            if abs(left.hi - right.lo) > _CONTINUITY_TOL:
                raise ValueError("pieces do not tile the domain")
            gap = abs(left.eval(left.hi) - right.eval(right.lo))
            if gap > _CONTINUITY_TOL * max(1.0, abs(left.eval(left.hi))):
                raise ValueError(f"profile discontinuous at {left.hi}: gap {gap:.3e}")
            breaks.append(left.hi)
            breaks.extend(b for b in left.breakpoints)
        breaks.extend(pieces[-1].breakpoints)

        def _select(x):
            for p in pieces[:-1]:
                if x < p.hi:
                    return p
            return pieces[-1]

        return cls(lo=pieces[0].lo, hi=pieces[-1].hi,
                   eval=lambda x: _select(x).eval(x),
                   deriv=lambda x: _select(x).deriv(x),
                   breakpoints=tuple(sorted(set(breaks))))


@dataclass(frozen=True)
class LengthProfile:
    """Level-set length L(t) = L0 - deficit(t) of distance tubes in the cross-section.

    The deficit is stored, so L0 - L keeps its digits at small t.
    """

    deficit: Callable[[float], float]
    L0: float
    hi: float

    def __call__(self, t: float) -> float:
        return self.L0 - self.deficit(t)

    @classmethod
    def round_sphere(cls, L0: float = 2.0 * math.pi, scale: float = 1.0) -> "LengthProfile":
        """L(t) = L0 cos(t / scale) on [0, scale*pi/2], deficit 2 L0 sin^2(t / (2 scale))."""
        hi = scale * math.pi / 2.0
        return cls(deficit=lambda t: 2.0 * L0 * math.sin(0.5 * t / scale) ** 2 if t <= hi else L0,
                   L0=L0, hi=hi)

    @classmethod
    def from_table(cls, ts: Sequence[float], Ls: Sequence[float]) -> "LengthProfile":
        ts = np.asarray(ts, dtype=float)
        Ls = np.asarray(Ls, dtype=float)
        if not np.all(np.diff(ts) > 0.0) or ts[0] != 0.0:
            raise ValueError("table abscissae must start at 0 and increase")
        if np.any(Ls < 0.0) or np.any(Ls > Ls[0]):
            raise ValueError("need 0 <= L(t) <= L(0)")
        spline = CubicSpline(ts, Ls)
        L0 = float(Ls[0])
        return cls(deficit=lambda t: L0 - max(float(spline(t)), 0.0), L0=L0, hi=float(ts[-1]))


def _adaptive_quad(fn, lo, hi, cfg: QuadratureConfig, points=()):
    pts = [p for p in points if lo < p < hi] or None
    val, err = integrate.quad(fn, lo, hi, points=pts,
                              epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                              limit=max(4 * cfg.max_depth, 50))
    if err > 100.0 * max(cfg.abs_tol, cfg.rel_tol * abs(val)):
        raise QuadratureError(
            f"quadrature residual {err:.3e} exceeds tolerance", residual=err)
    return val


def graph_area(f: RadialProfile, L: LengthProfile,
               cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Area of the surface of revolution r = f(t) in a 3-dimensional cone.

    Integrates f(t) L(t) sqrt(f'(t)^2 + f(t)^2) over the profile domain.
    """
    hi = min(f.hi, L.hi) if L.hi is not None else f.hi

    def integrand(t):
        v = f.eval(t)
        return v * L(t) * math.hypot(f.deriv(t), v)

    return _adaptive_quad(integrand, f.lo, hi, cfg, points=f.breakpoints)


def s_functional(f: RadialProfile, space: ConeSpace,
                 cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Normalized area of the radial graph r = f(theta) over the polar angle.

    Integrates sqrt(f'^2 + lam^2 f^2) f^(n-1) cos^(n-1)(theta) on [0, pi/2].
    The totally geodesic hypercone is beaten exactly when the value drops
    below 1/n.
    """
    half_pi = math.pi / 2.0
    if f.lo > 1e-15 or f.hi < half_pi - 1e-12:
        raise ValueError("profile must be defined on all of [0, pi/2]")
    n, lam = space.n, space.lam

    def integrand(theta):
        v = f.eval(theta)
        return (math.hypot(f.deriv(theta), lam * v)
                * v ** (n - 1) * math.cos(theta) ** (n - 1))

    return _adaptive_quad(integrand, 0.0, half_pi, cfg, points=f.breakpoints)


def read_profile(path) -> RadialProfile:
    """Read a sampled profile from two-column text (theta, f)."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("expected two-column numeric text")
    return RadialProfile.from_samples(data[:, 0], data[:, 1])


def write_profile(path, xs: Sequence[float], fs: Sequence[float]) -> None:
    """Write profile samples as two-column text (theta, f)."""
    np.savetxt(path, np.column_stack([xs, fs]), fmt="%.17g")

"""Radial profiles of rotationally symmetric hypersurfaces and their areas.

``LengthProfile`` holds the level-set lengths that the catenoid + disk
family's disk is built over.  ``s_functional`` is the normalized area of a
radial graph over the polar angle in the cone over ``S^n(lambda)``: one
checked quadrature per segment between the profile's declared breakpoints,
to the package's area tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AREA_TOL, QuadratureError, checked_quad
from .geometry import ConeSpace


@dataclass(frozen=True)
class RadialProfile:
    """Positive piecewise-smooth profile over a closed interval.

    ``eval`` is a scalar callable returning the pair (f(x), f'(x)), so a
    quadrature node evaluates the profile once; ``breakpoints`` lists the
    interior abscissae where the derivative may jump so quadrature never
    straddles one.
    """

    lo: float
    hi: float
    eval: Callable[[float], tuple[float, float]]
    breakpoints: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("profile domain must be a nondegenerate interval")
        for b in self.breakpoints:
            if not self.lo < b < self.hi:
                raise ValueError(f"breakpoint {b} outside the open domain")

    def __call__(self, x: float) -> float:
        return self.eval(x)[0]


@dataclass(frozen=True)
class LengthProfile:
    """Level-set length L(t) = L0 - deficit(t) of distance tubes in the cross-section.

    The deficit is stored, so L0 - L keeps its digits at small t.  The disk
    area bound needs L^2 + F^2 <= L0^2, F the integral of L from 0; it is
    checked once, at construction, on 65 trapezoid samples to 1e-8 L0^2.
    """

    deficit: Callable[[float], float]
    L0: float
    hi: float

    def __post_init__(self):
        ts = np.linspace(0.0, self.hi, 65)
        Ls = np.array([self(t) for t in ts])
        Fs = np.concatenate(([0.0], np.cumsum(np.diff(ts) * (Ls[1:] + Ls[:-1]) / 2.0)))
        worst = float(np.max(Ls**2 + Fs**2) - self.L0**2)
        if worst > 1e-8 * self.L0**2:
            raise ValueError(f"length profile violates L^2 + F^2 <= L(0)^2 by {worst:.3e}")

    def __call__(self, t: float) -> float:
        return self.L0 - self.deficit(t)

    @classmethod
    def round_sphere(cls) -> "LengthProfile":
        """L(t) = 2 pi cos(t) on [0, pi/2], deficit 4 pi sin^2(t / 2)."""
        L0, hi = 2.0 * math.pi, math.pi / 2.0
        return cls(deficit=lambda t: 2.0 * L0 * math.sin(0.5 * t) ** 2 if t <= hi else L0,
                   L0=L0, hi=hi)


def _adaptive_quad(fn, lo, hi, points=()):
    """Sum of ``checked_quad`` of a nonnegative fn over the segments between the points.

    A segment [a, b] with a > 0 and b > 10 a spans decades, and a profile's
    mass may sit near a, so it is integrated in tau = log theta.  A sum below
    0 raises ``QuadratureError``.
    """
    edges = [lo, *sorted(p for p in points if lo < p < hi), hi]

    def in_tau(tau):
        return math.exp(tau) * fn(math.exp(tau))

    val = sum(checked_quad(in_tau, math.log(a), math.log(b), AREA_TOL, AREA_TOL)
              if a > 0.0 and b > 10.0 * a else checked_quad(fn, a, b, AREA_TOL, AREA_TOL)
              for a, b in zip(edges, edges[1:]))
    if val < 0.0:
        raise QuadratureError(f"quadrature of a nonnegative integrand gave {val:.3e}",
                              residual=-val)
    return val


def s_functional(f: RadialProfile, space: ConeSpace) -> float:
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
        v, dv = f.eval(theta)
        return (math.hypot(dv, lam * v)
                * v ** (n - 1) * math.cos(theta) ** (n - 1))

    return _adaptive_quad(integrand, 0.0, half_pi, points=f.breakpoints)

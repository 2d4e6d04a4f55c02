"""Geometry of metric cones over round spheres.

The ambient space is the cone over the sphere of radius ``lambda`` with the
warped metric ``dt^2 + t^2 g_M``.  Curvatures of the cone are determined by
the constant curvature of the cross-section; the vertex ``t = 0`` is singular
and excluded from every evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AREA_TOL, checked_quad, sign_change

TANGENTIAL = "tangential"
RADIAL = "radial"


@dataclass(frozen=True)
class ConeSpace:
    """Cone over the round n-sphere of radius ``lam`` (0 < lam <= 1)."""

    n: int
    lam: float

    def __post_init__(self):
        if not self.n % 1 == 0:   # NaN and inf too
            raise ValueError(f"cross-section dimension must be an integer, got {self.n}")
        if self.n < 2:
            raise ValueError(f"cross-section dimension must be >= 2, got {self.n}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"cross-section radius must be in (0, 1], got {self.lam}")


# the float D's rounding error is about 1.3e-15 (n-1): above this cut times
# (n-1) its relative error is below 1e-5, and below it D is computed exactly
_EXACT_DISCRIMINANT = 1e-9


def threshold_discriminant(n: int, lams):
    """D = (n lam)^2 - 4(n-1) per lambda; D >= 0 iff lam >= lam*.

    lams is a 1-d sequence, or one ``np.float64`` for one D.  Each D has the exact
    sign: near 0 it is ((n a)^2 - 4(n-1) b^2) / b^2 on lam = a/b, rounded once.
    """
    lams = np.float64(lams)
    nl = n * lams
    disc = nl * nl - 4.0 * (n - 1)
    near = abs(disc) < _EXACT_DISCRIMINANT * (n - 1)
    close = lams[near]
    if close.size:
        disc = np.asarray(disc)   # writable; 0-d for one lambda
        disc[near] = [((n * a) ** 2 - 4 * (n - 1) * b * b) / (b * b)
                      for a, b in map(float.as_integer_ratio, close.tolist())]
        disc = disc[()]
    return disc


def _check_radius(t: float) -> None:
    if t <= 0.0:
        raise ValueError(f"radial distance must be positive (vertex is singular), got {t}")


def cone_sectional(space: ConeSpace, t: float, plane: str) -> float:
    """Sectional curvature of the cone at radius ``t``.

    Tangential planes see the rescaled cross-section curvature; any plane
    containing the radial direction is flat.
    """
    _check_radius(t)
    if plane == RADIAL:
        return 0.0
    if plane == TANGENTIAL:
        return (1.0 / space.lam**2 - 1.0) / t**2
    raise ValueError(f"plane must be 'tangential' or 'radial', got {plane!r}")


def cone_ricci(space: ConeSpace, t: float, direction: str) -> float:
    """Diagonal Ricci curvature of the cone at radius ``t``."""
    _check_radius(t)
    if direction == RADIAL:
        return 0.0
    if direction == TANGENTIAL:
        n = space.n
        return ((n - 1) / space.lam**2 - (n - 1)) / t**2
    raise ValueError(f"direction must be 'tangential' or 'radial', got {direction!r}")


def sphere_area(dim: int, radius: float = 1.0) -> float:
    """Volume of the round ``dim``-sphere of the given radius."""
    if dim < 0:
        raise ValueError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0) * radius**dim


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in Euclidean ``dim``-space."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True)
class ExactCone:
    """A k-dimensional cone through the origin, described by its link volume.

    ``density_ratio`` is exactly constant in the radius: the area inside a
    ball of radius r is ``link_volume * r**k / k``.
    """

    dim: int
    link_volume: float

    def area_in_ball(self, r: float) -> float:
        if r <= 0.0:
            raise ValueError(f"ball radius must be positive, got {r}")
        return self.link_volume * r**self.dim / self.dim

    def density_ratio(self, r: float) -> float:
        if r <= 0.0:
            raise ValueError(f"ball radius must be positive, got {r}")
        return self.link_volume / self.dim


def equator_cone(space: ConeSpace) -> ExactCone:
    """The totally geodesic hypercone over the equator sphere of the cross-section."""
    return ExactCone(dim=space.n, link_volume=sphere_area(space.n - 1, space.lam))


def hyperplane(dim: int) -> ExactCone:
    """A flat k-plane through the origin, as the cone over the unit (k-1)-sphere."""
    return ExactCone(dim=dim, link_volume=sphere_area(dim - 1, 1.0))


class RevolutionSurface:
    """Surface of revolution ``rho = rho(z)`` in Euclidean 3-space.

    Used to verify the monotonicity of density ratios on sampled minimal
    surfaces.  ``rho`` must be even in z with ``rho(z)**2 + z**2`` strictly
    increasing in ``|z|`` so that ball intersections are slabs in z.
    """

    dim = 2

    def __init__(self, rho: Callable[[float], float], drho: Callable[[float], float],
                 z_max: float):
        self.rho = rho
        self.drho = drho
        self.z_max = z_max

    @classmethod
    def catenoid(cls, neck: float = 1.0, z_max: float = 50.0) -> "RevolutionSurface":
        return cls(rho=lambda z: neck * math.cosh(z / neck),
                   drho=lambda z: math.sinh(z / neck), z_max=z_max)

    def _dist_sq(self, z: float) -> float:
        return self.rho(z) ** 2 + z**2

    def _z_cut(self, r: float) -> float:
        """The last double z in [0, z_max] with rho(z)^2 + z^2 <= r^2, for rho(0) < r."""
        if self._dist_sq(self.z_max) <= r * r:
            raise ValueError(f"radius {r} exceeds the sampled patch")
        return sign_change(lambda z: self._dist_sq(z) - r * r, 0.0, self.z_max)

    def area_in_ball(self, r: float) -> float:
        if r <= 0.0:
            raise ValueError(f"ball radius must be positive, got {r}")
        if self._dist_sq(0.0) >= r * r:
            return 0.0
        zc = self._z_cut(r)
        integrand = lambda z: 2.0 * math.pi * self.rho(z) * math.hypot(1.0, self.drho(z))
        return checked_quad(integrand, -zc, zc, AREA_TOL, AREA_TOL)

    def density_ratio(self, r: float) -> float:
        return self.area_in_ball(r) / r**self.dim


def density_ratio(surface, r: float) -> float:
    """Area of the surface inside the ball of radius r, divided by r**k."""
    return surface.density_ratio(r)

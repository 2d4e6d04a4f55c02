"""Stability analysis of the totally geodesic hypercone.

For a 2-dimensional cone inside the 3-dimensional cone over a sphere of
radius lam < 1, a linear-ramp radial cutoff makes the second variation of
area negative once the support annulus is wide enough; the required width
blows up as lam approaches 1, where the cone flattens to a stable plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


def _check_lam(lam: float) -> None:
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"cross-section radius must be in (0, 1], got {lam}")


def _curvature_ratio(lam: float) -> float:
    """(1 - lam^2)/lam^2, the curvature term's coefficient; +inf where lam^2 underflows."""
    return (1.0 - lam * lam) / max(lam * lam, math.ulp(0.0))


@dataclass(frozen=True)
class TestFunctionEta:
    """Radial cutoff: r/eps on [0, eps], 1 on (eps, R], 2 - r/R on (R, 2R], 0 beyond."""

    epsilon: float
    R: float

    __test__ = False  # keep pytest from collecting this by its name

    def __post_init__(self):
        if not 0.0 < self.epsilon < self.R:
            raise ValueError("need 0 < epsilon < R")

    @property
    def log_ratio(self) -> float:
        return math.log(self.R / self.epsilon)

    def __call__(self, r: float) -> float:
        if r < 0.0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        if r <= self.epsilon:
            return r / self.epsilon
        if r <= self.R:
            return 1.0
        if r <= 2.0 * self.R:
            return 2.0 - r / self.R
        return 0.0


def stability_gap(lam: float, eta: TestFunctionEta) -> float:
    """Curvature term minus gradient term of the second variation, normalized.

    The stability inequality for the geodesic half-cone reduces, after the
    common volume factor cancels, to comparing ((1 - lam^2)/lam^2) * log(R/eps)
    against the gradient cost 2 of the two linear ramps.  A positive return
    value certifies instability.  Depends on eta only through R/eps.
    """
    _check_lam(lam)
    return _curvature_ratio(lam) * eta.log_ratio - 2.0


@dataclass(frozen=True)
class InstabilityCertificate:
    """A destabilizing cutoff, stored by the exponent of its annulus ratio.

    ``log_ratio`` is log(R/epsilon); the ratio itself overflows a double
    once lam is within about 1e-2 of 1, so only the exponent is kept.
    ``epsilon`` and ``R`` materialize a concrete pair when representable.
    """

    lam: float
    log_ratio: float
    gap: float
    epsilon: Optional[float] = None
    R: Optional[float] = None

    def eta(self) -> TestFunctionEta:
        if self.epsilon is None:
            raise OverflowError(
                f"annulus ratio e^{self.log_ratio:.6g} exceeds double range")
        return TestFunctionEta(epsilon=self.epsilon, R=self.R)


def instability_certificate(lam: float) -> Optional[InstabilityCertificate]:
    """A cutoff with strictly positive stability gap, or None at lam = 1.

    The gap crosses zero exactly at log(R/eps) = 2 lam^2 / (1 - lam^2);
    the certificate widens the annulus by one more e-fold.
    """
    _check_lam(lam)
    if lam == 1.0:
        return None
    c = _curvature_ratio(lam)
    log_ratio = 2.0 / c + 1.0
    if log_ratio < 700.0:
        eps, R = 1.0, math.exp(log_ratio)
    else:
        eps = R = None
    return InstabilityCertificate(lam=lam, log_ratio=log_ratio,
                                  gap=c * log_ratio - 2.0, epsilon=eps, R=R)


def critical_log_ratio(lam: float) -> float:
    """The exact zero of the stability gap: log(R/eps) = 2 lam^2/(1 - lam^2)."""
    _check_lam(lam)
    if lam == 1.0:
        return math.inf
    return 2.0 * lam * lam / (1.0 - lam * lam)

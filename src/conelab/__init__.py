"""Numerical laboratory for area-minimizing hypercones over round spheres.

Decides whether the totally geodesic hypercone over the equator of a round
n-sphere of radius lam is area-minimizing in the metric cone over that
sphere, reproducing the sharp threshold lam* = 2 sqrt(n-1)/n with checkable
certificates on both sides, plus supporting verifications: explicit
competitor surfaces, the stability inequality, cone curvatures, and the
monotonicity of density ratios.
"""

from types import ModuleType as _ModuleType

from .competitors import (CatenoidParams, SearchResult, catenoid_area_closed_form,
                          competitor_search, disk_profile, exp_profile_area,
                          solve_catenoid)
from .errors import NumericError, QuadratureError
from .geometry import (ConeSpace, ExactCone, RevolutionSurface, cone_ricci,
                       cone_sectional, density_ratio, equator_cone, hyperplane,
                       sphere_area, threshold_discriminant, unit_ball_volume)
from .profiles import LengthProfile, RadialProfile, s_functional
from .phase import (Certificate, Decision, ScanRecord, Verdict, decide,
                    emit, empirical_threshold, parse_csv, scan, threshold)
from .shooting import (BarrierCertificate, OutcomeKind, ShootingOutcome,
                       barrier_certificate, barrier_slope, boundary_flux,
                       find_extending_shots, flux_consistency, initial_slope,
                       reconstruct_f, shoot)
from .stability import (InstabilityCertificate, TestFunctionEta,
                        critical_log_ratio, instability_certificate, stability_gap)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

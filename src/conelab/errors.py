"""Exception types shared across the package, and the one checked quadrature."""

import scipy

# abs_tol and rel_tol of every area quadrature; the flux oracle's mesh area raises past it
AREA_TOL = 1e-10


class NumericError(RuntimeError):
    """A numerical routine failed to converge.

    Carries a ``residual`` estimate when the failing routine can produce one.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class QuadratureError(NumericError):
    """Adaptive quadrature did not reach the requested tolerance."""


def checked_quad(fn, lo, hi, abs_tol, rel_tol, args=()) -> float:
    """scipy's quad of fn over [lo, hi]: the package's one quadrature call.

    Raises ``QuadratureError`` if its error exceeds 100 max(abs_tol, rel_tol |value|).
    """
    val, err = scipy.integrate.quad(fn, lo, hi, args=args, epsabs=abs_tol, epsrel=rel_tol,
                                    limit=240)
    if err > 100.0 * max(abs_tol, rel_tol * abs(val)):
        raise QuadratureError(f"quadrature residual {err:.3e} exceeds tolerance", residual=err)
    return val

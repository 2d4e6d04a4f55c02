"""Exception types shared across the package, the one checked quadrature and the one root finder."""

import math
import struct
from bisect import insort
from itertools import repeat
from operator import add, mul, sub

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


# QUADPACK's qk21 (Piessens et al. 1983): the 21-point Kronrod extension of
# the 10-point Gauss rule on [-1, 1].  _X21 holds the centre, then the ten
# abscissae -x, then the ten +x; the pairs come Gauss ones first, in the
# order qk21 sums them.  _WK weighs the pairs, _WG the five Gauss pairs,
# _WK0 the centre and _W21 all 21 nodes.
_XK = (0.973906528517171720077964012084452, 0.865063366688984510732096688423493,
       0.679409568299024406234327365114874, 0.433395394129247190799265943165784,
       0.148874338981631210884826001129720,
       0.995657163025808080735527280689003, 0.930157491355708226001207180059508,
       0.780817726586416897063717578345042, 0.562757134668604683339000099272694,
       0.294392862701460198131126603103866)
_WK = (0.032558162307964727478818972459390, 0.075039674810919952767043140916190,
       0.109387158802297641899210590325805, 0.134709217311473325928054001771707,
       0.147739104901338491374841515972068,
       0.011694638867371874278064396062192, 0.054755896574351996031381300244580,
       0.093125454583697605535065465083366, 0.123491976262065851077208640728225,
       0.142775938577060080797094273138717)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_WK0 = 0.149445554002916905664936468389821
_X21 = (0.0, *(-x for x in _XK), *_XK)
_W21 = (_WK0, *_WK, *_WK)
_EPS50 = 50.0 * 2.0 ** -52          # qk21's floor on the error, relative to |f|'s integral
_PANELS = 240                       # most panels one integral may be cut into


def _qk21(fn, a, b, args, abs_tol=0.0, rel_tol=0.0):
    """(value, error) of QUADPACK's 21-point rule for fn(x, *args) on [a, b].

    The error is qk21's estimate resasc min(1, (200 |K - G| / resasc)^1.5),
    floored at 50 eps resabs.  The estimate is at most 200 |K - G|, and
    resabs at most |b - a| max |f|; where both bounds are within tol =
    max(abs_tol, rel_tol |value|), tol is returned in its place: the panel
    passes either way, and resabs and resasc go uncomputed.
    """
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fv = list(map(fn, [centr + hlgth * x for x in _X21], *map(repeat, args)))
    fsum = list(map(add, fv[1:11], fv[11:]))
    resk = sum(map(mul, _WK, fsum), _WK0 * fv[0])
    val, dhlgth = resk * hlgth, abs(hlgth)
    err = abs((resk - sum(map(mul, _WG, fsum))) * hlgth)
    tol = max(abs_tol, rel_tol * abs(val))
    if 200.0 * err <= tol and _EPS50 * 2.0 * dhlgth * max(map(abs, fv)) <= tol:
        return val, tol
    resasc = dhlgth * sum(map(mul, _W21, map(abs, map(sub, fv, repeat(0.5 * resk)))))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return val, max(err, _EPS50 * dhlgth * sum(map(mul, _W21, map(abs, fv))))


def checked_quad(fn, lo, hi, abs_tol, rel_tol, args=()) -> float:
    """Adaptive Gauss-Kronrod quadrature of fn(x, *args) over finite [lo, hi].

    The package's one quadrature: QUADPACK's 21-point rule and error
    estimate (``_qk21``) on one panel, then on halves of the panel of
    largest error, until the errors sum to at most max(abs_tol, rel_tol
    |value|) or ``_PANELS`` panels are in use; there is no extrapolation.
    lo > hi gives minus the integral over [hi, lo].  Raises
    ``QuadratureError`` if the value or the error is not finite, or the
    error exceeds 100 max(abs_tol, rel_tol |value|).
    """
    val, err = _qk21(fn, lo, hi, args, abs_tol, rel_tol)
    if err <= max(abs_tol, rel_tol * abs(val)) and math.isfinite(val):
        return val
    panels = [(err, lo, hi, val)]        # sorted by error, the largest last
    while err > max(abs_tol, rel_tol * abs(val)) and len(panels) < _PANELS and err < math.inf:
        e, a, b, v = panels.pop()
        mid = 0.5 * (a + b)
        v1, e1 = _qk21(fn, a, mid, args)
        v2, e2 = _qk21(fn, mid, b, args)
        insort(panels, (e1, a, mid, v1))
        insort(panels, (e2, mid, b, v2))
        val += v1 + v2 - v
        err += e1 + e2 - e
    if len(panels) > 1 and err < math.inf:      # then every panel's value is finite
        val = math.fsum(p[3] for p in panels)
        err = math.fsum(p[0] for p in panels)
    if not (math.isfinite(val) and err <= 100.0 * max(abs_tol, rel_tol * abs(val))):
        raise QuadratureError(f"quadrature value {val!r} with residual {err:.3e} exceeds "
                              f"tolerance", residual=err)
    return val


def sign_change(fn, lo: float, hi: float) -> float:
    """The last double of [lo, hi] before fn crosses 0 from fn(lo)'s side.

    The package's one root finder, with no tolerance: it bisects the bit
    patterns of the doubles, which order as non-negative doubles do, and in
    at most 63 halvings ends on an x with fn(x) 0 or of fn(lo)'s sign and fn
    of the other sign at the next double.  An end where fn is 0 is returned.
    Raises ``ValueError`` unless 0 <= lo < hi and fn(lo) fn(hi) <= 0, and
    ``NumericError`` where fn is NaN between them.
    """
    if not 0.0 <= lo < hi:
        raise ValueError(f"root finder needs 0 <= lo < hi, got [{lo!r}, {hi!r}]")
    y_lo, y_hi = float(fn(lo)), float(fn(hi))
    if y_lo == 0.0 or y_hi == 0.0:
        return lo if y_lo == 0.0 else hi
    if not (y_lo < 0.0 < y_hi or y_hi < 0.0 < y_lo):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]: {y_lo!r}, {y_hi!r}")
    i, j = struct.unpack("<2q", struct.pack("<2d", lo + 0.0, hi))    # -0.0 ranks as 0.0
    while j - i > 1:
        m = (i + j) // 2
        x = struct.unpack("<d", struct.pack("<q", m))[0]
        if math.isnan(y := float(fn(x))):
            raise NumericError(f"root finder met NaN at {x!r}")
        i, j = (m, j) if y == 0.0 or (y < 0.0) == (y_lo < 0.0) else (i, m)
    return struct.unpack("<d", struct.pack("<q", i))[0]

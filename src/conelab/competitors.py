"""Explicit competitor surfaces against the totally geodesic hypercone.

Two families: a catenoid neck glued to an exponentially decaying disk for
2-dimensional surfaces, and an exponential spindle glued to an integral
profile for radial graphs in any dimension.  The catenoid patch's area is a
boundary-term closed form and the disk's telescopes to its tail exponent g,
one quadrature in log t, ``_log_quad``.  The spindle carries a closed-form
bound, ``_margin_and_log_gap``, and its area by quadrature,
``exp_profile_area``, whose tail exponent is its exact log t leading
term plus an analytic remainder in v = t^2 below theta = 0.3, tabulated once
per n, ``_g_to_half_pi``.  Below the threshold one closed-form junction
per lambda gives a competitor whose normalized area drops below 1/n.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .errors import AREA_TOL, NumericError, checked_quad, sign_change
from .geometry import ConeSpace, threshold_discriminant
from .profiles import LengthProfile, RadialProfile

HALF_PI = math.pi / 2.0
_RESIDUAL_TOL = 1e-12
# abs_tol and rel_tol of the tail exponents' quadratures: the disk's g, the spindle's g(pi/2)
_TAIL_TOL = 1e-12


# ---------------------------------------------------------------------------
# catenoid + disk family (2-dimensional surfaces in a 3-dimensional cone)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatenoidParams:
    """Catenoid patch r = f(t) with f cos t = a cosh((f sin t - b)/a).

    Solves f(0) = 1, f(delta) = alpha * (junction value), with the neck
    parameter a small and the offset b beyond the patch.
    """

    delta: float
    alpha: float
    a: float
    b: float

    def __post_init__(self):
        r1, r2 = catenoid_residuals(self.a, self.b, self.delta, self.alpha)
        if max(abs(r1), abs(r2)) > _RESIDUAL_TOL:
            raise ValueError(f"junction equations violated: residuals ({r1:.2e}, {r2:.2e})")
        if not self.a < self.alpha * math.cos(self.delta):
            raise ValueError("need a < alpha*cos(delta) for the area closed form")


def catenoid_residuals(a: float, b: float, delta: float, alpha: float):
    r1 = a * math.cosh(b / a) - 1.0
    r2 = a * math.cosh((alpha * math.sin(delta) - b) / a) - alpha * math.cos(delta)
    return r1, r2


def solve_catenoid(delta: float, alpha: float) -> Optional[CatenoidParams]:
    """The neck a and offset b of the patch, on the branch b >= s beyond it.

    With c = alpha cos(delta) and s = alpha sin(delta), r1 = 0 gives
    b = a acosh(1/a), and r2 = 0 gives b - s = a acosh(c/a) where b >= s, so
    the junction is psi(a) = a (acosh(1/a) - acosh(c/a)) - s = 0.  psi(0+) = -s
    and psi' = G(1) - G(c) > 0, G(k) = acosh(k/a) - k/sqrt(k^2 - a^2) having
    dG/dk = 1/sqrt(k^2 - a^2) + a^2/(k^2 - a^2)^(3/2) > 0: one root in (0, c)
    if psi(c) > 0, else no patch and None.  ``sign_change`` bisects
    psi(c u)/s = u log_ratio(u)/tan(delta) - 1 over the doubles u in [0, 1],
    so a = c u is the neck to adjacent doubles of u even at a ~ 1e-300.  The acosh
    difference is log((1 + sqrt(1 - a^2)) / (c + sqrt(c^2 - a^2))), taken as
    log1p((1 - c)(1 + (1 + c)/(sqrt(1 - a^2) + sqrt(c^2 - a^2))) / (c + sqrt(c^2 - a^2)))
    with 1 - c = (1 - alpha) + 2 alpha sin^2(delta/2), so it keeps its digits as
    c -> 1.  A neck that is subnormal or rounds to c raises ``NumericError``.
    """
    if not 0.0 < delta < math.pi / 4.0:
        raise ValueError(f"junction angle must lie in (0, pi/4), got {delta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"junction value must lie in (0, 1), got {alpha}")
    c, tan_delta = alpha * math.cos(delta), math.tan(delta)
    one_minus_c = (1.0 - alpha) + 2.0 * alpha * math.sin(0.5 * delta) ** 2
    if c < sys.float_info.min:    # then so is a < c, and the log1p below overflows
        raise NumericError(f"catenoid neck underflows at (delta, alpha) = {(delta, alpha)}")

    def log_ratio(u):
        """acosh(1/a) - acosh(c/a) at a = c u."""
        a = c * u
        root_1, root_c = math.sqrt((1.0 - a) * (1.0 + a)), c * math.sqrt((1.0 - u) * (1.0 + u))
        return math.log1p(one_minus_c * (1.0 + (1.0 + c) / (root_1 + root_c)) / (c + root_c))

    if not log_ratio(1.0) > tan_delta:    # psi(c) = c log_ratio(1) - s
        return None
    a = c * sign_change(lambda u: u / tan_delta * log_ratio(u) - 1.0, 0.0, 1.0)
    if not sys.float_info.min <= a < c:
        raise NumericError(f"catenoid neck {a!r} is subnormal or rounds to alpha cos(delta) "
                           f"at (delta, alpha) = {(delta, alpha)}")
    return CatenoidParams(delta=delta, alpha=alpha, a=a, b=a * math.acosh(1.0 / a))


def catenoid_area_closed_form(params: CatenoidParams, L0: float) -> float:
    """Boundary-term evaluation of the catenoid patch area."""
    a, alpha, delta = params.a, params.alpha, params.delta
    arg = a / (alpha * math.cos(delta))
    if not -1.0 <= arg <= 1.0:
        raise ValueError(f"arcsin argument {arg} out of range")
    return 0.5 * L0 * (math.sqrt(1.0 - a * a)
                       - alpha**2 * math.cos(delta)
                       * math.cos(delta + math.asin(arg)))


def _log_quad(fn, lo: float, hi: float) -> float:
    """Integral of fn(t) from lo to hi (0 < lo <= hi), taken in tau = log t."""
    return checked_quad(lambda tau: math.exp(tau) * fn(math.exp(tau)),
                        math.log(lo), math.log(hi), _TAIL_TOL, _TAIL_TOL)


def disk_profile(delta: float, alpha: float, L: LengthProfile):
    """Exponential-profile disk r = alpha * exp(-g(t)) on t >= delta.

    g integrates L / sqrt((L0 - L)(L0 + L)) from delta in log t, L0 - L the
    deficit; the area telescopes to L0 (alpha^2 - f_end^2) / 2.  Returns (profile, area).
    """
    if not 0.0 < delta < L.hi:
        raise ValueError(f"junction {delta} outside the length profile domain")
    L0, hi = L.L0, L.hi
    if L.deficit(delta) <= 0.0:
        raise NumericError("integrand singular at the junction: L(delta) >= L(0)")

    def dg(t):
        d = L.deficit(t)
        return (L0 - d) / math.sqrt(d * (2.0 * L0 - d))

    def g(t):
        return _log_quad(dg, delta, min(t, hi))

    # alpha^2 - f_end^2 = -alpha^2 expm1(-2 g_end)
    area = -0.5 * L0 * alpha**2 * math.expm1(-2.0 * g(hi))

    def jet(t):
        f = alpha * math.exp(-g(t))
        return f, -f * dg(t)

    return RadialProfile(lo=delta, hi=hi, eval=jet), area


# ---------------------------------------------------------------------------
# exponential + integral-profile family (radial graphs, any dimension)
# ---------------------------------------------------------------------------

def _alpha_terms(n: int, log_alpha):
    """(alpha^n, log1p(-alpha^n), log(-log alpha)), ``_margin_and_log_gap``'s alpha terms."""
    an = np.exp(n * log_alpha)
    return an, np.log1p(-an), np.log(-log_alpha)


def _margin_and_log_gap(n: int, lams, log_alpha, log_delta, delta, p_minus_2=None,
                        alpha_terms=None):
    """(margin, log gap) of the competitor with junction (delta, alpha) at each lambda.

    The competitor is e^(-mu theta) on [0, delta], mu = -log(alpha)/delta,
    glued to alpha e^(-lam g(theta)) on [delta, pi/2], g(delta) = 0 and
    g'(t) = 1/sqrt(sec^(2n-2) t - 1).  Its normalized area is at most
    1/n - margin, where, with p = n lam/sqrt(n-1) and x = (lam delta/log alpha)^2,

        margin * n = alpha^n sin^p(delta) - (1 - alpha^n)(sqrt(1+x) - 1).

    The head is at most (1 - alpha^n) sqrt(1+x)/n: its integrand is
    sqrt(mu^2 + lam^2) e^(-n mu theta) cos^(n-1) theta and cos <= 1.  The
    tail telescopes to (alpha^n - f_end^n)/n, f_end = alpha e^(-lam g(pi/2)),
    and f_end^n >= alpha^n sin^p(delta): g' <= cot t/sqrt(n-1), since
    sec^(2n-2) t - 1 = (1+s)^(n-1) - 1 >= (n-1)s with s = tan^2 t (Bernoulli),
    so g(pi/2) <= -log sin(delta)/sqrt(n-1), with equality at n = 2.

    The margin is formed without cancellation, 1 - sqrt(1+x) = -x/(1 + sqrt(1+x)),
    but underflows with delta.  The log gap, log(gain) - log(cost) of its two
    terms, is positive iff the margin is.  It is taken from log delta, so it
    decides junctions far below the smallest double, and from
    p - 2 = D/(sqrt(n-1)(n lam + 2 sqrt(n-1))), given or formed from
    ``threshold_discriminant``, so it has D's exact sign; it is -inf where
    p >= 2, where no competitor beats the cone, by a masked write.  alpha_terms is
    ``_alpha_terms(n, log_alpha)``, if known.  Row i depends on row i's inputs alone, so an
    ``np.float64`` lambda gives the array's row bit for bit; powers are ``np.power`` and
    ``np.square``, as ``**`` on a NumPy scalar is C's pow, an ulp off.
    """
    root = math.sqrt(n - 1)
    p = n * lams / root
    if p_minus_2 is None:
        # p log delta - 2 log delta would cancel every digit at log delta ~ -1e17
        p_minus_2 = threshold_discriminant(n, lams) / (root * (n * lams + 2.0 * root))
    an, log1p_an, log_neg_la = _alpha_terms(n, log_alpha) if alpha_terms is None else alpha_terms
    x = np.square(lams * delta / log_alpha)
    margin = (an * np.power(np.sin(delta), p) - (1.0 - an) * x / (1.0 + np.sqrt(1.0 + x))) / n
    # log sin(delta) = log delta + log(sin(delta)/delta).  The ratio rounds
    # to 1 below delta ~ 2.6e-8, so flooring delta at 1e-300 (it underflows
    # to 0 below log delta ~ -745) leaves log sin(delta) = log delta there.
    delta = np.maximum(delta, 1e-300)
    # log x = 2 log delta + log_x_rest
    log_x_rest = 2.0 * (np.log(lams) - log_neg_la)
    log_gap = np.asarray(   # a fresh result, 0-d for one lambda
        p_minus_2 * log_delta + (2.0 + p_minus_2) * np.log(np.sin(delta) / delta)
        + n * log_alpha - log1p_an - log_x_rest
        + np.log(1.0 + np.sqrt(1.0 + np.exp(2.0 * log_delta + log_x_rest))))
    log_gap[np.logical_not(p_minus_2 < 0.0)] = -np.inf
    return margin, log_gap[()]   # [()]: 0-d to np.float64


def _log_sec(t: float) -> float:
    """-log(cos t), up to pi/4 from cos t = 1 - 2 sin^2(t/2) so small t keeps its digits.

    Above pi/4 that form cancels as t -> pi/2, where cos t itself is exact.
    """
    if t > 0.25 * math.pi:
        return -math.log(math.cos(t))
    return -math.log1p(-2.0 * math.sin(0.5 * t) ** 2)


def _g_integrand(t: float, n: int) -> float:
    """g'(t) = 1/sqrt(cos^(2-2n)t - 1) of the competitor's tail exponent.

    Where (n-1) t^2 is below machine epsilon it is the leading term
    1/(t sqrt(n-1)), whose relative error (3n-2) t^2/12 is below eps/3 there;
    sin^2(t/2) in ``_log_sec`` turns subnormal below t ~ 3e-154.
    """
    if (n - 1) * t * t < sys.float_info.epsilon:
        return 1.0 / (t * math.sqrt(n - 1.0))
    # cos^(2-2n)t - 1 = expm1(a), a = (2n-2) log sec t, via expm1 so tiny t
    # does not round cos t to 1; past a = 40, e^-a is below half an ulp of 1,
    # so g' = e^(-a/2) / sqrt(1 - e^-a) is e^(-a/2), where expm1(a) would
    # overflow near pi/2 for large n
    a = (2 * n - 2) * _log_sec(t)
    return 1.0 / math.sqrt(math.expm1(a)) if a < 40.0 else math.exp(-0.5 * a)


# the largest junction angle search_competitors returns; the competitor's
# tail integral splits there, so every witness's junction lies at or below it
_DELTA_CAP = 0.3
_LOG_DELTA_CAP = math.log(_DELTA_CAP)
_V_CAP = _DELTA_CAP * _DELTA_CAP
_MAX_DEGREE = 1024


def _remainder(v: float, n: int) -> float:
    """R_n(v) = (t g'(t) - lead)/(2v), t = sqrt(v), lead = 1/sqrt(n-1): see ``_g_to_half_pi``."""
    t = math.sqrt(v)
    return (t * _g_integrand(t, n) - 1.0 / math.sqrt(n - 1.0)) / (2.0 * v)


@functools.cache
def _tail_table(n: int):
    """(cap_n, coefficients), the two constants of n >= 3 in ``_g_to_half_pi``.

    cap_n is g' integrated from s = _DELTA_CAP to pi/2.  The coefficients are the
    Chebyshev series in x = 2v/s^2 - 1 of R_n's mean S_n(v) = int_v^{s^2} R_n / (s^2 - v)
    at the Chebyshev-Lobatto points of degree 1, 2, 4, ...: a doubling keeps the
    old nodes' integrals and adds one ``checked_quad`` from each new node up to
    its neighbour above.  The first degree N whose last quarter of coefficients
    is within N eps of the largest (the rounding plateau) ends it: 16 up to
    n = 20, 32 at 30..100, 64 at 300, 128 at 1000.  None if none does by _MAX_DEGREE.
    """
    integral = functools.partial(checked_quad, abs_tol=_TAIL_TOL, rel_tol=_TAIL_TOL, args=(n,))
    cap = integral(_g_integrand, _DELTA_CAP, HALF_PI)
    # (v, R_n's integral from v to s^2), from v = s^2 (x = 1) down to 0
    nodes = [(_V_CAP, 0.0), (0.0, integral(_remainder, 0.0, _V_CAP))]
    while True:
        deg = len(nodes) - 1
        mean = np.array([_remainder(_V_CAP, n)] + [i / (_V_CAP - v) for v, i in nodes[1:]])
        mean[[0, -1]] *= 0.5
        # DCT-I: c_j = (2/N) sum'' S_k cos(pi jk/N), with jk reduced mod 2N
        jk = np.outer(np.arange(deg + 1), np.arange(deg + 1)) % (2 * deg)
        coeffs = (np.cos(np.pi / deg * np.arange(2 * deg))[jk] * mean).sum(axis=1) * (2.0 / deg)
        coeffs[[0, -1]] *= 0.5
        if np.abs(coeffs[3 * deg // 4:]).max() <= deg * 2.0**-52 * np.abs(coeffs).max():
            return cap, tuple(coeffs.tolist())
        if deg == _MAX_DEGREE:
            return cap, None
        vs = (0.5 * _V_CAP * (1.0 + math.cos(math.pi * (k + 0.5) / deg)) for k in range(deg))
        new = [(v, i + integral(_remainder, v, v_up)) for v, (v_up, i) in zip(vs, nodes)]
        nodes = [*chain.from_iterable(zip(nodes, new)), nodes[-1]]


def _g_to_half_pi(space: ConeSpace, delta: float) -> float:
    """Integral of _g_integrand from delta to pi/2.

    Split at s = _DELTA_CAP; from s to pi/2 it is ``_tail_table``'s cap_n.
    Below s, sec^(2n-2) t is even and analytic with series 1 + (n-1) t^2 + O(t^4),
    so sec^(2n-2) t - 1 = (n-1) t^2 E(t^2) with E analytic, E(0) = 1 and E >= 1
    on [0, s^2].  Then t g'(t) = lead / sqrt(E(t^2)), lead = 1/sqrt(n-1), is
    analytic in v = t^2, and

        int_delta^s g' dt = lead log(s/delta) + int_{delta^2}^{s^2} R_n(v) dv

    with R_n = ``_remainder``, a function of n alone: the last term is
    (s^2 - delta^2) S_n(delta^2), S_n from ``_tail_table`` (0 where delta^2
    underflows), with no quadrature; an n without a table (above about 1e5)
    integrates R_n per call.  The mean, unlike an antiderivative difference,
    keeps its relative digits as delta nears s.  For delta > s it is one
    direct quad.  n = 2 has the closed form -log sin(delta).
    """
    n = space.n
    if n == 2:
        # integrand is exactly cot(t)
        return -math.log(math.sin(delta))
    if delta > _DELTA_CAP:
        return checked_quad(_g_integrand, delta, HALF_PI, _TAIL_TOL, _TAIL_TOL, args=(n,))
    cap, coeffs = _tail_table(n)
    lead, v_lo = 1.0 / math.sqrt(n - 1.0), delta * delta
    # log(s/delta) = log(s^2/v_lo)/2 from the remainder's own lower limit:
    # near the cap the two terms cancel, and s^2 - v_lo is exact there
    log_ratio = (0.5 * math.log1p((_V_CAP - v_lo) / v_lo) if 2.0 * v_lo > _V_CAP
                 else _LOG_DELTA_CAP - math.log(delta))
    if coeffs is None:
        rem = checked_quad(_remainder, v_lo, _V_CAP, _TAIL_TOL, _TAIL_TOL, args=(n,))
    else:   # (s^2 - v_lo) S_n(v_lo), S_n's series summed by Clenshaw's recurrence
        x, b1, b2 = 2.0 * v_lo / _V_CAP - 1.0, 0.0, 0.0
        for c in coeffs[:0:-1]:
            b1, b2 = c + 2.0 * x * b1 - b2, b1
        rem = (_V_CAP - v_lo) * (coeffs[0] + x * b1 - b2)
    return log_ratio * lead + rem + cap


def exp_profile_area(space: ConeSpace, delta: float, alpha: float) -> float:
    """Normalized area of the competitor with junction (delta, alpha), by quadrature.

    The competitor is e^(-mu theta), mu = -log(alpha)/delta, on [0, delta],
    glued to alpha e^(-lam g(theta)) on [delta, pi/2].  A junction outside
    (0, pi/2) x (0, 1) raises ``ValueError``.  The head is integrated in the
    scaled variable u = theta/delta, which never forms mu, so tiny junction
    angles stay well conditioned; the tail telescopes exactly to
    (alpha^n - f(pi/2)^n)/n = -alpha^n expm1(-n lam g(pi/2))/n.  g(pi/2)
    splits at delta = 0.3, the cap on the search's junctions: the part above
    and a Chebyshev table of the part below are built once per n by quads
    (``_tail_table``), so a junction below the cap costs one head quad and a
    Clenshaw sum, within 1e-14 relative or 1e-16 absolute for n = 3..1000.
    """
    if not 0.0 < delta < HALF_PI:
        raise ValueError(f"junction angle must lie in (0, pi/2), got {delta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"junction value must lie in (0, 1), got {alpha}")
    n, lam = space.n, space.lam
    log_alpha = math.log(alpha)

    scale = math.hypot(log_alpha, lam * delta)  # delta * sqrt(mu^2 + lam^2)

    def head(u):
        return alpha ** (n * u) * math.cos(delta * u) ** (n - 1)

    head_val = checked_quad(head, 0.0, 1.0, AREA_TOL, AREA_TOL)
    g_end = _g_to_half_pi(space, delta)
    # alpha^n - f_end^n = -alpha^n expm1(-n lam g_end), exact as g_end -> 0
    tail_val = -alpha**n * math.expm1(-n * lam * g_end) / n
    return scale * head_val + tail_val


# ---------------------------------------------------------------------------
# the closed-form junction
# ---------------------------------------------------------------------------

class SearchResult(NamedTuple):
    found: bool
    delta: float            # the double the margin is computed at; 0.0 once it underflows
    log_delta: float
    alpha: float
    bound: float
    margin: float
    log_margin_gap: float   # log(gain) - log(cost); > 0 iff bound < 1/n
    evaluations: int        # 1 where the junction's log gap was checked, else 0


class Searches(NamedTuple):
    """``search_competitors``' result: per lambda, an array, or a NumPy scalar for one lambda.

    Where nothing is found, alpha, log_delta and margin still describe the
    closed-form junction.
    """

    found: np.ndarray
    alpha: np.ndarray
    log_delta: np.ndarray
    margin: np.ndarray
    log_gap: np.ndarray       # log(gain) - log(cost) of the junction; -inf where p >= 2


# the junction's candidate alphas: twelve log-spaced from 1e-4 to 0.9, then
# 0.3, 0.4, ..., 0.9, each the double np.linspace gave them
_JUNCTION_ALPHAS = np.array([
    0.00010000000000000009, 0.0002288108380472924, 0.0005235439960790417,
    0.0011979254049747378, 0.0027409831583041144, 0.006271666535250782,
    0.014350252758838885, 0.03283493359940389, 0.07512988674106796,
    0.17190532347621906, 0.393338011293845, 0.9,
    0.3, 0.4, 0.5, 0.6000000000000001, 0.7000000000000001, 0.8, 0.9])
_JUNCTION_STRETCH = 1.5       # log delta as a multiple of l*
# log of the smallest normal double: a smaller delta is subnormal or 0.0
_LOG_TINY = math.log(sys.float_info.min)


@functools.cache
def _junction_alpha(n: int):
    """(alpha, log alpha, C_alpha, _alpha_terms) of the first of _JUNCTION_ALPHAS with top C_alpha.

    C_alpha = n log alpha - log1p(-alpha^n) + 2 log(-log alpha) holds the
    alpha terms of search_competitors' C, so the choice depends on n alone.
    """
    la = np.log(_JUNCTION_ALPHAS)
    an, log1p_an, log_neg_la = _alpha_terms(n, la)
    c_alpha = n * la - log1p_an + 2.0 * log_neg_la
    k = int(c_alpha.argmax())
    return _JUNCTION_ALPHAS[k], la[k], c_alpha[k], (an[k], log1p_an[k], log_neg_la[k])


def search_competitors(n: int, lams, disc=None, /) -> Searches:
    """One closed-form junction per lambda, found where p < 2 and its log gap is positive.

    For tiny delta the log gap is (p-2) l + C in l = log delta, with
    C = n log alpha - log1p(-alpha^n) + 2 log(-log alpha) - 2 log lam + log 2,
    and is 0 at l* = C / (2-p).  The junction takes the first alpha of
    _JUNCTION_ALPHAS with the largest C and l = min(1.5 l*, log 0.3)
    (gap ~ |C|/2 below the cap), or the smallest normal delta where half
    that gap is left.  Where p >= 2 it is l = log 0.3, unchecked.  Each choice is a
    masked write into a fresh array, 0-d for one lambda.  disc is D, if known.  lams
    is a 1-d sequence or one ``np.float64``, which gives that row bit for bit.
    """
    lams = np.float64(lams)
    disc = threshold_discriminant(n, lams) if disc is None else disc
    root = math.sqrt(n - 1)
    # p - 2 free of cancellation, as _margin_and_log_gap forms it
    p_minus_2 = disc / (root * (n * lams + 2.0 * root))
    alpha_k, la_k, c_k, alpha_terms = _junction_alpha(n)
    # l* on every row, kept where p < 2 (the exact sign of D); D = 0 divides by 1, not 0
    l_star = (c_k - 2.0 * np.log(lams) + math.log(2.0)) / (-p_minus_2 + (p_minus_2 == 0.0))
    ld = _JUNCTION_STRETCH * l_star
    log_delta = np.asarray(ld)   # a fresh result, 0-d for one lambda
    # gap (2-p)(l* - _LOG_TINY) >= half of (2-p)(-l*/2) iff 1.25 l* >= _LOG_TINY
    log_delta[(ld < _LOG_TINY) & (1.25 * l_star >= _LOG_TINY)] = _LOG_TINY
    log_delta[(ld > _LOG_DELTA_CAP) | np.logical_not(p_minus_2 < 0.0)] = _LOG_DELTA_CAP
    log_delta = log_delta[()]   # 0-d to np.float64
    # delta underflows to 0.0 below log delta ~ -745, and the margin with it
    margin, log_gap = _margin_and_log_gap(n, lams, la_k, log_delta, np.exp(log_delta), p_minus_2,
                                          alpha_terms)
    # in field order: found, alpha (alpha_k on every row), log_delta, margin, log_gap
    return Searches(log_gap > 0.0, lams * 0.0 + alpha_k, log_delta, margin, log_gap)


def competitor_search(space: ConeSpace) -> SearchResult:
    """``search_competitors`` on ``np.float64(lam)``, with the witness's delta and bound."""
    found, alpha, log_delta, margin, log_gap = map(   # float(): .item()'s value, 10x cheaper
        float, search_competitors(space.n, np.float64(space.lam)))
    return SearchResult(found > 0.0, float(np.exp(log_delta)), log_delta, alpha,   # field order
                        1.0 / space.n - margin, margin, log_gap, int(math.isfinite(log_gap)))

"""Explicit competitor surfaces against the totally geodesic hypercone.

Two families: a catenoid neck glued to an exponentially decaying disk for
2-dimensional surfaces, and an exponential spindle glued to an integral
profile for radial graphs in any dimension.  Each carries a closed-form area
(or upper bound) plus a quadrature route; both tails take their exponent g
from one quadrature in log t, ``_log_quad``.  Below the threshold one
closed-form junction per lambda gives a competitor whose normalized area
drops below 1/n.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import integrate, optimize

from .errors import NumericError
from .geometry import ConeSpace, threshold_discriminant
from .profiles import LengthProfile, QuadratureConfig, RadialProfile

HALF_PI = math.pi / 2.0
_RESIDUAL_TOL = 1e-12


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


def solve_catenoid(delta: float, alpha: float, max_iter: int = 100) -> Optional[CatenoidParams]:
    """Damped Newton solve of the two junction equations for (a, b).

    Seeds from the small-delta asymptotic a ~ alpha*delta/(-ln alpha).
    Returns None when the converged point violates a < alpha*cos(delta)
    (no catenoid patch in that regime).
    """
    if not 0.0 < delta < math.pi / 4.0:
        raise ValueError(f"junction angle must lie in (0, pi/4), got {delta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"junction value must lie in (0, 1), got {alpha}")

    a = alpha * delta / (-math.log(alpha))
    b = a * math.acosh(1.0 / a)

    def res_norm(a_, b_):
        if a_ <= 0.0 or abs(b_ / a_) > 700.0 or abs((alpha * math.sin(delta) - b_) / a_) > 700.0:
            return math.inf
        r1, r2 = catenoid_residuals(a_, b_, delta, alpha)
        return max(abs(r1), abs(r2))

    for _ in range(max_iter):
        r1, r2 = catenoid_residuals(a, b, delta, alpha)
        if max(abs(r1), abs(r2)) < 1e-14:
            break
        u, v = b / a, (alpha * math.sin(delta) - b) / a
        jac = np.array([
            [math.cosh(u) - u * math.sinh(u), math.sinh(u)],
            [math.cosh(v) - v * math.sinh(v), -math.sinh(v)],
        ])
        try:
            da, db = np.linalg.solve(jac, [-r1, -r2])
        except np.linalg.LinAlgError:
            raise NumericError("singular Jacobian in catenoid solve",
                               residual=max(abs(r1), abs(r2)))
        step = 1.0
        base = max(abs(r1), abs(r2))
        for _ in range(40):
            if res_norm(a + step * da, b + step * db) < base:
                break
            step *= 0.5
        else:
            raise NumericError("catenoid Newton stalled", residual=base)
        a, b = a + step * da, b + step * db
    else:
        raise NumericError("catenoid Newton did not converge",
                           residual=res_norm(a, b))

    if not a < alpha * math.cos(delta):
        return None
    return CatenoidParams(delta=delta, alpha=alpha, a=a, b=b)


def catenoid_profile(params: CatenoidParams) -> RadialProfile:
    """Profile f(t) on [0, delta] solving f cos t = a cosh((f sin t - b)/a)."""
    a, b, alpha = params.a, params.b, params.alpha

    def implicit(f, t):
        return f * math.cos(t) - a * math.cosh((f * math.sin(t) - b) / a)

    def f_eval(t):
        if t <= 0.0:
            return 1.0
        return optimize.brentq(implicit, 0.5 * alpha, 1.5, args=(t,), xtol=1e-15)

    def f_deriv(t):
        f = f_eval(t)
        sh = math.sinh((f * math.sin(t) - b) / a)
        return (f * (math.sin(t) + sh * math.cos(t))
                / (math.cos(t) - sh * math.sin(t)))

    return RadialProfile(lo=0.0, hi=params.delta, eval=f_eval, deriv=f_deriv)


def catenoid_area_closed_form(params: CatenoidParams, L0: float) -> float:
    """Boundary-term evaluation of the catenoid patch area."""
    a, alpha, delta = params.a, params.alpha, params.delta
    arg = a / (alpha * math.cos(delta))
    if not -1.0 <= arg <= 1.0:
        raise ValueError(f"arcsin argument {arg} out of range")
    return 0.5 * L0 * (math.sqrt(1.0 - a * a)
                       - alpha**2 * math.cos(delta)
                       * math.cos(delta + math.asin(arg)))


def check_length_profile(L: LengthProfile, samples: int = 64, tol: float = 1e-8) -> None:
    """Verify L(t)^2 + F(t)^2 <= L(0)^2 with F the cumulative integral of L.

    This comparison-geometry inequality is what makes the disk area bound
    work; tabulated length profiles must satisfy it.
    """
    ts = np.linspace(0.0, L.hi, samples + 1)
    Ls = np.array([L(t) for t in ts])
    F = integrate.cumulative_trapezoid(Ls, ts, initial=0.0)
    worst = float(np.max(Ls**2 + F**2) - L.L0**2)
    if worst > tol * L.L0**2:
        raise ValueError(f"length profile violates L^2 + F^2 <= L(0)^2 by {worst:.3e}")


def _log_quad(fn, lo: float, hi: float, tol: float, lead: float = 0.0) -> float:
    """Integral of fn(t) from lo to hi (0 < lo <= hi), taken in tau = log t.

    lead, the limit of t fn(t) as t -> 0, integrates exactly; quad takes the
    rest, which must then decay like t^2 and is lost in rounding below tau = -40
    (hi lies above that).
    """
    lo_tau, hi_tau = math.log(lo), math.log(hi)
    rem_lo = max(lo_tau, -40.0) if lead else lo_tau
    rem, _ = integrate.quad(lambda tau: math.exp(tau) * fn(math.exp(tau)) - lead,
                            rem_lo, hi_tau, epsabs=tol, epsrel=tol, limit=200)
    return (hi_tau - lo_tau) * lead + rem


def disk_profile(delta: float, alpha: float, L: LengthProfile,
                 tol: float = 1e-12):
    """Exponential-profile disk r = alpha * exp(-g(t)) on t >= delta.

    g integrates L / sqrt((L0 - L)(L0 + L)) from delta in log t, L0 - L the
    deficit; the area telescopes to L0 (alpha^2 - f_end^2) / 2.  Returns (profile, area).
    """
    if not 0.0 < delta < L.hi:
        raise ValueError(f"junction {delta} outside the length profile domain")
    check_length_profile(L)
    L0, hi = L.L0, L.hi
    if L.deficit(delta) <= 0.0:
        raise NumericError("integrand singular at the junction: L(delta) >= L(0)")

    def dg(t):
        d = L.deficit(t)
        return (L0 - d) / math.sqrt(d * (2.0 * L0 - d))

    def g(t):
        return _log_quad(dg, delta, min(t, hi), tol)

    # alpha^2 - f_end^2 = -alpha^2 expm1(-2 g_end)
    area = -0.5 * L0 * alpha**2 * math.expm1(-2.0 * g(hi))

    def f_eval(t):
        return alpha * math.exp(-g(t))

    return RadialProfile(lo=delta, hi=hi, eval=f_eval, deriv=lambda t: -f_eval(t) * dg(t)), area


# ---------------------------------------------------------------------------
# exponential + integral-profile family (radial graphs, any dimension)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpCompetitor:
    """Piecewise graph e^(-mu*theta) glued at delta to alpha*e^(-lam*g(theta))."""

    space: ConeSpace
    delta: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.delta < HALF_PI:
            raise ValueError(f"junction angle must lie in (0, pi/2), got {self.delta}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"junction value must lie in (0, 1), got {self.alpha}")

    @property
    def mu(self) -> float:
        return -math.log(self.alpha) / self.delta


def _decay_power_minus_2(n: int, lams: np.ndarray, disc=None) -> np.ndarray:
    """p - 2 = D / (sqrt(n-1) (n lam + 2 sqrt(n-1))) per lambda; D = disc, if known."""
    root = math.sqrt(n - 1)
    disc = threshold_discriminant(n, lams) if disc is None else disc
    return disc / (root * (n * lams + 2.0 * root))


def _margin(n: int, lam, p, log_alpha, delta):
    """1/n minus the closed-form bound, cancellation-free; broadcasts over arrays.

    p is the decay power n*lam/sqrt(n-1) of lam.
    """
    an = np.exp(n * log_alpha)
    x = (lam * delta / log_alpha) ** 2
    # 1 - sqrt(1+x) = -x / (1 + sqrt(1+x))
    return (an * np.sin(delta) ** p - (1.0 - an) * x / (1.0 + np.sqrt(1.0 + x))) / n


def _log_margin(n: int, lam, p_minus_2, log_delta, log_alpha):
    """log(gain) - log(cost) of ``_margin``; broadcasts over arrays.

    Takes p - 2, not p: p log delta - 2 log delta would cancel every digit
    at junctions like log delta = -1e17.
    """
    # log sin(delta) = log delta + log(sin(delta)/delta).  The ratio rounds
    # to 1 below delta ~ 2.6e-8, so flooring delta at 1e-300 (it underflows
    # to 0 below log delta ~ -745) leaves log sin(delta) = log delta there.
    delta = np.maximum(np.exp(log_delta), 1e-300)
    # cost = (1 - alpha^n) x / (1 + sqrt(1+x)), x = (lam delta / ln alpha)^2;
    # log x = 2 log delta + log_x_rest
    log_x_rest = 2.0 * (np.log(lam) - np.log(-log_alpha))
    return (p_minus_2 * log_delta + (2.0 + p_minus_2) * np.log(np.sin(delta) / delta)
            + n * log_alpha - np.log1p(-np.exp(n * log_alpha)) - log_x_rest
            + np.log(1.0 + np.sqrt(1.0 + np.exp(2.0 * log_delta + log_x_rest))))


def exp_profile_margin(space: ConeSpace, delta: float, alpha: float) -> float:
    """1/n minus the closed-form bound on the competitor's normalized area.

    The bound is 1/n minus this margin.  The arrangement is
    cancellation-free, so it stays accurate for junction angles far below
    the square root of machine epsilon, where the direct bound formula
    loses every significant digit.
    """
    p = space.n * space.lam / math.sqrt(space.n - 1)
    return float(_margin(space.n, space.lam, p, math.log(alpha), delta))


def exp_profile_log_margin(space: ConeSpace, log_delta: float, alpha: float) -> float:
    """log(gain) - log(cost) of the bound's margin, for arbitrarily small delta.

    Positive iff the closed-form bound lies strictly below 1/n.  Works from
    the logarithm of the junction angle alone, so junctions far below the
    smallest positive double remain decidable.
    """
    p_minus_2 = _decay_power_minus_2(space.n, np.array([space.lam]))[0]
    return float(_log_margin(space.n, space.lam, p_minus_2, log_delta, math.log(alpha)))


def _log_sec(t: float) -> float:
    """-log(cos t), from cos t = 1 - 2 sin^2(t/2) so small t keeps its digits."""
    return -math.log1p(-2.0 * math.sin(0.5 * t) ** 2)


def _g_integrand(t: float, n: int) -> float:
    """g'(t) = 1/sqrt(cos^(2-2n)t - 1) of the competitor's tail exponent."""
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


@functools.cache
def _g_cap_to_half_pi(n: int, tol: float) -> float:
    """Integral of _g_integrand from _DELTA_CAP to pi/2: a constant of (n, tol)."""
    val, _ = integrate.quad(_g_integrand, _DELTA_CAP, HALF_PI, args=(n,), epsabs=tol,
                            epsrel=tol, limit=200)
    return val


def _g_to_half_pi(space: ConeSpace, delta: float, tol: float = 1e-12) -> float:
    """Integral of _g_integrand from delta to pi/2.

    Split at s = _DELTA_CAP.  For delta <= s it is the integral from delta
    to s, taken in tau = log t by ``_log_quad``, plus the integral from s
    to pi/2, which depends on n and tol alone and is computed once per
    (n, tol).  For delta > s it is one direct quad.  n = 2 has the closed
    form -log sin(delta).
    """
    n = space.n
    if n == 2:
        # integrand is exactly cot(t)
        return -math.log(math.sin(delta))
    if delta > _DELTA_CAP:
        val, _ = integrate.quad(_g_integrand, delta, HALF_PI, args=(n,), epsabs=tol,
                                epsrel=tol, limit=200)
        return val
    # g'(t) = 1/(t sqrt(n-1)) + O(t) near zero: the lead 1/sqrt(n-1) of t g'(t)
    return (_log_quad(lambda t: _g_integrand(t, n), delta, _DELTA_CAP, tol,
                      lead=1.0 / math.sqrt(n - 1.0))
            + _g_cap_to_half_pi(n, tol))


def exp_profile(space: ConeSpace, delta: float, alpha: float) -> RadialProfile:
    """The assembled piecewise competitor profile on [0, pi/2].

    The tail's g(theta) is G(delta) - G(theta), G = ``_g_to_half_pi``.
    """
    mu = ExpCompetitor(space=space, delta=delta, alpha=alpha).mu
    n, lam = space.n, space.lam

    head = RadialProfile(lo=0.0, hi=delta,
                         eval=lambda th: math.exp(-mu * th),
                         deriv=lambda th: -mu * math.exp(-mu * th))

    g_delta = _g_to_half_pi(space, delta)

    def tail_eval(th):
        return alpha * math.exp(-lam * (g_delta - _g_to_half_pi(space, min(th, HALF_PI))))

    tail = RadialProfile(lo=delta, hi=HALF_PI, eval=tail_eval,
                         deriv=lambda th: -lam * tail_eval(th) * _g_integrand(th, n))
    return RadialProfile.piecewise([head, tail])


def exp_profile_area(space: ConeSpace, delta: float, alpha: float,
                     cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Normalized area of the assembled competitor, by quadrature.

    The head is integrated in the scaled variable u = theta/delta so tiny
    junction angles stay well conditioned; the tail telescopes exactly to
    (alpha^n - f(pi/2)^n)/n once g(pi/2) is known.  g(pi/2) splits at
    delta = 0.3, the cap on the search's junctions: the part above it is a
    constant of n, integrated once per n, so a junction below the cap costs
    one tail quad, in log theta up to 0.3 (see ``_g_to_half_pi``).
    """
    comp = ExpCompetitor(space=space, delta=delta, alpha=alpha)
    n, lam = space.n, space.lam
    log_alpha = math.log(alpha)

    scale = math.hypot(log_alpha, lam * delta)  # delta * sqrt(mu^2 + lam^2)

    def head(u):
        return alpha ** (n * u) * math.cos(delta * u) ** (n - 1)

    head_val, head_err = integrate.quad(head, 0.0, 1.0,
                                        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                                        limit=200)
    if head_err > 100.0 * max(cfg.abs_tol, cfg.rel_tol * abs(head_val)):
        raise NumericError("head quadrature did not converge", residual=head_err)

    g_end = _g_to_half_pi(space, delta, tol=min(cfg.abs_tol, 1e-12))
    exponent = -n * lam * g_end
    f_end_n = comp.alpha**n * (math.exp(exponent) if exponent > -700.0 else 0.0)
    tail_val = (alpha**n - f_end_n) / n
    return scale * head_val + tail_val


# ---------------------------------------------------------------------------
# the closed-form junction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    found: bool
    delta: float            # 0.0 when the junction underflows a double
    log_delta: float
    alpha: float
    bound: float
    margin: float
    log_margin_gap: float   # log(gain) - log(cost); > 0 iff bound < 1/n
    evaluations: int        # 1 where the junction's log gap was checked, else 0


class Searches(NamedTuple):
    """``search_competitors``' result: one entry per lambda in each array.

    Where nothing is found, alpha, log_delta and margin still describe the
    closed-form junction.
    """

    found: np.ndarray
    alpha: np.ndarray
    log_delta: np.ndarray
    margin: np.ndarray
    log_gap: np.ndarray       # log(gain) - log(cost) of the junction; -inf where p >= 2
    evaluations: np.ndarray


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
    """(alpha, log alpha, C_alpha) of the first of _JUNCTION_ALPHAS with the largest C_alpha.

    C_alpha = n log alpha - log1p(-alpha^n) + 2 log(-log alpha) holds the
    alpha terms of search_competitors' C, so the choice depends on n alone.
    """
    la = np.log(_JUNCTION_ALPHAS)
    c_alpha = n * la - np.log1p(-np.exp(n * la)) + 2.0 * np.log(-la)
    k = int(c_alpha.argmax())
    return _JUNCTION_ALPHAS[k], la[k], c_alpha[k]


def search_competitors(n: int, lams, disc=None, /) -> Searches:
    """One closed-form junction per lambda, found where p < 2 and its log gap is positive.

    For tiny delta the log gap is (p-2) l + C in l = log delta, with
    C = n log alpha - log1p(-alpha^n) + 2 log(-log alpha) - 2 log lam + log 2,
    and is 0 at l* = C / (2-p).  The junction takes the first alpha of
    _JUNCTION_ALPHAS with the largest C and l = min(1.5 l*, log 0.3)
    (gap ~ |C|/2 below the cap), or the smallest normal delta where half
    that gap is left.  Where p >= 2 it is l = log 0.3, unchecked.  disc is D, if known.
    """
    lams = np.asarray(lams, dtype=float)
    p = n * lams / math.sqrt(n - 1)
    p_minus_2 = _decay_power_minus_2(n, lams, disc)
    alpha_k, la_k, c_k = _junction_alpha(n)
    below = p_minus_2 < 0.0      # p < 2: the exact sign of D
    log_delta = np.full(lams.shape, _LOG_DELTA_CAP)
    l_star = (c_k - 2.0 * np.log(lams[below]) + math.log(2.0)) / -p_minus_2[below]
    ld = np.minimum(_JUNCTION_STRETCH * l_star, _LOG_DELTA_CAP)
    # gap (2-p)(l* - _LOG_TINY) >= half of (2-p)(-l*/2) iff 1.25 l* >= _LOG_TINY
    log_delta[below] = np.where((ld < _LOG_TINY) & (1.25 * l_star >= _LOG_TINY), _LOG_TINY, ld)
    log_gap = np.full(lams.shape, -np.inf)
    log_gap[below] = _log_margin(n, lams[below], p_minus_2[below], log_delta[below], la_k)
    alpha = np.full(lams.shape, alpha_k)
    # delta underflows to 0.0 below log delta ~ -745, and the margin with it
    margin = _margin(n, lams, p, la_k, np.exp(log_delta))
    return Searches(found=log_gap > 0.0, alpha=alpha, log_delta=log_delta, margin=margin,
                    log_gap=log_gap, evaluations=below.astype(int))


def competitor_search(space: ConeSpace) -> SearchResult:
    """``search_competitors`` for one cone, with the witness's delta, bound and log gap."""
    s = search_competitors(space.n, [space.lam])
    log_delta, margin = float(s.log_delta[0]), float(s.margin[0])
    return SearchResult(found=bool(s.found[0]), delta=math.exp(log_delta), log_delta=log_delta,
                        alpha=float(s.alpha[0]), bound=1.0 / space.n - margin, margin=margin,
                        log_margin_gap=float(s.log_gap[0]), evaluations=int(s.evaluations[0]))

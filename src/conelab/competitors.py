"""Explicit competitor surfaces against the totally geodesic hypercone.

Two families: a catenoid neck glued to an exponentially decaying disk for
2-dimensional surfaces, and an exponential spindle glued to an integral
profile for radial graphs in any dimension.  Each carries a closed-form area
(or upper bound) plus a quadrature route, and a parameter search looks for a
competitor whose normalized area drops below 1/n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import integrate, optimize
from scipy.integrate import solve_ivp

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
    Ls = np.array([L.eval(t) for t in ts])
    F = integrate.cumulative_trapezoid(Ls, ts, initial=0.0)
    worst = float(np.max(Ls**2 + F**2) - L.L0**2)
    if worst > tol * L.L0**2:
        raise ValueError(f"length profile violates L^2 + F^2 <= L(0)^2 by {worst:.3e}")


def disk_profile(delta: float, alpha: float, L: LengthProfile,
                 tol: float = 1e-12):
    """Exponential-profile disk r = alpha * exp(-g(t)) on t >= delta.

    g integrates L / sqrt(L0^2 - L^2) from delta; the area telescopes to
    L0 * (alpha^2 - f_end^2) / 2.  Returns (profile, area).
    """
    if not 0.0 < delta < L.hi:
        raise ValueError(f"junction {delta} outside the length profile domain")
    check_length_profile(L)
    L0 = L.L0
    if L.eval(delta) >= L0:
        raise NumericError("integrand singular at the junction: L(delta) >= L(0)")

    def dg(t, _y):
        Lt = L.eval(t)
        return [Lt / math.sqrt(max(L0 * L0 - Lt * Lt, 0.0))]

    sol = solve_ivp(dg, (delta, L.hi), [0.0], method="RK45", rtol=tol, atol=tol,
                    dense_output=True)
    if not sol.success:
        raise NumericError("disk profile integration failed", residual=None)
    g_end = float(sol.y[0][-1])
    f_end = alpha * math.exp(-g_end)
    area = 0.5 * L0 * (alpha**2 - f_end**2)

    def g_eval(t):
        return float(sol.sol(min(t, L.hi))[0])

    def f_eval(t):
        return alpha * math.exp(-g_eval(t))

    def f_deriv(t):
        return -f_eval(t) * dg(t, None)[0]

    profile = RadialProfile(lo=delta, hi=L.hi, eval=f_eval, deriv=f_deriv)
    return profile, area


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


def _decay_power_minus_2(n: int, lams) -> np.ndarray:
    """p - 2 = D / (sqrt(n-1) (n lam + 2 sqrt(n-1))) per lambda, D the threshold discriminant."""
    lams = np.asarray(lams, dtype=float)
    root = math.sqrt(n - 1)
    return threshold_discriminant(n, lams) / (root * (n * lams + 2.0 * root))


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


def exp_profile_bound(space: ConeSpace, delta: float, alpha: float) -> float:
    """Closed-form upper bound on the normalized area of the competitor."""
    return 1.0 / space.n - exp_profile_margin(space, delta, alpha)


def exp_profile_margin(space: ConeSpace, delta: float, alpha: float) -> float:
    """1/n minus the closed-form bound, in a cancellation-free arrangement.

    Accurate for junction angles far below the square root of machine
    epsilon, where the direct bound formula loses every significant digit.
    """
    p = space.n * space.lam / math.sqrt(space.n - 1)
    return float(_margin(space.n, space.lam, p, math.log(alpha), delta))


def exp_profile_log_margin(space: ConeSpace, log_delta: float, alpha: float) -> float:
    """log(gain) - log(cost) of the bound's margin, for arbitrarily small delta.

    Positive iff the closed-form bound lies strictly below 1/n.  Works from
    the logarithm of the junction angle alone, so junctions far below the
    smallest positive double remain decidable.
    """
    p_minus_2 = _decay_power_minus_2(space.n, [space.lam])[0]
    return float(_log_margin(space.n, space.lam, p_minus_2, log_delta, math.log(alpha)))


def _g_integrand(t: float, n: int) -> float:
    """g'(t) = 1/sqrt(cos^(2-2n)t - 1) of the competitor's tail exponent."""
    # cos^(2-2n)t - 1 via expm1 so tiny t does not round cos t to 1
    if t < 1e-4:
        log_sec = t * t / 2.0 + t**4 / 12.0  # -log(cos t) to machine precision
    else:
        log_sec = -math.log(math.cos(t))
    return 1.0 / math.sqrt(math.expm1((2 * n - 2) * log_sec))


def _g_to_half_pi(space: ConeSpace, delta: float, tol: float = 1e-12) -> float:
    """Integral of _g_integrand from delta to pi/2."""
    n = space.n
    if n == 2:
        # integrand is exactly cot(t)
        return -math.log(math.sin(delta))

    total = 0.0
    split = 1e-3
    if delta < split:
        # g'(t) = 1/(t sqrt(n-1)) + O(t) near zero; in tau = log t the leading
        # term integrates exactly and the remainder decays like e^(2 tau)
        lead = 1.0 / math.sqrt(n - 1.0)
        lo_tau, hi_tau = math.log(delta), math.log(split)
        total += (hi_tau - lo_tau) * lead
        rem_lo = max(lo_tau, -40.0)  # remainder below e^-80: lost in rounding
        # the subtraction has a ~1e-9 relative noise floor; 1e-9 absolute in
        # the exponent keeps the resulting area accurate to ~1e-10
        val, _ = integrate.quad(
            lambda tau: math.exp(tau) * _g_integrand(math.exp(tau), n) - lead,
            rem_lo, hi_tau, epsabs=1e-9, epsrel=1e-8, limit=200)
        total += val
        lo = split
    else:
        lo = delta
    val, _ = integrate.quad(_g_integrand, lo, HALF_PI, args=(n,), epsabs=tol, epsrel=tol,
                            limit=200)
    return total + val


def exp_profile(space: ConeSpace, delta: float, alpha: float) -> RadialProfile:
    """The assembled piecewise competitor profile on [0, pi/2]."""
    comp = ExpCompetitor(space=space, delta=delta, alpha=alpha)
    mu = comp.mu
    n = space.n

    head = RadialProfile(lo=0.0, hi=delta,
                         eval=lambda th: math.exp(-mu * th),
                         deriv=lambda th: -mu * math.exp(-mu * th))

    sol = solve_ivp(lambda th, _y: [_g_integrand(th, n)], (delta, HALF_PI), [0.0], method="RK45",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    if not sol.success:
        raise NumericError("competitor tail integration failed")

    def g(th):
        return float(sol.sol(min(th, HALF_PI))[0])

    def tail_eval(th):
        return alpha * math.exp(-space.lam * g(th))

    def tail_deriv(th):
        return -space.lam * tail_eval(th) * _g_integrand(th, n)

    tail = RadialProfile(lo=delta, hi=HALF_PI, eval=tail_eval, deriv=tail_deriv)
    return RadialProfile.piecewise([head, tail])


def exp_profile_area(space: ConeSpace, delta: float, alpha: float,
                     cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Normalized area of the assembled competitor, by quadrature.

    The head is integrated in the scaled variable u = theta/delta so tiny
    junction angles stay well conditioned; the tail telescopes exactly to
    (alpha^n - f(pi/2)^n)/n once g(pi/2) is known.
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
# parameter search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    found: bool
    delta: float            # 0.0 when the best junction underflows a double
    log_delta: float
    alpha: float
    bound: float
    margin: float
    log_margin_gap: float   # log(gain) - log(cost); > 0 iff bound < 1/n
    evaluations: int


class Searches(NamedTuple):
    """``search_competitors``' result: one entry per lambda in each array.

    Where nothing is found, alpha and log_delta are the grid's best point
    and margin is its (negative) margin.
    """

    found: np.ndarray
    alpha: np.ndarray
    log_delta: np.ndarray
    margin: np.ndarray
    evaluations: np.ndarray


_ALPHA_GRID = np.exp(np.linspace(math.log(1e-4), math.log(0.9), 12))
_LOG_DELTA_GRID = np.linspace(math.log(1e-6), math.log(0.3), 16)
# the two refinement rounds: 5 x 5 points around the best so far, spaced a
# quarter, then a sixteenth of the coarse grid's spacing; flattened, alpha
# offsets repeat and log delta offsets cycle, in (alpha, log delta) order
_REFINE_OFFSETS = [(np.repeat(math.log(_ALPHA_GRID[1] / _ALPHA_GRID[0]) / 4.0 ** k
                              * np.arange(-2, 3), 5),
                    np.tile((_LOG_DELTA_GRID[1] - _LOG_DELTA_GRID[0]) / 4.0 ** k
                            * np.arange(-2, 3), 5))
                   for k in (1, 2)]
_COARSE_LOG_ALPHAS = np.log(_ALPHA_GRID)[:, None]
_COARSE_DELTAS = np.exp(_LOG_DELTA_GRID)
# alpha and log delta of each coarse point, in the flattened grid's order
_COARSE_ALPHAS = np.repeat(_ALPHA_GRID, _LOG_DELTA_GRID.size)
_COARSE_LOG_DELTAS = np.tile(_LOG_DELTA_GRID, _ALPHA_GRID.size)
# the closed-form junction's candidate alphas, and its log delta as a multiple of l*
_DEEP_ALPHAS = np.concatenate([_ALPHA_GRID, np.linspace(0.3, 0.9, 7)])
_JUNCTION_STRETCH = 1.5
# log of the smallest normal double: a smaller delta is subnormal or 0.0
_LOG_TINY = math.log(sys.float_info.min)


def search_competitors(n: int, lams) -> Searches:
    """Maximize the bound's margin over the junction parameters, for every lambda.

    Coarse log grid with two local refinement rounds.  Where that finds no
    positive margin and p < 2, one closed-form junction decided by its log
    gap: for tiny delta the gap is (p-2) l + C in l = log delta, with
    C = n log alpha - log1p(-alpha^n) + 2 log(-log alpha) - 2 log lam + log 2,
    and is 0 at l* = C / (2-p).  The deep alpha of largest C, and l = 1.5 l*
    (gap ~ |C|/2) or the smallest normal delta where half that gap is left,
    make the junction.  Ties go to the first point in (alpha, log delta) order.
    """
    lams = np.asarray(lams, dtype=float)
    size = lams.size
    rows = np.arange(size)
    p = n * lams / math.sqrt(n - 1)

    m = _margin(n, lams[:, None, None], p[:, None, None], _COARSE_LOG_ALPHAS, _COARSE_DELTAS)
    m = m.reshape(size, _COARSE_ALPHAS.size)
    best = m.argmax(axis=1)
    margin = m[rows, best]
    alpha, log_delta = _COARSE_ALPHAS[best], _COARSE_LOG_DELTAS[best]
    evals = np.full(size, m.shape[1])

    for a_offsets, d_offsets in _REFINE_OFFSETS:
        alphas = np.exp(np.log(alpha)[:, None] + a_offsets)
        log_deltas = log_delta[:, None] + d_offsets
        # points with alpha >= 1 are skipped; delta stays below 0.3 e^0.53 < pi/2
        ok = alphas < 1.0
        m = _margin(n, lams[:, None], p[:, None], np.log(np.where(ok, alphas, 0.5)),
                    np.exp(log_deltas))
        m = np.where(ok, m, -np.inf)
        evals = evals + ok.sum(axis=1)
        best = m.argmax(axis=1)
        candidate = m[rows, best]
        better = candidate > margin
        margin = np.maximum(candidate, margin)
        alpha = np.where(better, alphas[rows, best], alpha)
        log_delta = np.where(better, log_deltas[rows, best], log_delta)

    found = margin > 0.0
    todo = (~found).nonzero()[0]
    if todo.size:
        p_minus_2 = _decay_power_minus_2(n, lams[todo])
        todo, p_minus_2 = todo[p_minus_2 < 0.0], p_minus_2[p_minus_2 < 0.0]
        evals[todo] += 1
        la = np.log(_DEEP_ALPHAS)
        c_alpha = n * la - np.log1p(-np.exp(n * la)) + 2.0 * np.log(-la)
        k = int(c_alpha.argmax())
        l_star = (c_alpha[k] - 2.0 * np.log(lams[todo]) + math.log(2.0)) / -p_minus_2
        ld = _JUNCTION_STRETCH * l_star
        # gap (2-p)(l* - _LOG_TINY) >= half of (2-p)(-l*/2) iff 1.25 l* >= _LOG_TINY
        ld = np.where((ld < _LOG_TINY) & (1.25 * l_star >= _LOG_TINY), _LOG_TINY, ld)
        hit = (ld < math.log(HALF_PI)) & (_log_margin(n, lams[todo], p_minus_2, ld, la[k]) > 0.0)
        todo, ld = todo[hit], ld[hit]
        found[todo] = True
        alpha[todo] = _DEEP_ALPHAS[k]
        log_delta[todo] = ld
        # delta underflows to 0.0 below log delta ~ -745, and the margin with it
        margin[todo] = _margin(n, lams[todo], p[todo], la[k], np.exp(ld))
    return Searches(found=found, alpha=alpha, log_delta=log_delta, margin=margin,
                    evaluations=evals)


def competitor_search(space: ConeSpace) -> SearchResult:
    """``search_competitors`` for one cone, with the witness's delta, bound and log gap."""
    s = search_competitors(space.n, [space.lam])
    found = bool(s.found[0])
    alpha, log_delta, margin = float(s.alpha[0]), float(s.log_delta[0]), float(s.margin[0])
    return SearchResult(found=found, delta=math.exp(log_delta), log_delta=log_delta,
                        alpha=alpha, bound=1.0 / space.n - margin, margin=margin,
                        log_margin_gap=(exp_profile_log_margin(space, log_delta, alpha)
                                        if found else -math.inf),
                        evaluations=int(s.evaluations[0]))

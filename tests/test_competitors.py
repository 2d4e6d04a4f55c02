import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import competitors
from conelab.competitors import (_DELTA_CAP, CatenoidParams, _g_integrand, _g_to_half_pi,
                                 _log_sec, _margin_and_log_gap, catenoid_area_closed_form,
                                 catenoid_residuals, competitor_search, disk_profile,
                                 exp_profile_area, search_competitors,
                                 solve_catenoid)
from conelab.errors import NumericError, QuadratureError, _qk21, checked_quad
from conelab.geometry import ConeSpace, threshold_discriminant
from conelab.profiles import LengthProfile, RadialProfile, s_functional

HALF_PI = math.pi / 2
L0 = 2 * math.pi


def junction_margin(space, delta, alpha):
    """The competitor's margin at one junction delta > 0: the np.float64 row of the kernel."""
    return float(_margin_and_log_gap(space.n, np.float64(space.lam), math.log(alpha),
                                     math.log(delta), delta)[0])


def catenoid_jet(p, t):
    """(f, f') at t of the patch f cos t = a cosh((f sin t - b)/a), f by brentq.

    Left side minus right is -1 at f = 0 (by r1) and positive at
    f = min(2, b / sin t), where cosh's argument is in [-b/a, 0]; its
    f-derivative is at least cos t > 0 there: one root in the bracket.
    """
    a, b = p.a, p.b
    f = 1.0 if t <= 0.0 else scipy.optimize.brentq(
        lambda f: f * math.cos(t) - a * math.cosh((f * math.sin(t) - b) / a),
        0.0, min(2.0, b / math.sin(t)), xtol=1e-15)
    sh = math.sinh((f * math.sin(t) - b) / a)
    return f, f * (math.sin(t) + sh * math.cos(t)) / (math.cos(t) - sh * math.sin(t))


def surface_area(jet, lo, hi):
    """Area of the surface of revolution r = f(t), t in [lo, hi], over the round sphere.

    The integrand f L hypot(f', f), L = 2 pi cos t, by mpmath's tanh-sinh rule.
    """
    length = LengthProfile.round_sphere()

    def integrand(t):
        f, df = jet(float(t))
        return f * length(float(t)) * math.hypot(df, f)

    return float(mpmath.quad(integrand, [lo, hi]))


def assert_valid_catenoid(p, delta, alpha):
    """Junction residuals at most 1e-12, neck below alpha cos(delta), offset beyond the patch."""
    r1, r2 = catenoid_residuals(p.a, p.b, delta, alpha)
    assert max(abs(r1), abs(r2)) <= 1e-12, (delta, alpha, r1, r2)
    assert p.a < alpha * math.cos(delta) and p.b >= alpha * math.sin(delta), (delta, alpha)


class TestCatenoid:
    def test_solve_small_delta(self):
        p = solve_catenoid(0.01, 0.5)
        r1, r2 = catenoid_residuals(p.a, p.b, 0.01, 0.5)
        assert max(abs(r1), abs(r2)) < 1e-12
        assert p.a == pytest.approx(0.00721, abs=5e-5)
        assert p.b > 0.0

    def test_neck_asymptote(self):
        target = 0.5 / math.log(2)  # alpha / (-ln alpha)
        for delta in (1e-2, 3e-3, 1e-3):
            p = solve_catenoid(delta, 0.5)
            assert p.a / delta == pytest.approx(target, rel=2e-3)
        assert solve_catenoid(1e-3, 0.5).a / 1e-3 == pytest.approx(target, rel=1e-2)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CatenoidParams(delta=0.01, alpha=0.5, a=0.01, b=0.01)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_catenoid(1.0, 0.5)
        with pytest.raises(ValueError):
            solve_catenoid(0.01, 1.5)

    def test_closed_form_vs_quadrature(self):
        # f(t) brackets on [0, min(2, b / sin t)], which holds for every patch
        for delta, alpha in ((0.01, 0.5), (0.01, 0.05), (0.5, 0.3)):
            p = solve_catenoid(delta, alpha)
            closed = catenoid_area_closed_form(p, L0)
            quad = surface_area(lambda t: catenoid_jet(p, t), 0.0, delta)
            assert quad == pytest.approx(closed, rel=1e-8), (delta, alpha)

    def test_degenerate_neck_limit(self):
        # as a -> 0 the closed form collapses to the annulus value
        delta, alpha = 0.05, 0.5
        areas = []
        for d_small in (1e-3, 1e-4):
            p = solve_catenoid(d_small, alpha)
            # shrink a by shrinking the junction angle; compare the formula's
            # a -> 0 limit with fixed (delta, alpha) analytically instead
            areas.append(p.a)
        limit = 0.5 * L0 * (1 - alpha**2 * math.cos(delta) ** 2)
        explicit = 0.5 * L0 * (math.sqrt(1 - 0.0)
                               - alpha**2 * math.cos(delta)
                               * math.cos(delta + math.asin(0.0)))
        assert explicit == pytest.approx(limit)

    def test_expansion_coefficient(self):
        # quadratic coefficient of the area defect in the junction angle
        alpha = 0.5
        target = alpha**2 * (1 + 1 / (-math.log(alpha)))
        coefs = {}
        for delta in (1e-2, 3e-3, 1e-3):
            p = solve_catenoid(delta, alpha)
            area = catenoid_area_closed_form(p, L0)
            coefs[delta] = (area * 2 / L0 - (1 - alpha**2)) / delta**2
        # linear-in-delta Richardson step from the two smallest angles
        d1, d2 = 3e-3, 1e-3
        extrap = (coefs[d2] * d1 - coefs[d1] * d2) / (d1 - d2)
        assert extrap == pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("delta, alpha, a, b", [
        (0.01, 0.5, 0.007212428653960509, 0.040570514964972194),
        (1e-3, 0.5, 0.0007213464737450759, 0.00571850161097276),
        (0.1, 0.3, 0.024740841767579142, 0.10866905100277312)])
    def test_pinned_neck_and_offset(self, delta, alpha, a, b):
        p = solve_catenoid(delta, alpha)
        assert type(p.a) is float and type(p.b) is float
        assert p.a == pytest.approx(a, rel=1e-14, abs=0.0)
        assert p.b == pytest.approx(b, rel=1e-14, abs=0.0)

    def test_wide_junction_solved(self):
        # a wide junction: the neck is 0.885 alpha cos(delta)
        p = solve_catenoid(0.2, 0.9)
        assert_valid_catenoid(p, 0.2, 0.9)

    def test_no_patch_near_the_corner(self):
        # psi(alpha cos(delta)) <= 0: no neck puts the offset beyond the patch
        assert solve_catenoid(0.78, 0.995) is None

    @given(st.floats(math.log(1e-300), math.log(math.pi / 4), exclude_max=True),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_solve_valid_or_none_over_the_domain(self, log_delta, alpha):
        delta = math.exp(log_delta)
        if not 0.0 < delta < math.pi / 4:
            return
        try:
            p = solve_catenoid(delta, alpha)
        except NumericError:
            return      # no normal double below alpha cos(delta) holds the neck
        if p is not None:
            assert_valid_catenoid(p, delta, alpha)

    @pytest.mark.parametrize("delta, alpha", [(1e-300, 1e-20), (0.5, 1e-310)])
    def test_underflowing_neck_raises(self, delta, alpha):
        with pytest.raises(NumericError):
            solve_catenoid(delta, alpha)


class TestDisk:
    TINY_DELTAS = (0.3, 1e-2, 1e-4, 1e-6, 1e-9)

    def test_round_sphere_closed_form(self):
        alpha = 0.5
        for delta in (0.1,) + self.TINY_DELTAS:
            profile, area = disk_profile(delta, alpha, LengthProfile.round_sphere())
            assert area == pytest.approx(0.5 * L0 * alpha**2 * math.cos(delta) ** 2,
                                         abs=1e-10)
            assert profile(HALF_PI) == pytest.approx(alpha * math.sin(delta), rel=1e-9)

    @pytest.mark.parametrize("delta, alpha, area", [
        (1e-4, 0.9, 2.5446900239608325), (0.01, 0.5, 0.7853196261990675),
        (0.1, 0.3, 0.27992531765541273), (0.3, 0.7, 1.4049429347433329)])
    def test_pinned_bench_disks(self, delta, alpha, area):
        _, got = disk_profile(delta, alpha, LengthProfile.round_sphere())
        assert got == pytest.approx(area, rel=1e-15, abs=0.0)

    def test_round_sphere_example_value(self):
        _, area = disk_profile(0.1, 0.5, LengthProfile.round_sphere())
        assert area == pytest.approx(math.pi * 0.25 * math.cos(0.1) ** 2, abs=1e-10)

    def test_quadrature_matches_closed_form(self):
        profile, area = disk_profile(0.1, 0.5, LengthProfile.round_sphere())
        quad = surface_area(profile.eval, 0.1, HALF_PI)
        assert quad == pytest.approx(area, abs=1e-10)

    def test_quadratic_defect_bound(self):
        # area <= L0/2 (alpha^2 - (L0/F)^2 alpha^2 delta^2) + o(delta^2);
        # round sphere has F = L0 so the coefficient is alpha^2
        alpha = 0.5
        for delta in (0.05, 0.01):
            _, area = disk_profile(delta, alpha, LengthProfile.round_sphere())
            bound = 0.5 * L0 * (alpha**2 - alpha**2 * delta**2) \
                + 0.5 * L0 * alpha**2 * delta**4
            assert area <= bound

    def test_inadmissible_table_rejected(self):
        # constant L violates L^2 + F^2 <= L0^2 away from 0: no such profile is built
        with pytest.raises(ValueError):
            LengthProfile(deficit=lambda t: 0.0, L0=1.0, hi=HALF_PI)

    def test_junction_outside_domain(self):
        with pytest.raises(ValueError):
            disk_profile(2.0, 0.5, LengthProfile.round_sphere())

    def test_profile_exponent_matches_closed_form(self):
        # on the round sphere g(t) = log(sin t / sin delta), f = alpha e^(-g)
        alpha = 0.5
        for delta in self.TINY_DELTAS:
            profile, _ = disk_profile(delta, alpha, LengthProfile.round_sphere())
            for t in (2 * delta, 0.5, 1.0, 1.5):
                exact = math.log(math.sin(t) / math.sin(delta))
                assert abs(-math.log(profile(t) / alpha) - exact) <= 1e-12 * exact, (delta, t)

    def test_work_grows_at_most_logarithmically(self):
        # a deterministic work guard: the integrand calls (one deficit each)
        # at delta = 1e-9 are a small multiple of those at delta = 0.3
        sphere = LengthProfile.round_sphere()
        calls = {}
        for delta in (0.3, 1e-9):
            count = [0]

            def deficit(t):
                count[0] += 1
                return sphere.deficit(t)

            disk_profile(delta, 0.5, LengthProfile(deficit=deficit, L0=sphere.L0, hi=sphere.hi))
            calls[delta] = count[0]
        assert calls[1e-9] <= 3 * calls[0.3], calls


class TestExpBound:
    def test_threshold_example_narrow_junction(self):
        bound = 0.5 - junction_margin(ConeSpace(2, 0.9), 0.001, 0.5)
        assert bound == pytest.approx(0.4999998, abs=1e-7)
        assert bound < 0.5
        assert 0.5 - bound == pytest.approx(1.8e-7, rel=0.05)

    def test_threshold_example_wide_junction(self):
        bound = 0.5 - junction_margin(ConeSpace(2, 0.9), 0.05, 0.5)
        assert bound == pytest.approx(0.50022, abs=1e-5)
        assert bound > 0.5

    def test_continuous_in_alpha(self):
        space = ConeSpace(3, 0.8)
        alphas = np.linspace(0.05, 0.95, 200)
        vals = [1.0 / 3.0 - junction_margin(space, 0.01, a) for a in alphas]
        jumps = np.abs(np.diff(vals))
        assert np.max(jumps) < 0.01

    def test_margin_agrees_with_bound(self):
        # against the direct bound ((1 - a^n) sqrt(1 + x) + a^n (1 - sin^p delta)) / n,
        # x = (lam delta / log a)^2, p = n lam / sqrt(n - 1)
        space = ConeSpace(2, 0.9)
        p = 2 * 0.9
        for delta, alpha in [(0.001, 0.5), (0.01, 0.3), (0.1, 0.7)]:
            an, x = alpha**2, (0.9 * delta / math.log(alpha)) ** 2
            bound = ((1 - an) * math.sqrt(1 + x) + an * (1 - math.sin(delta) ** p)) / 2
            assert junction_margin(space, delta, alpha) == pytest.approx(
                0.5 - bound, abs=1e-14)

    def test_log_margin_sign_matches(self):
        space = ConeSpace(2, 0.9)
        for delta, alpha in [(0.001, 0.5), (0.05, 0.5)]:
            margin, gap = _margin_and_log_gap(2, np.array([0.9]), math.log(alpha),
                                              math.log(delta), delta)
            assert (gap[0] > 0) == (margin[0] > 0) == (junction_margin(space, delta, alpha) > 0)

    @given(st.floats(0.05, 0.95), st.floats(-30.0, -1.5))
    @settings(max_examples=200)
    def test_no_false_positive_at_threshold(self, alpha, log_delta):
        # on the threshold the bound never drops below 1/n: at the double
        # nearest lambda*, and at the largest double below it with D < 0,
        # where the log gap is computed rather than set to -inf
        for n in (2, 3, 5):
            lam = 2 * math.sqrt(n - 1) / n
            below = lam
            while threshold_discriminant(n, [below])[0] >= 0.0:
                below = math.nextafter(below, 0.0)
            _, gap = _margin_and_log_gap(n, np.array([lam, below]), math.log(alpha), log_delta,
                                         math.exp(log_delta))
            assert np.all(gap < 0.0) and math.isfinite(gap[1])

    @given(st.integers(2, 50),
           st.lists(st.tuples(st.floats(0.01, 0.999), st.floats(1e-4, 0.99),
                              st.floats(-800.0, math.log(1.5))), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_row_of_many_is_one_row_call(self, n, rows):
        # row i of a many-row kernel call is the one-row call bit for bit,
        # margin and log gap, whether lambda is an np.float64 or a 1-d array
        star = 2 * math.sqrt(n - 1) / n
        lams = np.array([u * star for u, _, _ in rows])
        alphas = [a for _, a, _ in rows]
        log_deltas = np.array([ld for _, _, ld in rows])
        deltas = np.exp(log_deltas)
        log_alphas = np.array([math.log(a) for a in alphas])
        margins, gaps = _margin_and_log_gap(n, lams, log_alphas, log_deltas, deltas)
        for i, alpha in enumerate(alphas):
            margin, gap = _margin_and_log_gap(n, lams[i], math.log(alpha),
                                              float(log_deltas[i]), float(deltas[i]))
            assert margin == margins[i] and gap == gaps[i]
            _, gap = _margin_and_log_gap(n, lams[i:i + 1], math.log(alpha),
                                         float(log_deltas[i]), float(deltas[i]))
            assert gap[0] == gaps[i] and np.isfinite(gaps[i])

    def test_margin_is_the_searched_margin(self):
        # competitor_search reports the delta its margin is computed at, so
        # the kernel's np.float64 row gives the margin back bit for bit,
        # underflowed junctions (delta = 0.0, margin 0.0) included
        for n in range(2, 7):
            star = 2 * math.sqrt(n - 1) / n
            for lam in np.linspace(0.5, star - 1e-4, 2000):
                space = ConeSpace(n, float(lam))
                res = competitor_search(space)
                assert res.delta == float(np.exp(res.log_delta))
                margin, _ = _margin_and_log_gap(n, np.float64(lam), math.log(res.alpha),
                                                res.log_delta, res.delta)
                assert margin == res.margin


class TestBoundProof:
    """Each step of the chain in ``_margin_and_log_gap``'s docstring, in mpmath."""

    @pytest.mark.parametrize("n, lam, delta, alpha", [
        (2, 0.9, 0.001, 0.5), (3, 0.9, 0.01, 0.3), (5, 0.7, 0.2, 0.8), (10, 0.5, 1e-6, 0.05)])
    def test_head_below_its_bound(self, n, lam, delta, alpha):
        # the head's area is at most (1 - alpha^n) sqrt(1+x)/n, since cos <= 1
        with mpmath.workdps(30):
            lam_, delta_, alpha_ = (mpmath.mpf(v) for v in (lam, delta, alpha))
            mu = -mpmath.log(alpha_) / delta_
            head = mpmath.quad(lambda th: mpmath.sqrt(mu ** 2 + lam_ ** 2)
                               * mpmath.exp(-n * mu * th) * mpmath.cos(th) ** (n - 1),
                               [0, delta_])
            x = (lam_ * delta_ / mpmath.log(alpha_)) ** 2
            assert head <= (1 - alpha_ ** n) * mpmath.sqrt(1 + x) / n

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_g_prime_below_cot(self, n):
        # g'(t) = 1/sqrt(sec^(2n-2) t - 1) <= cot t/sqrt(n-1): Bernoulli's
        # (1+s)^(n-1) - 1 >= (n-1)s with s = tan^2 t; equal at n = 2
        with mpmath.workdps(60):   # sec^2 t - 1 cancels 12 digits at t = 1e-6
            for t in np.linspace(1e-6, HALF_PI - 1e-6, 41):
                t_ = mpmath.mpf(t)
                g_prime = 1 / mpmath.sqrt(mpmath.sec(t_) ** (2 * n - 2) - 1)
                bound = mpmath.cot(t_) / mpmath.sqrt(n - 1)
                if n == 2:
                    assert abs(g_prime - bound) <= mpmath.mpf(10) ** -40 * bound
                else:
                    assert g_prime < bound

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    @pytest.mark.parametrize("delta", [1e-12, 1e-6, 0.3, 1.5])
    def test_g_to_half_pi_below_log_sin(self, n, delta):
        # integrating g' <= cot t/sqrt(n-1): g(pi/2) <= -log sin(delta)/sqrt(n-1),
        # so f_end^n = alpha^n e^(-n lam g(pi/2)) >= alpha^n sin^p(delta)
        with mpmath.workdps(30):
            bound = -mpmath.log(mpmath.sin(mpmath.mpf(delta))) / mpmath.sqrt(n - 1)
        g = _g_to_half_pi(ConeSpace(n, 0.5), delta)
        if n == 2:
            assert g == -math.log(math.sin(delta))
            assert g == pytest.approx(float(bound), rel=1e-15)
        else:
            assert g < float(bound)


def assembled_competitor(space, delta, alpha):
    """The competitor e^(-mu theta) | alpha e^(-lam g(theta)) as one profile, breakpoint delta.

    The tail's g(theta) is G(delta) - G(theta), G = ``_g_to_half_pi``; the
    junction belongs to the tail.
    """
    n, lam, mu = space.n, space.lam, -math.log(alpha) / delta
    g_delta = _g_to_half_pi(space, delta)

    def jet(th):
        if th < delta:
            f = math.exp(-mu * th)
            return f, -mu * f
        f = alpha * math.exp(-lam * (g_delta - _g_to_half_pi(space, min(th, HALF_PI))))
        return f, -lam * f * _g_integrand(th, n)

    return RadialProfile(lo=0.0, hi=HALF_PI, eval=jet, breakpoints=(delta,))


class TestExpArea:
    @pytest.mark.parametrize("n, lam, delta, alpha, area", [
        # two search witnesses, then a junction above the 0.3 cap
        (3, 0.9, 3.9716936773381337e-13, 0.6000000000000001, 0.33333333333333337),
        (6, 0.7, 8.546258253295139e-15, 0.8, 0.16666666666666666),
        (3, 0.9, 0.5, 0.6, 0.37747012452215056)])
    def test_pinned_areas(self, n, lam, delta, alpha, area):
        space = ConeSpace(n, lam)
        if delta < _DELTA_CAP:
            res = competitor_search(space)
            assert (res.delta, res.alpha) == (delta, alpha)
        got = exp_profile_area(space, delta, alpha)
        assert got == pytest.approx(area, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("delta", [1e-3, 0.5])
    def test_unconverged_tail_raises(self, delta, monkeypatch):
        # below and above the 0.3 cap: a tolerance below rounding cannot be met
        monkeypatch.setattr(competitors, "_TAIL_TOL", 1e-30)
        competitors._tail_table.cache_clear()
        with pytest.raises(QuadratureError):
            _g_to_half_pi(ConeSpace(3, 0.9), delta)

    def test_numeric_below_bound(self):
        space = ConeSpace(2, 0.9)
        numeric = exp_profile_area(space, 0.001, 0.5)
        assert numeric <= 0.5 - junction_margin(space, 0.001, 0.5) + 1e-9
        assert numeric <= 0.4999998 + 1e-9

    def test_matches_assembled_profile(self):
        # the small junctions put the tail's mass on a log scale in theta;
        # below t ~ 3e-154, sin^2(t/2) in g' is subnormal
        below_subnormal = [(n, lam, delta, 0.5) for n, lam in ((3, 0.9), (6, 0.7))
                           for delta in (1e-160, 1e-200, 1e-300)]
        for n, lam, delta, alpha in [(2, 0.9, 0.001, 0.5), (3, 0.9, 0.01, 0.3),
                                     (2, 0.9, 1e-6, 0.5), (2, 0.9, 1e-9, 0.5),
                                     (3, 0.9, 1e-6, 0.5), (3, 0.9, 1e-9, 0.5),
                                     (6, 0.7, 1e-12, 0.5)] + below_subnormal:
            space = ConeSpace(n, lam)
            direct = exp_profile_area(space, delta, alpha)
            via_functional = s_functional(assembled_competitor(space, delta, alpha), space)
            assert direct == pytest.approx(via_functional, abs=1e-11), (n, lam, delta)

    def test_tail_at_tiny_junction(self):
        # the tail's interior values alpha e^(-lam g(theta)), g(theta) =
        # G(delta) - G(theta) with G = _g_to_half_pi, on both sides of the
        # cap, against g from delta to theta summed in 40 digits in tau = log t
        for n, lam in ((3, 0.9), (6, 0.7)):
            space = ConeSpace(n, lam)
            for delta in (1e-2, 1e-9):
                g_delta = _g_to_half_pi(space, delta)
                with mpmath.workdps(40):
                    def dg_tau(tau):
                        t = mpmath.exp(tau)
                        log_sec = -mpmath.log1p(-2 * mpmath.sin(t / 2) ** 2)
                        return t / mpmath.sqrt(mpmath.expm1((2 * n - 2) * log_sec))

                    g, lo = mpmath.mpf(0), mpmath.log(mpmath.mpf(delta))
                    for theta in (2 * delta, 0.1, 0.31, 1.5):
                        hi = mpmath.log(mpmath.mpf(theta))
                        g, lo = g + mpmath.quad(dg_tau, [lo, hi]), hi
                        exact = float(0.5 * mpmath.exp(-mpmath.mpf(lam) * g))
                        got = 0.5 * math.exp(-lam * (g_delta - _g_to_half_pi(space, theta)))
                        assert abs(got - exact) <= 1e-13 * exact, (n, delta, theta)

    def test_log_sec_matches_mpmath(self):
        # -log cos t keeps its digits where 1 - cos t is below 1e-8
        for t in (1e-9, 1.0244e-4, 3e-4, 0.5, 1.5):
            with mpmath.workdps(40):
                exact = -mpmath.log(mpmath.cos(mpmath.mpf(t)))
                assert abs(_log_sec(t) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("n", [2, 3, 6, 50])
    def test_g_prime_near_half_pi_matches_mpmath(self, n):
        # -log cos t keeps its digits as t -> pi/2, where 1 - 2 sin^2(t/2) cancels
        for k in range(2, 11):
            t = HALF_PI - 10.0 ** -k
            with mpmath.workdps(60):
                t_ = mpmath.mpf(t)
                exact = 1 / mpmath.sqrt(mpmath.sec(t_) ** (2 * n - 2) - 1)
                if exact < sys.float_info.min:
                    continue
                assert abs(_g_integrand(t, n) - exact) <= 1e-12 * exact, (n, k)

    def test_tail_integral_matches_mpmath(self):
        # both sides of the split at _DELTA_CAP, against 60 digits summed
        # from pi/2 down over the deltas, in tau = log t below t = 1; expm1
        # keeps cos^(2-2n) t - 1 from rounding to 0 at tiny t; degree 5 of
        # tanh-sinh keeps each piece's error estimate far below 1e-30.  At
        # n = 100, g from 1.0 is about 2e-29, below what a 1e-12 absolute
        # tolerance resolves, so only the deltas up to the cap are compared
        deltas = (1.0, _DELTA_CAP, _DELTA_CAP * (1 - 1e-12), 0.2, 0.05, 1e-3, 1e-6, 1e-12,
                  1e-300)
        for n in (3, 4, 6, 10, 30, 100):
            space = ConeSpace(n, 0.5)
            with mpmath.workdps(60):
                def dg(t):
                    log_sec = -mpmath.log1p(-2 * mpmath.sin(t / 2) ** 2)
                    return 1 / mpmath.sqrt(mpmath.expm1((2 * n - 2) * log_sec))

                def dg_tau(tau):
                    return mpmath.exp(tau) * dg(mpmath.exp(tau))

                exact, hi = mpmath.mpf(0), mpmath.pi / 2
                for delta in deltas:
                    lo = mpmath.mpf(delta)
                    if lo >= 1:
                        piece, err = mpmath.quad(dg, [lo, hi], error=True, maxdegree=5)
                    else:
                        piece, err = mpmath.quad(dg_tau, [mpmath.log(lo), mpmath.log(hi)],
                                                 error=True, maxdegree=5)
                    assert err < 1e-30
                    exact, hi = exact + piece, lo
                    if n < 100 or delta <= _DELTA_CAP:
                        assert abs(_g_to_half_pi(space, delta) - exact) <= 1e-14 * exact, \
                            (n, delta)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_tail_table_matches_mpmath_at_large_n(self, n):
        # the table's degree grows with n (64 at 300, 128 at 1000), and near
        # the cap g falls to 1e-21 at n = 1000, where the bound is absolute;
        # against 60 digits summed from pi/2 down in tau = log t, as above
        space = ConeSpace(n, 0.5)
        deltas = (_DELTA_CAP, _DELTA_CAP * (1 - 1e-12), 0.2, 0.05, 1e-3, 1e-6, 1e-12, 1e-300)
        with mpmath.workdps(60):
            def dg_tau(tau):
                t = mpmath.exp(tau)
                log_sec = -mpmath.log1p(-2 * mpmath.sin(t / 2) ** 2)
                return t / mpmath.sqrt(mpmath.expm1((2 * n - 2) * log_sec))

            exact, hi = mpmath.mpf(0), mpmath.pi / 2
            for delta in deltas:
                lo = mpmath.mpf(delta)
                piece, err = mpmath.quad(dg_tau, [mpmath.log(lo), mpmath.log(hi)],
                                         error=True, maxdegree=5)
                assert err < 1e-30
                exact, hi = exact + piece, lo
                diff = abs(_g_to_half_pi(space, delta) - exact)
                assert diff <= 1e-14 * exact or diff <= 1e-16, (n, delta, float(diff))

    def test_tail_table_matches_a_quad_on_search_junctions(self):
        # g(pi/2) from the table against g rebuilt with a quad of the
        # remainder taken here, on the junctions the search returns over a
        # lambda grid for n = 3..6 (a junction that underflowed has no area)
        for n in (3, 4, 5, 6):
            lead, cap = 1.0 / math.sqrt(n - 1), competitors._tail_table(n)[0]

            def remainder(v):
                t = math.sqrt(v)
                return (t * _g_integrand(t, n) - lead) / (2.0 * v)

            star = 2 * math.sqrt(n - 1) / n
            for lam in np.linspace(0.05, star, 101)[:-1]:
                space = ConeSpace(n, float(lam))
                res = competitor_search(space)
                if res.delta == 0.0:
                    continue
                v_lo, v_cap = res.delta ** 2, _DELTA_CAP ** 2
                ref = (0.5 * lead * math.log(v_cap / v_lo) + cap
                       + checked_quad(remainder, v_lo, v_cap, 1e-12, 1e-12))
                got = _g_to_half_pi(space, res.delta)
                assert abs(got - ref) <= 1e-15 * ref, (n, lam, got, ref)

    def test_tail_above_cap_integrated_once_per_n(self, monkeypatch):
        # n = 4's first area builds cap_n and the table, one quad for each
        # node below the cap; a second junction makes one quad, the head's;
        # clearing the cache builds both again, to the same area
        calls = []
        quad = competitors.checked_quad

        def counting_quad(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(competitors, "checked_quad", counting_quad)
        competitors._tail_table.cache_clear()
        space = ConeSpace(4, 0.8)
        first = exp_profile_area(space, 1e-5, 0.5)
        degree = len(competitors._tail_table(4)[1]) - 1
        assert calls.count((_DELTA_CAP, HALF_PI)) == 1 and len(calls) == 2 + degree
        calls.clear()
        exp_profile_area(space, 0.01, 0.3)
        assert calls == [(0.0, 1.0)]
        calls.clear()
        competitors._tail_table.cache_clear()
        assert exp_profile_area(space, 1e-5, 0.5) == first
        assert len(calls) == 2 + degree

    def test_tail_without_a_table_at_huge_n(self):
        # at n = 1e6 the series has not settled by _MAX_DEGREE, so g below the
        # cap is one quad per call, as before the table, and stays defined
        n = 10**6
        assert competitors._tail_table(n)[1] is None
        for delta in (_DELTA_CAP, 1e-3, 1e-300):
            g = _g_to_half_pi(ConeSpace(n, 0.5), delta)
            assert 0.0 <= g < -math.log(math.sin(delta)) / math.sqrt(n - 1), delta

    @pytest.mark.parametrize("n", [3, 6, 30, 1000])
    def test_tail_below_cap_makes_no_quad(self, n, monkeypatch):
        # once n's table exists, g below the cap is a Clenshaw sum: no
        # quadrature and no evaluation of g', whatever the junction
        space = ConeSpace(n, 0.5)
        _g_to_half_pi(space, 1e-3)     # builds n's table
        quads, nodes = [], []
        quad, integrand = competitors.checked_quad, competitors._g_integrand

        def counting_quad(*args, **kwargs):
            quads.append(args[1:3])
            return quad(*args, **kwargs)

        def counting_integrand(t, n):
            nodes.append(t)
            return integrand(t, n)

        monkeypatch.setattr(competitors, "checked_quad", counting_quad)
        monkeypatch.setattr(competitors, "_g_integrand", counting_integrand)
        for delta in (_DELTA_CAP, 0.2, 1e-3, 1e-6, 1e-12, 1e-300):
            _g_to_half_pi(space, delta)
            assert not quads and not nodes, (delta, quads, len(nodes))

    @pytest.mark.parametrize("n, lam", [(3, 0.9), (6, 0.7), (30, 0.3)])
    def test_one_panel_matches_quadpack(self, n, lam, monkeypatch):
        # the head passes on one 21-point panel, whose value and error
        # estimate are QUADPACK's qk21 on that panel; the tail makes no quad
        space = ConeSpace(n, lam)
        res = competitor_search(space)
        _g_to_half_pi(space, res.delta)     # builds n's table
        seen, quad = [], competitors.checked_quad

        def recording_quad(*args):
            seen.append(args)
            return quad(*args)

        monkeypatch.setattr(competitors, "checked_quad", recording_quad)
        exp_profile_area(space, res.delta, res.alpha)
        assert len(seen) == 1
        for fn, lo, hi, abs_tol, rel_tol in seen:
            val, err = _qk21(fn, lo, hi, ())
            ref, ref_err, info = scipy.integrate.quad(fn, lo, hi, epsabs=abs_tol,
                                                      epsrel=rel_tol, full_output=1)
            assert info["last"] == 1
            assert val == pytest.approx(ref, rel=1e-15, abs=0.0)
            assert err == pytest.approx(ref_err, rel=1e-12, abs=0.0)

    def test_subnormal_junction_area(self):
        # mu = -log(alpha)/delta overflows; the area, in u = theta/delta, is well defined
        space = ConeSpace(3, 0.9)
        assert exp_profile_area(space, 1e-310, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("delta, alpha, match", [
        (0.0, 0.5, "angle"), (HALF_PI, 0.5, "angle"), (math.nan, 0.5, "angle"),
        (0.01, 0.0, "value"), (0.01, 1.0, "value")])
    def test_junction_outside_domain_rejected(self, delta, alpha, match):
        with pytest.raises(ValueError, match=f"junction {match} must lie"):
            exp_profile_area(ConeSpace(3, 0.9), delta, alpha)

    def test_below_one_third_somewhere_under_threshold(self):
        space = ConeSpace(3, 0.9)
        vals = [exp_profile_area(space, d, a)
                for d in np.exp(np.linspace(math.log(1e-11), math.log(0.1), 10))
                for a in (0.2, 0.4, 0.6)]
        assert min(vals) < 1.0 / 3.0

    def test_large_n_witness_area(self):
        # (2n-2) log sec t passes 709 near pi/2, where expm1 of it overflows
        for n, lam in ((200, 0.1), (1000, 0.05)):
            space = ConeSpace(n, lam)
            res = competitor_search(space)
            assert res.found and res.delta > 0.0
            assert exp_profile_area(space, res.delta, res.alpha) <= res.bound + 1e-9

    def test_all_above_one_third_over_threshold(self):
        space = ConeSpace(3, 0.95)
        vals = [exp_profile_area(space, d, a)
                for d in np.exp(np.linspace(math.log(1e-4), math.log(0.5), 6))
                for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert min(vals) >= 1.0 / 3.0 - 1e-9


class TestSearch:
    def test_finds_competitor_below_threshold_n2(self):
        res = competitor_search(ConeSpace(2, 0.9))
        assert res.found and res.bound < 0.5

    def test_none_found_above_threshold_n5(self):
        res = competitor_search(ConeSpace(5, 0.81))
        assert not res.found

    def test_finds_below_threshold_n5(self):
        res = competitor_search(ConeSpace(5, 0.79))
        assert res.found and res.margin > 0.0

    def test_not_found_reports_the_junction(self):
        # alpha, delta, bound and margin all describe the one junction, here
        # at the log 0.3 cap since p > 2
        space = ConeSpace(3, 0.95)
        res = competitor_search(space)
        assert not res.found
        assert type(res.alpha) is float and type(res.log_delta) is float
        assert res.delta == float(np.exp(res.log_delta))
        assert res.margin == junction_margin(space, res.delta, res.alpha)
        assert res.bound == 1.0 / 3.0 - junction_margin(space, res.delta, res.alpha)
        assert res.bound == 1.0 / 3.0 - res.margin
        assert res.log_delta == math.log(0.3) and res.evaluations == 0
        assert res.log_margin_gap == -math.inf

    def test_log_gap_matches_mpmath(self):
        # a junction with log delta in (-14, -5), where log sin(delta)
        # differs from log delta by delta^2/6
        space = ConeSpace(5, 0.592)
        res = competitor_search(space)
        assert res.found and -14.0 < res.log_delta < -5.0
        with mpmath.workdps(50):
            lam, alpha = mpmath.mpf(space.lam), mpmath.mpf(res.alpha)
            delta = mpmath.exp(mpmath.mpf(res.log_delta))
            p = space.n * lam / mpmath.sqrt(space.n - 1)
            x = (lam * delta / mpmath.log(alpha)) ** 2
            an = alpha ** space.n
            gain = an * mpmath.sin(delta) ** p
            cost = (1 - an) * x / (mpmath.sqrt(1 + x) + 1)
            exact = float(mpmath.log(gain) - mpmath.log(cost))
        assert abs(res.log_margin_gap - exact) <= 1e-12

    def test_closed_form_witness_one_ulp_below_threshold(self):
        # log delta ~ -2e17, where p log delta and 2 log delta agree in every
        # digit: the log gap must match a 60-digit recomputation to 1e-12 of
        # its terms
        n = 1000
        lam = 2 * math.sqrt(n - 1) / n * (1 - 2.0 ** -52)
        res = competitor_search(ConeSpace(n, lam))
        assert res.found and res.delta == 0.0 and res.log_delta < -1e16
        with mpmath.workdps(60):
            lam_, alpha, log_delta = (mpmath.mpf(v) for v in (lam, res.alpha, res.log_delta))
            p = n * lam_ / mpmath.sqrt(n - 1)
            delta = mpmath.exp(log_delta)
            x = (lam_ * delta / mpmath.log(alpha)) ** 2
            log_gain = n * mpmath.log(alpha) + p * mpmath.log(mpmath.sin(delta))
            log_cost = (mpmath.log(1 - alpha ** n) + mpmath.log(x)
                        - mpmath.log(1 + mpmath.sqrt(1 + x)))
            exact = log_gain - log_cost
            terms = (abs((p - 2) * log_delta) + abs(n * mpmath.log(alpha))
                     + abs(mpmath.log(1 - alpha ** n)) + 2 * abs(mpmath.log(lam_))
                     + 2 * abs(mpmath.log(-mpmath.log(alpha))) + mpmath.log(2))
            assert exact > 0
            assert abs(res.log_margin_gap - exact) <= 1e-12 * terms

    def test_junction_found_at_every_lambda_below_threshold(self):
        # 4,016 lambdas per n, from 1e-3 up to one ulp below lambda*: the
        # one closed-form junction beats the cone at every one of them
        for n in list(range(2, 30)) + [50, 100, 200, 1000]:
            star = 2 * math.sqrt(n - 1) / n
            lams = np.concatenate([np.linspace(1e-3, star, 4001)[:-1],
                                   star * (1 - 10.0 ** -np.arange(1, 16)),
                                   [star * (1 - 2.0 ** -52)]])
            assert np.all(threshold_discriminant(n, lams) < 0.0)
            s = search_competitors(n, lams)
            assert s.found.all(), (n, lams[~s.found])
            assert np.all(np.isfinite(s.log_gap))

    def test_monotone_threshold_crossing(self):
        # found-flag flips once along a lambda sweep at fixed n
        n = 4
        lams = np.linspace(0.82, 0.91, 50)
        flags = [competitor_search(ConeSpace(n, float(l))).found for l in lams]
        switches = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert switches == 1
        assert flags[0] and not flags[-1]


def _bits(x):
    return np.float64(x).tobytes()


class TestScalarPath:
    """One ``np.float64`` runs the array kernel and gives the array's row bit for bit."""

    @staticmethod
    def check(n, lams):
        lams = np.asarray(lams, dtype=float)
        rows, discs = search_competitors(n, lams), threshold_discriminant(n, lams)
        for i, lam in enumerate(lams.tolist()):
            one = search_competitors(n, np.float64(lam))
            assert type(one.found) is np.bool_ and one.found == rows.found[i], (n, lam)
            for field in ("alpha", "log_delta", "margin", "log_gap"):
                value = getattr(one, field)
                assert type(value) is np.float64, (n, lam, field)
                assert _bits(value) == _bits(getattr(rows, field)[i]), (n, lam, field)
            assert _bits(threshold_discriminant(n, np.float64(lam))) == _bits(discs[i])
            res = competitor_search(ConeSpace(n, lam))
            assert res.found == rows.found[i] and res.evaluations == int(np.isfinite(rows.log_gap[i]))
            for got, want in [(res.alpha, rows.alpha[i]), (res.log_delta, rows.log_delta[i]),
                              (res.margin, rows.margin[i]), (res.log_margin_gap, rows.log_gap[i]),
                              (res.delta, np.exp(rows.log_delta[i])),
                              (res.bound, 1.0 / n - rows.margin[i])]:
                assert type(got) is float and _bits(got) == _bits(want), (n, lam)

    def test_discriminant_exactly_zero(self):
        # (2, 1.0): D = 0 exactly, so p = 2 and the junction is not checked
        assert threshold_discriminant(2, np.float64(1.0)) == 0.0
        self.check(2, [1.0])
        assert competitor_search(ConeSpace(2, 1.0)).log_margin_gap == -math.inf

    def test_at_and_just_below_threshold(self):
        for n in list(range(2, 31)) + [50, 100, 200, 1000]:
            star = 2 * math.sqrt(n - 1) / n
            self.check(n, [star] + [star * (1 - k * 2.0 ** -52) for k in (1, 10, 10 ** 6)])

    def test_underflowed_junction(self):
        # delta = exp(log delta) is 0.0 in both forms; the logs carry the witness
        for n, lam in [(2, 0.9999), (1000, 2 * math.sqrt(999) / 1000 * (1 - 2.0 ** -52))]:
            self.check(n, [lam, 0.5])
            res = competitor_search(ConeSpace(n, lam))
            assert res.found and res.delta == 0.0 and res.log_delta < -745.0

    def test_clamped_junction(self):
        # 1.5 l* falls below _LOG_TINY while 1.25 l* does not: delta is the smallest normal double
        for n, lam in [(2, 0.9989), (3, 0.9411), (100, 0.1968)]:
            self.check(n, [lam, 0.5])
            res = competitor_search(ConeSpace(n, lam))
            assert res.found and res.log_delta == competitors._LOG_TINY

    @given(st.integers(2, 60), st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_random_rows(self, n, lams):
        self.check(n, lams)

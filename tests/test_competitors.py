import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import competitors
from conelab.competitors import (_DELTA_CAP, CatenoidParams, ExpCompetitor, _g_to_half_pi,
                                 _log_sec,
                                 catenoid_area_closed_form, catenoid_profile,
                                 catenoid_residuals, check_length_profile,
                                 competitor_search, disk_profile, exp_profile,
                                 exp_profile_area, exp_profile_log_margin, exp_profile_margin,
                                 search_competitors, solve_catenoid)
from conelab.geometry import ConeSpace, threshold_discriminant
from conelab.profiles import LengthProfile, graph_area, s_functional

HALF_PI = math.pi / 2
L0 = 2 * math.pi


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
        p = solve_catenoid(0.01, 0.5)
        closed = catenoid_area_closed_form(p, L0)
        quad = graph_area(catenoid_profile(p), LengthProfile.round_sphere())
        assert quad == pytest.approx(closed, rel=1e-8)

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

    def test_profile_endpoints(self):
        p = solve_catenoid(0.01, 0.5)
        f = catenoid_profile(p)
        assert f(0.0) == pytest.approx(1.0, abs=1e-12)
        assert f(0.01) * math.cos(0.01) == pytest.approx(
            p.a * math.cosh((f(0.01) * math.sin(0.01) - p.b) / p.a), abs=1e-12)


class TestDisk:
    TINY_DELTAS = (0.3, 1e-2, 1e-4, 1e-6, 1e-9)

    def test_round_sphere_closed_form(self):
        alpha = 0.5
        for delta in (0.1,) + self.TINY_DELTAS:
            profile, area = disk_profile(delta, alpha, LengthProfile.round_sphere())
            assert area == pytest.approx(0.5 * L0 * alpha**2 * math.cos(delta) ** 2,
                                         abs=1e-10)
            assert profile(HALF_PI) == pytest.approx(alpha * math.sin(delta), rel=1e-9)

    def test_round_sphere_example_value(self):
        _, area = disk_profile(0.1, 0.5, LengthProfile.round_sphere())
        assert area == pytest.approx(math.pi * 0.25 * math.cos(0.1) ** 2, abs=1e-10)

    def test_quadrature_matches_closed_form(self):
        profile, area = disk_profile(0.1, 0.5, LengthProfile.round_sphere())
        quad = graph_area(profile, LengthProfile.round_sphere())
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

    def test_tabulated_length_profile(self):
        ts = np.linspace(0.0, HALF_PI, 400)
        L = LengthProfile.from_table(ts, L0 * np.cos(ts))
        _, area = disk_profile(0.1, 0.5, L)
        assert area == pytest.approx(0.5 * L0 * 0.25 * math.cos(0.1) ** 2, abs=1e-6)

    def test_inadmissible_table_rejected(self):
        # constant L violates L^2 + F^2 <= L0^2 away from 0
        ts = np.linspace(0.0, HALF_PI, 50)
        L = LengthProfile.from_table(ts, np.full_like(ts, 1.0))
        with pytest.raises(ValueError):
            check_length_profile(L)
        with pytest.raises(ValueError):
            disk_profile(0.1, 0.5, L)

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
        bound = 0.5 - exp_profile_margin(ConeSpace(2, 0.9), 0.001, 0.5)
        assert bound == pytest.approx(0.4999998, abs=1e-7)
        assert bound < 0.5
        assert 0.5 - bound == pytest.approx(1.8e-7, rel=0.05)

    def test_threshold_example_wide_junction(self):
        bound = 0.5 - exp_profile_margin(ConeSpace(2, 0.9), 0.05, 0.5)
        assert bound == pytest.approx(0.50022, abs=1e-5)
        assert bound > 0.5

    def test_continuous_in_alpha(self):
        space = ConeSpace(3, 0.8)
        alphas = np.linspace(0.05, 0.95, 200)
        vals = [1.0 / 3.0 - exp_profile_margin(space, 0.01, a) for a in alphas]
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
            assert exp_profile_margin(space, delta, alpha) == pytest.approx(
                0.5 - bound, abs=1e-14)

    def test_log_margin_sign_matches(self):
        space = ConeSpace(2, 0.9)
        for delta, alpha in [(0.001, 0.5), (0.05, 0.5)]:
            gap = exp_profile_log_margin(space, math.log(delta), alpha)
            assert (gap > 0) == (exp_profile_margin(space, delta, alpha) > 0)

    @given(st.floats(0.05, 0.95), st.floats(-30.0, -1.5))
    @settings(max_examples=200)
    def test_no_false_positive_at_threshold(self, alpha, log_delta):
        # exactly on the threshold the bound never drops below 1/n
        for n in (2, 3, 5):
            lam = 2 * math.sqrt(n - 1) / n
            space = ConeSpace(n, lam)
            assert exp_profile_log_margin(space, log_delta, alpha) < 0.0


class TestExpArea:
    def test_numeric_below_bound(self):
        space = ConeSpace(2, 0.9)
        numeric = exp_profile_area(space, 0.001, 0.5)
        assert numeric <= 0.5 - exp_profile_margin(space, 0.001, 0.5) + 1e-9
        assert numeric <= 0.4999998 + 1e-9

    def test_matches_assembled_profile(self):
        for n, lam, delta, alpha in [(2, 0.9, 0.001, 0.5), (3, 0.9, 0.01, 0.3)]:
            space = ConeSpace(n, lam)
            direct = exp_profile_area(space, delta, alpha)
            via_functional = s_functional(exp_profile(space, delta, alpha), space)
            assert direct == pytest.approx(via_functional, abs=1e-11)

    def test_tail_at_tiny_junction(self):
        # the tail integrates the expm1 form of g', which stays finite where
        # cos^(2-2n) - 1 would round to 0
        space = ConeSpace(3, 0.9)
        for delta in (1e-9, 1e-12):
            f = exp_profile(space, delta, 0.5)
            expected = 0.5 * math.exp(-space.lam * _g_to_half_pi(space, delta))
            assert f(HALF_PI) == pytest.approx(expected, rel=1e-9)
        # interior values on both sides of the cap, against g from delta to
        # theta summed in 40 digits in tau = log t
        for n, lam in ((3, 0.9), (6, 0.7)):
            space = ConeSpace(n, lam)
            for delta in (1e-2, 1e-9):
                f = exp_profile(space, delta, 0.5)
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
                        assert abs(f(theta) - exact) <= 1e-13 * exact, (n, delta, theta)

    def test_log_sec_matches_mpmath(self):
        # -log cos t keeps its digits where 1 - cos t is below 1e-8
        for t in (1e-9, 1.0244e-4, 3e-4, 0.5, 1.5):
            with mpmath.workdps(40):
                exact = -mpmath.log(mpmath.cos(mpmath.mpf(t)))
                assert abs(_log_sec(t) - exact) <= 1e-15 * exact

    def test_tail_integral_matches_mpmath(self):
        # both sides of the split at _DELTA_CAP, against 60 digits summed
        # from pi/2 down over the deltas, in tau = log t below t = 1; expm1
        # keeps cos^(2-2n) t - 1 from rounding to 0 at tiny t; degree 5 of
        # tanh-sinh keeps each piece's error estimate far below 1e-30
        deltas = (1.0, _DELTA_CAP, _DELTA_CAP * (1 - 1e-12), 1e-3, 1e-6, 1e-12, 1e-300)
        for n in (3, 4, 6, 10, 30):
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
                    assert abs(_g_to_half_pi(space, delta) - exact) <= 1e-14 * exact, (n, delta)

    def test_tail_above_cap_integrated_once_per_n(self, monkeypatch):
        # after the first area at n = 4, a second junction below the cap
        # makes two quads: the head and the tail's remainder below the cap
        calls = []
        quad = competitors.integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(competitors.integrate, "quad", counting_quad)
        competitors._g_cap_to_half_pi.cache_clear()
        space = ConeSpace(4, 0.8)
        first = exp_profile_area(space, 1e-5, 0.5)
        assert len(calls) == 3 and (_DELTA_CAP, HALF_PI) in calls
        calls.clear()
        exp_profile_area(space, 0.01, 0.3)
        assert len(calls) == 2 and (_DELTA_CAP, HALF_PI) not in calls
        calls.clear()
        competitors._g_cap_to_half_pi.cache_clear()
        assert exp_profile_area(space, 1e-5, 0.5) == first
        assert len(calls) == 3

    def test_junction_continuity(self):
        f = exp_profile(ConeSpace(3, 0.9), 0.01, 0.3)
        assert abs(f(0.01 - 1e-13) - f(0.01 + 1e-13)) < 1e-11
        assert f.breakpoints == (0.01,)

    def test_mu_continuity_exact(self):
        comp = ExpCompetitor(space=ConeSpace(3, 0.9), delta=0.02, alpha=0.4)
        assert math.exp(-comp.mu * comp.delta) == pytest.approx(0.4, abs=1e-15)

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
        assert res.delta == math.exp(res.log_delta)
        assert res.margin == pytest.approx(
            exp_profile_margin(space, res.delta, res.alpha), rel=1e-12)
        assert res.bound == pytest.approx(
            1.0 / 3.0 - exp_profile_margin(space, res.delta, res.alpha), abs=1e-15)
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
            assert np.all(s.evaluations == 1)

    def test_monotone_threshold_crossing(self):
        # found-flag flips once along a lambda sweep at fixed n
        n = 4
        lams = np.linspace(0.82, 0.91, 50)
        flags = [competitor_search(ConeSpace(n, float(l))).found for l in lams]
        switches = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert switches == 1
        assert flags[0] and not flags[-1]

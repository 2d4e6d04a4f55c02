import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.errors import AREA_TOL, NumericError, QuadratureError, checked_quad, sign_change
from conelab.geometry import ConeSpace
from conelab.profiles import LengthProfile, RadialProfile, s_functional

HALF_PI = math.pi / 2


def constant(value, hi=HALF_PI):
    return RadialProfile(lo=0.0, hi=hi, eval=lambda x: (value, 0.0))


class TestRadialProfile:
    def test_constant(self):
        f = constant(2.0)
        assert f(0.3) == 2.0
        assert f.eval(0.3)[1] == 0.0

    def test_degenerate_domain(self):
        with pytest.raises(ValueError):
            RadialProfile(lo=1.0, hi=1.0, eval=lambda x: (1.0, 0.0))


class TestSFunctional:
    def test_constant_profile_n2(self):
        f = constant(1.0)
        assert s_functional(f, ConeSpace(2, 0.5)) == pytest.approx(0.5, rel=1e-10)

    def test_constant_profile_n3(self):
        f = constant(1.0)
        assert s_functional(f, ConeSpace(3, 1.0)) == pytest.approx(math.pi / 4,
                                                                   rel=1e-10)

    def test_exponential_profile_closed_form(self):
        # n = 2, lam = 1, f = e^(-a t): the integrand is sqrt(1 + a^2) e^(-2at) cos t,
        # and int_0^(pi/2) e^(-bt) cos t dt = (b + e^(-b pi/2)) / (1 + b^2)
        a, b = 0.4, 0.8
        f = RadialProfile(lo=0.0, hi=HALF_PI,
                          eval=lambda t: (math.exp(-a * t), -a * math.exp(-a * t)))
        exact = math.sqrt(1 + a * a) * (b + math.exp(-b * HALF_PI)) / (1 + b * b)
        assert s_functional(f, ConeSpace(2, 1.0)) == pytest.approx(exact, rel=1e-8)

    def test_domain_check(self):
        f = constant(1.0, hi=1.0)
        with pytest.raises(ValueError):
            s_functional(f, ConeSpace(2, 0.5))

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_scaling_by_cn(self, c):
        space = ConeSpace(3, 0.8)
        base = RadialProfile(lo=0.0, hi=HALF_PI,
                             eval=lambda t: (math.exp(-0.3 * t), -0.3 * math.exp(-0.3 * t)))
        scaled = RadialProfile(lo=0.0, hi=HALF_PI,
                               eval=lambda t: (c * math.exp(-0.3 * t),
                                               -c * 0.3 * math.exp(-0.3 * t)))
        assert s_functional(scaled, space) == pytest.approx(
            c**space.n * s_functional(base, space), rel=1e-10)

    @given(st.floats(0.1, 1.0), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_constant_profile_analytic(self, lam, n):
        # integrand reduces to lam * cos^(n-1); compare against the closed form
        f = constant(1.0)
        k = n - 1
        val = 1.0
        m = k
        while m >= 2:  # Wallis product for the cosine-power integral
            val *= (m - 1) / m
            m -= 2
        if k % 2 == 0:
            val *= HALF_PI
        assert s_functional(f, ConeSpace(n, lam)) == pytest.approx(lam * val,
                                                                   rel=1e-9)


class TestLengthProfile:
    def test_round_sphere(self):
        L = LengthProfile.round_sphere()
        assert L(0.0) == pytest.approx(2 * math.pi)
        assert L(HALF_PI) == pytest.approx(0.0, abs=1e-12)


def test_checked_quad():
    assert checked_quad(math.exp, 0.0, 1.0, 1e-12, 1e-12) == pytest.approx(math.e - 1.0,
                                                                         rel=1e-15)
    # a tolerance below rounding cannot be met
    with pytest.raises(QuadratureError) as info:
        checked_quad(math.exp, 0.0, 1.0, 1e-30, 1e-30)
    assert info.value.residual > 100.0 * 1e-30 * (math.e - 1.0)


class TestCheckedQuad:
    def test_endpoint_singularity_converges_by_bisection(self):
        assert checked_quad(lambda x: x ** -0.5, 0.0, 1.0, AREA_TOL, AREA_TOL) == \
            pytest.approx(2.0, rel=1e-10, abs=0.0)

    def test_more_than_240_panels_raises(self):
        # about 1,600 periods of sin: 21 nodes per panel resolve a few each
        with pytest.raises(QuadratureError) as info:
            checked_quad(lambda x: math.sin(1e4 * x), 0.0, 1.0, AREA_TOL, AREA_TOL)
        assert info.value.residual > 100.0 * AREA_TOL

    @pytest.mark.parametrize("fn", [math.exp, lambda x: x ** -0.5])
    def test_reversed_limits_negate(self, fn):
        assert checked_quad(fn, 1.0, 0.0, AREA_TOL, AREA_TOL) == \
            -checked_quad(fn, 0.0, 1.0, AREA_TOL, AREA_TOL)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises(self, value):
        with pytest.raises(QuadratureError):
            checked_quad(lambda x: value, 0.0, 1.0, 1e-10, 1e-10)


def counted(fn, calls):
    """fn, appending each argument it is called at to calls."""
    def wrapped(x):
        calls.append(x)
        return fn(x)
    return wrapped


class TestSignChange:
    def test_adjacent_doubles_around_sqrt2(self):
        fn = lambda x: x * x - 2.0
        x = sign_change(fn, 1.0, 2.0)
        assert fn(x) < 0.0 <= fn(math.nextafter(x, 2.0))

    @pytest.mark.parametrize("lo", [0.0, -0.0])
    def test_root_among_subnormals(self, lo):
        # 2x is exact below 1e-307: its root 3.5 tiny lies between two subnormals
        tiny = 5e-324
        assert sign_change(lambda x: 2.0 * x - 7.0 * tiny, lo, 1.0) == 3.0 * tiny
        assert sign_change(lambda x: x - 3e-320, lo, 1.0) == 3e-320

    def test_exact_zero_joins_the_low_side(self):
        # the last double before fn crosses: an x where fn is 0 counts as fn(lo)'s side
        assert sign_change(lambda x: x - 1.5, 1.0, 2.0) == 1.5
        assert sign_change(lambda x: 1.5 - x, 1.0, 2.0) == 1.5

    @pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.0, 1.0)])
    def test_zero_end_is_returned(self, lo, hi):
        calls = []
        assert sign_change(counted(lambda x: x - 1.0, calls), lo, hi) == 1.0
        assert len(calls) == 2

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (-1.0, 1.0)])
    def test_no_bracket_raises(self, lo, hi):
        with pytest.raises(ValueError):
            sign_change(lambda x: x + 1.0, lo, hi)

    def test_nan_inside_raises(self):
        with pytest.raises(NumericError, match="NaN"):
            sign_change(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan, 0.0, 1.0)

    @pytest.mark.parametrize("root", [1e-300, 1.0, math.pi, 1e300])
    def test_calls_over_all_doubles(self, root):
        # the two ends, then one call per halving of the 9.2e18 < 2^63 doubles between
        calls = []
        assert sign_change(counted(lambda x: x - root, calls), 0.0, 1.7e308) == root
        assert len(calls) <= 2 + 63

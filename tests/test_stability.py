import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.stability import (InstabilityCertificate, TestFunctionEta,
                               critical_log_ratio, instability_certificate,
                               stability_gap)


class TestEta:
    def test_profile_shape(self):
        eta = TestFunctionEta(epsilon=1.0, R=10.0)
        assert eta(0.0) == 0.0
        assert eta(0.5) == 0.5
        assert eta(1.0) == 1.0
        assert eta(5.0) == 1.0
        assert eta(15.0) == pytest.approx(0.5)
        assert eta(25.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TestFunctionEta(epsilon=2.0, R=1.0)
        with pytest.raises(ValueError):
            TestFunctionEta(epsilon=0.0, R=1.0)


class TestGap:
    def test_euclidean_constant(self):
        assert stability_gap(1.0, TestFunctionEta(1.0, 100.0)) == -2.0
        assert stability_gap(1.0, TestFunctionEta(0.01, 7.0)) == -2.0

    def test_half_sqrt2_e_cubed(self):
        eta = TestFunctionEta(1.0, math.exp(3.0))
        assert stability_gap(1 / math.sqrt(2), eta) == pytest.approx(1.0, abs=1e-12)

    def test_point_nine_value(self):
        eta = TestFunctionEta(1.0, 1e4)
        assert stability_gap(0.9, eta) == pytest.approx(0.16045, abs=1e-5)

    @given(st.floats(0.05, 0.999), st.floats(1e-6, 1.0), st.floats(1.5, 1e6))
    @settings(max_examples=200)
    def test_depends_only_on_ratio(self, lam, eps, ratio):
        a = stability_gap(lam, TestFunctionEta(eps, eps * ratio))
        b = stability_gap(lam, TestFunctionEta(5 * eps, 5 * eps * ratio))
        assert a == pytest.approx(b, abs=1e-11)

    @given(st.floats(0.05, 0.999))
    @settings(max_examples=100)
    def test_strictly_increasing_in_ratio(self, lam):
        gaps = [stability_gap(lam, TestFunctionEta(1.0, r))
                for r in (2.0, 10.0, 100.0)]
        assert gaps[0] < gaps[1] < gaps[2]

    @given(st.floats(0.05, 0.999))
    @settings(max_examples=100)
    def test_critical_ratio_is_exact_zero(self, lam):
        log_ratio = critical_log_ratio(lam)
        eta = TestFunctionEta(1.0, math.exp(min(log_ratio, 700.0)))
        if log_ratio < 700.0:
            assert abs(stability_gap(lam, eta)) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            stability_gap(0.0, TestFunctionEta(1.0, 10.0))
        with pytest.raises(ValueError):
            stability_gap(1.2, TestFunctionEta(1.0, 10.0))


class TestCertificate:
    @pytest.mark.parametrize("lam", [0.5, 0.7, 0.9])
    def test_positive_gap(self, lam):
        cert = instability_certificate(lam)
        assert cert.gap > 0.0
        assert stability_gap(lam, cert.eta()) == pytest.approx(cert.gap, rel=1e-9)

    def test_flat_case_has_none(self):
        assert instability_certificate(1.0) is None

    def test_half_example(self):
        cert = instability_certificate(0.5)
        assert critical_log_ratio(0.5) == pytest.approx(2.0 / 3.0)
        assert cert.log_ratio > critical_log_ratio(0.5)

    @pytest.mark.parametrize("lam", [1e-200, 5e-324, 1.4e-162])
    def test_underflowing_lambda_squared(self, lam):
        # lam^2 rounds to 0: the result is the one lam = 1e-160 gives, where
        # lam^2 is subnormal and (1 - lam^2)/lam^2 overflows to +inf
        assert lam * lam == 0.0 and (1e-160 * 1e-160) > 0.0
        cert, at_subnormal = instability_certificate(lam), instability_certificate(1e-160)
        assert (cert.log_ratio, cert.gap) == (at_subnormal.log_ratio, at_subnormal.gap)
        assert (cert.log_ratio, cert.gap) == (1.0, math.inf)
        eta = TestFunctionEta(1.0, 10.0)
        assert stability_gap(lam, eta) == stability_gap(1e-160, eta) == math.inf

    def test_near_one_reports_exponent(self):
        cert = instability_certificate(0.99)
        assert cert.log_ratio == pytest.approx(99.5, abs=0.1)
        assert cert.R is not None  # e^99.5 still fits a double
        very_close = instability_certificate(1.0 - 1e-7)
        assert very_close.R is None
        assert very_close.gap > 0.0
        with pytest.raises(OverflowError):
            very_close.eta()

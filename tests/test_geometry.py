import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.geometry import (ConeSpace, RevolutionSurface,
                              cone_ricci, cone_sectional, density_ratio,
                              equator_cone, hyperplane, sphere_area,
                              threshold_discriminant, unit_ball_volume)


class TestConeSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConeSpace(1, 0.5)
        with pytest.raises(ValueError):
            ConeSpace(3, 0.0)
        with pytest.raises(ValueError):
            ConeSpace(3, 1.5)

    @pytest.mark.parametrize("n", [2.5, 3.000001, math.nan, math.inf, np.float64(4.5)])
    def test_non_integral_dimension_rejected(self, n):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {n}")):
            ConeSpace(n, 0.9)

    def test_numpy_integer_dimension(self):
        assert ConeSpace(np.int64(3), 0.9).n == 3


class TestThresholdDiscriminant:
    def test_exact_next_to_threshold(self):
        # the float (n lam)^2 - 4(n-1) rounds to 0 or below at some of these
        for n in (4, 7, 10, 13, 17, 1000):
            star = 2 * math.sqrt(n - 1) / n
            lams = [star * (1 + k * 2.0 ** -52) for k in (-10, -1, 0, 1, 10)]
            for lam, disc in zip(lams, threshold_discriminant(n, lams)):
                exact = (n * Fraction(lam)) ** 2 - 4 * (n - 1)
                assert disc == float(exact), (n, lam)
                # one np.float64 gives one, with the same exact value
                one = threshold_discriminant(n, np.float64(lam))
                assert type(one) is np.float64 and one == float(exact), (n, lam)

    def test_float_value_away_from_threshold(self):
        lams = np.linspace(0.1, 1.0, 19)
        assert np.array_equal(threshold_discriminant(3, lams), (3 * lams) ** 2 - 8.0)


class TestConeCurvature:
    def test_euclidean_flat(self):
        assert cone_sectional(ConeSpace(2, 1.0), 2.0, "tangential") == 0.0
        assert cone_ricci(ConeSpace(2, 1.0), 1.0, "tangential") == 0.0

    def test_tangential_values(self):
        assert cone_sectional(ConeSpace(2, 0.5), 2.0, "tangential") == pytest.approx(0.75)
        assert cone_ricci(ConeSpace(2, 0.5), 1.0, "tangential") == pytest.approx(3.0)

    def test_radial_directions_flat(self):
        assert cone_sectional(ConeSpace(3, 0.5), 1.0, "radial") == 0.0
        assert cone_ricci(ConeSpace(4, 0.9), 2.0, "radial") == 0.0

    def test_vertex_excluded(self):
        with pytest.raises(ValueError):
            cone_sectional(ConeSpace(3, 0.5), 0.0, "tangential")
        with pytest.raises(ValueError):
            cone_ricci(ConeSpace(3, 0.5), -1.0, "radial")

    def test_bad_plane(self):
        with pytest.raises(ValueError):
            cone_sectional(ConeSpace(3, 0.5), 1.0, "diagonal")

    @given(st.integers(2, 8), st.floats(0.05, 1.0), st.floats(0.01, 100.0))
    @settings(max_examples=200)
    def test_inverse_square_scaling(self, n, lam, t):
        space = ConeSpace(n, lam)
        base_sec = cone_sectional(space, 1.0, "tangential")
        base_ric = cone_ricci(space, 1.0, "tangential")
        assert cone_sectional(space, t, "tangential") * t * t == pytest.approx(
            base_sec, rel=1e-12, abs=1e-300)
        assert cone_ricci(space, t, "tangential") * t * t == pytest.approx(
            base_ric, rel=1e-12, abs=1e-300)

    @given(st.integers(2, 8), st.floats(0.05, 1.0), st.floats(0.01, 100.0))
    @settings(max_examples=100)
    def test_ricci_nonnegative(self, n, lam, t):
        assert cone_ricci(ConeSpace(n, lam), t, "tangential") >= 0.0


class TestDensityRatio:
    def test_hyperplane_constant(self):
        plane = hyperplane(2)
        assert density_ratio(plane, 1.0) == pytest.approx(unit_ball_volume(2))
        assert density_ratio(plane, 7.3) == pytest.approx(unit_ball_volume(2))

    def test_pinned_catenoid(self):
        # 2 pi (z + sinh(2z)/2)/25 at cosh(z)^2 + z^2 = 25, by mpmath at 40 digits
        got = density_ratio(RevolutionSurface.catenoid(), 5.0)
        assert got == pytest.approx(5.505925298664188214, rel=1e-15, abs=0.0)

    def test_equator_cone_scale_invariant(self):
        cone = equator_cone(ConeSpace(3, 0.9))
        vals = [density_ratio(cone, r) for r in (0.1, 1.0, 2.0, 10.0)]
        assert max(vals) - min(vals) <= 1e-10 * vals[0]

    def test_equator_cone_value(self):
        # link is S^{n-1}(lam); constant ratio is its volume over n
        space = ConeSpace(3, 0.9)
        cone = equator_cone(space)
        expected = sphere_area(2, 0.9) / 3
        assert density_ratio(cone, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_area_in_ball_scaling(self):
        cone = equator_cone(ConeSpace(4, 0.7))
        assert cone.area_in_ball(2.0) == pytest.approx(
            cone.area_in_ball(1.0) * 2.0**4, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            equator_cone(ConeSpace(3, 0.9)).density_ratio(0.0)
        with pytest.raises(ValueError):
            hyperplane(3).area_in_ball(-2.0)

    def test_catenoid_monotone(self):
        cat = RevolutionSurface.catenoid()
        radii = np.linspace(1.2, 25.0, 20)
        vals = [density_ratio(cat, float(r)) for r in radii]
        assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))
        # catenoid density approaches that of two planes from below
        assert vals[-1] < 2.0 * math.pi

    def test_catenoid_radius_out_of_patch(self):
        cat = RevolutionSurface.catenoid(z_max=2.0)
        with pytest.raises(ValueError):
            density_ratio(cat, 100.0)


def test_sphere_area_values():
    assert sphere_area(1, 1.0) == pytest.approx(2 * math.pi)
    assert sphere_area(2, 1.0) == pytest.approx(4 * math.pi)
    assert sphere_area(2, 0.5) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conelab import shooting
from conelab.errors import NumericError
from conelab.geometry import ConeSpace, threshold_discriminant
from conelab.phase import decide, threshold
from conelab.profiles import s_functional
from conelab.shooting import (OutcomeKind, ShootConfig, ShootingOutcome,
                              barrier_certificate, barrier_margins, barrier_roots,
                              barrier_slope, boundary_flux,
                              find_extending_shots, flux_consistency, h_rhs,
                              initial_slope, reconstruct_f, shoot,
                              write_trajectory)

HALF_PI = math.pi / 2


class TestRhs:
    def test_at_origin(self):
        assert h_rhs(0.0, HALF_PI, ConeSpace(2, 0.5)) == pytest.approx(1.0)

    def test_interior_value(self):
        assert h_rhs(math.pi / 4, math.pi / 4, ConeSpace(3, 1.0)) == pytest.approx(1.0)

    def test_ceiling_gives_n_lam(self):
        assert h_rhs(math.pi / 3, HALF_PI, ConeSpace(4, 0.8)) == pytest.approx(
            3.2, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            h_rhs(0.0, 0.0, ConeSpace(2, 0.5))
        with pytest.raises(ValueError):
            h_rhs(HALF_PI, 1.0, ConeSpace(2, 0.5))

    def test_exact_at_ceiling_start(self):
        space = ConeSpace(5, 0.83)
        assert h_rhs(0.0, HALF_PI, space) == space.n * space.lam


class TestBarrier:
    def test_slope_values(self):
        assert barrier_slope(ConeSpace(3, 0.95)) == pytest.approx(1.6)
        assert barrier_slope(ConeSpace(2, 1.0)) == pytest.approx(1.0)
        assert barrier_slope(ConeSpace(3, 0.9)) is None

    def test_roots_product(self):
        roots = barrier_roots(ConeSpace(4, 0.9))
        assert roots[0] * roots[1] == pytest.approx(3.0, rel=1e-12)
        assert roots[0] <= roots[1]

    def test_certificate_positive(self):
        cert = barrier_certificate(ConeSpace(3, 0.95), samples=1000)
        assert cert.margin > 0.0
        assert len(cert.thetas) == 1000
        assert np.all(cert.rhs_values - cert.c >= cert.margin)

    def test_certificate_n4(self):
        assert barrier_certificate(ConeSpace(4, 0.87)).margin > 0.0

    def test_degenerate_double_root(self):
        cert = barrier_certificate(ConeSpace(2, 1.0))
        assert cert.margin >= -1e-12

    def test_no_slope_raises(self):
        with pytest.raises(ValueError):
            barrier_certificate(ConeSpace(3, 0.9))

    def test_normalized_margin_bounds_the_line(self):
        # m(theta) = (n-1)(1/c - tan(theta)/tan(c theta)) >= M theta^2 in 50
        # digits, M the normalized margin, from 1e-4 theta_max to theta_max
        # on lines from the double root (c = 1) and lambda* (1 + 1e-6) up to
        # lambda = 1 (c = n-1); the sampled certificate agrees in sign
        lines = [(2, 1.0)]
        for n in (3, 6, 100, 1000):
            star = threshold(n)
            lines += [(n, min(1.0, star * (1 + e))) for e in (1e-6, 1e-3, 0.05, 1.0)]
        for n, lam in lines:
            space = ConeSpace(n, lam)
            c = barrier_slope(space)
            M = float(barrier_margins(n, [lam])[0])
            assert M >= 0.0
            assert barrier_certificate(space, 1000).margin >= 0.0
            theta_max = HALF_PI * min(1.0, 1.0 / c)
            fractions = np.concatenate([np.geomspace(1e-4, 0.01, 100),
                                        np.linspace(0.01, 1.0, 101)[1:-1], [1.0 - 1e-9]])
            with mpmath.workdps(50):
                c_ = mpmath.mpf(c)
                for t in fractions * theta_max:
                    t = mpmath.mpf(float(t))
                    m = (n - 1) * (1 / c_ - mpmath.tan(t) / mpmath.tan(c_ * t))
                    assert m >= M * t * t, (n, lam, float(t))

    def test_scan_uses_the_normalized_margin(self):
        for n, lam in ((2, 1.0), (3, 0.95), (6, 0.8)):
            c = barrier_slope(ConeSpace(n, lam))
            assert decide(ConeSpace(n, lam)).margin == pytest.approx(
                (n - 1) * (c * c - 1) / (3 * c), rel=1e-14, abs=1e-300)

    @given(st.integers(3, 8), st.floats(0.01, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_margin_positive_above_threshold(self, n, excess):
        lam = (2 * math.sqrt(n - 1) + excess) / n
        if lam > 1.0:
            lam = 1.0
        if n * lam - 2 * math.sqrt(n - 1) < 0.01:
            return
        assert barrier_certificate(ConeSpace(n, lam), samples=300).margin > 0.0


class TestBoundaryFlux:
    def test_zero_slope(self):
        assert boundary_flux(0.0, ConeSpace(3, 0.9)) == 0.0

    def test_unit_slope(self):
        assert boundary_flux(-1.0, ConeSpace(3, 1.0)) == pytest.approx(
            1.0 / (3 * math.sqrt(2)))

    def test_infinite_limit(self):
        assert boundary_flux(-math.inf, ConeSpace(4, 0.5)) == 0.25

    def test_positive_slope_rejected(self):
        with pytest.raises(ValueError):
            boundary_flux(0.5, ConeSpace(3, 0.9))

    @given(st.floats(-1e6, 0.0), st.integers(2, 6), st.floats(0.1, 1.0))
    @settings(max_examples=200)
    def test_strictly_below_1_over_n(self, A, n, lam):
        assert boundary_flux(A, ConeSpace(n, lam)) < 1.0 / n


class TestShoot:
    def test_tiny_h0_exits_at_floor_near_origin(self):
        out = shoot(ConeSpace(2, 0.5), 1e-6)
        assert out.kind is OutcomeKind.EXITS_AT_FLOOR
        assert out.theta_exit < 0.01

    def test_ceiling_start_exits_immediately(self):
        out = shoot(ConeSpace(3, 0.95), HALF_PI)
        assert out.kind is OutcomeKind.EXITS_AT_CEILING

    def test_no_extension_above_threshold(self):
        space = ConeSpace(3, 0.95)
        for k in range(1, 21):
            out = shoot(space, k * math.pi / 40)
            assert out.kind is not OutcomeKind.EXTENDS_TO_HALF_PI

    def test_extension_below_threshold(self):
        hits = find_extending_shots(ConeSpace(3, 0.9), count=1)
        assert len(hits) == 1
        H0, out = hits[0]
        assert out.kind is OutcomeKind.EXTENDS_TO_HALF_PI
        assert 0.0 < H0 < HALF_PI
        assert out.f_end > 0.0

    def test_deterministic(self):
        a = shoot(ConeSpace(3, 0.9), 0.7)
        b = shoot(ConeSpace(3, 0.9), 0.7)
        assert a.kind is b.kind
        assert np.array_equal(a.thetas, b.thetas)

    def test_exit_stable_under_tighter_tolerance(self):
        space = ConeSpace(2, 0.5)
        loose = shoot(space, 0.01, ShootConfig(rtol=1e-8, atol=1e-10))
        tight = shoot(space, 0.01, ShootConfig(rtol=1e-11, atol=1e-13))
        assert loose.kind is tight.kind is OutcomeKind.EXITS_AT_FLOOR
        assert abs(loose.theta_exit - tight.theta_exit) < 1e-6

    def test_h0_out_of_range(self):
        with pytest.raises(ValueError):
            shoot(ConeSpace(2, 0.5), 0.0)
        with pytest.raises(ValueError):
            shoot(ConeSpace(2, 0.5), 2.0)


# Shots recorded with the former shooter (scipy solve_ivp RK45 at the
# default ShootConfig): (n, lam, H0, kind, theta_exit, f_end), kind F = floor,
# C = ceiling, E = extends.  n = 2..5 with lam below and at or above lam*; the
# grid H0 stay >= 1e-3 from the floor/ceiling separatrix of their (n, lam).
# The last four rows are the first extending shot find_extending_shots
# returned on four separatrices.
SHOT_TABLE = (
    (2, 0.6, 0.002, 'F', 0.010526126233496979, None),
    (2, 0.6, 0.005, 'F', 0.026313950955038592, None),
    (2, 0.6, 0.01, 'F', 0.05261815731895058, None),
    (2, 0.6, 0.02, 'F', 0.10515844360569568, None),
    (2, 0.6, 0.05, 'F', 0.2615428850148421, None),
    (2, 0.6, 0.1, 'F', 0.5136833229407348, None),
    (2, 0.6, 0.256, 'F', 1.1638447671580925, None),
    (2, 0.6, 0.411, 'F', 1.5480400416047577, None),
    (2, 0.6, 0.567, 'C', 1.0226857220319758, None),
    (2, 0.6, 0.722, 'C', 0.7942549463133671, None),
    (2, 0.6, 0.878, 'C', 0.6177897339105193, None),
    (2, 0.6, 1.033, 'C', 0.4652580634474837, None),
    (2, 0.6, 1.189, 'C', 0.3238793385399282, None),
    (2, 0.6, 1.344, 'C', 0.19014658908909565, None),
    (2, 0.6, 1.5, 'C', 0.059031233570138765, None),
    (2, 1.0, 0.002, 'C', 1.1463340228548826, None),
    (2, 1.0, 0.005, 'C', 1.1104997137135215, None),
    (2, 1.0, 0.01, 'C', 1.077028112397659, None),
    (2, 1.0, 0.02, 'C', 1.0358787079415286, None),
    (2, 1.0, 0.05, 'C', 0.9640956359981274, None),
    (2, 1.0, 0.1, 'C', 0.8894321374608813, None),
    (2, 1.0, 0.256, 'C', 0.7390351037859573, None),
    (2, 1.0, 0.411, 'C', 0.6271947802177016, None),
    (2, 1.0, 0.567, 'C', 0.5291787523620369, None),
    (2, 1.0, 0.722, 'C', 0.43955464497270824, None),
    (2, 1.0, 0.878, 'C', 0.35413521484550375, None),
    (2, 1.0, 1.033, 'C', 0.2723542437532931, None),
    (2, 1.0, 1.189, 'C', 0.19209495956966569, None),
    (2, 1.0, 1.344, 'C', 0.11364388936125894, None),
    (2, 1.0, 1.5, 'C', 0.0354055633131175, None),
    (3, 0.6, 0.002, 'F', 0.009130743437884933, None),
    (3, 0.6, 0.005, 'F', 0.02282718213197256, None),
    (3, 0.6, 0.01, 'F', 0.045656676918854194, None),
    (3, 0.6, 0.02, 'F', 0.09133190716812548, None),
    (3, 0.6, 0.05, 'F', 0.22866040160433793, None),
    (3, 0.6, 0.1, 'F', 0.4598672430660602, None),
    (3, 0.6, 0.256, 'F', 1.282189307132016, None),
    (3, 0.6, 0.411, 'C', 0.8421559652230024, None),
    (3, 0.6, 0.567, 'C', 0.6517906646141866, None),
    (3, 0.6, 0.722, 'C', 0.519169182735435, None),
    (3, 0.6, 0.878, 'C', 0.4078663990977381, None),
    (3, 0.6, 1.033, 'C', 0.3086815011321676, None),
    (3, 0.6, 1.189, 'C', 0.21546130643635814, None),
    (3, 0.6, 1.344, 'C', 0.12667687636103148, None),
    (3, 0.6, 1.5, 'C', 0.03935160865635735, None),
    (3, 0.98, 0.002, 'C', 0.7084718450505236, None),
    (3, 0.98, 0.005, 'C', 0.6968182560825034, None),
    (3, 0.98, 0.01, 'C', 0.6839873099913761, None),
    (3, 0.98, 0.02, 'C', 0.666009621061192, None),
    (3, 0.98, 0.05, 'C', 0.6300555770323787, None),
    (3, 0.98, 0.1, 'C', 0.5881974834812581, None),
    (3, 0.98, 0.256, 'C', 0.49574440753395305, None),
    (3, 0.98, 0.411, 'C', 0.4231616018293757, None),
    (3, 0.98, 0.567, 'C', 0.3581730161864124, None),
    (3, 0.98, 0.722, 'C', 0.29809009146224547, None),
    (3, 0.98, 0.878, 'C', 0.24046520024122134, None),
    (3, 0.98, 1.033, 'C', 0.18508668210813983, None),
    (3, 0.98, 1.189, 'C', 0.13061397205649922, None),
    (3, 0.98, 1.344, 'C', 0.0772961613420105, None),
    (3, 0.98, 1.5, 'C', 0.02408504185831932, None),
    (4, 0.7, 0.002, 'F', 0.03632915788627056, None),
    (4, 0.7, 0.005, 'F', 0.09092824799692083, None),
    (4, 0.7, 0.01, 'F', 0.1826220322822762, None),
    (4, 0.7, 0.02, 'F', 0.3718161207365708, None),
    (4, 0.7, 0.05, 'F', 1.2047902478356476, None),
    (4, 0.7, 0.1, 'C', 0.7791360846324715, None),
    (4, 0.7, 0.256, 'C', 0.5739682276181687, None),
    (4, 0.7, 0.411, 'C', 0.4706615367429083, None),
    (4, 0.7, 0.567, 'C', 0.3899549200985899, None),
    (4, 0.7, 0.722, 'C', 0.32026593202552417, None),
    (4, 0.7, 0.878, 'C', 0.25605433166649344, None),
    (4, 0.7, 1.033, 'C', 0.1958903799705848, None),
    (4, 0.7, 1.189, 'C', 0.13767116642985994, None),
    (4, 0.7, 1.344, 'C', 0.08126782052527745, None),
    (4, 0.7, 1.5, 'C', 0.02529249423176364, None),
    (4, 0.95, 0.002, 'C', 0.5171006032494597, None),
    (4, 0.95, 0.005, 'C', 0.5115811581935363, None),
    (4, 0.95, 0.01, 'C', 0.5048660680139144, None),
    (4, 0.95, 0.02, 'C', 0.4946537400209051, None),
    (4, 0.95, 0.05, 'C', 0.47234349931114544, None),
    (4, 0.95, 0.1, 'C', 0.4443653865200176, None),
    (4, 0.95, 0.256, 'C', 0.37847547494561146, None),
    (4, 0.95, 0.411, 'C', 0.3246423356502102, None),
    (4, 0.95, 0.567, 'C', 0.2755989541226664, None),
    (4, 0.95, 0.722, 'C', 0.2298153902294031, None),
    (4, 0.95, 0.878, 'C', 0.18564040031131884, None),
    (4, 0.95, 1.033, 'C', 0.1430218272507974, None),
    (4, 0.95, 1.189, 'C', 0.10099360068190896, None),
    (4, 0.95, 1.344, 'C', 0.0597905365698654, None),
    (4, 0.95, 1.5, 'C', 0.018633848266246734, None),
    (5, 0.65, 0.002, 'F', 0.033500312610150594, None),
    (5, 0.65, 0.005, 'F', 0.08392571563511876, None),
    (5, 0.65, 0.01, 'F', 0.16913225875729218, None),
    (5, 0.65, 0.02, 'F', 0.34963577519413325, None),
    (5, 0.65, 0.05, 'C', 0.9126602166428267, None),
    (5, 0.65, 0.1, 'C', 0.6579372623554489, None),
    (5, 0.65, 0.256, 'C', 0.49197571039228893, None),
    (5, 0.65, 0.411, 'C', 0.4044917529333798, None),
    (5, 0.65, 0.567, 'C', 0.3355058787261808, None),
    (5, 0.65, 0.722, 'C', 0.2757080961688055, None),
    (5, 0.65, 0.878, 'C', 0.22050499681868788, None),
    (5, 0.65, 1.033, 'C', 0.16872832926879924, None),
    (5, 0.65, 1.189, 'C', 0.11859650012927034, None),
    (5, 0.65, 1.344, 'C', 0.07001290077866845, None),
    (5, 0.65, 1.5, 'C', 0.021790384313517083, None),
    (5, 0.9, 0.002, 'C', 0.4279296490491313, None),
    (5, 0.9, 0.005, 'C', 0.4240098453647765, None),
    (5, 0.9, 0.01, 'C', 0.41908308871720124, None),
    (5, 0.9, 0.02, 'C', 0.41138207294038415, None),
    (5, 0.9, 0.05, 'C', 0.3940379079439813, None),
    (5, 0.9, 0.1, 'C', 0.3717074816716925, None),
    (5, 0.9, 0.256, 'C', 0.31785298360033, None),
    (5, 0.9, 0.411, 'C', 0.27317459606835914, None),
    (5, 0.9, 0.567, 'C', 0.2321885311961476, None),
    (5, 0.9, 0.722, 'C', 0.19377435850573685, None),
    (5, 0.9, 0.878, 'C', 0.15661697094355928, None),
    (5, 0.9, 1.033, 'C', 0.12070975111953032, None),
    (5, 0.9, 1.189, 'C', 0.08526148781157167, None),
    (5, 0.9, 1.344, 'C', 0.05048530223278943, None),
    (5, 0.9, 1.5, 'C', 0.01573511508308922, None),
    (2, 0.75, 0.19267942285300385, 'E', 1.5707953267948966, 0.3016491195934535),
    (2, 0.9, 0.028971338815532537, 'E', 1.5707953267948966, 0.06868823416379825),
    (3, 0.55, 0.3662138657955538, 'E', 1.5707953267948966, 0.5643180808040662),
    (3, 0.9, 0.0002913244446230061, 'E', 1.5707953267948966, 0.006710208549785568),
)
KINDS = {"F": OutcomeKind.EXITS_AT_FLOOR, "C": OutcomeKind.EXITS_AT_CEILING,
         "E": OutcomeKind.EXTENDS_TO_HALF_PI}


def test_shots_match_recorded_table():
    bad = []
    for n, lam, H0, kind, theta_exit, f_end in SHOT_TABLE:
        out = shoot(ConeSpace(n, lam), H0)
        if (out.kind is not KINDS[kind]
                or abs(out.theta_exit - theta_exit) > 1e-6
                or (f_end is None) != (out.f_end is None)
                or (f_end is not None and abs(out.f_end - f_end) > 1e-8 * f_end)):
            bad.append((n, lam, H0, out.kind, out.theta_exit, out.f_end))
    assert len(SHOT_TABLE) >= 100
    assert not bad


def test_dense_output_reproduces_nodes():
    for space, H0 in ((ConeSpace(3, 0.9), 0.0002913244446230061),
                      (ConeSpace(3, 0.95), 0.5), (ConeSpace(2, 0.6), 0.9)):
        out = shoot(space, H0)
        assert out.kind is not OutcomeKind.EXITS_AT_FLOOR
        assert out.dense.t_max == out.thetas[-1]
        for theta, H, logf in zip(out.thetas, out.Hs, out.log_fs):
            dH, dlogf = out.dense(theta)
            assert abs(dH - H) <= 1e-12 and abs(dlogf - logf) <= 1e-12


def test_work_counters():
    ceiling = shoot(ConeSpace(3, 0.95), 0.5)
    assert ceiling.steps == len(ceiling.thetas) - 1 > 0
    floor = shoot(ConeSpace(2, 0.5), 1e-6)
    assert floor.kind is OutcomeKind.EXITS_AT_FLOOR
    # the H-phase tail starts again from the theta-phase's last node
    assert floor.steps == len(floor.thetas) - 2
    assert floor.rejected > 0
    start = shoot(ConeSpace(3, 0.95), HALF_PI)
    assert start.steps == start.rejected == 0


def test_extending_shot_at_n4():
    space = ConeSpace(4, 0.8)
    hits = find_extending_shots(space, count=1)
    assert hits
    H0, out = hits[0]
    area, flux = flux_consistency(space, H0, out)
    assert abs(area - flux) <= 1e-6 * flux


class TestBackwardShots:
    def test_outcome_runs_from_zero_to_the_top(self):
        space = ConeSpace(3, 0.55)
        for u0, (H0, out) in zip((1e-6, 1e-7, 1e-8), find_extending_shots(space)):
            assert out.kind is OutcomeKind.EXTENDS_TO_HALF_PI
            assert out.thetas[0] == 0.0 and out.Hs[0] == H0
            assert out.thetas[-1] == out.theta_exit == HALF_PI - u0
            assert np.all(np.diff(out.thetas) > 0.0)
            assert out.log_fs[0] == 0.0
            assert out.f_end == math.exp(out.log_fs[-1]) < 1.0
            assert out.dense.t_max == out.thetas[-1]
            # the corner's own solution w = lam*u at the start
            assert out.Hs[-1] == HALF_PI - space.lam * u0

    def test_dense_output_reproduces_nodes(self):
        _, out = find_extending_shots(ConeSpace(4, 0.8), count=1)[0]
        for theta, H, logf in zip(out.thetas, out.Hs, out.log_fs):
            dH, dlogf = out.dense(theta)
            assert abs(dH - H) <= 1e-12 and abs(dlogf - logf) <= 1e-12
        mid = 0.5 * (out.thetas[1] + out.thetas[2])
        assert out.thetas[1] < mid < out.thetas[2]
        assert out.Hs[1] < out.dense(mid)[0] < out.Hs[2]

    def test_h0_matches_scipy_dop853(self):
        # an independent backward shot: scipy's 8th-order integrator at rtol 1e-12
        for n, lam in ((2, 0.75), (3, 0.9), (4, 0.8)):
            u0 = 1e-7
            ref = solve_ivp(
                lambda t, y: [n * lam - (n - 1) * math.tan(t) / math.tan(y[0])],
                (HALF_PI - u0, 0.0), [HALF_PI - lam * u0], method="DOP853",
                rtol=1e-12, atol=1e-14).y[0, -1]
            H0, _ = find_extending_shots(ConeSpace(n, lam), count=1)[0]
            assert H0 == pytest.approx(ref, rel=5e-9)

    @pytest.mark.parametrize("n, lam", [(2, 1.0), (3, 0.95), (4, 0.9), (5, 0.9),
                                        (10, 0.61), (10, 1.0)])
    def test_empty_at_or_above_threshold(self, n, lam):
        assert lam >= threshold(n)
        assert find_extending_shots(ConeSpace(n, lam)) == []

    def test_threshold_ulps_give_empty_or_raise(self):
        for n in (2, 3, 4, 10):
            lam = threshold(n)
            while threshold_discriminant(n, [lam])[0] < 0.0:
                lam = math.nextafter(lam, 2.0)
            assert find_extending_shots(ConeSpace(n, lam)) == []
            with pytest.raises(NumericError):
                find_extending_shots(ConeSpace(n, math.nextafter(lam, 0.0)))

    @pytest.mark.parametrize("n, lam", [(2, 0.995), (2, 0.999), (3, 0.93), (3, 0.942),
                                        (4, 0.85), (4, 0.86), (10, 0.59)])
    def test_near_threshold_raises_or_passes_flux(self, n, lam):
        # H0 collapses toward 0 near lambda*, where f has a boundary layer
        # that the area quadrature does not resolve: no wrong area may come out
        space = ConeSpace(n, lam)
        try:
            hits = find_extending_shots(space)
        except NumericError:
            return
        assert len(hits) == 3
        for H0, out in hits:
            area, flux = flux_consistency(space, H0, out)
            assert abs(area - flux) <= 1e-6 * flux

    def test_low_h0_guard(self):
        # H0 ~ 2.6e-8 at (2, 0.995): below h_switch, so no hit is returned
        with pytest.raises(NumericError, match="h_switch"):
            find_extending_shots(ConeSpace(2, 0.995))

    def test_never_shoots_forward(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("find_extending_shots called shoot")

        monkeypatch.setattr(shooting, "shoot", refuse)
        hits = find_extending_shots(ConeSpace(4, 0.8))
        assert len(hits) == 3
        # a deterministic work bound; the three shots take 552 accepted steps
        assert sum(out.steps for _, out in hits) <= 1000

    def test_count_validated(self):
        with pytest.raises(ValueError):
            find_extending_shots(ConeSpace(3, 0.9), count=0)


class TestReconstruct:
    @staticmethod
    def _ceiling_outcome(dense):
        # H = pi/2 all along: cot H = 0, so f stays 1
        thetas = np.linspace(0.0, HALF_PI - 1e-6, 50)
        return ShootingOutcome(kind=OutcomeKind.EXTENDS_TO_HALF_PI, thetas=thetas,
                               Hs=np.full_like(thetas, HALF_PI),
                               log_fs=np.zeros_like(thetas),
                               theta_exit=float(thetas[-1]), f_end=1.0, dense=dense)

    def test_synthetic_ceiling_trajectory_gives_constant(self):
        class Ceiling:
            t_max = HALF_PI - 1e-6

            def __call__(self, theta):
                return HALF_PI, 0.0

        f = reconstruct_f(self._ceiling_outcome(Ceiling()), ConeSpace(3, 0.9))
        assert f(0.7) == pytest.approx(1.0, abs=1e-9)
        assert f.deriv(0.7) == pytest.approx(0.0, abs=1e-15)

    def test_outcome_without_dense_rejected(self):
        with pytest.raises(ValueError, match="dense"):
            reconstruct_f(self._ceiling_outcome(None), ConeSpace(3, 0.9))

    def test_profile_nonincreasing(self):
        hits = find_extending_shots(ConeSpace(3, 0.9), count=1)
        f = reconstruct_f(hits[0][1], ConeSpace(3, 0.9))
        vals = [f(t) for t in np.linspace(0.0, HALF_PI, 50)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert f(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_floor_exit_rejected(self):
        out = shoot(ConeSpace(2, 0.5), 0.01)
        assert out.kind is OutcomeKind.EXITS_AT_FLOOR
        with pytest.raises(ValueError):
            reconstruct_f(out, ConeSpace(2, 0.5))


class TestFluxConsistency:
    def test_extending_shot_matches_closed_form(self):
        space = ConeSpace(3, 0.9)
        hits = find_extending_shots(space, count=1)
        H0, out = hits[0]
        area, flux = flux_consistency(space, H0, out)
        assert area == pytest.approx(flux, rel=1e-6)
        assert flux < 1.0 / 3.0

    def test_initial_slope(self):
        space = ConeSpace(3, 0.9)
        assert initial_slope(HALF_PI, space) == pytest.approx(0.0, abs=1e-12)
        assert initial_slope(math.pi / 4, space) == pytest.approx(-0.9)


def test_write_trajectory(tmp_path):
    out = shoot(ConeSpace(3, 0.95), 0.5)
    path = tmp_path / "traj.txt"
    write_trajectory(path, out)
    data = np.loadtxt(path)
    assert data.shape[1] == 3
    assert data[0, 1] == pytest.approx(0.5)
    assert data[0, 2] == pytest.approx(1.0)


def test_shoot_config_validation():
    with pytest.raises(ValueError):
        ShootConfig(h_floor=1e-3, h_switch=1e-4)
    with pytest.raises(ValueError):
        ShootConfig(theta_pad=0.5)

"""Tests for the imaginary-axis ODE: blow-up detection, crossings, and the
closed-form comparison bound."""

import math
import struct

import mpmath
import numpy as np
import pytest

from stripwave.blowup import (MIN_STEP, THRESHOLD, OdeTrajectory,
                              axis_decoupling_check,
                              blowup_report, comparison_blowup_time,
                              comparison_solution, energy_drift_check,
                              integrate_comparison, integrate_psi,
                              locate_crossings, resolvable_threshold,
                              trajectory_samples, verify_lower_bound)
from stripwave.cubic import branch_point_height, solve_gp
from stripwave.errors import (InvalidParameterError, NoCrossingError,
                              PreconditionError)

EPS, MU, ETA = 0.1, 0.5, 0.5


def trajectory_from_callable(value, slope, y_grid, blowup_time=None) -> OdeTrajectory:
    """Closed-form value/slope callables as a trajectory, for planted
    comparisons."""
    y_grid = np.asarray(y_grid, dtype=float)

    def interp(y):
        y = np.asarray(y, dtype=float)
        return np.stack([np.asarray(value(y), dtype=float),
                         np.asarray(slope(y), dtype=float)])

    return OdeTrajectory(nodes=y_grid, blowup_time=blowup_time, interpolant=interp)


@pytest.fixture(scope="module")
def gp_slope():
    return solve_gp(EPS, MU, 64).u_prime_at_zero


@pytest.fixture(scope="module")
def trajectory(gp_slope):
    return integrate_psi(EPS, MU, gp_slope, y_max=10.0, rtol=1e-11)


class TestIntegratePsi:
    def test_zero_data_stays_zero(self):
        traj = integrate_psi(0.1, 0.0, 0.0, y_max=2.0)
        assert traj.blowup_time is None
        psi, psi_prime = traj.interpolant(traj.nodes)
        assert np.max(np.abs(psi)) == 0.0
        assert np.max(np.abs(psi_prime)) == 0.0
        assert traj.y_end == pytest.approx(2.0)

    def test_blowup_detected(self, trajectory):
        assert trajectory.blowup_time is not None
        assert 0.0 < trajectory.blowup_time < 10.0
        # |psi| reaches the threshold just before the bracketed time
        val = abs(float(trajectory.value(trajectory.blowup_time - 1e-7)))
        assert val > 0.01 * THRESHOLD

    def test_initial_conditions(self, trajectory, gp_slope):
        value, slope = trajectory.interpolant(trajectory.nodes[0])
        assert value == 0.0
        assert slope == gp_slope

    def test_ode_residual_of_dense_output(self):
        # First-order system residual of the interpolant by central finite
        # differences.  The dense output is each step's own Taylor
        # polynomial; the step rule keeps its truncation error, and so the
        # jump between neighbouring step polynomials that a difference may
        # straddle, near the default rtol 1e-11.  The differences' own
        # error, of order h^2, sets the residual: about 3e-8 over the
        # three steps this takes, far below the bounds.
        traj = integrate_psi(EPS, MU, 0.43, y_max=1.2)
        h = 1e-4
        ys = np.linspace(0.1, 1.0, 37)
        for y in ys:
            psi_m, dpsi_m = traj.interpolant(y - h)
            psi_p, dpsi_p = traj.interpolant(y + h)
            psi_0, dpsi_0 = traj.interpolant(y)
            assert (psi_p - psi_m) / (2 * h) == pytest.approx(dpsi_0, abs=1e-5)
            second = (dpsi_p - dpsi_m) / (2 * h)
            rhs = (MU * math.sinh(y) - psi_0 + psi_0**3) / EPS
            assert second == pytest.approx(rhs, abs=1e-5 * max(1.0, abs(rhs)))

    def test_self_refinement_of_blowup_time(self, gp_slope):
        t1 = integrate_psi(EPS, MU, gp_slope, y_max=10.0, rtol=1e-10)
        t2 = integrate_psi(EPS, MU, gp_slope, y_max=10.0, rtol=5e-11)
        assert abs(t1.blowup_time - t2.blowup_time) < 1e-6

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            integrate_psi(-1.0, 0.5, 0.4, y_max=1.0)
        with pytest.raises(InvalidParameterError):
            integrate_psi(0.1, 0.5, 0.4, y_max=1.0, rtol=1e-14)

    @pytest.mark.parametrize("y_max", [10.0, 100.0])
    def test_largest_resolvable_threshold(self, gp_slope, y_max):
        # the bound is met without step underflow, and its crossing lies
        # four of the smallest steps before the pole; above it, the
        # parameter is refused before any step
        limit = resolvable_threshold(EPS, y_max)
        assert limit == math.sqrt(2 * EPS) / (4 * max(MIN_STEP, math.ulp(y_max)))
        traj = integrate_psi(EPS, MU, gp_slope, y_max=y_max, threshold=limit)
        assert traj.pole_estimate - traj.blowup_time == pytest.approx(
            4 * max(MIN_STEP, math.ulp(y_max)), rel=0.05)
        with pytest.raises(InvalidParameterError, match="resolvable"):
            integrate_psi(EPS, MU, gp_slope, y_max=y_max,
                          threshold=math.nextafter(limit, math.inf))


Y_SWITCH = 1.3  # psi ~ 1.2 there; the pole of psi is near 1.75


def mpmath_reference(slope, ys_psi, ys_w, threshold):
    """psi and psi' from mpmath.odefun (20 digits) at ys_psi and ys_w, and
    the threshold crossing of |psi|.

    odefun integrates psi itself up to Y_SWITCH, then w = 1/psi, which
    solves eps*w'' = (2*eps*w'^2 - 1)/w + w - mu*sinh(y)*w^2 and is
    regular at the pole of psi; the crossing is psi = threshold, i.e.
    w = 1/threshold, solved by Newton on w.
    """
    with mpmath.workdps(20):
        eps, mu = mpmath.mpf(EPS), mpmath.mpf(MU)
        psi = mpmath.odefun(
            lambda y, s: [s[1], (mu * mpmath.sinh(y) - s[0] + s[0] ** 3) / eps],
            0, [mpmath.mpf(0), mpmath.mpf(slope)])
        below = [tuple(float(v) for v in psi(y)) for y in ys_psi]
        p, dp = psi(Y_SWITCH)
        w = mpmath.odefun(
            lambda y, s: [s[1], ((2 * eps * s[1] ** 2 - 1) / s[0] + s[0]
                                 - mu * mpmath.sinh(y) * s[0] ** 2) / eps],
            Y_SWITCH, [1 / p, -dp / p ** 2])
        above = []
        for y in ys_w:
            v, dv = w(y)
            above.append((float(1 / v), float(-dv / v ** 2)))
        y = mpmath.mpf(ys_w[-1])
        for _ in range(30):
            v, dv = w(y)
            step = (v - 1 / mpmath.mpf(threshold)) / dv
            y -= step
            if abs(step) < mpmath.mpf(10) ** -18:
                break
        return below, above, float(y)


class TestMpmathReference:
    """The Taylor integrator against an independent arbitrary-precision one
    at eps = 0.1, mu = 0.5 and the solve_gp slope at N = 128."""

    @pytest.fixture(scope="class")
    def case(self):
        slope = solve_gp(EPS, MU, 128).u_prime_at_zero
        traj = integrate_psi(EPS, MU, slope, y_max=10.0)
        b0 = branch_point_height(MU)
        _, y_eta = locate_crossings(traj, b0, ETA)
        gap = traj.blowup_time - y_eta
        ys_psi = [0.2, 0.45, b0]
        ys_w = [y_eta, y_eta + gap / 3.0, y_eta + gap / 2.0]
        below, above, crossing = mpmath_reference(slope, ys_psi, ys_w, THRESHOLD)
        return traj, list(zip(ys_psi + ys_w, below + above)), crossing

    def test_values_and_slopes(self, case):
        traj, points, _ = case
        for y, (value, slope) in points:
            got_value, got_slope = traj.interpolant(y)
            assert got_value == pytest.approx(value, rel=1e-10), y
            assert got_slope == pytest.approx(slope, rel=1e-10), y

    def test_blowup_time(self, case):
        traj, _, crossing = case
        assert traj.blowup_time == pytest.approx(crossing, rel=1e-10)

    def test_pole_from_coefficient_ratio(self, case):
        # psi ~ sqrt(2*eps)/(Y_pole - y) near the simple pole, so it reaches
        # the threshold sqrt(2*eps)/threshold before the pole
        traj, _, _ = case
        offset = math.sqrt(2.0 * EPS) / THRESHOLD
        assert traj.pole_estimate == pytest.approx(traj.blowup_time + offset,
                                                   abs=1e-10)

    def test_few_steps(self, case):
        traj, _, _ = case
        assert len(traj.nodes) <= 100


class TestLocateCrossings:
    def test_planted_sinh(self):
        grid = np.linspace(0.0, 2.0, 200)
        traj = trajectory_from_callable(np.sinh, np.cosh, grid)
        y1, y15 = locate_crossings(traj, 0.0, 0.5)
        assert y1 == pytest.approx(math.asinh(1.0), abs=1e-8)
        assert y15 == pytest.approx(math.asinh(1.5), abs=1e-8)

    def test_zero_eta_collapses_levels(self):
        grid = np.linspace(0.0, 2.0, 200)
        traj = trajectory_from_callable(np.sinh, np.cosh, grid)
        y1, y1b = locate_crossings(traj, 0.0, 0.0)
        assert y1 == y1b

    def test_ordering(self, trajectory):
        b0 = branch_point_height(MU)
        y1, y15 = locate_crossings(trajectory, b0, ETA)
        assert b0 < y1 <= y15

    def test_no_crossing(self):
        grid = np.linspace(0.0, 1.0, 50)
        traj = trajectory_from_callable(
            lambda y: 0.1 * np.asarray(y), lambda y: 0.1 * np.ones_like(y), grid)
        with pytest.raises(NoCrossingError):
            locate_crossings(traj, 0.0, 0.5)


class TestComparisonSolution:
    def test_initial_value(self):
        assert comparison_solution(EPS, ETA, 1.2, 1.2) == pytest.approx(1.0 + ETA)

    def test_blowup_offset_value(self):
        # sqrt(eps/2) * log(1 + 2/eta) for eps = 0.1, eta = 0.5
        offset = comparison_blowup_time(EPS, ETA, 0.0)
        assert offset == pytest.approx(math.sqrt(0.05) * math.log(5.0), rel=1e-14)

    def test_satisfies_riccati_equation(self):
        y0 = 0.7
        ys = np.linspace(y0, comparison_blowup_time(EPS, ETA, y0) - 0.05, 50)
        h = 1e-6
        xi = comparison_solution(EPS, ETA, y0, ys)
        dxi = (comparison_solution(EPS, ETA, y0, ys + h)
               - comparison_solution(EPS, ETA, y0, ys - h)) / (2 * h)
        np.testing.assert_allclose(dxi, (xi**2 - 1.0) / math.sqrt(2 * EPS),
                                   rtol=1e-6)

    def test_domain_error_beyond_blowup(self):
        y_max = comparison_blowup_time(EPS, ETA, 0.0)
        with pytest.raises(InvalidParameterError):
            comparison_solution(EPS, ETA, 0.0, y_max + 0.01)


class TestVerifyLowerBound:
    def test_real_configuration(self, trajectory):
        b0 = branch_point_height(MU)
        _, y_eta = locate_crossings(trajectory, b0, ETA)
        check = verify_lower_bound(trajectory, EPS, ETA, y_eta)
        assert check.verified
        assert check.ordering_ok
        assert check.min_margin > -1e-8

    def test_planted_equality(self):
        y0 = 0.3
        y_max = comparison_blowup_time(EPS, ETA, y0)
        grid = np.linspace(y0, y_max - 1e-5, 100)
        traj = trajectory_from_callable(
            lambda y: comparison_solution(EPS, ETA, y0, y),
            lambda y: (comparison_solution(EPS, ETA, y0, y) ** 2 - 1)
            / math.sqrt(2 * EPS),
            grid, blowup_time=y_max - 1e-6)
        check = verify_lower_bound(traj, EPS, ETA, y0)
        assert check.verified
        assert abs(check.min_margin) < 1e-8

    def test_planted_violation(self):
        y0 = 0.3
        y_max = comparison_blowup_time(EPS, ETA, y0)
        grid = np.linspace(y0, y_max - 1e-5, 100)
        traj = trajectory_from_callable(
            lambda y: comparison_solution(EPS, ETA, y0, y) - 0.1,
            lambda y: (comparison_solution(EPS, ETA, y0, y) ** 2 - 1)
            / math.sqrt(2 * EPS),
            grid, blowup_time=y_max - 1e-6)
        check = verify_lower_bound(traj, EPS, ETA, y0)
        assert not check.verified

    def test_requires_blowup(self):
        traj = integrate_psi(0.1, 0.0, 0.0, y_max=1.0)
        with pytest.raises(PreconditionError):
            verify_lower_bound(traj, EPS, ETA, 0.5)


class TestEnergyDrift:
    def test_zero_equilibrium(self):
        traj = integrate_comparison(EPS, 0.0, 0.0, 0.0, y_max=2.0)
        rep = energy_drift_check(EPS, traj)
        assert rep.initial_energy == 0.0
        assert rep.max_drift == 0.0

    def test_unit_equilibrium(self):
        traj = integrate_comparison(EPS, 0.0, 1.0, 0.0, y_max=2.0)
        rep = energy_drift_check(EPS, traj)
        assert rep.initial_energy == pytest.approx(0.25, rel=1e-15)
        assert rep.max_drift < 1e-14

    def test_generic_data_conserved(self, trajectory):
        b0 = branch_point_height(MU)
        _, y_eta = locate_crossings(trajectory, b0, ETA)
        slope = float(trajectory.slope(y_eta))
        # moderate window: stop well before blow-up so the energy evaluation
        # is not dominated by cancellation between quartic terms
        traj = integrate_comparison(EPS, y_eta, 1.0 + ETA, slope, y_max=5.0,
                                    threshold=10.0, rtol=1e-12)
        rep = energy_drift_check(EPS, traj)
        assert rep.relative_drift <= 1e-7


class TestAxisDecoupling:
    def test_zero_data(self):
        rep = axis_decoupling_check(EPS, 0.0, 0.0, y_max=1.0)
        assert rep.max_real_ratio == 0.0

    def test_forced_solution_stays_imaginary(self, gp_slope):
        # exactly: no step of the complex integration makes a zero
        # imaginary part nonzero
        rep = axis_decoupling_check(EPS, MU, gp_slope, y_max=10.0)
        assert rep.max_real_ratio == 0.0

    def test_negative_control(self, gp_slope):
        rep = axis_decoupling_check(EPS, MU, gp_slope, y_max=10.0,
                                    initial_real=0.01)
        assert rep.max_real_ratio > 1e-9


class TestBlowupReport:
    def test_chain_and_observations(self, gp_slope):
        rep = blowup_report(EPS, MU, ETA, gp_slope)
        b0 = branch_point_height(MU)
        assert rep.branch_height == pytest.approx(b0, rel=1e-14)
        # ordering B0 < y0 < y_eta < Y <= Y_bound
        assert b0 < rep.first_unit_crossing < rep.level_crossing
        assert rep.level_crossing < rep.blowup_time <= rep.comparison_blowup
        # observed behaviour at the branch height
        assert 0.0 < rep.psi_at_branch < 1.0 / math.sqrt(3.0)
        assert rep.psi_prime_at_branch > 0.0
        assert rep.energy_constant_ok
        assert rep.convex_after_branch
        assert rep.lower_bound_verified
        # the closed-form offset of the comparison blow-up
        assert rep.comparison_blowup - rep.level_crossing == pytest.approx(
            math.sqrt(EPS / 2.0) * math.log(1.0 + 2.0 / ETA), rel=1e-12)

    def test_carries_the_integrated_trajectory(self, gp_slope, trajectory):
        rep = blowup_report(EPS, MU, ETA, gp_slope)
        assert rep.trajectory.blowup_time == rep.blowup_time
        # the same integration the standalone call performs
        assert rep.trajectory.nodes.tobytes() == trajectory.nodes.tobytes()
        assert rep.trajectory.interpolant.coeffs.tobytes() \
            == trajectory.interpolant.coeffs.tobytes()


def test_trajectory_samples(trajectory):
    b0 = branch_point_height(MU)
    _, y_eta = locate_crossings(trajectory, b0, ETA)
    ys, psi, psi_prime, xi = trajectory_samples(trajectory, EPS, ETA, y_eta)
    assert len(ys) == len(psi) == len(psi_prime) == len(xi) == 512
    assert ys[-1] < trajectory.blowup_time
    assert psi.tobytes() == np.asarray(trajectory.value(ys)).tobytes()
    assert psi_prime.tobytes() == np.asarray(trajectory.slope(ys)).tobytes()
    # xi is None before the level crossing, and after it the scalar
    # comparison solution of each row, bit for bit
    before = [x for y, x in zip(ys, xi) if y < y_eta]
    after = [(y, x) for y, x in zip(ys, xi) if y >= y_eta]
    assert before and all(x is None for x in before)
    assert after and all(
        x is not None and struct.pack("d", x)
        == struct.pack("d", comparison_solution(EPS, ETA, y_eta, y))
        for y, x in after)

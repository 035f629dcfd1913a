"""Coefficient-space descent, the convexity guard, and mode gradients."""

import numpy as np
import pytest

from conftest import legendre_mode, random_time_profile
import quasilocal.optimize as optimize_module
from quasilocal.geometry import (
    FieldShapeError,
    hat_gauss_curvature,
    integrate_surface,
    make_grid,
    round_sphere,
)
from quasilocal.physdata import minkowski_surface_data, schwarzschild_sphere
from quasilocal.energy import qle, residual
from quasilocal.optimize import (
    DEFAULT_MODE_COUNT,
    GuardViolationError,
    TauCoefficients,
    convexity_guard,
    energy_gradient,
    minimize_energy,
    tau_from_coefficients,
)

MODE_WEIGHTS_8 = np.array([float(l * l) for l in range(1, 9)])


def weighted_coefficients(rng, scale=0.3):
    return TauCoefficients(tuple(scale * rng.uniform(-1.0, 1.0, 8) / MODE_WEIGHTS_8))


class TestTauCoefficients:
    def test_zeros_default_length(self):
        assert TauCoefficients.zeros().coeffs == (0.0,) * DEFAULT_MODE_COUNT

    def test_field_synthesis(self):
        grid = make_grid(24)
        tc = TauCoefficients((0.2, 0.05))
        expected = 0.2 * legendre_mode(grid, 1) + 0.05 * legendre_mode(grid, 2)
        assert np.max(np.abs(tau_from_coefficients(grid, tc) - expected)) <= 1e-15

    def test_coefficients_are_floats(self):
        tc = TauCoefficients((1, 2))
        assert tc.coeffs == (1.0, 2.0)
        assert all(isinstance(c, float) for c in tc.coeffs)


class TestConvexityGuard:
    def test_unit_sphere_at_rest(self):
        grid = make_grid(32)
        m = round_sphere(grid)
        assert abs(convexity_guard(m, np.zeros(32)) - 1.0) <= 5e-12

    def test_boosted_profile_stays_positive(self):
        grid = make_grid(32)
        m = round_sphere(grid)
        tau = 0.3 * grid.x
        margin = convexity_guard(m, tau)
        assert margin > 0.0
        assert margin <= np.min(hat_gauss_curvature(m, tau)) + 1e-15

    def test_steep_third_mode_trips(self):
        grid = make_grid(32)
        m = round_sphere(grid)
        assert convexity_guard(m, 0.3 * legendre_mode(grid, 3)) > 0.0
        assert convexity_guard(m, 0.7 * legendre_mode(grid, 3)) < 0.0

    def test_second_mode_never_trips_on_round_metrics(self):
        # for tau = c P2 on the radius-r sphere the margin numerator is
        # (1 + 9 c^2 x^4)/r^2-like and stays positive for every c; the
        # cross term that goes negative needs an odd steep mode
        grid = make_grid(32)
        m = round_sphere(grid)
        for c in (0.5, 2.0, 5.0):
            assert convexity_guard(m, c * legendre_mode(grid, 2)) > 0.0


class TestEnergyGradient:
    def test_critical_point_gives_zero_vector(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        g = energy_gradient(d, TauCoefficients.zeros())
        assert np.max(np.abs(g)) <= 1e-12

    def test_matches_finite_differences(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        step = 1e-5
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            tc = weighted_coefficients(rng)
            grad = energy_gradient(d, tc)
            fd = np.empty(8)
            for l in range(8):
                bump = np.zeros(8)
                bump[l] = step
                plus = TauCoefficients(tuple(np.array(tc.coeffs) + bump))
                minus = TauCoefficients(tuple(np.array(tc.coeffs) - bump))
                fd[l] = (
                    qle(d, tau_from_coefficients(grid, plus)).total
                    - qle(d, tau_from_coefficients(grid, minus)).total
                ) / (2.0 * step)
            assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(fd)

    def test_more_modes_than_the_grid_resolves_rejected(self):
        grid = make_grid(8)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        with pytest.raises(FieldShapeError, match="8 modes"):
            energy_gradient(d, TauCoefficients.zeros(8))

    def test_constant_mode_pairing_vanishes(self):
        # the excluded l = 0 direction is flat: the residual integrates
        # to zero whatever the (resolved) evaluation point
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        rng = np.random.default_rng(77)
        field = random_time_profile(grid, rng)
        assert abs(integrate_surface(d.metric, residual(d, field))) <= 1e-9


class TestMinimizeEnergy:
    def test_round_data_descends_to_rest(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        rng = np.random.default_rng(5)
        init = TauCoefficients(tuple(0.05 * rng.uniform(-1.0, 1.0, 8)))
        report = minimize_energy(d, init)
        rest_energy = qle(d, np.zeros(32)).total
        assert max(abs(c) for c in report.tau_star.coeffs) < 1e-6
        assert abs(report.energy_star - rest_energy) <= 1e-7
        assert report.residual_norm <= 1e-6
        assert 0 < report.iterations <= 200
        trace = report.energy_trace
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))

    def test_minkowski_data_recovers_critical_point(self):
        grid = make_grid(32)
        m = round_sphere(grid)
        tau0 = TauCoefficients((0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        d = minkowski_surface_data(m, tau_from_coefficients(grid, tau0))
        rng = np.random.default_rng(9)
        init = TauCoefficients(tuple(np.array(tau0.coeffs) + 3e-6 * rng.uniform(-1.0, 1.0, 8)))
        report = minimize_energy(d, init)
        assert abs(report.energy_star) <= 1e-6
        gap = np.array(report.tau_star.coeffs) - np.array(tau0.coeffs)
        assert np.max(np.abs(gap)) <= 1e-5

    def test_critical_init_takes_zero_iterations(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = minimize_energy(d, TauCoefficients.zeros())
        assert report.iterations == 0
        assert report.guard_active is False
        assert len(report.energy_trace) == 1
        assert report.energy_star == qle(d, np.zeros(32)).total

    def test_shape_error_in_a_trial_step_propagates(self, monkeypatch):
        # a FieldShapeError is a bug, not a rejected step: the line search
        # must not swallow it
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        init = TauCoefficients((0.05, 0.02))
        setup_calls = 1 + 2 * len(init.coeffs)  # start energy and calibration
        calls = []

        def qle_failing_in_trials(data, tau):
            calls.append(None)
            if len(calls) > setup_calls:
                raise FieldShapeError("trial field")
            return qle(data, tau)

        monkeypatch.setattr(optimize_module, "qle", qle_failing_in_trials)
        with pytest.raises(FieldShapeError, match="trial field"):
            minimize_energy(d, init)
        assert len(calls) == setup_calls + 1

    def test_guard_violation_at_init_raises(self):
        grid = make_grid(32)
        m = round_sphere(grid)
        d = minkowski_surface_data(m, np.zeros(32))
        bad = TauCoefficients((0.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(GuardViolationError) as info:
            minimize_energy(d, bad)
        assert info.value.margin < 0.0

"""Coefficient-space descent, the convexity guard, and mode gradients."""

import re

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from conftest import (
    NORMAL_BUNDLE,
    count_formed,
    legendre_mode,
    random_time_profile,
    regular_metric,
    regular_random_metric,
)
from reference import height
import quasilocal.optimize as optimize_module
from quasilocal.geometry import (
    FieldShapeError,
    InvalidParameterError,
    hat_gauss_curvature,
    integrate_surface,
    make_grid,
    round_sphere,
)
import quasilocal.embedding as embedding_module
from quasilocal.embedding import Evaluation, NonEmbeddableError, NonSpacelikeMeanCurvatureError
from quasilocal.physdata import minkowski_surface_data, schwarzschild_sphere
from quasilocal.energy import _first_variation, _stationarity_terms, evaluate, qle, residual
from quasilocal.optimize import (
    FD_STEP,
    GuardViolationError,
    LineSearchError,
    TauCoefficients,
    convexity_guard,
    energy_gradient,
    minimize_energy,
    tau_from_coefficients,
)


def count_guards(monkeypatch) -> list:
    """Record each Evaluation whose guard is formed, the formula itself unchanged."""
    return count_formed(monkeypatch, Evaluation, ("guard",))["guard"]


MODE_WEIGHTS_8 = np.array([float(l * l) for l in range(1, 9)])
ZERO_8 = TauCoefficients((0.0,) * 8)


def lift_data(bq, rho, c0):
    """Lift data on n = 32 of the pole-regular metric by the time function with modes c0."""
    grid = make_grid(32)
    tau0 = npleg.legval(grid.x, np.concatenate([[0.0], c0]))
    return minkowski_surface_data(regular_metric(grid, bq, rho), tau0)


def schwarzschild_energy(mass, radius):
    return 8.0 * np.pi * radius * (1.0 - np.sqrt(1.0 - 2.0 * mass / radius))


# Runs that reach the energy's rounding floor, from the benchmark's
# minimize-sweep: (data, start, exact energy, stop).  Under the former
# quasi-Newton minimizer the line search of "lift" and "schwarzschild"
# (seed 1, jobs 15 and 33) ran out of steps at the floor, and that of
# "tied-*" (seed 2 job 136, seed 4 job 404) accepted steps whose energy
# only tied the current one.  Newton steps reach the floor in one or two
# iterations, where the decrement or the gradient ends the run.
AT_THE_FLOOR = {
    "lift": (
        lambda: lift_data(
            [0.04808491155428866, 0.008683129801754766, 0.0005076954064338712],
            [0.011005369576599833, -0.0007348156945324286, -0.0013372973067937981],
            [0.25445770160399883, -0.029451177202536004, 0.00843093118774935],
        ),
        (0.29179702229725774, -0.02182573896835864, 0.007830560675762193,
         -0.0016556778955486061, -0.0017819350142744372, 0.0003705367695101368,
         -0.0006821246142955596, 0.0007030567345851202),
        0.0,
        "decrement",
    ),
    "schwarzschild": (
        lambda: schwarzschild_sphere(make_grid(32), 0.20802094929705459, 8.502917619919913),
        (0.0036149545527398687, -0.007967223094813406, 0.0031354412739398874,
         0.0025631446990345276, -0.0010457665975091737, -0.0010845484065304973,
         -0.000751743967812032, 0.0007353881751504866),
        schwarzschild_energy(0.20802094929705459, 8.502917619919913),
        "decrement",
    ),
    "tied-then-line-search-error": (
        lambda: schwarzschild_sphere(make_grid(32), 0.804366648916474, 6.035819422722382),
        (-0.025155872895946865, -0.007050293099137475, -0.0016573026154650013,
         -0.003014883837621121, 0.0003845913130806951, 0.0011168443273903998,
         -1.5547792206268723e-05, 0.0002692104343493821),
        schwarzschild_energy(0.804366648916474, 6.035819422722382),
        "gradient",
    ),
    "tied-until-the-cap": (
        lambda: schwarzschild_sphere(make_grid(32), 0.28611515114632746, 8.371962937683895),
        (0.03189896769482009, 0.0043390981330661245, -0.00425146810347955,
         -0.00010505172757811835, -0.0006071322716028074, -0.00034778346589734875,
         -0.0002065937620600208, -0.0005364951837341769),
        schwarzschild_energy(0.28611515114632746, 8.371962937683895),
        "decrement",
    ),
}


def weighted_coefficients(rng, scale=0.3):
    return TauCoefficients(tuple(scale * rng.uniform(-1.0, 1.0, 8) / MODE_WEIGHTS_8))


class TestTauCoefficients:
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

    @pytest.mark.parametrize("rows", [None, 3], ids=["field", "stack"])
    def test_public_functions_give_the_evaluation_fields(self, rows):
        grid = make_grid(32)
        rng = np.random.default_rng(43)
        m = regular_random_metric(grid, rng)
        shape = grid.n_nodes if rows is None else (rows, grid.n_nodes)
        tau = 0.2 * grid.x + rng.uniform(-0.05, 0.05, shape) * grid.x**3
        ev = evaluate(m, tau)
        assert np.array_equal(hat_gauss_curvature(m, tau), ev.k_hat)
        assert np.array_equal(convexity_guard(m, tau), ev.guard)
        if rows is None:
            assert type(convexity_guard(m, tau)) is float

    def test_second_call_forms_nothing_new(self, monkeypatch):
        grid = make_grid(32)
        m = round_sphere(grid)
        ev = evaluate(m, 0.3 * grid.x)
        calls = count_guards(monkeypatch)
        first = convexity_guard(m, ev)
        fields = dict(vars(ev))
        assert convexity_guard(m, ev) == first
        assert calls == [ev]
        assert vars(ev).keys() == fields.keys()
        assert all(vars(ev)[k] is v for k, v in fields.items())

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
        g = energy_gradient(d, ZERO_8)
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

    @pytest.mark.parametrize("source", ["schwarzschild", "lift"])
    def test_matches_per_mode_pairings(self, source):
        # g_l = integral(trace term * P_l) dv + 2 pi integral((1 - x^2)(Q/P) omega P_l') dx,
        # one surface integral per mode, P_l' from numpy's legder
        if source == "schwarzschild":
            d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        else:
            d = lift_data([0.04, 0.01, -0.005], [0.03, -0.01, 0.002], [0.2, 0.0, 0.1])
        m = d.metric
        grid = m.grid
        for seed in range(5):
            tc = weighted_coefficients(np.random.default_rng(2000 + seed))
            field = npleg.legval(grid.x, np.concatenate([[0.0], tc.coeffs]))
            trace_part, flux = _stationarity_terms(d, evaluate(m, field))
            flux_weight = (1.0 - grid.x**2) * (m.Q / m.P) * flux
            want = np.array(
                [
                    integrate_surface(m, trace_part * legendre_mode(grid, l))
                    + 2.0 * np.pi * grid.quad_dx(
                        flux_weight * npleg.legval(grid.x, npleg.legder(np.eye(l + 1)[l]))
                    )
                    for l in range(1, 9)
                ]
            )
            got = energy_gradient(d, tc)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("source", ["schwarzschild", "lift"])
    def test_is_the_first_variation_along_the_modes(self, source):
        # the gradient and theorem3's F'(s) share energy._first_variation
        if source == "schwarzschild":
            d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        else:
            d = lift_data([0.04, 0.01, -0.005], [0.03, -0.01, 0.002], [0.2, 0.0, 0.1])
        grid = d.metric.grid
        tc = weighted_coefficients(np.random.default_rng(2100))
        field = tau_from_coefficients(grid, tc)
        modes = grid.legendre_vandermonde[:, 1:9]
        slopes = grid.legendre_vandermonde_dx[:, 1:9]
        terms = _stationarity_terms(d, evaluate(d.metric, field))
        want, _ = _first_variation(d.metric, terms, modes, slopes)
        assert np.array_equal(energy_gradient(d, tc), want)

    @pytest.mark.parametrize("mass, radius", [(1.0, 4.0), (0.3, 2.0)])
    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_weak_form_is_the_derivative_of_the_discrete_energy(self, n, mass, radius):
        # central differences of qle (step 1e-5) carry about 3e-9 of their
        # own error; the strong-form pairing missed them by 4.6e-6 to
        # 2.0e-5 at n = 24 and 1.2e-8 to 1.4e-7 at n = 32
        grid = make_grid(n)
        d = schwarzschild_sphere(grid, mass, radius)
        tc = TauCoefficients(tuple(0.05 / np.arange(1, 9) ** 2))
        tau = tau_from_coefficients(grid, tc)
        step = 1e-5
        fd = np.array(
            [
                (
                    qle(d, tau + step * legendre_mode(grid, l)).total
                    - qle(d, tau - step * legendre_mode(grid, l)).total
                )
                / (2.0 * step)
                for l in range(1, 9)
            ]
        )
        assert np.max(np.abs(fd - energy_gradient(d, tc))) <= 6e-9

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_lift_data_is_critical_at_its_time_function(self, n):
        # the strong-form pairing read 5.5e-9 at n = 32 and 2e-11 at n = 64, 128
        grid = make_grid(n)
        m = regular_metric(grid, [0.04, 0.01, -0.005], [0.03, -0.01, 0.002])
        tc = TauCoefficients((0.2, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0))
        d = minkowski_surface_data(m, tau_from_coefficients(grid, tc))
        assert np.max(np.abs(energy_gradient(d, tc))) <= 1e-12

    def test_more_modes_than_the_grid_resolves_rejected(self):
        grid = make_grid(8)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        with pytest.raises(FieldShapeError, match="8 modes"):
            energy_gradient(d, ZERO_8)

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
        report = minimize_energy(d, ZERO_8)
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
        calls = []

        def counting_qle(data, tau):
            calls.append(None)
            return qle(data, tau)

        # a run capped before its first step makes every call that precedes
        # the first trial (the start energy and the calibration stack)
        monkeypatch.setattr(optimize_module, "qle", counting_qle)
        minimize_energy(d, init, max_iterations=0)
        setup_calls = len(calls)
        calls.clear()

        def qle_failing_in_trials(data, tau):
            calls.append(None)
            if len(calls) > setup_calls:
                raise FieldShapeError("trial field")
            return qle(data, tau)

        monkeypatch.setattr(optimize_module, "qle", qle_failing_in_trials)
        with pytest.raises(FieldShapeError, match="trial field"):
            minimize_energy(d, init)
        assert len(calls) == setup_calls + 1

    def test_guard_violation_at_init_raises_before_any_lift(self, monkeypatch):
        grid = make_grid(32)
        m = round_sphere(grid)
        d = minkowski_surface_data(m, np.zeros(32))
        bad = TauCoefficients((0.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0))
        lifted = []
        original = embedding_module.embed_r3

        def counting_embed_r3(metric):
            lifted.append(metric)
            return original(metric)

        monkeypatch.setattr(embedding_module, "embed_r3", counting_embed_r3)
        with pytest.raises(GuardViolationError) as info:
            minimize_energy(d, bad)
        assert info.value.margin < 0.0
        assert lifted == []

    def test_start_guard_reads_row_0_of_the_start_stack(self, monkeypatch):
        # the margin of the whole (2L + 1)-row stack's guard at row 0, to the
        # bit, and that stack's guard formed once
        grid = make_grid(32)
        m = round_sphere(grid)
        d = minkowski_surface_data(m, np.zeros(32))
        bad = TauCoefficients((0.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0))
        tau = tau_from_coefficients(grid, bad)
        bumps = FD_STEP * grid.legendre_vandermonde[:, 1:9].T
        want = convexity_guard(m, np.concatenate([tau[None], tau + bumps, tau - bumps]))[0]
        calls = count_guards(monkeypatch)
        with pytest.raises(GuardViolationError) as info:
            minimize_energy(d, bad)
        assert info.value.margin == want
        assert [ev.tau.shape for ev in calls] == [(17, 32)]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("tol", np.nan),
            ("tol", np.inf),
            ("tol", 0.0),
            ("tol", -1e-7),
            ("max_iterations", -1),
            ("max_iterations", 1.5),
            ("max_iterations", True),
        ],
    )
    def test_bad_parameter_rejected_naming_it(self, name, value):
        # the parent returned stop "iterations" after 0 iterations for
        # tol = nan, "gradient" at an unconverged start for tol = inf, and
        # ran 2 iterations for max_iterations = 1.5
        d = schwarzschild_sphere(make_grid(16), 0.5, 4.0)
        with pytest.raises(InvalidParameterError, match=f"^{name} must be"):
            minimize_energy(d, TauCoefficients((0.05, 0.02)), **{name: value})

    @pytest.mark.parametrize(
        "coeffs, message",
        [((np.nan,) * 8, "^tau must be finite, got nan"), ((1e200,), r"^\|tau\| must be at most")],
    )
    def test_bad_start_is_blamed_on_tau(self, coeffs, message):
        # the lifted profile's check used to name the metric's P
        d = schwarzschild_sphere(make_grid(16), 0.5, 4.0)
        with pytest.raises(InvalidParameterError, match=message):
            minimize_energy(d, TauCoefficients(coeffs))

    def test_start_leaving_the_guard_and_the_length_range_is_a_guard_violation(self):
        # the guard reads the start stack before its lift: 9e37 P3 fails both, while
        # 9e37 P2 passes the guard and its lifted profile reaches 1.17e38 at node 2
        d = schwarzschild_sphere(make_grid(16), 0.5, 4.0)
        with pytest.raises(GuardViolationError):
            minimize_energy(d, TauCoefficients((0.0, 0.0, 9e37)))
        profile = re.escape("sqrt(P^2 + tau_theta^2)")
        with pytest.raises(InvalidParameterError, match=f"^{profile} must lie in .*{profile}\\[0, 2\\] = "):
            minimize_energy(d, TauCoefficients((0.0, 9e37)))

    def test_overflowing_trial_is_rejected_before_any_arithmetic(self, monkeypatch):
        # a trial field beyond the length range has no Evaluation, so no guard
        # runs on it: it counts as a trial whose lift fails, not as a guard
        # rejection, and the line search shortens the step
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 0.5, 4.0)
        with pytest.raises(InvalidParameterError, match=r"^\|tau\| must be at most 1e\+38; tau\[0\]"):
            evaluate(d.metric, tau_from_coefficients(grid, TauCoefficients((1e160,))))
        synthesize = optimize_module.tau_from_coefficients
        fields, seen = [], []

        def overflowing_first_trial(grid, tau):
            fields.append(synthesize(grid, tau))
            # call 1 is the start, call 2 the first trial
            return 1e160 * fields[-1] if len(fields) == 2 else fields[-1]

        trial_energy = optimize_module._trial_energy

        def recording(data, evaluation):
            seen.append(evaluation.tau)
            return trial_energy(data, evaluation)

        monkeypatch.setattr(optimize_module, "tau_from_coefficients", overflowing_first_trial)
        monkeypatch.setattr(optimize_module, "_trial_energy", recording)
        report = minimize_energy(d, TauCoefficients((0.0, 0.05)))
        assert report.iterations >= 1
        assert not report.guard_active
        # the overflowing trial reached no guard; the halved step was the first one evaluated
        assert np.array_equal(seen[0], fields[2])
        assert all(np.max(np.abs(tau)) <= 1.0 for tau in seen)

    @pytest.mark.parametrize("source", ["schwarzschild", "lift"])
    def test_residual_norm_is_that_of_the_final_iterate(self, source):
        if source == "schwarzschild":
            d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
            init = TauCoefficients((0.0, 0.05) + (0.0,) * 6)
        else:
            d = lift_data([0.04, 0.01, -0.005], [0.03, -0.01, 0.002], [0.2, 0.0, 0.1])
            init = TauCoefficients((0.201, -0.002, 0.1) + (0.0,) * 5)
        report = minimize_energy(d, init)
        assert report.iterations >= 1
        res = residual(d, tau_from_coefficients(d.metric.grid, report.tau_star))
        assert report.residual_norm == float(np.sqrt(integrate_surface(d.metric, res * res)))

    def test_more_modes_than_the_grid_resolves_named_as_the_gradient_does(self):
        d = schwarzschild_sphere(make_grid(8), 1.0, 4.0)
        message = r"^8 modes requested, the grid resolves 7$"
        with pytest.raises(FieldShapeError, match=message):
            minimize_energy(d, ZERO_8)
        with pytest.raises(FieldShapeError, match=message):
            energy_gradient(d, ZERO_8)

    def test_init_without_modes_rejected(self):
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        with pytest.raises(FieldShapeError, match="0 modes"):
            minimize_energy(d, TauCoefficients(()))

    @pytest.mark.parametrize("name", sorted(AT_THE_FLOOR))
    def test_run_at_the_rounding_floor_stops_converged(self, name):
        build, start, exact, stop = AT_THE_FLOOR[name]
        # the benchmark's iteration cap
        report = minimize_energy(build(), TauCoefficients(start), max_iterations=100)
        assert report.stop == stop
        assert abs(report.energy_star - exact) <= 1e-9 * max(abs(exact), 1.0)

    @pytest.mark.parametrize("outcome", ["no-step", "tie"])
    def test_line_search_within_the_floor_stops_at_the_current_iterate(self, monkeypatch, outcome):
        # with every predicted decrease inside FLOOR_MULTIPLE rounding floors,
        # a line search that finds no step, or only one tying the energy,
        # ends the run where it is instead of raising
        d = schwarzschild_sphere(make_grid(16), 1.0, 4.0)
        init = TauCoefficients((0.05, 0.02))
        # the start is row 0 of one stack with its 2L perturbations
        tau = tau_from_coefficients(d.metric.grid, init)
        bumps = FD_STEP * d.metric.grid.legendre_vandermonde[:, 1:3].T
        stack = np.concatenate([tau[None], optimize_module._perturbed(tau, bumps)])
        start_energy = qle(d, stack).total[0]
        trial = None if outcome == "no-step" else start_energy
        monkeypatch.setattr(optimize_module, "FLOOR_MULTIPLE", 1e300)
        monkeypatch.setattr(optimize_module, "_trial_energy", lambda data, evaluation: trial)
        report = minimize_energy(d, init)
        assert report.stop == "rounding-floor"
        assert report.iterations == 0
        assert report.tau_star == init
        assert report.energy_star == start_energy

    def test_stop_names_the_gradient_or_the_cap(self):
        d = schwarzschild_sphere(make_grid(16), 1.0, 4.0)
        assert minimize_energy(d, ZERO_8).stop == "gradient"
        capped = minimize_energy(d, TauCoefficients((0.05, 0.02)), max_iterations=0)
        assert capped.stop == "iterations"

    def test_guard_rejecting_every_trial_raises(self, monkeypatch):
        # the decrease -g.d is far above the rounding floor, so running out
        # of steps is a failure; once the step is short enough the trial
        # field rounds to the current one, which is no move to accept
        grid = make_grid(32)
        d = minkowski_surface_data(round_sphere(grid), 0.3 * grid.x)
        monkeypatch.setattr(optimize_module, "_trial_energy", lambda data, evaluation: None)
        with pytest.raises(LineSearchError, match="no acceptable step above 1.0e-14 at iteration 0"):
            minimize_energy(d, TauCoefficients((0.3, 1e-6)))

    def test_trial_whose_lift_leaves_the_length_range_is_shortened(self, monkeypatch):
        # scaled by 1e60, every trial passes the guard but lifts to a profile
        # sqrt(P^2 + tau_theta^2) far above 1e38; such a trial counts as one
        # that does not embed, so the line search runs out of steps instead
        # of blaming the metric's P
        d = schwarzschild_sphere(make_grid(16), 0.5, 4.0)
        newton = optimize_module._newton_direction

        def huge(values, vectors, grad):
            direction = newton(values, vectors, grad)
            return None if direction is None else 1e60 * direction

        monkeypatch.setattr(optimize_module, "_newton_direction", huge)
        with pytest.raises(LineSearchError, match="no acceptable step"):
            minimize_energy(d, TauCoefficients((0.0, 0.05)))

    def test_hessian_that_does_not_lift_falls_back_to_steepest_descent(self, monkeypatch):
        # only the stack of the start lifts; every later iteration steps along -g
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        init = TauCoefficients((0.0, 0.08, -0.03, 0.0, 0.02, 0.0, 0.0, 0.0))
        original = optimize_module._hessian
        models = []

        def lifting_once(grads):
            if models:
                raise NonEmbeddableError(0, float(grid.nodes[0]), -1.0)
            models.append(original(grads))
            return models[-1]

        directions = []
        newton = optimize_module._newton_direction

        def recording(values, vectors, grad):
            directions.append(newton(values, vectors, grad))
            return directions[-1]

        monkeypatch.setattr(optimize_module, "_hessian", lifting_once)
        monkeypatch.setattr(optimize_module, "_newton_direction", recording)
        report = minimize_energy(d, init, max_iterations=3)
        assert len(models) == 1
        assert len(directions) == 1  # the Newton model of the start only
        assert report.iterations == 3
        assert report.hessian_min_eigenvalue == models[0][0][0]
        trace = report.energy_trace
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


class TestSecondVariation:
    @pytest.mark.parametrize(
        "mass, radius, least",
        [(1.0, 4.0, 2.0 * np.pi / 3.0), (0.1, 1.0, 2.7577), (1.0, 2.5, 7.8469)],
    )
    def test_schwarzschild_rest_is_a_strict_minimum(self, mass, radius, least):
        d = schwarzschild_sphere(make_grid(32), mass, radius)
        report = minimize_energy(d, ZERO_8)
        assert report.iterations == 0
        tolerance = 5e-8 if radius == 4.0 else 5e-5
        assert abs(report.hessian_min_eigenvalue - least) <= tolerance

    def test_lift_data_is_flat_along_the_boost_orbit(self):
        # a surface that already lies in Minkowski space has zero energy
        # in every Lorentz frame: the boosted time functions
        # cosh(b) tau0 + sinh(b) v, with v the lift height, stay at E = 0
        bq = [0.04808491155428866, 0.008683129801754766, 0.0005076954064338712]
        rho = [0.011005369576599833, -0.0007348156945324286, -0.0013372973067937981]
        c0 = (0.25445770160399883, -0.029451177202536004, 0.00843093118774935, 0, 0, 0, 0, 0)
        grid = make_grid(32)
        m = regular_metric(grid, bq, rho)
        tau0 = tau_from_coefficients(grid, TauCoefficients(c0))
        d = minkowski_surface_data(m, tau0)
        report = minimize_energy(d, TauCoefficients(c0))
        assert report.hessian_min_eigenvalue < 1e-8
        bumps = FD_STEP * grid.legendre_vandermonde[:, 1:9].T
        grads, _ = optimize_module._gradient(d, optimize_module._perturbed(tau0, bumps), 8)
        values, vectors = optimize_module._hessian(grads)
        assert values[0] < 1e-8 and values[1] > 1.0
        boost = grid.legendre_coeffs(height(evaluate(m, tau0).projected))[1:9]
        assert abs(vectors[:, 0] @ boost) / np.linalg.norm(boost) > 0.9999


class TestProjectionOnly:
    """The residual, the gradient and the minimizer read only the projection.

    On these spheres the guard holds at tau = c P2, but the lift's own mean
    curvature vector is timelike near the equator, so the lift cannot be
    physical data and minkowski_surface_data rejects it.  The energy and its
    derivatives use |H| of the data and the projected surface, not the
    lift's normal bundle, so they stay defined there.
    """

    @pytest.mark.parametrize("mass, radius, c2", [(0.0, 1.0, 0.7), (1.0, 4.0, 2.8)])
    def test_timelike_lift_mean_curvature_is_not_read(self, mass, radius, c2, monkeypatch):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, mass, radius)
        init = TauCoefficients((0.0, c2) + (0.0,) * 6)
        tau = tau_from_coefficients(grid, init)
        assert convexity_guard(d.metric, tau) > 0.0
        with pytest.raises(NonSpacelikeMeanCurvatureError):
            minkowski_surface_data(d.metric, tau)
        assert evaluate(d.metric, tau).mean_sq.min() <= 0.0
        assert np.isfinite(residual(d, tau)).all()
        assert np.isfinite(energy_gradient(d, init)).all()

        formed = count_formed(monkeypatch, Evaluation, NORMAL_BUNDLE)
        report = minimize_energy(d, init)
        assert formed == {name: [] for name in NORMAL_BUNDLE}
        assert abs(report.energy_star - schwarzschild_energy(mass, radius)) <= 1e-9

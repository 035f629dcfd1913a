"""Coefficient-space descent, the convexity guard, and mode gradients."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from conftest import (
    NORMAL_BUNDLE,
    count_constructed,
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
    Grid,
    InvalidParameterError,
    hat_gauss_curvature,
    integrate_surface,
    make_grid,
    round_sphere,
)
import quasilocal.embedding as embedding_module
from quasilocal.embedding import Evaluation, NonEmbeddableError, NonSpacelikeMeanCurvatureError
from quasilocal.physdata import minkowski_surface_data, schwarzschild_sphere
from quasilocal.energy import DataEvaluation, EnergyBreakdown, evaluate, qle, residual
from quasilocal.optimize import (
    FD_STEP,
    GuardViolationError,
    LineSearchError,
    TauCoefficients,
    _fd_gradient,
    _perturbed,
    convexity_guard,
    energy_gradient,
    minimize_energy,
    tau_from_coefficients,
)


def count_guards(monkeypatch) -> list:
    """Record each Evaluation whose guard is formed, the formula itself unchanged."""
    return count_formed(monkeypatch, Evaluation, ("guard",))["guard"]


def at_trials(monkeypatch, owner, name, trial):
    """Form the lazy field owner.name by trial(instance) on one-field evaluations: line-search trials.

    The minimizer's start and Hessians are stacks and keep the formula.
    """
    field = owner.__dict__[name]
    formula = field.func

    def form(instance):
        tau = instance.tau if owner is Evaluation else instance.ev.tau
        return formula(instance) if tau.ndim == 2 else trial(instance)

    monkeypatch.setattr(field, "func", form)


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
# only tied the current one.  Newton steps reach the floor in two
# iterations.  The decrement ends the lift run, whose model is modified
# along the boost orbit and so rebuilt at every iterate.  The gradient
# ends the Schwarzschild runs: "schwarzschild" and "tied-until-the-cap"
# ended on the decrement after one iteration while a model was rebuilt at
# every iterate, and their kept model takes the last Newton step.
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
        "gradient",
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
        "gradient",
    ),
}


def count_models(monkeypatch) -> list:
    """Record each Newton model the minimizer builds, the model itself unchanged."""
    built = []
    original = optimize_module._hessian

    def recording(grads, step):
        built.append(original(grads, step))
        return built[-1]

    monkeypatch.setattr(optimize_module, "_hessian", recording)
    return built


# The largest iteration count over seeded_starts(scale) of the minimizer
# that rebuilt its model at every iterate: a kept model may cost a run at
# most two iterations beyond it.
MOST_ITERATIONS_REBUILT = {0.05: 2, 0.3: 3, 1.0: 7}


def seeded_starts(scale, count=100):
    """(data, start, exact energy): count Schwarzschild spheres and count lifts.

    The start perturbs the exact minimizer by scale u_l / l^2, u_l uniform
    in [-1, 1], as the benchmark's minimize-sweep does at scale 0.05.
    """
    rng = np.random.default_rng([36, int(1000 * scale)])
    grid = make_grid(32)
    metric_weights = np.array([1.0, 4.0, 9.0])
    for _ in range(count):
        mass = rng.uniform(0.1, 1.0)
        radius = rng.uniform(3.0 * mass + 0.5, 10.0)
        start = scale * rng.uniform(-1.0, 1.0, 8) / MODE_WEIGHTS_8
        yield schwarzschild_sphere(grid, mass, radius), start, schwarzschild_energy(mass, radius)
        bq, rho = (0.05 * rng.uniform(-1.0, 1.0, 3) / metric_weights for _ in range(2))
        c0 = 0.3 * rng.uniform(-1.0, 1.0, 3) / metric_weights
        start = np.concatenate([c0, np.zeros(5)]) + scale * rng.uniform(-1.0, 1.0, 8) / MODE_WEIGHTS_8
        yield lift_data(bq, rho, c0), start, 0.0


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
            trace_part, flux = d.evaluate(field).stationarity
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
        # the gradient and theorem3's F'(s) share DataEvaluation.first_variation
        if source == "schwarzschild":
            d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        else:
            d = lift_data([0.04, 0.01, -0.005], [0.03, -0.01, 0.002], [0.2, 0.0, 0.1])
        grid = d.metric.grid
        tc = weighted_coefficients(np.random.default_rng(2100))
        field = tau_from_coefficients(grid, tc)
        modes = grid.legendre_vandermonde[:, 1:9]
        slopes = grid.legendre_vandermonde_dx[:, 1:9]
        want, _ = d.evaluate(field).first_variation(modes, slopes)
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

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_is_the_central_difference_of_qle_along_every_resolved_mode(self, n):
        # at a rough start on all of P1..P_{n-2}, the modes the grid resolves
        grid = make_grid(n)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        l = np.arange(1, grid.highest_mode + 1)
        tau = TauCoefficients(tuple(0.02 * np.random.default_rng(n).uniform(-1.0, 1.0, l.size) / l**2))
        step = FD_STEP * d.metric.area_radius
        bumps = step * grid.legendre_vandermonde[:, l].T
        fd = _fd_gradient(qle(d, _perturbed(tau_from_coefficients(grid, tau), bumps)).total, step)
        assert np.max(np.abs(energy_gradient(d, tau) - fd)) <= 2e-6

    def test_n_minus_1_modes_rejected(self):
        d = schwarzschild_sphere(make_grid(16), 1.0, 4.0)
        with pytest.raises(FieldShapeError, match=r"^15 modes requested, the grid resolves 14$"):
            energy_gradient(d, TauCoefficients((0.0,) * 15))

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

        def failing(bound):
            calls.append(None)
            raise FieldShapeError("trial field")

        at_trials(monkeypatch, DataEvaluation, "energy", failing)
        with pytest.raises(FieldShapeError, match="trial field"):
            minimize_energy(d, init)
        assert len(calls) == 1

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
        bumps = FD_STEP * m.area_radius * grid.legendre_vandermonde[:, 1:9].T
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

    def test_start_leaving_the_guard_and_the_length_range_is_a_guard_violation(self, monkeypatch):
        # the guard reads the start stack before its lift and its binding to the
        # data: 9e37 P3 fails both, while 9e37 P2 passes the guard and its
        # lifted profile reaches 1.17e38 at node 2
        d = schwarzschild_sphere(make_grid(16), 0.5, 4.0)
        bindings = count_constructed(monkeypatch, DataEvaluation)
        with pytest.raises(GuardViolationError):
            minimize_energy(d, TauCoefficients((0.0, 0.0, 9e37)))
        assert bindings == []
        profile = re.escape("sqrt(P^2 + tau_theta^2)")
        with pytest.raises(InvalidParameterError, match=f"^{profile} must lie in .*{profile}\\[0, 2\\] = "):
            minimize_energy(d, TauCoefficients((0.0, 9e37)))

    @pytest.mark.parametrize("source", ["schwarzschild", "lift"])
    def test_boost_angle_is_formed_once_per_evaluated_stack_or_trial(self, source, monkeypatch):
        # every lift whose energy or gradient is read is bound to the data
        # once, and its binding forms s1 and the angle as it is constructed:
        # the start stack, each Hessian stack and each trial past the guard
        # form the angle once, by one DataEvaluation
        if source == "schwarzschild":
            d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
            init = TauCoefficients((0.0, 0.05) + (0.0,) * 6)
        else:
            d = lift_data([0.04, 0.01, -0.005], [0.03, -0.01, 0.002], [0.2, 0.0, 0.1])
            init = TauCoefficients((0.201, -0.002, 0.1) + (0.0,) * 5)
        bindings = count_constructed(monkeypatch, DataEvaluation)
        lifts = count_formed(monkeypatch, Evaluation, ("s1",))["s1"]
        report = minimize_energy(d, init)
        assert report.iterations >= 2
        assert [bound.ev for bound in bindings] == lifts
        assert {bound.ev.tau.ndim for bound in bindings} == {1, 2}  # trials and stacks

    @pytest.mark.parametrize("source, rows, iterations", [
        ("schwarzschild", [17, 1, 1, 1], 3),
        ("lift", [17, 1, 16, 1], 2),
    ])
    def test_each_run_evaluates_exactly_these_stacks_and_trials(self, source, rows, iterations, monkeypatch):
        # the work of a run, counted instead of timed: the rows of every
        # Evaluation it constructs, in order (the 17-row start stack, its
        # one-row trials, and the lift's 16-row Hessian stack), so a change
        # that adds an evaluation fails here with no timing noise
        if source == "schwarzschild":
            d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
            init = TauCoefficients((0.0, 0.05) + (0.0,) * 6)
        else:
            d = lift_data([0.04, 0.01, -0.005], [0.03, -0.01, 0.002], [0.2, 0.0, 0.1])
            init = TauCoefficients((0.201, -0.002, 0.1) + (0.0,) * 5)
        made = count_constructed(monkeypatch, Evaluation)
        report = minimize_energy(d, init)
        assert report.iterations == iterations
        assert [1 if ev.tau.ndim == 1 else len(ev.tau) for ev in made] == rows

    def test_overflowing_trial_is_rejected_before_any_arithmetic(self, monkeypatch):
        # a trial field beyond the length range has no Evaluation, so no guard
        # runs on it: it counts as a trial whose lift fails, not as a guard
        # rejection, and the line search shortens the step
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 0.5, 4.0)
        with pytest.raises(InvalidParameterError, match=r"^\|tau\| must be at most 1e\+38; tau\[0\]"):
            evaluate(d.metric, tau_from_coefficients(grid, TauCoefficients((1e160,))))
        synthesize = Grid.time_function
        fields = []

        def overflowing_first_trial(grid, coeffs):
            fields.append(synthesize(grid, coeffs))
            # call 1 is the start, call 2 the first trial
            return 1e160 * fields[-1] if len(fields) == 2 else fields[-1]

        guarded = count_guards(monkeypatch)
        monkeypatch.setattr(Grid, "time_function", overflowing_first_trial)
        report = minimize_energy(d, TauCoefficients((0.0, 0.05)))
        seen = [ev.tau for ev in guarded if ev.tau.ndim == 1]  # the trials; the stacks are 2-D
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

    def test_seeded_runs_report_the_residual_norm_field_of_their_final_iterate(self):
        # the one owner of the norm, to the bit, on Schwarzschild and lift data alike
        stepped = []
        for d, start, _ in seeded_starts(0.3, count=4):
            report = minimize_energy(d, TauCoefficients(start), max_iterations=100)
            assert report.iterations >= 1
            final = d.evaluate(d.metric.grid.time_function(report.tau_star.coeffs))
            assert report.residual_norm == final.residual_norm
            stepped.append(report.iterations)
        assert len(stepped) == 8

    def test_start_at_the_lift_takes_no_step_and_reports_a_vanishing_residual(self):
        # the residual_norm of row 0 of the start's stack
        grid = make_grid(32)
        start = TauCoefficients((0.1, 0.05))
        d = minkowski_surface_data(round_sphere(grid), tau_from_coefficients(grid, start))
        report = minimize_energy(d, start)
        assert report.iterations == 0
        assert report.residual_norm < 1e-10

    def test_more_modes_than_the_grid_resolves_named_as_the_gradient_does(self):
        d = schwarzschild_sphere(make_grid(8), 1.0, 4.0)
        message = r"^8 modes requested, the grid resolves 6$"
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

    def test_schwarzschild_run_keeps_the_model_of_its_start(self, monkeypatch):
        # near tau* the Hessian is positive and varies slowly: the start's
        # model is the only one built, and it is the one reported
        d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        built = count_models(monkeypatch)
        report = minimize_energy(d, TauCoefficients((0.0, 0.05) + (0.0,) * 6))
        assert report.stop == "gradient"
        assert report.iterations >= 2
        assert len(built) == 1
        assert report.hessian_min_eigenvalue == built[0][0][0]

    def test_modified_model_is_rebuilt_at_every_iterate(self, monkeypatch):
        # lift data are flat along the boost orbit, so each model is raised
        # there and none is kept: the start and both iterates build one
        build, start, _, _ = AT_THE_FLOOR["lift"]
        built = count_models(monkeypatch)
        report = minimize_energy(build(), TauCoefficients(start), max_iterations=100)
        assert report.stop == "decrement"
        assert report.iterations == 2
        assert len(built) == 3
        assert report.hessian_min_eigenvalue == built[-1][0][0]

    def test_rejected_kept_step_runs_the_iteration_on_a_rebuilt_model(self, monkeypatch):
        # a kept step that goes uphill is refused, and the iteration then
        # runs exactly as one without a kept model
        d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        init = TauCoefficients((0.0, 0.05) + (0.0,) * 6)
        kept = optimize_module._kept_direction
        monkeypatch.setattr(optimize_module, "_kept_direction", lambda *args: None)
        rebuilt = minimize_energy(d, init)

        offered = []

        def uphill(*args):
            direction = kept(*args)
            offered.append(direction is not None)
            return None if direction is None else -direction

        monkeypatch.setattr(optimize_module, "_kept_direction", uphill)
        built = count_models(monkeypatch)
        assert minimize_energy(d, init) == rebuilt
        assert any(offered)
        assert len(built) == 1 + rebuilt.iterations - (rebuilt.stop == "gradient")

    def test_kept_step_that_rounds_to_the_iterate_is_refused_unevaluated(self, monkeypatch):
        # a kept step of 1e-300 times the Newton step leaves the field as it
        # is: it is refused as a line-search step that rounds to the current
        # field is, with no Evaluation, and the iteration runs as one
        # without a kept model
        d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        init = TauCoefficients((0.0, 0.05) + (0.0,) * 6)
        kept = optimize_module._kept_direction
        monkeypatch.setattr(optimize_module, "_kept_direction", lambda *args: None)
        rebuilt = minimize_energy(d, init)

        offered = []

        def negligible(*args):
            direction = kept(*args)
            offered.append(direction is not None)
            return None if direction is None else 1e-300 * direction

        monkeypatch.setattr(optimize_module, "_kept_direction", negligible)
        lifts = count_constructed(monkeypatch, Evaluation)
        assert minimize_energy(d, init) == rebuilt
        assert offered.count(True) == 1
        # one one-row trial per iteration: the kept step is never evaluated
        assert [ev.tau.ndim for ev in lifts].count(1) == rebuilt.iterations == 2

    def test_kept_step_outside_the_guard_runs_the_iteration_on_a_rebuilt_model(self, monkeypatch):
        # 3 P3 leaves the convexity region (as a start the guard refuses
        # it), so a kept step moved by it is refused by the guard, which the
        # report records; the iteration then runs as one without a kept model
        d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        init = TauCoefficients((0.0, 0.05) + (0.0,) * 6)
        kept = optimize_module._kept_direction
        monkeypatch.setattr(optimize_module, "_kept_direction", lambda *args: None)
        rebuilt = minimize_energy(d, init)

        def past_the_guard(*args):
            direction = kept(*args)
            return None if direction is None else direction + 3.0 * np.eye(8)[2]

        monkeypatch.setattr(optimize_module, "_kept_direction", past_the_guard)
        report = minimize_energy(d, init)
        assert report.guard_active is True and rebuilt.guard_active is False
        assert report.stop == "gradient"
        assert abs(report.energy_star - schwarzschild_energy(1.0, 4.0)) <= 1e-9 * report.energy_star
        assert report == dataclasses.replace(rebuilt, guard_active=True)

    def test_trial_outside_the_guard_is_not_bound_to_the_data(self, monkeypatch):
        # the guard of a trial's Evaluation is read before the trial is
        # bound, so a kept step moved past the guard by 3 P3 forms no boost
        # angle, and every trial inside the guard is bound once
        d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        kept = optimize_module._kept_direction

        def past_the_guard(*args):
            direction = kept(*args)
            return None if direction is None else direction + 3.0 * np.eye(8)[2]

        monkeypatch.setattr(optimize_module, "_kept_direction", past_the_guard)
        guarded = count_guards(monkeypatch)
        bindings = count_constructed(monkeypatch, DataEvaluation)
        report = minimize_energy(d, TauCoefficients((0.0, 0.05) + (0.0,) * 6))
        trials = [ev for ev in guarded if ev.tau.ndim == 1]
        rejected = [ev for ev in trials if not ev.guard > 0.0]
        assert report.guard_active and rejected
        bound = [b.ev for b in bindings if b.ev.tau.ndim == 1]
        assert bound == [ev for ev in trials if ev.guard > 0.0]

    @pytest.mark.parametrize("scale", sorted(MOST_ITERATIONS_REBUILT))
    def test_seeded_starts_converge_with_kept_models(self, scale):
        iterations = []
        for d, start, exact in seeded_starts(scale):
            report = minimize_energy(d, TauCoefficients(start), max_iterations=100)
            assert report.stop in ("gradient", "decrement")
            assert abs(report.energy_star - exact) <= 1e-9 * max(abs(exact), 1.0)
            iterations.append(report.iterations)
        assert max(iterations) <= MOST_ITERATIONS_REBUILT[scale] + 2

    @pytest.mark.parametrize("outcome", ["no-step", "tie"])
    def test_line_search_within_the_floor_stops_at_the_current_iterate(self, monkeypatch, outcome):
        # with every predicted decrease inside FLOOR_MULTIPLE rounding floors,
        # a line search that finds no step, or only one tying the energy,
        # ends the run where it is instead of raising
        d = schwarzschild_sphere(make_grid(16), 1.0, 4.0)
        init = TauCoefficients((0.05, 0.02))
        # the start is row 0 of one stack with its 2L perturbations
        tau = tau_from_coefficients(d.metric.grid, init)
        bumps = FD_STEP * d.metric.area_radius * d.metric.grid.legendre_vandermonde[:, 1:3].T
        stack = np.concatenate([tau[None], optimize_module._perturbed(tau, bumps)])
        start_energy = qle(d, stack).total[0]
        monkeypatch.setattr(optimize_module, "FLOOR_MULTIPLE", 1e300)
        if outcome == "no-step":
            at_trials(monkeypatch, Evaluation, "guard", lambda ev: -1.0)
        else:
            at_trials(monkeypatch, DataEvaluation, "energy", lambda b: EnergyBreakdown(start_energy, 0.0))
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
        at_trials(monkeypatch, Evaluation, "guard", lambda ev: -1.0)
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
        # only the stack of the start lifts; every later iteration steps along
        # -g.  From this start the first step leaves a decrement too large
        # to keep the start's model, so iterations 2 and 3 each try a rebuild
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        init = TauCoefficients((0.0, 0.08, -0.03, 0.0, 0.02, 0.0, 0.0, 0.0))
        original = optimize_module._hessian
        models = []
        refused = []

        def lifting_once(grads, step):
            if models:
                refused.append(None)
                raise NonEmbeddableError(0, float(grid.nodes[0]), -1.0)
            models.append(original(grads, step))
            return models[-1]

        directions = []
        newton = optimize_module._newton_direction

        def recording(values, vectors, grad):
            directions.append(values)
            return newton(values, vectors, grad)

        monkeypatch.setattr(optimize_module, "_hessian", lifting_once)
        monkeypatch.setattr(optimize_module, "_newton_direction", recording)
        report = minimize_energy(d, init, max_iterations=3)
        assert len(models) == 1
        assert len(refused) == 2
        # the Newton model of the start only: its step at iteration 1, and
        # at iteration 2 its kept step, refused for its decrement
        assert len(directions) == 2 and all(values is models[0][0] for values in directions)
        assert report.iterations == 3
        assert report.hessian_min_eigenvalue == models[0][0][0]
        trace = report.energy_trace
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


class TestScaling:
    @pytest.mark.parametrize("power", [-12, 7])
    def test_scaled_sphere_gives_the_same_model_and_calibration(self, power):
        # (m, r) and the start scaled by 2^k: the difference step scales with
        # the area radius, so r times the second variation and the relative
        # calibration are those of the unscaled run, bit for bit
        def run(scale):
            d = schwarzschild_sphere(make_grid(32), scale, 4.0 * scale)
            report = minimize_energy(d, TauCoefficients((0.0, 0.05 * scale) + (0.0,) * 6))
            return 4.0 * scale * report.hessian_min_eigenvalue, report.calibration_rel_error

        assert run(2.0**power) == run(1.0)


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
        step = FD_STEP * m.area_radius
        bumps = step * grid.legendre_vandermonde[:, 1:9].T
        grads, _ = d.evaluate(optimize_module._perturbed(tau0, bumps)).first_variation(
            grid.legendre_vandermonde[:, 1:9], grid.legendre_vandermonde_dx[:, 1:9]
        )
        values, vectors = optimize_module._hessian(grads, step)
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

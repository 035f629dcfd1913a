"""Energy functional, gauge energy, residual, and the comparison scalar."""

import sys

import numpy as np
import pytest

from conftest import count_constructed, count_formed, legendre_mode, regular_random_metric, random_time_profile
from reference import (
    canonical_gauge,
    comparison_f,
    comparison_f_prime,
    hessian_phi_phi,
    hhat_phi_phi,
    trace,
)
from quasilocal import geometry
from quasilocal.geometry import (
    FieldShapeError,
    Grid,
    InvalidParameterError,
    integrate_surface,
    make_grid,
    round_sphere,
    AxisymMetric,
)
from quasilocal.embedding import Evaluation, NonEmbeddableError, embed_lifted, mean_curvature
from quasilocal.physdata import (
    PhysicalData,
    minkowski_surface_data,
    schwarzschild_sphere,
)
from quasilocal.energy import (
    GaugeData,
    breve_gauge,
    evaluate,
    generalized_mean_curvature,
    qle,
    qle_angle_form,
    reference_mean_curvature_integral,
    residual,
    tilde_energy,
)


def generic_tau(grid):
    return 0.2 * legendre_mode(grid, 1) + 0.05 * legendre_mode(grid, 2)


class TestQle:
    def test_flat_sphere_at_rest_vanishes(self):
        grid = make_grid(32)
        d = minkowski_surface_data(round_sphere(grid), np.zeros(32))
        e = qle(d, np.zeros(32))
        assert abs(e.total) <= 1e-10
        assert abs(e.reference_term - e.physical_term) <= 1e-10

    def test_round_data_closed_form(self):
        # at tau = 0 both terms are round-sphere integrals:
        # 8 pi r and 8 pi r sqrt(1 - 2m/r), total 8 pi r (1 - sqrt(1-2m/r))
        grid = make_grid(32)
        for mass, radius in ((1.0, 4.0), (0.3, 1.0)):
            d = schwarzschild_sphere(grid, mass, radius)
            e = qle(d, np.zeros(32))
            factor = np.sqrt(1.0 - 2.0 * mass / radius)
            assert abs(e.reference_term - 8.0 * np.pi * radius) <= 1e-10
            assert abs(e.physical_term - 8.0 * np.pi * radius * factor) <= 1e-10
            expected = 8.0 * np.pi * radius * (1.0 - factor)
            assert abs(e.total - expected) <= 1e-12 * expected

    def test_total_is_difference(self):
        grid = make_grid(24)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        e = qle(d, 0.1 * legendre_mode(grid, 1))
        assert e.total == e.reference_term - e.physical_term

    def test_time_translation_invariance(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        tau = generic_tau(grid)
        base = qle(d, tau)
        shifted = qle(d, tau + 5.0)
        assert abs(shifted.reference_term - base.reference_term) <= 1e-10
        assert abs(shifted.physical_term - base.physical_term) <= 1e-10

    def test_embedding_failure_propagates(self):
        # P/Q small enough that the revolution profile has no real slope
        grid = make_grid(32)
        m = AxisymMetric(grid, np.full(32, 0.55), np.ones(32))
        d = PhysicalData(
            metric=m,
            norm_H=np.full(32, 2.0),
            alpha_H=np.zeros(32),
        )
        with pytest.raises(NonEmbeddableError):
            qle(d, np.zeros(32))


class TestEvaluation:
    def test_shared_evaluation_gives_the_array_results(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        tau = generic_tau(grid)
        at_tau = evaluate(d.metric, tau)
        assert qle(d, at_tau) == qle(d, tau)
        assert qle_angle_form(d, at_tau) == qle_angle_form(d, tau)
        assert np.array_equal(residual(d, at_tau), residual(d, tau))
        assert evaluate(d.metric, at_tau) is at_tau

    def test_evaluation_of_another_metric_rejected(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        other = evaluate(round_sphere(grid, 4.0), generic_tau(grid))
        with pytest.raises(InvalidParameterError, match="different metric"):
            qle(d, other)


class TestReferenceMeanCurvatureIntegral:
    """reference_mean_curvature_integral is the lift's reference term, Evaluation.reference."""

    def test_one_field_gives_the_reference_bits(self):
        grid = make_grid(32)
        m = regular_random_metric(grid, np.random.default_rng(11))
        tau = random_time_profile(grid, np.random.default_rng(12))
        value = reference_mean_curvature_integral(m, tau)
        assert type(value) is float
        assert value == evaluate(m, tau).reference

    def test_a_stack_gives_the_reference_bits_of_each_row(self):
        grid = make_grid(32)
        m = regular_random_metric(grid, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        stack = np.array([random_time_profile(grid, rng) for _ in range(5)])
        values = reference_mean_curvature_integral(m, stack)
        assert values.shape == (5,)
        assert np.array_equal(values, evaluate(m, stack).reference)

    def test_an_evaluation_of_the_metric_is_read_not_rebuilt(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        at_tau = evaluate(d.metric, generic_tau(grid))
        assert reference_mean_curvature_integral(d.metric, at_tau) == qle(d, at_tau).reference_term
        assert "reference" in vars(at_tau)

    def test_an_evaluation_of_another_metric_is_rejected(self):
        grid = make_grid(32)
        other = evaluate(round_sphere(grid, 4.0), generic_tau(grid))
        with pytest.raises(InvalidParameterError, match="different metric"):
            reference_mean_curvature_integral(round_sphere(grid, 4.0), other)


class TestMeanCurvatureOnce:
    def test_reference_and_residual_share_one_computation(self, monkeypatch):
        calls = count_formed(monkeypatch, AxisymMetric, ("mean_curvature",))["mean_curvature"]
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        at_tau = evaluate(d.metric, generic_tau(grid))
        reference = at_tau.reference
        residual(d, at_tau)
        hhat = at_tau.projected.mean_curvature
        assert len(calls) == 1
        assert calls[0] is at_tau.projected
        assert reference == integrate_surface(calls[0], hhat)


class TestDerivativesOnce:
    def test_qle_and_residual_share_tau_x_and_the_laplacian(self, monkeypatch):
        # one Evaluation serves both, and forms tau_x as it is constructed:
        # tau_theta, the Laplacian and the Hessian all come from that tau_x
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        evaluations = count_constructed(monkeypatch, Evaluation)

        dx = Grid.dx
        of_tau = []

        def counting_dx(self, f):
            if any(f is ev.tau for ev in evaluations):
                of_tau.append(None)
            return dx(self, f)

        laplacian = geometry.laplacian
        laplacians = []

        def counting_laplacian(m, f):
            laplacians.append(None)
            return laplacian(m, f)

        monkeypatch.setattr(Grid, "dx", counting_dx)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "quasilocal" and getattr(module, "laplacian", None) is laplacian:
                monkeypatch.setattr(module, "laplacian", counting_laplacian)
        ev = evaluate(d.metric, generic_tau(grid))
        qle(d, ev)
        residual(d, ev)
        assert evaluations == [ev]
        assert len(of_tau) == 1
        assert laplacians == []


class TestEagerFields:
    """A field is formed as its owner is constructed only where every reader reads it.

    The rest stay lazy for the readers that skip them (a guard-only lift
    reads neither s1 nor the Laplacian), which eager fields slowed, so a
    new eager field fails here.
    """

    @pytest.mark.parametrize("rows", [None, 3])
    def test_a_new_evaluation_holds_tau_and_its_first_derivatives(self, rows):
        grid = make_grid(32)
        tau = generic_tau(grid) if rows is None else np.outer(np.arange(1.0, rows + 1), generic_tau(grid))
        ev = evaluate(round_sphere(grid, 2.0), tau)
        assert set(vars(ev)) == {"tau", "metric", "tau_x", "tau_theta"}

    def test_a_new_binding_holds_its_inputs_and_the_boost_angle(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        ev = evaluate(d.metric, generic_tau(grid))
        bound = d.evaluate(ev)
        assert set(vars(bound)) == {"metric", "norm_H", "alpha_H", "ev", "sinh", "angle"}
        # the angle reads s1 and the Laplacian of the lift, nothing of its projection
        assert set(vars(ev)) == {"tau", "metric", "tau_x", "tau_theta", "grad_sq", "one_plus_grad_sq", "s1", "lap"}


class TestFormEquivalence:
    def test_round_data(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        tau = generic_tau(grid)
        assert abs(qle(d, tau).total - qle_angle_form(d, tau).total) <= 1e-10

    def test_sampled_family(self):
        grid = make_grid(32)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = regular_random_metric(grid, rng)
            d = minkowski_surface_data(m, random_time_profile(grid, rng))
            tau = random_time_profile(grid, rng)
            gap = qle(d, tau).total - qle_angle_form(d, tau).total
            assert abs(gap) <= 1e-10


class TestGeneralizedMeanCurvature:
    def test_round_sphere_at_rest(self):
        for radius in (1.0, 2.5):
            grid = make_grid(32)
            lift = embed_lifted(round_sphere(grid, radius), np.zeros(32))
            h = generalized_mean_curvature(breve_gauge(lift), lift.metric, np.zeros(32))
            assert np.max(np.abs(h - 2.0 / radius)) <= 1e-11

    def test_constant_argument_matches_zero(self):
        grid = make_grid(24)
        m = round_sphere(grid)
        lift = embed_lifted(m, np.zeros(24))
        gauge = breve_gauge(lift)
        h0 = generalized_mean_curvature(gauge, m, np.zeros(24))
        h3 = generalized_mean_curvature(gauge, m, np.full(24, 3.0))
        assert np.max(np.abs(h3 - h0)) <= 1e-12

    def test_lifted_sphere_identity(self):
        # with the rest gauge of the lift of tau, h equals the projected
        # mean curvature rescaled by the lift factor sqrt(1+|grad tau|^2)
        grid = make_grid(32)
        m = round_sphere(grid)
        tau = 0.3 * grid.x
        lift = embed_lifted(m, tau)
        h = generalized_mean_curvature(breve_gauge(lift), m, tau)
        s1 = np.sqrt(1.0 + lift.grad_sq)
        hhat = mean_curvature(lift.projected)
        assert np.max(np.abs(h - hhat * s1)) <= 1e-10
        assert np.max(np.abs(h / s1 - hhat)) <= 1e-10

    def test_sampled_identity(self):
        grid = make_grid(32)
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            m = regular_random_metric(grid, rng)
            tau = random_time_profile(grid, rng)
            lift = embed_lifted(m, tau)
            h = generalized_mean_curvature(breve_gauge(lift), m, tau)
            s1 = np.sqrt(1.0 + lift.grad_sq)
            gap = h - mean_curvature(lift.projected) * s1
            assert np.max(np.abs(gap)) <= 1e-9

    @pytest.mark.parametrize("shape", [(31,), (33,), (2, 31)])
    @pytest.mark.parametrize("through", ["generalized_mean_curvature", "tilde_energy"])
    def test_wrongly_shaped_gauge_alpha_is_named(self, through, shape):
        # Evaluation.pairing takes the one-forms the package admitted as
        # they are; a gauge's alpha comes from outside and is checked here
        grid = make_grid(32)
        lift = embed_lifted(round_sphere(grid), 0.1 * grid.x)
        gauge = GaugeData(inner_h=lift.breve_h, alpha=np.zeros(shape))
        with pytest.raises(FieldShapeError, match="^alpha has shape"):
            if through == "tilde_energy":
                tilde_energy(lift, gauge, lift.tau)
            else:
                generalized_mean_curvature(gauge, lift.metric, lift.tau)


class TestTildeEnergy:
    def test_rest_gauge_vanishes(self):
        # integrand of the reference term is Hhat Phat Q sin = (Hhat s1) P Q sin,
        # which is exactly the rest-gauge h integrated over the base measure
        grid = make_grid(32)
        m = round_sphere(grid)
        tau = 0.3 * grid.x
        lift = embed_lifted(m, tau)
        assert abs(tilde_energy(lift, breve_gauge(lift), tau)) <= 1e-10

    def test_rest_gauge_vanishes_sampled(self):
        grid = make_grid(32)
        for seed in range(3):
            rng = np.random.default_rng(200 + seed)
            m = regular_random_metric(grid, rng)
            tau = random_time_profile(grid, rng)
            lift = embed_lifted(m, tau)
            assert abs(tilde_energy(lift, breve_gauge(lift), tau)) <= 1e-10

    def test_degenerate_case_vanishes(self):
        grid = make_grid(32)
        lift = embed_lifted(round_sphere(grid), np.zeros(32))
        assert abs(tilde_energy(lift, breve_gauge(lift), np.zeros(32))) <= 1e-10

    def test_canonical_gauge_recovers_energy(self):
        grid = make_grid(32)
        m = round_sphere(grid)
        tau0 = 0.3 * grid.x
        d = minkowski_surface_data(m, tau0)
        tau = 0.1 * grid.x - 0.05 * legendre_mode(grid, 2)
        lift = embed_lifted(m, tau)
        gauge_value = tilde_energy(lift, canonical_gauge(d, tau), tau)
        assert abs(gauge_value - qle(d, tau).total) <= 1e-10

    def test_canonical_gauge_recovers_energy_round_data(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        tau = generic_tau(grid)
        lift = embed_lifted(d.metric, tau)
        gauge_value = tilde_energy(lift, canonical_gauge(d, tau), tau)
        assert abs(gauge_value - qle(d, tau).total) <= 1e-10


class TestResidual:
    def test_round_data_at_rest_is_zero(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        assert np.max(np.abs(residual(d, np.zeros(32)))) <= 1e-12

    def test_minkowski_data_critical_at_its_time_function(self):
        grid = make_grid(32)
        m = round_sphere(grid)
        for tau0 in (0.3 * grid.x, 0.3 * grid.x + 0.1 * legendre_mode(grid, 2)):
            d = minkowski_surface_data(m, tau0)
            assert np.max(np.abs(residual(d, tau0))) <= 1e-9

    def test_trace_term_matches_the_full_tensors(self):
        # -(Hhat shat^ab - shat^ac shat^bd hhat_cd) Hess_ab / sqrt(1 + |grad tau|^2)
        # with the phi-phi components formed with their sin(theta) factors
        # in place, against the package's cancelled forms
        grid = make_grid(32)
        for seed in range(5):
            rng = np.random.default_rng(320 + seed)
            m = regular_random_metric(grid, rng)
            d = PhysicalData(m, np.full(32, 1.5), np.zeros(32))
            ev = evaluate(m, random_time_profile(grid, rng))
            proj = ev.projected
            hess_pp = hessian_phi_phi(m, ev.tau)
            u = m.Q * grid.sin_theta
            contracted = (
                proj.hhat_tt * ev.hess_tt / proj.P**4 + hhat_phi_phi(proj) * hess_pp / u**4
            )
            mean_part = proj.mean_curvature * trace(proj, ev.hess_tt, hess_pp)
            want = -(mean_part - contracted) / ev.s1
            trace_part, _ = d.evaluate(ev).stationarity
            assert np.max(np.abs(trace_part - want)) <= 1e-9

    def test_integral_vanishes(self):
        # divergence structure: the residual integrates to zero at every
        # tau, critical or not
        grid = make_grid(32)
        worst = 0.0
        d_round = schwarzschild_sphere(grid, 1.0, 4.0)
        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            m = regular_random_metric(grid, rng)
            d = minkowski_surface_data(m, random_time_profile(grid, rng))
            for data in (d, d_round):
                tau = random_time_profile(grid, rng)
                total = integrate_surface(data.metric, residual(data, tau))
                worst = max(worst, abs(total))
        assert worst <= 1e-9

    def test_pairing_matches_finite_differences(self):
        # d/ds qle(d, tau + s delta)|_0 = + integral(residual * delta) dv
        grid = make_grid(32)
        m = round_sphere(grid)
        data_sets = [
            schwarzschild_sphere(grid, 1.0, 4.0),
            minkowski_surface_data(m, 0.3 * grid.x + 0.1 * legendre_mode(grid, 2)),
        ]
        taus = [generic_tau(grid), 0.1 * grid.x - 0.05 * legendre_mode(grid, 2)]
        step = 1e-5
        for d, tau in zip(data_sets, taus):
            res = residual(d, tau)
            for l in (1, 2, 3):
                delta = legendre_mode(grid, l)
                fd = (
                    qle(d, tau + step * delta).total
                    - qle(d, tau - step * delta).total
                ) / (2.0 * step)
                paired = integrate_surface(d.metric, res * delta)
                assert abs(fd - paired) <= 1e-5 * max(abs(fd), 1e-3)


class TestPositivity:
    def test_constructed_minkowski_data(self):
        grid = make_grid(32)
        worst = np.inf
        for seed in range(4):
            rng = np.random.default_rng(400 + seed)
            m = regular_random_metric(grid, rng)
            tau0 = random_time_profile(grid, rng)
            d = minkowski_surface_data(m, tau0)
            for _ in range(3):
                tau = tau0 + random_time_profile(grid, rng, scale=0.15)
                worst = min(worst, qle(d, tau).total)
        assert worst >= -1e-8


class TestComparisonF:
    def test_symmetric_case(self):
        assert comparison_f(0.0, 0.0, 2.0, 1.0) == 1.0
        assert comparison_f_prime(0.0, 0.0, 2.0, 1.0) == 0.0

    def test_value_at_minimum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x0 = rng.uniform(-3.0, 3.0)
            h_small = rng.uniform(0.2, 2.0)
            h_big = h_small + rng.uniform(0.1, 2.0)
            expected = np.sqrt(h_big**2 + x0**2) - np.sqrt(h_small**2 + x0**2)
            assert abs(comparison_f(x0, x0, h_big, h_small) - expected) <= 1e-13
            assert abs(comparison_f_prime(x0, x0, h_big, h_small)) <= 1e-15

    def test_derivative_matches_finite_differences(self):
        xs = np.array([-2.0, -0.3, 0.0, 0.7, 4.0])
        step = 1e-6
        fd = (comparison_f(xs + step, 1.2, 2.0, 0.5) - comparison_f(xs - step, 1.2, 2.0, 0.5)) / (
            2.0 * step
        )
        assert np.max(np.abs(fd - comparison_f_prime(xs, 1.2, 2.0, 0.5))) <= 1e-8

    def test_grid_minimum_at_x0(self):
        xs = np.arange(-10.0, 10.0, 1e-3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x0 = rng.uniform(-3.0, 3.0)
            h_small = rng.uniform(0.2, 2.0)
            h_big = h_small + rng.uniform(0.1, 2.0)
            values = comparison_f(xs, x0, h_big, h_small)
            assert abs(xs[np.argmin(values)] - x0) <= 2e-3
            assert np.all(values >= comparison_f(x0, x0, h_big, h_small) - 1e-12)

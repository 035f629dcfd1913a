"""Revolution-surface embeddings, Minkowski lifts, and extrinsic data."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre as npleg

import quasilocal.embedding as embedding_module
import quasilocal.geometry as geometry_module
from conftest import count_formed, legendre_mode, regular_random_metric, random_time_profile
from quasilocal.geometry import (
    AxisymMetric,
    FieldShapeError,
    InvalidParameterError,
    _divergence_from_x_component,
    gauss_curvature,
    integrate_surface,
    laplacian,
    make_grid,
    round_sphere,
)
from quasilocal.embedding import (
    Evaluation,
    GaugeOrientationError,
    NonEmbeddableError,
    NonSpacelikeMeanCurvatureError,
    embed_lifted,
    embed_r3,
    evaluate,
    extrinsic_data,
    mean_curvature,
)
from quasilocal.energy import qle, qle_angle_form, residual
from quasilocal.optimize import convexity_guard
from quasilocal.physdata import minkowski_surface_data, schwarzschild_sphere
from reference import (
    gauss_curvature_from_shape,
    height,
    hhat_phi_phi,
    isometry_residual,
    minkowski_isometry_residual,
    trace,
)


def boosted_sphere(grid, eps):
    """Unit sphere with tau = eps*cos(theta); all invariants in closed form.

    The projected surface is the prolate profile u = sin, v = c(1 - cos),
    c = sqrt(1 + eps^2), with P_hat^2 = 1 + eps^2 sin^2.  Hand evaluation
    gives Hhat = c(1 + P_hat^2)/P_hat^3, breve_h = -2c/P_hat,
    breve_alpha = -c*eps*sin/P_hat^2, <H, H> = 4, and alpha_H = 0.
    """
    m = round_sphere(grid)
    tau = eps * grid.x
    c = np.sqrt(1.0 + eps * eps)
    p_hat = np.sqrt(1.0 + eps * eps * (1.0 - grid.x**2))
    return m, tau, c, p_hat


# ---------------------------------------------------------------------------
# Euclidean embedding
# ---------------------------------------------------------------------------


class TestEmbedR3:
    def test_round_sphere_profiles(self):
        grid = make_grid(32)
        for r in (1.0, 4.0):
            surf = embed_r3(round_sphere(grid, r))
            assert np.max(np.abs(height(surf) - r * (1.0 - grid.x))) <= 1e-12
            assert np.max(np.abs(surf.u_prime - r * grid.x)) <= 1e-12
            assert np.max(np.abs(surf.v_prime - r * grid.sin_theta)) <= 1e-12

    def test_height_anchored_at_north_pole(self):
        grid = make_grid(24)
        surf = embed_r3(round_sphere(grid, 2.0))
        v_at_pole = npleg.legval(1.0, grid.legendre_coeffs(height(surf)))
        assert abs(v_at_pole) <= 1e-12

    def test_isometry_residual_random_metrics(self):
        grid = make_grid(32)
        for seed in range(5):
            m = regular_random_metric(grid, np.random.default_rng(seed))
            res = isometry_residual(embed_r3(m))
            assert np.max(np.abs(res)) <= 1e-9

    def test_non_embeddable_profile_rejected(self):
        grid = make_grid(16)
        m = AxisymMetric(grid, 0.1 * np.ones(16), np.ones(16))
        with pytest.raises(NonEmbeddableError) as exc:
            embed_r3(m)
        assert exc.value.margin < 0.0
        assert 0 <= exc.value.node_index < 16
        assert "node" in str(exc.value)

    def test_the_embedding_is_the_metric_formed_once(self, monkeypatch):
        formed = count_formed(monkeypatch, AxisymMetric, ("v_prime",))["v_prime"]
        m = regular_random_metric(make_grid(16), np.random.default_rng(0))
        assert embed_r3(m) is m
        assert embed_r3(m) is m
        assert formed == [m]

    @pytest.mark.parametrize("rows", [None, 3])
    def test_a_field_of_a_metric_that_does_not_embed_raises_as_embed_r3(self, rows):
        # P^2 - u'^2 = 0.25 - cos^2(theta) turns negative towards the poles;
        # in the stack, row 1 is the first that fails
        P = np.full(16, 0.5) if rows is None else np.array([1.0, 0.5, 1.0])[:, None] * np.ones(16)
        m = AxisymMetric(make_grid(16), P, np.ones(16))
        with pytest.raises(NonEmbeddableError) as embedding:
            embed_r3(m)
        with pytest.raises(NonEmbeddableError) as field:
            m.mean_curvature
        where = [(e.value.row, e.value.node_index, e.value.margin) for e in (embedding, field)]
        assert where[0] == where[1]
        assert where[0][0] == (None if rows is None else 1) and where[0][2] < 0.0


class TestShapeOperator:
    def test_round_sphere_second_fundamental_form(self):
        grid = make_grid(24)
        for r in (1.0, 4.0):
            surf = embed_r3(round_sphere(grid, r))
            assert np.max(np.abs(surf.hhat_tt - r)) <= 1e-12
            assert np.max(np.abs(hhat_phi_phi(surf) - r * grid.sin_theta**2)) <= 1e-12

    def test_round_sphere_mean_curvature(self):
        grid = make_grid(32)
        for r in (1.0, 4.0):
            H = mean_curvature(embed_r3(round_sphere(grid, r)))
            assert np.max(np.abs(H - 2.0 / r)) <= 1e-12

    def test_trace_matches_mean_curvature(self):
        grid = make_grid(32)
        for seed in range(5):
            m = regular_random_metric(grid, np.random.default_rng(seed))
            surf = embed_r3(m)
            hhat_trace = trace(m, surf.hhat_tt, hhat_phi_phi(surf))
            assert np.max(np.abs(hhat_trace - mean_curvature(surf))) <= 1e-10
            # the package's form of hhat_pp / u^2, the sin(theta) cancelled
            u = m.Q * grid.sin_theta
            assert np.max(np.abs(hhat_phi_phi(surf) / u**2 - surf.w / (m.Q * m.P))) <= 1e-10

    def test_ellipsoid_gauss_curvature_dual_path(self):
        # profile u = sin, v = a(1 - cos), a = 1.2: P^2 = cos^2 + a^2 sin^2
        # and K = a^2 / P^4 by hand
        grid = make_grid(32)
        a = 1.2
        P = np.sqrt(grid.x**2 + a * a * (1.0 - grid.x**2))
        m = AxisymMetric(grid, P, np.ones(32))
        surf = embed_r3(m)
        k_shape = gauss_curvature_from_shape(surf)
        assert np.max(np.abs(k_shape - a * a / P**4)) <= 1e-10
        assert np.max(np.abs(k_shape - gauss_curvature(m))) <= 1e-7

    def test_gauss_dual_path_random_metrics(self):
        grid = make_grid(32)
        for seed in range(5):
            m = regular_random_metric(grid, np.random.default_rng(seed))
            k_shape = gauss_curvature_from_shape(embed_r3(m))
            assert np.max(np.abs(k_shape - gauss_curvature(m))) <= 1e-7


# ---------------------------------------------------------------------------
# Minkowski lift
# ---------------------------------------------------------------------------


class TestEmbedLifted:
    def test_zero_time_reduces_to_euclidean(self):
        grid = make_grid(32)
        m = regular_random_metric(grid, np.random.default_rng(3))
        lifted = embed_lifted(m, np.zeros(32))
        base = embed_r3(m)
        assert np.max(np.abs(height(lifted.projected) - height(base))) <= 1e-12
        assert np.max(np.abs(lifted.projected.P - m.P)) <= 1e-12

    def test_constant_time_same_projection(self):
        grid = make_grid(32)
        m = regular_random_metric(grid, np.random.default_rng(4))
        lifted = embed_lifted(m, np.full(32, 2.5))
        base = embed_r3(m)
        assert np.max(np.abs(height(lifted.projected) - height(base))) <= 1e-12
        assert np.max(np.abs(lifted.tau - 2.5)) == 0.0

    def test_unit_sphere_tilted_height_profile(self):
        # tau = 0.3cos on the unit sphere: v_tilde' = sin*sqrt(1.09)
        grid = make_grid(32)
        lifted = embed_lifted(round_sphere(grid), 0.3 * grid.x)
        root = np.sqrt(1.09)
        assert np.max(np.abs(lifted.projected.v_prime - root * grid.sin_theta)) <= 1e-12
        assert np.max(np.abs(height(lifted.projected) - root * (1.0 - grid.x))) <= 1e-12

    def test_projected_height_rate_combines_profiles(self):
        grid = make_grid(32)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = regular_random_metric(grid, rng)
            tau = random_time_profile(grid, rng)
            lifted = embed_lifted(m, tau)
            base = embed_r3(m)
            tau_theta = grid.dtheta(tau)
            expect = np.sqrt(base.v_prime**2 + tau_theta**2)
            assert np.max(np.abs(lifted.projected.v_prime - expect)) <= 1e-12

    def test_minkowski_isometry_residual(self):
        grid = make_grid(32)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = regular_random_metric(grid, rng)
            tau = random_time_profile(grid, rng)
            res = minkowski_isometry_residual(embed_lifted(m, tau))
            assert np.max(np.abs(res)) <= 1e-9

    def test_wrong_length_time_rejected(self):
        grid = make_grid(16)
        with pytest.raises(FieldShapeError):
            embed_lifted(round_sphere(grid), np.zeros(17))

    def test_rows_keep_the_fields_already_read(self):
        grid = make_grid(16)
        m = round_sphere(grid)
        taus = np.stack([c * legendre_mode(grid, 2) for c in (0.1, 0.2, 0.3)])
        stack = evaluate(m, taus)
        stack.hess_tt, stack.grad_sq  # read, as the convexity guard reads them
        keep = np.array([True, False, True])
        rows = stack.rows(keep)
        assert np.array_equal(rows.tau, taus[keep])
        assert np.array_equal(vars(rows)["hess_tt"], stack.hess_tt[keep])
        assert np.array_equal(vars(rows)["grad_sq"], stack.grad_sq[keep])
        assert "lap" not in vars(rows) and "projected" not in vars(rows)
        fresh = evaluate(m, taus[keep])
        np.testing.assert_allclose(rows.reference, fresh.reference, rtol=1e-14)
        assert stack.rows(np.ones(3, dtype=bool)) is stack

    def test_rows_are_not_admitted_again(self, monkeypatch):
        grid = make_grid(16)
        stack = evaluate(round_sphere(grid), np.stack([0.1 * grid.x, 0.2 * grid.x]))

        def refuse(self, metric, tau):
            raise AssertionError("rows admitted again")

        monkeypatch.setattr(Evaluation, "__init__", refuse)
        rows = stack.rows(np.array([False, True]))
        assert rows.metric is stack.metric
        assert np.array_equal(rows.tau, stack.tau[1:])


# ---------------------------------------------------------------------------
# admission of a time function
# ---------------------------------------------------------------------------


def admit(m, tau):
    """Everything an Evaluation checks of tau: the constructor, then the lifted profile."""
    return Evaluation(m, tau).p_hat


class TestLiftLengths:
    def test_rejects_a_nan_time_function_naming_tau(self):
        grid = make_grid(8)
        tau = np.zeros(grid.n_nodes)
        tau[3] = np.nan
        with pytest.raises(InvalidParameterError, match="tau must be finite, got nan at node 3"):
            Evaluation(round_sphere(grid), tau)

    @pytest.mark.parametrize("rows", [None, 2])
    @pytest.mark.parametrize("bad", ["nan", "inf", "big", "lift"])
    def test_names_the_first_offence_in_the_order_finite_magnitude_lift(self, bad, rows):
        # the bound test in front of the element-wise checks changes no message
        grid = make_grid(8)
        node, index = ("node {}", "{}") if rows is None else ("row 1, node {}", "1, {}")
        row = np.zeros(grid.n_nodes)
        if bad == "lift":
            # |1e38 P2| <= 1e38, but |tau_theta| = 3e38 |x| sin(theta) reaches 1.44e38 at node 1
            row = 1e38 * legendre_mode(grid, 2)
            name = "sqrt(P^2 + tau_theta^2)"
            prefix = f"{name} must lie in [1e-38, 1e+38]; {name}[{index.format(1)}] = 1.444561454752"
            suffix = f" at theta = {grid.nodes[1]}"
        elif bad == "big":
            row[5] = -2e38
            prefix = f"|tau| must be at most 1e+38; tau[{index.format(5)}] = -2e+38"
            suffix = f" at theta = {grid.nodes[5]}"
        else:
            row[5] = {"nan": np.nan, "inf": np.inf}[bad]
            prefix = f"tau must be finite, got {bad} at {node.format(5)}"
            suffix = f" (theta = {grid.nodes[5]})"
        tau = row if rows is None else np.array([np.zeros(grid.n_nodes), row])
        m = round_sphere(grid)
        if bad == "lift":
            Evaluation(m, tau)  # the constructor admits tau; its lifted profile fails
        with pytest.raises(InvalidParameterError) as raised:
            admit(m, tau)
        # the lift's last digits depend on the product that formed tau_theta
        digits = r"\d*e\+38" if bad == "lift" else ""
        assert re.fullmatch(re.escape(prefix) + digits + re.escape(suffix), str(raised.value))

    def test_an_empty_stack_passes(self):
        # the theorem suites evaluate (0, n) stacks when no sample is admitted
        grid = make_grid(8)
        m = round_sphere(grid)
        assert admit(m, np.empty((0, grid.n_nodes))).shape == (0, grid.n_nodes)
        assert Evaluation(m, np.empty((0, grid.n_nodes))).projected.P.shape == (
            0, grid.n_nodes
        )

    @pytest.mark.parametrize("field", ["tau", "p_hat"])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_tau_and_the_lifted_profile_are_bound_tested_once(self, field, rows, monkeypatch):
        # the lifted metric used to test p_hat again under the name P
        grid = make_grid(16)
        m = round_sphere(grid)
        tau = 0.1 * grid.x if rows is None else np.outer(np.arange(1, rows + 1), 0.1 * grid.x)
        ev = Evaluation(m, tau)
        admit, calls = geometry_module._admit, []

        def counted(grid, name, values, *args, **kwargs):
            calls.append(values)
            return admit(grid, name, values, *args, **kwargs)

        for module in (geometry_module, embedding_module):
            monkeypatch.setattr(module, "_admit", counted)
        if field == "tau":
            ev = Evaluation(m, tau)
        else:
            assert ev.projected.P is ev.p_hat
        assert len(calls) == 1 and calls[0] is getattr(ev, field)

    def test_the_guard_never_forms_the_lifted_profile(self):
        grid = make_grid(16)
        ev = evaluate(round_sphere(grid), 0.1 * grid.x)
        convexity_guard(ev.metric, ev)
        assert "p_hat" not in vars(ev) and "projected" not in vars(ev)
        assert ev.projected.P is ev.p_hat

    @pytest.mark.parametrize("formula", [qle, qle_angle_form, residual, convexity_guard])
    def test_every_formula_names_tau_and_its_node(self, formula):
        # qle used to blame the lifted profile's P at node 0; the guard returned nan
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        tau = np.zeros(grid.n_nodes)
        tau[3] = np.nan
        arg = d.metric if formula is convexity_guard else d
        with pytest.raises(InvalidParameterError, match="^tau must be finite, got nan at node 3 "):
            formula(arg, tau)


# ---------------------------------------------------------------------------
# extrinsic data
# ---------------------------------------------------------------------------


class TestExtrinsicData:
    def test_round_sphere_at_rest(self):
        grid = make_grid(32)
        lift = embed_lifted(round_sphere(grid), np.zeros(32))
        data = extrinsic_data(lift)
        phys = minkowski_surface_data(lift.metric, lift.tau)
        assert np.max(np.abs(lift.projected.mean_curvature - 2.0)) <= 1e-12
        # the factored Laplacian divides out sin(theta), which amplifies
        # rounding at the outermost nodes
        assert np.max(np.abs(phys.norm_H - 2.0)) <= 5e-12
        assert np.max(np.abs(data.breve_h + 2.0)) <= 5e-12
        assert np.max(np.abs(phys.alpha_H)) <= 1e-12
        assert np.max(np.abs(data.breve_alpha)) <= 1e-12

    def test_round_sphere_radius_scaling(self):
        grid = make_grid(32)
        lift = embed_lifted(round_sphere(grid, 4.0), np.zeros(32))
        phys = minkowski_surface_data(lift.metric, lift.tau)
        assert np.max(np.abs(lift.projected.mean_curvature - 0.5)) <= 1e-12
        assert np.max(np.abs(phys.norm_H - 0.5)) <= 1e-12

    def test_boosted_sphere_closed_forms(self):
        grid = make_grid(32)
        m, tau, c, p_hat = boosted_sphere(grid, 0.3)
        lift = embed_lifted(m, tau)
        data = extrinsic_data(lift)
        proj = lift.projected
        assert np.max(np.abs(proj.mean_curvature - c * (1.0 + p_hat**2) / p_hat**3)) <= 1e-10
        assert np.max(np.abs(data.breve_h + 2.0 * c / p_hat)) <= 1e-10
        expect_alpha = -c * 0.3 * grid.sin_theta / p_hat**2
        assert np.max(np.abs(data.breve_alpha - expect_alpha)) <= 1e-10
        assert np.max(np.abs(data.mean_sq - 4.0)) <= 1e-10
        assert np.max(np.abs(proj.hhat_tt - c / p_hat)) <= 1e-10

    def test_boosted_sphere_connection_form_vanishes(self):
        # the lift is a Lorentz transform of the round sphere, so the
        # H-aligned frame is parallel and its connection form is zero
        grid = make_grid(32)
        for eps in (0.1, 0.3, 0.7):
            m, tau, _, _ = boosted_sphere(grid, eps)
            phys = minkowski_surface_data(m, tau)
            assert np.max(np.abs(phys.alpha_H)) <= 1e-10

    def test_norm_is_root_of_mean_sq(self):
        grid = make_grid(32)
        rng = np.random.default_rng(11)
        m = regular_random_metric(grid, rng)
        phys = minkowski_surface_data(m, random_time_profile(grid, rng))
        assert np.max(np.abs(phys.norm_H**2 - phys.lift.mean_sq)) <= 1e-12

    def test_non_spacelike_mean_curvature_rejected(self):
        grid = make_grid(32)
        tau = legendre_mode(grid, 2)
        with pytest.raises(NonSpacelikeMeanCurvatureError) as exc:
            minkowski_surface_data(round_sphere(grid), tau)
        assert exc.value.mean_sq.shape == (32,)
        assert exc.value.mean_sq[exc.value.node_index] <= 0.0

    def test_concave_neck_orientation_rejected(self):
        grid = make_grid(32)
        Q = 1.0 - 0.3 * legendre_mode(grid, 2)
        m = AxisymMetric(grid, np.ones(32), Q)
        with pytest.raises(GaugeOrientationError):
            minkowski_surface_data(m, np.zeros(32))


class TestFrameIdentities:
    """Relations tying the projected shape data to the lifted frame.

    All of these are exact pointwise identities of the continuum objects;
    the tolerances measure only collocation rounding.
    """

    @staticmethod
    def _identity_residuals(m, tau):
        grid = m.grid
        lift = embed_lifted(m, tau)
        data = extrinsic_data(lift)
        s = np.sqrt(1.0 + lift.grad_sq)
        a_grad = lift.pairing(data.breve_alpha)
        hhat = lift.projected.mean_curvature
        projection = hhat + data.breve_h + a_grad / s
        curvature = -s * data.breve_h - a_grad - hhat * s
        tau_up = grid.dtheta(tau) / m.P**2
        p_hat2 = m.P**2 + grid.dtheta(tau) ** 2
        flux = (
            -(lift.projected.hhat_tt / p_hat2) * tau_up / s
            - tau_up * a_grad / s**2
            + data.breve_alpha / m.P**2
        )
        return projection, curvature, flux

    def test_projection_relation(self):
        grid = make_grid(32)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            m = regular_random_metric(grid, rng)
            tau = random_time_profile(grid, rng)
            projection, _, _ = self._identity_residuals(m, tau)
            assert np.max(np.abs(projection)) <= 1e-10

    def test_outward_gauge_curvature_relation(self):
        grid = make_grid(32)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            m = regular_random_metric(grid, rng)
            tau = random_time_profile(grid, rng)
            _, curvature, _ = self._identity_residuals(m, tau)
            assert np.max(np.abs(curvature)) <= 1e-10

    def test_connection_flux_relation(self):
        grid = make_grid(32)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            m = regular_random_metric(grid, rng)
            tau = random_time_profile(grid, rng)
            _, _, flux = self._identity_residuals(m, tau)
            assert np.max(np.abs(flux)) <= 1e-12

    def test_augmented_metric_inverse_relations(self):
        grid = make_grid(32)
        rng = np.random.default_rng(5)
        m = regular_random_metric(grid, rng)
        tau = random_time_profile(grid, rng)
        tau_theta = grid.dtheta(tau)
        g2 = evaluate(m, tau).grad_sq
        p_hat2 = m.P**2 + tau_theta**2
        tau_up = tau_theta / m.P**2
        inv_gap = 1.0 / p_hat2 - (1.0 / m.P**2 - tau_up**2 / (1.0 + g2))
        assert np.max(np.abs(inv_gap)) <= 1e-12
        grad_gap = tau_theta / p_hat2 - tau_up / (1.0 + g2)
        assert np.max(np.abs(grad_gap)) <= 1e-12

    @settings(deadline=None, derandomize=True)
    @given(
        c1=st.floats(-0.4, 0.4),
        c2=st.floats(-0.1, 0.1),
        c3=st.floats(-0.05, 0.05),
    )
    def test_projection_relation_on_sphere_profiles(self, c1, c2, c3):
        grid = make_grid(32)
        tau = npleg.legval(grid.x, [0.0, c1, c2, c3])
        projection, _, _ = self._identity_residuals(round_sphere(grid), tau)
        assert np.max(np.abs(projection)) <= 1e-9


class TestMeanSqDecomposition:
    """<H, H> against the projected decomposition through the base height.

    Second path: H0^2 - (v' Dtau - tau' Dv)^2/(v'^2 + tau'^2) where v is
    the height of the base embedding and H0 its mean curvature norm.  The
    difference of the two paths is a Lagrange identity, so it vanishes
    pointwise for every valid pair (m, tau).
    """

    @staticmethod
    def _gap(m, tau):
        grid = m.grid
        data = extrinsic_data(embed_lifted(m, tau))
        base = embed_r3(m)
        w_v = base.v_prime / grid.sin_theta
        tau_x = grid.dx(tau)
        lap_v = _divergence_from_x_component(m, w_v)
        lap_tau = laplacian(m, tau)
        h0_sq = extrinsic_data(embed_lifted(m, np.zeros(grid.n_nodes))).mean_sq
        proj = (w_v * lap_tau + tau_x * lap_v) ** 2 / (w_v**2 + tau_x**2)
        return data.mean_sq - (h0_sq - proj)

    def test_unit_sphere_tilted(self):
        grid = make_grid(32)
        gap = self._gap(round_sphere(grid), 0.3 * grid.x)
        assert np.max(np.abs(gap)) <= 1e-8

    def test_random_metrics(self):
        grid = make_grid(32)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = regular_random_metric(grid, rng)
            tau = random_time_profile(grid, rng)
            assert np.max(np.abs(self._gap(m, tau))) <= 1e-10


def test_boosted_sphere_area_is_preserved():
    # the projection distorts the metric but the lift is isometric, so
    # total area of sigma is 4*pi for every boost
    grid = make_grid(24)
    m, tau, _, _ = boosted_sphere(grid, 0.5)
    assert abs(integrate_surface(m, np.ones(24)) - 4.0 * np.pi) <= 1e-10


@pytest.mark.parametrize("n", [4, 5, 16, 32, 33, 64, 128])
def test_lap_keeps_the_bits_of_the_flux_quotient(n):
    """Evaluation.lap, the negated divergence of tau_x, is dx(flux_factor tau_x) / PQ to the bit.

    Negation is exact and commutes with the product and the quotient, so
    signed zeros agree too: tau = 0 and a constant tau give exact zeros.
    """
    grid = make_grid(n)
    rng = np.random.default_rng(n)
    taus = [np.zeros(n), np.full(n, 0.7), random_time_profile(grid, rng),
            random_time_profile(grid, rng)[None, :],
            np.stack([random_time_profile(grid, rng), np.zeros(n), np.full(n, -2.0)])]
    for m in (round_sphere(grid, 2.0), regular_random_metric(grid, rng)):
        for tau in taus:
            ev = Evaluation(m, tau)
            flux_quotient = grid.dx(m.flux_factor * ev.tau_x) / m.PQ
            assert ev.lap.shape == flux_quotient.shape
            assert ev.lap.tobytes() == flux_quotient.tobytes()

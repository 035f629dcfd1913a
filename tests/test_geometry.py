"""Grid construction and the intrinsic differential operators."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre as npleg

import quasilocal.geometry as geometry
from quasilocal.geometry import (
    AxisymMetric,
    FieldShapeError,
    InvalidParameterError,
    _differentiation_matrix,
    _divergence_from_x_component,
    _hessian,
    _sin_factored_theta_derivative,
    gauss_curvature,
    hat_gauss_curvature,
    hessian,
    integrate_surface,
    laplacian,
    lazy,
    make_grid,
    round_sphere,
)


from conftest import legendre_mode, regular_random_metric
from reference import hessian_phi_phi, trace, unscaled_differentiation_matrix
from quasilocal.embedding import evaluate


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


class TestLegendreSynthesis:
    """Grid.time_function, the Vandermonde product, against numpy's Clenshaw evaluation.

    The two differ by rounding that grows with the degree near the poles,
    and most of it is legval's own: at n = 793, x = 0.99998, legval misses
    a 40-digit recurrence by 3.0e-12 and the product by 7.4e-13 (uniform
    random coefficients, sum |c| = 396).  The largest grid is n = 1098.
    The bound is n eps sum |c|; these draws, over P1..P_L with L up to
    highest_mode, reach at most 0.26 of it, at n = 4.
    """

    @pytest.mark.parametrize("n", [4, 32, 128, 1098])
    def test_matches_legval(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        for count in sorted({1, min(3, n - 2), n // 2, n - 2}):
            c = rng.uniform(-1.0, 1.0, count)
            error = np.max(np.abs(grid.time_function(c) - npleg.legval(grid.x, [0.0, *c])))
            assert error <= n * np.finfo(float).eps * np.abs(c).sum()

    @pytest.mark.parametrize("n", [4, 32, 128, 1098])
    def test_integral_from_north_matches_legint(self, n):
        grid = make_grid(n)
        f = npleg.legval(grid.x, np.random.default_rng(n).uniform(-1.0, 1.0, n))
        want = -npleg.legval(grid.x, npleg.legint(grid.legendre_coeffs(f), lbnd=1.0))
        error = np.max(np.abs(grid.integral_from_north(f) - want))
        assert error <= n * np.finfo(float).eps * np.max(np.abs(want))


class TestTimeFunctionBasis:
    """Grid.time_function and Grid.modes: P_1..P_L, L at most highest_mode, to the bit."""

    @pytest.mark.parametrize("n", [4, 16, 32, 64])
    def test_synthesis_and_modes_are_the_vandermonde_columns(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        for count in sorted({1, 2, n // 2, n - 2}):
            c = rng.uniform(-1.0, 1.0, count)
            columns = grid.legendre_vandermonde[:, : count + 1].T
            assert grid.time_function(c).tobytes() == (np.concatenate(([0.0], c)) @ columns).tobytes()
            assert grid.time_function(tuple(c)).tobytes() == grid.time_function(c).tobytes()
            values, slopes = grid.modes(count)
            assert np.array_equal(values, grid.legendre_vandermonde[:, 1 : count + 1])
            assert np.array_equal(slopes, grid.legendre_vandermonde_dx[:, 1 : count + 1])

    @pytest.mark.parametrize("n", [4, 16, 32, 64])
    def test_unresolved_mode_is_rejected(self, n):
        grid = make_grid(n)
        message = f"^{n - 1} modes requested, the grid resolves {n - 2}$"
        with pytest.raises(FieldShapeError, match=message):
            grid.time_function(np.ones(n - 1))
        with pytest.raises(FieldShapeError, match=message):
            grid.modes(n - 1)

    def test_negative_count_is_rejected(self):
        with pytest.raises(FieldShapeError, match="^-3 modes requested"):
            make_grid(16).modes(-3)


class TestMakeGrid:
    def test_weights_sum_to_two(self):
        grid = make_grid(16)
        assert abs(grid.weights.sum() - 2.0) <= 1e-12

    def test_nodes_interior_and_increasing(self):
        grid = make_grid(16)
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] > 0.0 and grid.nodes[-1] < np.pi

    def test_differentiates_cos_theta(self):
        grid = make_grid(16)
        got = grid.dtheta(np.cos(grid.nodes))
        assert np.max(np.abs(got + np.sin(grid.nodes))) <= 1e-10

    @pytest.mark.parametrize("rows", [None, 3])
    def test_dtheta_is_minus_sin_theta_times_dx_to_the_bit(self, rows):
        grid = make_grid(24)
        m = regular_random_metric(grid, np.random.default_rng(41))
        shape = (grid.n_nodes,) if rows is None else (rows, grid.n_nodes)
        f = np.random.default_rng(42).uniform(-1.0, 1.0, shape)
        want = grid.minus_sin_theta * grid.dx(f)
        assert grid.dtheta(f).tobytes() == want.tobytes()
        ev = evaluate(m, f)
        assert ev.tau_theta.tobytes() == (grid.minus_sin_theta * ev.tau_x).tobytes()

    def test_diff_matrix_annihilates_constants(self):
        grid = make_grid(24)
        got = grid.dtheta(np.full(grid.n_nodes, 7.25))
        assert np.max(np.abs(got)) <= 1e-10

    def test_quadrature_cos_squared(self):
        # integral of cos^2 sin dtheta = [-cos^3/3] = 2/3 by hand
        grid = make_grid(16)
        assert abs(grid.quad_dx(grid.x**2) - 2.0 / 3.0) <= 1e-13

    @settings(deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=31))
    def test_quadrature_exact_for_monomials(self, k):
        # degree up to 2 n - 1 integrates exactly; odd powers vanish
        grid = make_grid(16)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(grid.quad_dx(grid.x**k) - exact) <= 1e-13

    def test_diff_exact_on_interpolation_space(self):
        grid = make_grid(12)
        coeffs = np.array([0.3, -1.2, 0.8, 0.05, -0.4, 0.9, 0.2, -0.6, 0.11, 0.07, -0.2, 0.4])
        vals = npleg.legval(grid.x, coeffs)
        want = npleg.legval(grid.x, npleg.legder(coeffs))
        assert np.max(np.abs(grid.dx(vals) - want)) <= 1e-10

    def test_integral_from_north_of_constant(self):
        grid = make_grid(16)
        got = grid.integral_from_north(np.ones(grid.n_nodes))
        assert np.max(np.abs(got - (1.0 - grid.x))) <= 1e-13

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidParameterError):
            make_grid(3)

    def test_rejects_non_integer(self):
        with pytest.raises(InvalidParameterError):
            make_grid(16.0)


class TestSharedGrid:
    """make_grid builds each size once and hands every caller that Grid."""

    def test_same_size_is_the_same_grid(self):
        assert make_grid(32) is make_grid(32)
        assert make_grid(np.int64(32)) is make_grid(32)
        assert make_grid(16) is not make_grid(32)

    @pytest.mark.parametrize("bad", [16.0, True, np.float64(16.0)])
    def test_non_integer_rejected_after_the_integer_is_cached(self, bad):
        # 16.0 == 16 and hash(16.0) == hash(16), so a cache keyed on the
        # argument would hand back the grid built for 16 or np.int64(16)
        make_grid(16)
        make_grid(np.int64(16))
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make_grid(bad)

    @pytest.mark.parametrize("n", [791, 1099])
    def test_rejected_size_raises_on_every_call(self, n, monkeypatch):
        # 791 fails the accuracy check with the bare product's matrix, which
        # no other test builds at that size; 1099 is past the size limit
        monkeypatch.setattr(geometry, "_differentiation_matrix", unscaled_differentiation_matrix)
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match=f"{n}"):
                make_grid(n)

    def test_grids_compare_and_hash_by_identity(self):
        grid = make_grid(8)
        assert grid == make_grid(8)
        assert grid != make_grid(16)
        assert grid != replace(grid)
        assert {grid: 1}[make_grid(8)] == 1
        assert len({grid, make_grid(8), make_grid(16)}) == 2


class TestProductBits:
    """dx, quad_dx and time_function multiply through np.dot and give the bits of @.

    Pinned with numpy 2.4 on Python 3.11; a BLAS that sums np.dot and @ in
    different orders fails here first.
    """

    @pytest.mark.parametrize("n", [4, 5, 16, 32, 33, 64, 128])
    def test_dot_gives_the_bits_of_matmul(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        for shape in [(n,), (1, n), (2, n), (17, n), (37, n), (99, n)]:
            f = rng.standard_normal(shape)
            assert np.array_equal(grid.dx(f), f @ grid.diff_matrix_x.T), shape
            assert np.array_equal(grid.quad_dx(f), f @ grid.weights), shape
        for count in sorted({1, 2, 3, 8, n - 2} & set(range(1, n - 1))):
            c = rng.standard_normal(count)
            want = np.concatenate(([0.0], c)) @ grid.legendre_vandermonde[:, : count + 1].T
            assert np.array_equal(grid.time_function(c), want), count

    def test_dx_of_integers_is_dx_of_their_floats(self):
        grid = make_grid(16)
        values = list(range(-8, 8))
        assert np.array_equal(grid.dx(values), grid.dx(np.array(values, dtype=float)))


# ---------------------------------------------------------------------------
# metric container
# ---------------------------------------------------------------------------


class TestGridSizeLimit:
    """make_grid rejects a differentiation matrix that misses P_{n-1}' or the
    derivative of e^x sin 3x by more than 1e-9, and any n above 1098.

    The barycentric weights are products of node differences scaled by 2,
    which underflow to NaN past n = 1098; every grid up to there passes both
    checks.  The product of the bare differences, kept in tests/reference.py,
    gives the same matrix to the bit up to n = 774 and loses accuracy from
    n = 790 (e^x sin 3x) and 794 (P_{n-1}) on; the checks reject it there.
    """

    @pytest.mark.parametrize("n", range(4, 129))
    def test_matrix_is_the_unscaled_construction_to_the_bit(self, n):
        x = make_grid(n).x
        assert _differentiation_matrix(x).tobytes() == unscaled_differentiation_matrix(x).tobytes()

    def test_accepted_grid_differentiates_its_top_mode(self):
        n = 1098
        grid = make_grid(n)
        top = np.zeros(n)
        top[-1] = 1.0
        exact = npleg.legval(grid.x, npleg.legder(top))
        error = grid.dx(npleg.legval(grid.x, top)) - exact
        assert np.sqrt((grid.weights @ error**2) / (grid.weights @ exact**2)) <= 1e-9
        assert np.isfinite(grid.diff_matrix_x).all()
        theta_error = grid.dtheta(np.cos(grid.nodes)) + grid.sin_theta
        assert np.sqrt((grid.weights @ theta_error**2) / (grid.weights @ grid.sin_theta**2)) <= 1e-9

    @pytest.mark.parametrize("n", [790, 800, 820, 861])
    def test_sizes_the_bare_product_spoilt_are_accepted(self, n):
        assert make_grid(n).n_nodes == n

    @pytest.mark.parametrize("n", [800, 820, 861])
    def test_inaccurate_grid_is_rejected(self, n, monkeypatch):
        # built past make_grid's cache, with the bare product's matrix
        monkeypatch.setattr(geometry, "_differentiation_matrix", unscaled_differentiation_matrix)
        with pytest.raises(InvalidParameterError, match=f"grid size {n} is too large"):
            geometry._build_grid.__wrapped__(n)

    @pytest.mark.parametrize("n", [790, 793])
    def test_grid_inaccurate_on_a_smooth_function_is_rejected(self, n, monkeypatch):
        # these pass the top-mode check
        monkeypatch.setattr(geometry, "_differentiation_matrix", unscaled_differentiation_matrix)
        with pytest.raises(InvalidParameterError, match=f"grid size {n} is too large: .* e\\^x sin 3x"):
            geometry._build_grid.__wrapped__(n)

    def test_accepted_grid_differentiates_a_smooth_function(self):
        grid = make_grid(1098)
        x = grid.x
        exact = np.exp(x) * (np.sin(3.0 * x) + 3.0 * np.cos(3.0 * x))
        error = grid.dx(np.exp(x) * np.sin(3.0 * x)) - exact
        assert np.sqrt((grid.weights @ error**2) / (grid.weights @ exact**2)) <= 1e-9

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_small_grids_are_checked_on_the_top_mode_only(self, n):
        # e^x sin 3x is not resolved on them; the derivative misses by 2e-9 at n = 16
        assert make_grid(n).n_nodes == n

    def test_next_size_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="at most 1098"):
            make_grid(1099)


class TestAxisymMetric:
    def test_rejects_nonpositive_profile(self):
        grid = make_grid(8)
        P = np.ones(grid.n_nodes)
        Q = np.ones(grid.n_nodes)
        Q[3] = 0.0
        with pytest.raises(InvalidParameterError, match="Q"):
            AxisymMetric(grid, P, Q)

    @pytest.mark.parametrize("value", [1e-39, 2e38])
    def test_rejects_profile_outside_the_length_range(self, value):
        grid = make_grid(8)
        P = np.ones(grid.n_nodes)
        P[5] = value
        with pytest.raises(InvalidParameterError, match=r"P must lie in \[1e-38, 1e\+38\]; P\[5\]"):
            AxisymMetric(grid, P, np.ones(grid.n_nodes))

    def test_rejects_wrong_length(self):
        grid = make_grid(8)
        with pytest.raises(FieldShapeError):
            AxisymMetric(grid, np.ones(9), np.ones(8))

    @pytest.mark.parametrize("name", ["P", "Q"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_profile_naming_field_and_node(self, name, bad):
        grid = make_grid(8)
        profiles = {"P": np.ones(grid.n_nodes), "Q": np.ones(grid.n_nodes)}
        profiles[name][4] = bad
        message = f"{name} must be finite, got {bad} at node 4"
        with pytest.raises(InvalidParameterError, match=message):
            AxisymMetric(grid, profiles["P"], profiles["Q"])

    def test_lifted_metric_shares_the_q_only_fields(self):
        grid = make_grid(16)
        m = round_sphere(grid, 2.0)
        lifted = m._with_P(np.full(grid.n_nodes, 3.0))
        assert lifted.Q is m.Q
        assert lifted.u_prime is m.u_prime
        assert lifted.u_second is m.u_second
        assert np.all(lifted.P == 3.0)

    def test_round_sphere_profiles(self):
        grid = make_grid(8)
        m = round_sphere(grid, 2.5)
        assert np.all(m.P == 2.5) and np.all(m.Q == 2.5)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0])
    def test_round_sphere_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(InvalidParameterError, match="^radius must be positive and finite"):
            round_sphere(make_grid(8), radius)


# each product an AxisymMetric keeps, as the operators formed it inline
INLINE_PRODUCTS = {
    "P_sq": lambda m: m.P**2,
    "Q_sq": lambda m: m.Q**2,
    "PQ": lambda m: m.P * m.Q,
    "P_sq_Q": lambda m: m.P**2 * m.Q,
    "P4_Q": lambda m: m.P**4 * m.Q,
    "P_theta_over_P": lambda m: m.grid.dtheta(m.P) / m.P,
    "flux_factor": lambda m: m.grid.one_minus_x_sq * (m.Q / m.P),
    "weighted_PQ": lambda m: m.grid.weights * m.P * m.Q,
    "weighted_flux_factor": lambda m: m.grid.weights * m.grid.one_minus_x_sq * (m.Q / m.P),
}


class TestMetricProducts:
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("name", sorted(INLINE_PRODUCTS))
    def test_is_the_inline_expression_to_the_bit_and_read_only(self, name, rows):
        m = regular_random_metric(make_grid(16), np.random.default_rng(31))
        if rows is not None:
            m = AxisymMetric(m.grid, m.P * np.linspace(0.9, 1.3, rows)[:, None], m.Q)
        value = getattr(m, name)
        want = INLINE_PRODUCTS[name](m)
        assert value.shape == want.shape
        assert value.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            value[(0,) * value.ndim] = 0.0

    def test_with_P_forms_its_own_products(self):
        m = regular_random_metric(make_grid(16), np.random.default_rng(32))
        base = {name: getattr(m, name) for name in INLINE_PRODUCTS}
        lifted = m._with_P(1.5 * m.P)
        for name, inline in INLINE_PRODUCTS.items():
            assert getattr(lifted, name).tobytes() == inline(lifted).tobytes()
            if name != "Q_sq":
                assert not np.array_equal(getattr(lifted, name), base[name])


class TestLazyField:
    def test_computes_once_and_keeps_the_value_on_the_instance(self):
        calls = []

        class Holder:
            @lazy
            def value(self):
                """The held value."""
                calls.append(self)
                return [1.0]

        holder = Holder()
        assert holder.value is holder.value
        assert calls == [holder]
        assert vars(holder) == {"value": [1.0]}
        assert Holder.value.func.__name__ == "value"
        assert Holder.value.__doc__ == "The held value."

    def test_metric_fields_are_computed_once(self):
        m = round_sphere(make_grid(16), 2.0)
        assert isinstance(AxisymMetric.K, lazy)
        first = m.K
        assert m.K is first
        assert np.array_equal(AxisymMetric.K.func(m), first)


class TestUncheckedKernels:
    """Package code calls private kernels on checked arrays; the public operators give their bits.

    The inline expressions are the operators as written before the grid
    held 1 - x^2, -sin(theta) and -x, so the grid's arrays move no bit.
    """

    @pytest.fixture(params=[None, 3], ids=["field", "stack"])
    def case(self, request):
        grid = make_grid(32)
        rng = np.random.default_rng(11)
        m = regular_random_metric(grid, rng)
        shape = grid.n_nodes if request.param is None else (request.param, grid.n_nodes)
        f = np.sin(1.0 + grid.x) + rng.uniform(-0.1, 0.1, shape) * grid.x**2
        return grid, m, f

    def test_divergence(self, case):
        g, m, omega = case
        kernel = _divergence_from_x_component(m, omega)
        inline = -g.dx((1.0 - g.x * g.x) * (m.Q / m.P) * omega) / (m.P * m.Q)
        assert np.array_equal(kernel, inline)

    def test_laplacian(self, case):
        g, m, f = case
        assert np.array_equal(laplacian(m, f), _divergence_from_x_component(m, -g.dx(f)))

    def test_laplacian_has_the_kernel_bits_and_a_positive_zero(self, case):
        # the Laplacian drops the kernel's two sign flips, which cancel
        # except on an exact zero: the Laplacian of tau = 0 is +0.0
        g, m, f = case
        assert laplacian(m, f).tobytes() == _divergence_from_x_component(m, -g.dx(f)).tobytes()
        zero = np.zeros(f.shape)
        assert np.array_equal(laplacian(m, zero), _divergence_from_x_component(m, -g.dx(zero)))
        assert not np.signbit(laplacian(m, zero)).any()

    def test_hessian(self, case):
        g, m, f = case
        fx = g.dx(f)
        kernel = _hessian(m, fx, -g.sin_theta * fx)
        inline = (-g.x * fx + (1.0 - g.x * g.x) * g.dx(fx)) - (g.dtheta(m.P) / m.P) * (-g.sin_theta * fx)
        assert np.array_equal(kernel, hessian(m, f))
        assert np.array_equal(kernel, inline)

    def test_sin_factored_theta_derivative(self, case):
        g, _, q = case
        kernel = _sin_factored_theta_derivative(g, q)
        assert np.array_equal(kernel, g.x * q - (1.0 - g.x * g.x) * g.dx(q))

    @pytest.mark.parametrize("operator", [laplacian, hessian, hat_gauss_curvature])
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "tau must be finite, got nan at node 3 "),
        (1e300, r"\|tau\| must be at most 1e\+38; tau\[3\] = 1e\+300 "),
    ], ids=["nan", "huge"])
    def test_public_operators_admit_their_field(self, operator, bad, message):
        grid = make_grid(16)
        f = 0.1 * grid.x
        f[3] = bad
        with pytest.raises(InvalidParameterError, match=message):
            operator(round_sphere(grid), f)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


class TestIntegrateSurface:
    def test_area_of_round_sphere(self):
        grid = make_grid(16)
        m = round_sphere(grid, 3.0)
        got = integrate_surface(m, np.ones(grid.n_nodes))
        assert abs(got - 4.0 * np.pi * 9.0) <= 1e-10

    def test_cos_squared_moment(self):
        # integral of cos^2 over the unit sphere = 4 pi / 3 by hand
        grid = make_grid(16)
        m = round_sphere(grid)
        got = integrate_surface(m, grid.x**2)
        assert abs(got - 4.0 * np.pi / 3.0) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        grid = make_grid(8)
        m = round_sphere(grid)
        with pytest.raises(FieldShapeError):
            integrate_surface(m, np.ones(7))


# ---------------------------------------------------------------------------
# Laplacian and friends
# ---------------------------------------------------------------------------


class TestLaplacian:
    def test_eigenfields_on_round_sphere(self):
        # Legendre modes are eigenfields: Delta P_l = -l(l+1) P_l / r^2
        grid = make_grid(32)
        for r in (1.0, 4.0):
            m = round_sphere(grid, r)
            for l in range(1, 17):
                f = legendre_mode(grid, l)
                got = laplacian(m, f)
                want = -l * (l + 1) * f / r**2
                assert np.max(np.abs(got - want)) <= 1e-8, (r, l)

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_every_time_function_mode_is_an_eigenfield(self, n):
        # Delta P_l = -l(l+1) P_l up to Grid.highest_mode = n - 2; the flux
        # (1 - x^2) P_{n-1}' has degree n, beyond the differentiation matrix
        grid = make_grid(n)
        m = round_sphere(grid)
        assert grid.highest_mode == n - 2
        for l in range(1, n):
            f = legendre_mode(grid, l)
            want = -l * (l + 1) * f
            error = np.max(np.abs(laplacian(m, f) - want)) / np.max(np.abs(want))
            assert error <= 1e-10 if l <= grid.highest_mode else error >= 1.0, (l, error)

    def test_integrates_to_zero(self):
        grid = make_grid(32)
        rng = np.random.default_rng(7)
        m = regular_random_metric(grid, rng)
        f = npleg.legval(grid.x, rng.uniform(-0.5, 0.5, 6))
        assert abs(integrate_surface(m, laplacian(m, f))) <= 1e-9

    def test_self_adjoint(self):
        grid = make_grid(32)
        rng = np.random.default_rng(11)
        m = regular_random_metric(grid, rng)
        f = npleg.legval(grid.x, rng.uniform(-0.5, 0.5, 5))
        g = npleg.legval(grid.x, rng.uniform(-0.5, 0.5, 7))
        lhs = integrate_surface(m, f * laplacian(m, g))
        rhs = integrate_surface(m, g * laplacian(m, f))
        assert abs(lhs - rhs) <= 1e-9

    def test_divergence_helper_matches_laplacian(self):
        grid = make_grid(20)
        rng = np.random.default_rng(3)
        m = regular_random_metric(grid, rng)
        f = npleg.legval(grid.x, rng.uniform(-0.5, 0.5, 5))
        got = _divergence_from_x_component(m, -grid.dx(f))
        assert np.max(np.abs(got - laplacian(m, f))) <= 1e-12


class TestGradientAndPairing:
    def test_gradient_norm_on_round_sphere(self):
        grid = make_grid(16)
        m = round_sphere(grid, 2.0)
        f = 0.3 * grid.x
        want = (0.3 * grid.sin_theta / 2.0) ** 2
        assert np.max(np.abs(evaluate(m, f).grad_sq - want)) <= 1e-12

    def test_pairing_against_explicit_formula(self):
        grid = make_grid(16)
        m = round_sphere(grid)
        f = 0.4 * grid.x
        alpha = 0.2 * grid.sin_theta
        want = 0.2 * grid.sin_theta * (-0.4 * grid.sin_theta)
        got = evaluate(m, f).pairing(alpha)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestHessian:
    def test_unit_sphere_cos_theta(self):
        grid = make_grid(16)
        m = round_sphere(grid)
        assert np.max(np.abs(hessian(m, grid.x) + grid.x)) <= 1e-10
        assert np.max(np.abs(hessian_phi_phi(m, grid.x) + grid.sin_theta**2 * grid.x)) <= 1e-10

    def test_trace_is_laplacian(self):
        grid = make_grid(32)
        rng = np.random.default_rng(19)
        for _ in range(5):
            m = regular_random_metric(grid, rng)
            f = npleg.legval(grid.x, np.concatenate([[0.0], rng.uniform(-0.3, 0.3, 6)]))
            hess_pp = hessian_phi_phi(m, f)
            assert np.max(np.abs(trace(m, hessian(m, f), hess_pp) - laplacian(m, f))) <= 1e-9
            # the package's form of Hess_pp / u^2, the sin(theta) cancelled
            u = m.Q * grid.sin_theta
            cancelled = -m.u_prime * grid.dx(f) / (m.P**2 * m.Q)
            assert np.max(np.abs(hess_pp / u**2 - cancelled)) <= 1e-9


class TestSinFactoredDerivative:
    def test_matches_product_rule_on_sphere(self):
        # d/dtheta (Q sin) with Q = 1 is cos(theta)
        grid = make_grid(16)
        got = _sin_factored_theta_derivative(grid, np.ones(grid.n_nodes))
        assert np.max(np.abs(got - grid.x)) <= 1e-12


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


class TestGaussCurvature:
    def test_round_sphere(self):
        grid = make_grid(16)
        for r in (1.0, 4.0):
            m = round_sphere(grid, r)
            got = gauss_curvature(m)
            assert np.max(np.abs(got - 1.0 / r**2)) <= 1e-10

    def test_gauss_bonnet(self):
        grid = make_grid(32)
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = regular_random_metric(grid, rng)
            total = integrate_surface(m, gauss_curvature(m))
            assert abs(total - 4.0 * np.pi) <= 1e-8


class TestHatGaussCurvature:
    def test_reduces_to_gauss_curvature_at_zero_tau(self):
        grid = make_grid(24)
        rng = np.random.default_rng(31)
        m = regular_random_metric(grid, rng)
        got = hat_gauss_curvature(m, np.zeros(grid.n_nodes))
        assert np.max(np.abs(got - gauss_curvature(m))) <= 1e-12

    def test_boosted_unit_sphere_closed_form(self):
        # tau = eps cos(theta) turns the unit sphere data into a prolate
        # spheroid with semi-axes (1, 1, sqrt(1 + eps^2)); its curvature is
        # (1 + eps^2) / (1 + eps^2 sin^2)^2, derived by hand from the
        # principal curvatures.
        grid = make_grid(24)
        m = round_sphere(grid)
        eps = 0.3
        tau = eps * grid.x
        phat_sq = 1.0 + eps**2 * grid.sin_theta**2
        want = (1.0 + eps**2) / phat_sq**2
        got = hat_gauss_curvature(m, tau)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_matches_direct_assembly(self):
        # same curvature through the augmented metric built explicitly
        grid = make_grid(32)
        rng = np.random.default_rng(37)
        m = regular_random_metric(grid, rng, scale=0.1)
        tau = npleg.legval(grid.x, [0.0, 0.25, 0.1, -0.05])
        tau_theta = grid.dtheta(tau)
        phat = np.sqrt(m.P**2 + tau_theta**2)
        direct = gauss_curvature(AxisymMetric(grid, phat, m.Q))
        got = hat_gauss_curvature(m, tau)
        assert np.max(np.abs(got - direct)) <= 1e-7

    def test_matches_the_phi_phi_hessian(self):
        # det(Hess tau) from both components, sin(theta) factors in place,
        # against the package's cancelled form of Hess_pp / (Q sin)^2
        grid = make_grid(32)
        rng = np.random.default_rng(41)
        m = regular_random_metric(grid, rng, scale=0.1)
        tau = npleg.legval(grid.x, [0.0, 0.25, 0.1, -0.05])
        gsq = (grid.dtheta(tau) / m.P) ** 2
        u = m.Q * grid.sin_theta
        det = hessian(m, tau) * hessian_phi_phi(m, tau) / (m.P**2 * u**2)
        want = (gauss_curvature(m) + det / (1.0 + gsq)) / (1.0 + gsq)
        assert np.max(np.abs(hat_gauss_curvature(m, tau) - want)) <= 1e-9

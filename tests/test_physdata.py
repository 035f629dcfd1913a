"""Physical data families, the lift Minkowski data keeps, and the table round trip."""

import dataclasses
import re

import numpy as np
import pytest

import quasilocal.embedding as embedding_module
from conftest import MODE_WEIGHTS, legendre_mode, regular_random_metric, random_time_profile
from reference import canonical_gauge
from quasilocal.geometry import (
    AxisymMetric,
    FieldShapeError,
    InvalidParameterError,
    _divergence_from_x_component,
    laplacian,
    make_grid,
    round_sphere,
)
from quasilocal.embedding import embed_r3, evaluate, mean_curvature
from quasilocal.energy import breve_gauge, qle, qle_angle_form, residual
from quasilocal.optimize import TauCoefficients, energy_gradient, tau_from_coefficients
from quasilocal.physdata import (
    DataFormatError,
    HorizonError,
    PhysicalData,
    load_physical_data,
    minkowski_surface_data,
    schwarzschild_sphere,
    store_physical_data,
)


class TestSchwarzschildSphere:
    def test_closed_form_norm(self):
        # (2/r) sqrt(1 - 2m/r) = 0.5 sqrt(0.5) by hand for m=1, r=4
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        assert np.max(np.abs(d.norm_H - 0.35355339059327373)) <= 1e-16
        assert np.max(np.abs(d.alpha_H)) == 0.0

    def test_zero_mass_matches_flat_sphere(self):
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 0.0, 1.0)
        flat = minkowski_surface_data(round_sphere(grid), np.zeros(16))
        assert np.max(np.abs(d.norm_H - flat.norm_H)) <= 5e-12
        assert np.max(np.abs(d.norm_H - 2.0)) == 0.0

    def test_horizon_rejected(self):
        grid = make_grid(8)
        with pytest.raises(HorizonError):
            schwarzschild_sphere(grid, 1.0, 2.0)
        with pytest.raises(HorizonError):
            schwarzschild_sphere(grid, 1.0, 1.5)
        with pytest.raises(InvalidParameterError):
            schwarzschild_sphere(grid, -0.5, 4.0)

    @pytest.mark.parametrize(
        "mass, radius, name",
        [(np.nan, 4.0, "mass"), (np.inf, 4.0, "mass"),
         (1.0, np.nan, "radius"), (1.0, np.inf, "radius")],
    )
    def test_nonfinite_mass_or_radius_named(self, mass, radius, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be") as caught:
            schwarzschild_sphere(make_grid(8), mass, radius)
        assert type(caught.value) is InvalidParameterError

    def test_euclidean_mean_curvature_dominates(self):
        # the embedded radius-r sphere has H0 = 2/r, strictly above |H|
        # for positive mass
        grid = make_grid(32)
        for mass, radius in ((0.3, 1.0), (1.0, 4.0), (1.0, 2.2)):
            d = schwarzschild_sphere(grid, mass, radius)
            h0 = mean_curvature(embed_r3(d.metric))
            assert np.all(h0 - d.norm_H > 0.0)
            assert np.all(d.norm_H > 0.0)


class TestMinkowskiSurfaceData:
    def test_sphere_at_rest(self):
        grid = make_grid(32)
        d = minkowski_surface_data(round_sphere(grid), np.zeros(32))
        assert np.max(np.abs(d.norm_H - 2.0)) <= 5e-12
        assert np.max(np.abs(d.alpha_H)) <= 1e-12

    def test_time_translation_invariance(self):
        grid = make_grid(32)
        m = regular_random_metric(grid, np.random.default_rng(2))
        at_rest = minkowski_surface_data(m, np.zeros(32))
        shifted = minkowski_surface_data(m, np.full(32, -1.75))
        assert np.max(np.abs(at_rest.norm_H - shifted.norm_H)) <= 1e-12
        # differentiating the constant offset leaves O(n^2 eps) noise that
        # the frame rapidity inherits
        assert np.max(np.abs(at_rest.alpha_H - shifted.alpha_H)) <= 1e-10

    def test_tilted_sphere_norm(self):
        # boosts of the round sphere keep <H, H> = 4; the decomposition
        # through the base height must agree pointwise
        grid = make_grid(32)
        m = round_sphere(grid)
        tau0 = 0.3 * grid.x
        d = minkowski_surface_data(m, tau0)
        assert np.max(np.abs(d.norm_H**2 - 4.0)) <= 1e-10

        base = embed_r3(m)
        w_v = base.v_prime / grid.sin_theta
        tau_x = grid.dx(tau0)
        lap_v = _divergence_from_x_component(m, w_v)
        lap_tau = laplacian(m, tau0)
        gap = (w_v * lap_tau + tau_x * lap_v) ** 2 / (w_v**2 + tau_x**2)
        assert np.max(np.abs(d.norm_H**2 - (4.0 - gap))) <= 1e-8


LADDER_SIZES = (16, 32, 64, 128)


def lift_data(n, seed=5):
    """Minkowski data of a random surface at the time function of random modes 1..3."""
    grid = make_grid(n)
    rng = np.random.default_rng(seed)
    m = regular_random_metric(grid, rng)
    coeffs = TauCoefficients(0.1 * rng.uniform(-1.0, 1.0, 3) / MODE_WEIGHTS)
    tau0 = tau_from_coefficients(grid, coeffs)
    return minkowski_surface_data(m, tau0), tau0, coeffs


@pytest.fixture
def lifted(monkeypatch):
    """The list that grows by one entry per embed_r3 call, i.e. per lift."""
    calls = []
    original = embedding_module.embed_r3

    def counting_embed_r3(m):
        calls.append(None)
        return original(m)

    monkeypatch.setattr(embedding_module, "embed_r3", counting_embed_r3)
    return calls


class TestSharedLift:
    def test_data_at_its_own_time_function_lifts_once(self, lifted):
        d, tau0, coeffs = lift_data(32)
        qle(d, tau0)
        residual(d, tau0)
        energy_gradient(d, coeffs)
        assert len(lifted) == 1
        plain = dataclasses.replace(d)
        qle(plain, tau0)
        residual(plain, tau0)
        energy_gradient(plain, coeffs)
        assert len(lifted) == 4

    @pytest.mark.parametrize("n", LADDER_SIZES)
    def test_results_are_bit_identical_to_a_fresh_lift(self, n):
        d, tau0, coeffs = lift_data(n)
        plain = dataclasses.replace(d)
        assert plain.evaluate(tau0) is not d.lift
        for form in (qle, qle_angle_form):
            shared, fresh = form(d, tau0), form(plain, tau0)
            assert shared.reference_term == fresh.reference_term
            assert shared.physical_term == fresh.physical_term
        assert residual(d, tau0).tobytes() == residual(plain, tau0).tobytes()
        assert energy_gradient(d, coeffs).tobytes() == energy_gradient(plain, coeffs).tobytes()
        shared, fresh = canonical_gauge(d, tau0), canonical_gauge(plain, tau0)
        assert shared.inner_h.tobytes() == fresh.inner_h.tobytes()
        assert shared.alpha.tobytes() == fresh.alpha.tobytes()

    def test_lift_is_served_for_equal_bits_only(self):
        d, tau0, _ = lift_data(32)
        assert d.evaluate(tau0) is d.lift
        assert d.evaluate(tau0.copy()) is d.lift
        assert d.evaluate(d.lift) is d.lift
        other = evaluate(d.metric, tau0)
        assert d.evaluate(other) is other

    def test_caller_changing_tau0_in_place_is_not_served(self):
        grid = make_grid(32)
        m = regular_random_metric(grid, np.random.default_rng(6))
        tau0 = random_time_profile(grid, np.random.default_rng(7))
        kept = tau0.copy()
        d = minkowski_surface_data(m, tau0)
        tau0 += 0.01
        assert d.lift.tau.tobytes() == kept.tobytes()
        assert d.evaluate(tau0) is not d.lift
        plain = dataclasses.replace(d)
        assert qle(d, tau0) == qle(plain, tau0)
        with pytest.raises(ValueError):
            d.lift.tau[0] = 0.0

    def test_negative_zero_is_not_served(self):
        grid = make_grid(32)
        m = regular_random_metric(grid, np.random.default_rng(6))
        tau0 = np.zeros(32)
        d = minkowski_surface_data(m, tau0)
        flipped = tau0.copy()
        flipped[5] = -0.0
        assert np.array_equal(flipped, tau0)
        assert d.evaluate(flipped) is not d.lift

    @pytest.mark.parametrize("shape", ["stack", "row", "shifted"])
    def test_other_fields_and_stacks_are_not_served(self, shape):
        d, tau0, _ = lift_data(32)
        tau = {
            "stack": np.stack([tau0, tau0]),
            "row": tau0[None, :],
            "shifted": tau0 + 1e-3,
        }[shape]
        ev = d.evaluate(tau)
        assert ev is not d.lift
        assert ev.tau.shape == tau.shape

    def test_lift_is_not_a_constructor_argument(self):
        d, _, _ = lift_data(16)
        init = [f.name for f in dataclasses.fields(PhysicalData) if f.init]
        assert init == ["metric", "norm_H", "alpha_H"]
        with pytest.raises(TypeError):
            PhysicalData(d.metric, d.norm_H, d.alpha_H, lift=d.lift)
        with pytest.raises(ValueError):
            dataclasses.replace(d, lift=d.lift)

    def test_an_evaluation_is_not_kept(self):
        # data takes node values only and lifts its own copy of them, so
        # changing the caller's array in place leaves the kept lift as it was
        grid = make_grid(16)
        m = round_sphere(grid)
        tau = legendre_mode(grid, 2, 0.1)
        with pytest.raises(TypeError):
            minkowski_surface_data(m, evaluate(m, tau))
        d = minkowski_surface_data(m, evaluate(m, tau).tau)
        assert not np.shares_memory(d.lift.tau, tau)
        tau[:] = legendre_mode(grid, 2, 0.2)
        assert qle(d, tau).total == qle(dataclasses.replace(d), tau).total
        assert abs(qle(d, tau).total - 0.1425) < 1e-3

    def test_lift_stays_out_of_repr(self):
        d, _, _ = lift_data(16)
        assert "lift" not in repr(d)
        assert dataclasses.replace(d).lift is None


class TestValidation:
    def test_nonpositive_norm_rejected(self):
        grid = make_grid(8)
        bad = np.ones(8)
        bad[3] = 0.0
        with pytest.raises(InvalidParameterError, match="node 3"):
            PhysicalData(round_sphere(grid), bad, np.zeros(8))

    def test_nonfinite_norm_rejected(self):
        grid = make_grid(8)
        bad = np.ones(8)
        bad[2] = np.nan
        with pytest.raises(InvalidParameterError, match="normH must be finite, got nan at node 2"):
            PhysicalData(round_sphere(grid), bad, np.zeros(8))

    def test_nonfinite_alpha_rejected(self):
        grid = make_grid(8)
        alpha = np.zeros(8)
        alpha[6] = -np.inf
        with pytest.raises(InvalidParameterError, match="alpha_theta must be finite, got -inf at node 6"):
            PhysicalData(round_sphere(grid), np.ones(8), alpha)

    @pytest.mark.parametrize("value, shown", [(1e300, "1e+300"), (1e39, "1e+39"), (1e-39, "1e-39")])
    def test_norm_outside_the_length_range_named(self, value, shown):
        # admitted, |H| = 1e300 would overflow qle's physical term to inf
        grid = make_grid(8)
        bad = np.ones(8)
        bad[3] = value
        message = f"normH must lie in [1e-38, 1e+38]; normH[3] = {shown} at theta = {grid.nodes[3]}"
        with pytest.raises(InvalidParameterError, match="^" + re.escape(message) + "$"):
            PhysicalData(round_sphere(grid), bad, np.zeros(8))

    @pytest.mark.parametrize("value, shown", [(1e300, "1e+300"), (-1e39, "-1e+39")])
    def test_alpha_beyond_the_length_bound_named(self, value, shown):
        grid = make_grid(8)
        alpha = np.zeros(8)
        alpha[6] = value
        message = f"|alpha_theta| must be at most 1e+38; alpha_theta[6] = {shown} at theta = {grid.nodes[6]}"
        with pytest.raises(InvalidParameterError, match="^" + re.escape(message) + "$"):
            PhysicalData(round_sphere(grid), np.ones(8), alpha)

    def test_a_stack_of_profiles_is_rejected_naming_P(self):
        # normH and alpha_H are single fields; a stacked P used to fail later, naming no field
        grid = make_grid(16)
        m = AxisymMetric(grid, np.ones((2, 16)), np.ones(16))
        message = r"^P has shape \(2, 16\), expected \(16,\) for this grid$"
        with pytest.raises(FieldShapeError, match=message):
            PhysicalData(m, np.ones(16), np.zeros(16))

    def test_values_at_the_bounds_are_admitted(self):
        grid = make_grid(8)
        norm = np.array([1e-38, 1e38] * 4)
        alpha = np.array([-1e38, 1e38] * 4)
        d = PhysicalData(round_sphere(grid), norm, alpha)
        assert np.all(d.norm_H == norm) and np.all(d.alpha_H == alpha)


class TestTableRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        path = tmp_path / "sphere.dat"
        store_physical_data(d, path)
        back = load_physical_data(path)
        assert np.array_equal(back.metric.P, d.metric.P)
        assert np.array_equal(back.metric.Q, d.metric.Q)
        assert np.array_equal(back.norm_H, d.norm_H)
        assert np.array_equal(back.alpha_H, d.alpha_H)

    def test_loaded_table_shares_the_grid(self, tmp_path):
        # a --data run reuses the grid its --grid-n built instead of a second copy
        d = schwarzschild_sphere(make_grid(24), 1.0, 4.0)
        path = tmp_path / "sphere.dat"
        store_physical_data(d, path)
        assert load_physical_data(path).metric.grid is make_grid(24)

    def test_round_trip_generic_data(self, tmp_path):
        grid = make_grid(24)
        rng = np.random.default_rng(9)
        m = regular_random_metric(grid, rng)
        d = minkowski_surface_data(m, random_time_profile(grid, rng))
        path = tmp_path / "generic.dat"
        store_physical_data(d, path)
        back = load_physical_data(path)
        assert np.array_equal(back.norm_H, d.norm_H)
        assert np.array_equal(back.alpha_H, d.alpha_H)

    def test_commas_accepted(self, tmp_path):
        grid = make_grid(8)
        d = schwarzschild_sphere(grid, 0.0, 1.0)
        path = tmp_path / "commas.dat"
        store_physical_data(d, path)
        text = path.read_text().replace(" ", ",")
        path.write_text(text.replace("#,n=8", "# n=8").replace("theta,P", "theta P", 1))
        # header row keeps one separator style, data rows are commas
        back = load_physical_data(path)
        assert np.array_equal(back.norm_H, d.norm_H)

    def _write_rows(self, tmp_path, rows, n=8):
        path = tmp_path / "table.dat"
        lines = [f"# n={n}", "theta P Q normH alpha_theta"] + rows
        path.write_text("\n".join(lines) + "\n")
        return path

    def _valid_rows(self, n=8):
        grid = make_grid(n)
        return [
            f"{grid.nodes[i]:.17g} 1 1 2 0" for i in range(n)
        ]

    def test_row_count_mismatch(self, tmp_path):
        rows = self._valid_rows()[:-1]
        with pytest.raises(DataFormatError, match="7 rows"):
            load_physical_data(self._write_rows(tmp_path, rows))

    def test_zero_norm_row_named(self, tmp_path):
        rows = self._valid_rows()
        rows[5] = rows[5].rsplit(" ", 2)[0] + " 0 0"
        with pytest.raises(DataFormatError, match=r"^normH must be positive; normH = 0.0 at node 5$"):
            load_physical_data(self._write_rows(tmp_path, rows))

    @pytest.mark.parametrize(
        "column, value", [(1, "inf"), (2, "-inf"), (3, "nan"), (4, "inf")]
    )
    def test_nonfinite_value_named(self, tmp_path, column, value):
        rows = self._valid_rows()
        parts = rows[3].split()
        parts[column] = value
        rows[3] = " ".join(parts)
        name = ("theta", "P", "Q", "normH", "alpha_theta")[column]
        with pytest.raises(DataFormatError, match=f"^{name} must be finite, got {value} at node 3 "):
            load_physical_data(self._write_rows(tmp_path, rows))

    @pytest.mark.parametrize(
        "column, value, shown",
        [(1, "1e39", "1e+39"), (1, "1e-39", "1e-39"), (2, "1e39", "1e+39"), (2, "0", "0.0")],
    )
    def test_profile_outside_the_length_range_named(self, tmp_path, column, value, shown):
        # the loader used to let these through to AxisymMetric's InvalidParameterError
        rows = self._valid_rows()
        parts = rows[3].split()
        parts[column] = value
        rows[3] = " ".join(parts)
        name = ("theta", "P", "Q")[column]
        message = f"{name} must lie in [1e-38, 1e+38]; {name}[3] = {shown} at theta = "
        with pytest.raises(DataFormatError, match="^" + re.escape(message)):
            load_physical_data(self._write_rows(tmp_path, rows))

    @pytest.mark.parametrize(
        "column, message",
        [
            (3, "normH must lie in [1e-38, 1e+38]; normH[3] = 1e+300 at theta = "),
            (4, "|alpha_theta| must be at most 1e+38; alpha_theta[3] = 1e+300 at theta = "),
        ],
    )
    def test_data_outside_the_length_range_named(self, tmp_path, column, message):
        rows = self._valid_rows()
        parts = rows[3].split()
        parts[column] = "1e300"
        rows[3] = " ".join(parts)
        with pytest.raises(DataFormatError, match="^" + re.escape(message)):
            load_physical_data(self._write_rows(tmp_path, rows))

    def test_non_numeric_field_named(self, tmp_path):
        rows = self._valid_rows()
        rows[2] = rows[2].rsplit(" ", 1)[0] + " zz"
        with pytest.raises(DataFormatError, match="row 2, column alpha_theta"):
            load_physical_data(self._write_rows(tmp_path, rows))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "table.dat"
        path.write_text("# n=2\ntheta P Q H alpha\n0.5 1 1 2 0\n1.0 1 1 2 0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_physical_data(path)

    def test_missing_declaration_rejected(self, tmp_path):
        path = tmp_path / "table.dat"
        path.write_text("theta P Q normH alpha_theta\n")
        with pytest.raises(DataFormatError, match="declaration"):
            load_physical_data(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "table.dat"
        path.write_text("# n=32\n")
        with pytest.raises(DataFormatError, match="missing header"):
            load_physical_data(path)

    @pytest.mark.parametrize("theta", ["0.123", "nan", "inf"])
    def test_node_mismatch_rejected(self, tmp_path, theta):
        rows = self._valid_rows()
        parts = rows[4].split()
        parts[0] = theta
        rows[4] = " ".join(parts)
        with pytest.raises(DataFormatError, match="row 4, column theta"):
            load_physical_data(self._write_rows(tmp_path, rows))

    @pytest.mark.parametrize("n", [0, 2])
    def test_unbuildable_declared_size_names_the_declaration(self, tmp_path, n):
        rows = ["0.5 1 1 2 0"] * n
        with pytest.raises(DataFormatError, match=rf"^grid declaration '# n={n}': .*at least 4"):
            load_physical_data(self._write_rows(tmp_path, rows, n=n))

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "table.dat"
        path.write_bytes(b"# n=2\ntheta P Q normH alpha_theta\n\xff\xfe 1 1 2 0\n\x81 1 1 2 0\n")
        with pytest.raises(DataFormatError):
            load_physical_data(path)


# one of each dataclass with array fields, built afresh by each call
ARRAY_DATACLASSES = {
    "PhysicalData": lambda g: schwarzschild_sphere(g, 1.0, 4.0),
    "AxisymMetric": round_sphere,
    "RevolutionSurface": lambda g: embed_r3(round_sphere(g)),
    "GaugeData": lambda g: breve_gauge(evaluate(round_sphere(g), 0.3 * g.x)),
}


@pytest.mark.parametrize("kind", ARRAY_DATACLASSES)
def test_array_dataclasses_compare_by_identity(kind):
    # value equality would compare arrays elementwise and raise
    x, y = (ARRAY_DATACLASSES[kind](make_grid(16)) for _ in range(2))
    assert type(x).__name__ == kind
    assert x == x and (x == y) is False
    assert hash(x) == hash(x)

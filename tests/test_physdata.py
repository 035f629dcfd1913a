"""Physical data families and the table round trip."""

import numpy as np
import pytest

from conftest import regular_random_metric, random_time_profile
from quasilocal.geometry import (
    InvalidParameterError,
    OneForm,
    make_grid,
    round_sphere,
)
from quasilocal.embedding import embed_r3, mean_curvature
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
        assert np.max(np.abs(d.alpha_H.theta)) == 0.0
        assert d.provenance == "schwarzschild"

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
        assert np.max(np.abs(d.alpha_H.theta)) <= 1e-12
        assert d.provenance == "minkowski"

    def test_time_translation_invariance(self):
        grid = make_grid(32)
        m = regular_random_metric(grid, np.random.default_rng(2))
        at_rest = minkowski_surface_data(m, np.zeros(32))
        shifted = minkowski_surface_data(m, np.full(32, -1.75))
        assert np.max(np.abs(at_rest.norm_H - shifted.norm_H)) <= 1e-12
        # differentiating the constant offset leaves O(n^2 eps) noise that
        # the frame rapidity inherits
        assert np.max(np.abs(at_rest.alpha_H.theta - shifted.alpha_H.theta)) <= 1e-10

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
        from quasilocal.geometry import divergence_from_x_component

        lap_v = divergence_from_x_component(m, w_v)
        lap_tau = divergence_from_x_component(m, -tau_x)
        gap = (w_v * lap_tau + tau_x * lap_v) ** 2 / (w_v**2 + tau_x**2)
        assert np.max(np.abs(d.norm_H**2 - (4.0 - gap))) <= 1e-8


class TestValidation:
    def test_nonpositive_norm_rejected(self):
        grid = make_grid(8)
        bad = np.ones(8)
        bad[3] = 0.0
        with pytest.raises(InvalidParameterError, match="node 3"):
            PhysicalData(round_sphere(grid), bad, OneForm(np.zeros(8)), "file")

    def test_nonfinite_norm_rejected(self):
        grid = make_grid(8)
        bad = np.ones(8)
        bad[2] = np.nan
        with pytest.raises(InvalidParameterError, match="normH must be finite, got nan at node 2"):
            PhysicalData(round_sphere(grid), bad, OneForm(np.zeros(8)), "file")

    def test_nonfinite_alpha_rejected(self):
        grid = make_grid(8)
        alpha = np.zeros(8)
        alpha[6] = -np.inf
        with pytest.raises(InvalidParameterError, match="alpha_theta must be finite, got -inf at node 6"):
            PhysicalData(round_sphere(grid), np.ones(8), OneForm(alpha), "file")


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
        assert np.array_equal(back.alpha_H.theta, d.alpha_H.theta)
        assert back.provenance == "file"

    def test_round_trip_generic_data(self, tmp_path):
        grid = make_grid(24)
        rng = np.random.default_rng(9)
        m = regular_random_metric(grid, rng)
        d = minkowski_surface_data(m, random_time_profile(grid, rng))
        path = tmp_path / "generic.dat"
        store_physical_data(d, path)
        back = load_physical_data(path)
        assert np.array_equal(back.norm_H, d.norm_H)
        assert np.array_equal(back.alpha_H.theta, d.alpha_H.theta)

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
        with pytest.raises(DataFormatError, match="row 5, column normH"):
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
        with pytest.raises(DataFormatError, match=f"row 3, column {name}: not finite"):
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

    def test_node_mismatch_rejected(self, tmp_path):
        rows = self._valid_rows()
        parts = rows[4].split()
        parts[0] = "0.123"
        rows[4] = " ".join(parts)
        with pytest.raises(DataFormatError, match="row 4, column theta"):
            load_physical_data(self._write_rows(tmp_path, rows))

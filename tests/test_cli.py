"""Command line behavior: parsing, exit codes, report determinism."""

import warnings

import numpy as np
import pytest

from quasilocal.cli import CliValidationError, main, parse_tau
from quasilocal.geometry import make_grid
from quasilocal.physdata import load_physical_data, schwarzschild_sphere, store_physical_data
from quasilocal.verify import check_theorem1, format_report, legendre_mode

SPHERE_ENERGY = 32.0 * np.pi * (1.0 - np.sqrt(0.5))


def report_value(text, key):
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key!r} not in report:\n{text}")


class TestTauGrammar:
    def test_zero_spec(self):
        grid = make_grid(16)
        assert np.all(parse_tau("zero", grid) == 0.0)

    def test_mode_sum_matches_legendre_synthesis(self):
        grid = make_grid(16)
        tau = parse_tau("0.3*P1+0.1*P2", grid)
        expected = legendre_mode(grid, 1, 0.3) + legendre_mode(grid, 2, 0.1)
        assert np.max(np.abs(tau - expected)) < 1e-15

    def test_signs_exponents_and_constants(self):
        grid = make_grid(16)
        tau = parse_tau("-0.5*P1+2e-2*P3+1.5", grid)
        expected = legendre_mode(grid, 1, -0.5) + legendre_mode(grid, 3, 0.02) + 1.5
        assert np.max(np.abs(tau - expected)) < 1e-15

    def test_unparseable_term_names_the_field(self):
        grid = make_grid(16)
        with pytest.raises(CliValidationError, match="--tau"):
            parse_tau("0.3*Q1", grid)

    def test_unresolved_mode_rejected(self):
        grid = make_grid(8)
        with pytest.raises(CliValidationError, match="P12"):
            parse_tau("0.1*P12", grid)

    def test_file_specs_node_values_and_pairs(self, tmp_path):
        grid = make_grid(16)
        field = legendre_mode(grid, 1, 0.3)
        nodes = tmp_path / "nodes.txt"
        pairs = tmp_path / "pairs.txt"
        np.savetxt(nodes, field)
        np.savetxt(pairs, np.column_stack([grid.nodes, field]))
        assert np.max(np.abs(parse_tau(f"file:{nodes}", grid) - field)) == 0.0
        assert np.max(np.abs(parse_tau(f"file:{pairs}", grid) - field)) == 0.0

    def test_file_with_wrong_grid_rejected(self, tmp_path):
        grid = make_grid(16)
        path = tmp_path / "short.txt"
        np.savetxt(path, np.zeros(12))
        with pytest.raises(CliValidationError, match="16 node values"):
            parse_tau(f"file:{path}", grid)


class TestEnergyCommand:
    def test_schwarzschild_closed_form(self, capsys):
        assert main(["energy", "--schwarzschild", "m=1,r=4", "--tau", "zero"]) == 0
        text = capsys.readouterr().out
        total = float(report_value(text, "total"))
        assert abs(total - SPHERE_ENERGY) <= 1e-10 * SPHERE_ENERGY
        assert float(report_value(text, "cross_check_deviation")) <= 1e-10

    def test_flat_sphere_is_zero(self, capsys):
        assert main(["energy", "--schwarzschild", "m=0,r=1", "--tau", "zero"]) == 0
        assert abs(float(report_value(capsys.readouterr().out, "total"))) <= 1e-10

    def test_minkowski_zero_point(self, capsys):
        argv = ["energy", "--minkowski", "tau0=0.3*P1", "--tau", "0.3*P1"]
        assert main(argv) == 0
        assert abs(float(report_value(capsys.readouterr().out, "total"))) <= 1e-8

    def test_report_file_and_header(self, tmp_path, capsys):
        out = tmp_path / "energy.txt"
        argv = ["energy", "--schwarzschild", "m=1,r=4", "--out", str(out)]
        assert main(argv) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        text = out.read_text()
        assert report_value(text, "artifact") == "quasilocal 0.1.0"
        assert report_value(text, "grid_n") == "32"
        assert report_value(text, "source") == "schwarzschild m=1,r=4"


class TestResidualCommand:
    def test_round_sphere_is_critical(self, capsys):
        assert main(["residual", "--schwarzschild", "m=1,r=4", "--tau", "zero"]) == 0
        assert float(report_value(capsys.readouterr().out, "residual_l2")) <= 1e-10

    def test_columns_file(self, tmp_path):
        cols = tmp_path / "res.cols"
        argv = ["residual", "--schwarzschild", "m=1,r=4", "--tau", "0.1*P2",
                "--grid-n", "24", "--columns", str(cols)]
        assert main(argv) == 0
        table = np.loadtxt(cols)
        assert table.shape == (24, 2)
        assert np.max(np.abs(table[:, 0] - make_grid(24).nodes)) < 1e-15


class TestTimelikeLiftMeanCurvature:
    @pytest.mark.parametrize("command", ["residual", "minimize"])
    def test_command_reads_only_the_projection(self, command, capsys):
        # the guard holds at 0.7 P2 on the unit sphere, but <H, H> of the
        # lift itself is negative at the equator
        assert main([command, "--schwarzschild", "m=0,r=1", "--tau", "0.7*P2"]) == 0
        assert "error" not in capsys.readouterr().err


class TestMinimizeCommand:
    def test_descends_to_the_round_point(self, capsys):
        argv = ["minimize", "--schwarzschild", "m=1,r=4", "--tau", "0.05*P2",
                "--grid-n", "24"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert abs(float(report_value(text, "energy")) - SPHERE_ENERGY) <= 1e-7
        assert float(report_value(text, "residual_norm")) <= 1e-6
        assert float(report_value(text, "calibration_rel_error")) <= 1e-5
        assert report_value(text, "guard_active") == "false"
        assert int(report_value(text, "iterations")) >= 1
        assert report_value(text, "trace.0") == report_value(text, "initial_energy")

    def test_guard_violation_exits_with_margin(self, capsys):
        argv = ["minimize", "--schwarzschild", "m=1,r=4", "--tau", "3*P3",
                "--grid-n", "24"]
        assert main(argv) == 2
        assert "margin" in capsys.readouterr().err

    def test_init_above_mode_budget_rejected(self, capsys):
        argv = ["minimize", "--schwarzschild", "m=1,r=4", "--tau", "0.05*P9"]
        assert main(argv) == 1
        assert "--tau" in capsys.readouterr().err

    def test_negative_tolerance_rejected(self, capsys):
        argv = ["minimize", "--schwarzschild", "m=1,r=4", "--tol", "-1"]
        assert main(argv) == 1
        assert "--tol" in capsys.readouterr().err


class TestVerifyCommand:
    def test_identity_suite_passes(self, capsys):
        argv = ["verify", "--suite", "identities", "--metric", "unit-sphere",
                "--tau", "0.3*P1"]
        assert main(argv) == 0
        assert report_value(capsys.readouterr().out, "pass") == "true"

    def test_theorem1_suite_passes(self, capsys):
        argv = ["verify", "--suite", "theorem1", "--schwarzschild", "m=1,r=4"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert report_value(text, "pass") == "true"
        assert float(report_value(text, "margin.gap")) > 1e-3

    def test_lemma41_suite_on_scaled_sphere(self, capsys):
        argv = ["verify", "--suite", "lemma41", "--metric", "sphere:r=2",
                "--tau", "0.2*P1+0.1*P3"]
        assert main(argv) == 0
        assert report_value(capsys.readouterr().out, "pass") == "true"

    def test_theorem3_hypothesis_failure_is_a_suite_failure(self, tmp_path, capsys):
        out = tmp_path / "flat.txt"
        argv = ["verify", "--suite", "theorem3", "--schwarzschild", "m=0,r=1",
                "--out", str(out)]
        assert main(argv) == 2
        text = out.read_text()
        assert report_value(text, "pass") == "false"
        assert "margin.mean-curvature-gap" in text

    def test_theorem1_needs_a_data_source(self, capsys):
        argv = ["verify", "--suite", "theorem1", "--metric", "unit-sphere"]
        assert main(argv) == 1
        assert "--schwarzschild/--minkowski/--data" in capsys.readouterr().err

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            argv = ["verify", "--suite", "identities", "--tau", "0.2*P2",
                    "--out", str(path)]
            assert main(argv) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestGenDataCommand:
    def test_roundtrip_through_the_table(self, tmp_path, capsys):
        out = tmp_path / "sphere.dat"
        assert main(["gen-data", "--schwarzschild", "m=1,r=4", "--out", str(out)]) == 0
        capsys.readouterr()
        loaded = load_physical_data(out)
        direct = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        assert np.max(np.abs(loaded.norm_H - direct.norm_H)) < 1e-15
        assert loaded.provenance == "file"

    def test_missing_out_rejected(self, capsys):
        assert main(["gen-data", "--schwarzschild", "m=1,r=4"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_loaded_table_drives_the_energy(self, tmp_path, capsys):
        out = tmp_path / "sphere.dat"
        main(["gen-data", "--schwarzschild", "m=1,r=4", "--out", str(out)])
        capsys.readouterr()
        assert main(["energy", "--data", str(out), "--tau", "zero"]) == 0
        total = float(report_value(capsys.readouterr().out, "total"))
        assert abs(total - SPHERE_ENERGY) <= 1e-10 * SPHERE_ENERGY

    def test_nonfinite_table_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sphere.dat"
        main(["gen-data", "--schwarzschild", "m=1,r=4", "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        parts = lines[7].split()
        parts[3] = "nan"
        lines[7] = " ".join(parts)
        out.write_text("\n".join(lines) + "\n")
        assert main(["energy", "--data", str(out), "--tau", "zero"]) == 1
        assert "row 5, column normH" in capsys.readouterr().err


class TestExitPaths:
    def test_missing_source_names_the_fields(self, capsys):
        assert main(["energy", "--tau", "zero"]) == 1
        assert "--schwarzschild/--minkowski/--data" in capsys.readouterr().err

    def test_conflicting_sources_rejected(self, capsys):
        argv = ["energy", "--schwarzschild", "m=1,r=4", "--minkowski", "tau0=zero"]
        assert main(argv) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_horizon_radius_rejected(self, capsys):
        assert main(["energy", "--schwarzschild", "m=1,r=1"]) == 1
        assert "--schwarzschild" in capsys.readouterr().err

    def test_bad_metric_spec_rejected(self, capsys):
        argv = ["verify", "--suite", "identities", "--metric", "torus"]
        assert main(argv) == 1
        assert "--metric" in capsys.readouterr().err

    def test_small_grid_rejected(self, capsys):
        assert main(["energy", "--schwarzschild", "m=1,r=4", "--grid-n", "2"]) == 1
        assert "--grid-n" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_shows_the_grammar(self, capsys):
        assert main(["--help"]) == 0
        assert "c*Pl" in capsys.readouterr().out


class TestNonFiniteInput:
    """Each non-finite input exits 1 naming its flag before any numerics run."""

    def expect_rejected(self, argv, flag, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}: ")
        assert "finite" in captured.err
        assert captured.out == ""

    def test_infinite_radius_in_identity_suite(self, capsys):
        argv = ["verify", "--suite", "identities", "--metric", "sphere:r=inf"]
        self.expect_rejected(argv, "--metric", capsys)

    def test_infinite_radius_under_minkowski_data(self, capsys):
        argv = ["energy", "--minkowski", "tau0=zero", "--metric", "sphere:r=inf"]
        self.expect_rejected(argv, "--metric", capsys)

    def test_overflowing_tau_coefficient(self, capsys):
        argv = ["energy", "--schwarzschild", "m=1,r=4", "--tau", "1e400*P1"]
        self.expect_rejected(argv, "--tau", capsys)

    def test_tau_coefficients_summing_past_the_float_range(self, capsys):
        argv = ["energy", "--schwarzschild", "m=1,r=4", "--tau", "1e308*P1+1e308*P2"]
        self.expect_rejected(argv, "--tau", capsys)

    def test_infinite_schwarzschild_radius(self, capsys):
        argv = ["energy", "--schwarzschild", "m=1,r=inf"]
        self.expect_rejected(argv, "--schwarzschild", capsys)

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_nonfinite_tolerance(self, tol, capsys):
        argv = ["minimize", "--schwarzschild", "m=1,r=4", "--tol", tol]
        self.expect_rejected(argv, "--tol", capsys)

    def test_nan_in_a_tau_file(self, tmp_path, capsys):
        path = tmp_path / "tau.txt"
        values = np.zeros(32)
        values[5] = np.nan
        np.savetxt(path, values)
        argv = ["energy", "--schwarzschild", "m=1,r=4", "--tau", f"file:{path}"]
        self.expect_rejected(argv, "--tau", capsys)

    @pytest.mark.parametrize("text", ["", " \n\n\t\n"], ids=["empty", "blank"])
    def test_tau_file_without_values_is_one_error_line(self, text, tmp_path, capsys):
        path = tmp_path / "tau.txt"
        path.write_text(text)
        argv = ["energy", "--schwarzschild", "m=1,r=4", "--tau", f"file:{path}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: --tau: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestEachFlagIsRead:
    """A subcommand accepts only the flags it reads."""

    def test_gen_data_rejects_tau(self, tmp_path, capsys):
        argv = ["gen-data", "--schwarzschild", "m=1,r=4", "--out", str(tmp_path / "t.dat"),
                "--tau", "zero"]
        assert main(argv) == 1
        assert "--tau" in capsys.readouterr().err
        assert not (tmp_path / "t.dat").exists()

    def test_verify_rejects_tau0(self, capsys):
        assert main(["verify", "--suite", "identities", "--tau0", "zero"]) == 1
        assert "--tau0" in capsys.readouterr().err

    def test_theorem3_rejects_a_nonzero_tau(self, capsys):
        argv = ["verify", "--suite", "theorem3", "--schwarzschild", "m=1,r=4", "--tau", "0.3*P1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --tau: ")
        assert captured.out == ""

    def test_theorem1_base_point_is_tau(self, capsys):
        argv = ["verify", "--suite", "theorem1", "--schwarzschild", "m=1,r=4", "--tau", "0.01*P1"]
        assert main(argv) == 2
        text = capsys.readouterr().out
        assert report_value(text, "tau") == "0.01*P1"
        grid = make_grid(32)
        report = check_theorem1(schwarzschild_sphere(grid, 1.0, 4.0), parse_tau("0.01*P1", grid))
        body = text.partition("tau = 0.01*P1\n")[2]
        assert body == format_report(report)


class TestGridSizeLimit:
    def test_grid_past_the_size_limit_names_grid_n(self, capsys):
        assert main(["energy", "--schwarzschild", "m=1,r=4", "--grid-n", "862"]) == 1
        assert capsys.readouterr().err.startswith("error: --grid-n: ")


class TestFlagBoundary:
    """Each rejected input or path exits 1 with the name of its flag.

    Commands run in a directory holding a valid table (t.dat), a table
    with its grid declaration alone (one.dat), a directory (adir) and a
    file that is not text (bin.dat); nodir does not exist, so nothing can
    be written under it.
    """

    CASES = [
        (["energy", "--data", "nope.dat"], "--data"),
        (["energy", "--data", "adir"], "--data"),
        (["energy", "--data", "bin.dat"], "--data"),
        (["energy", "--data", "one.dat"], "--data"),
        (["energy", "--schwarzschild", "m=1,r=4", "--out", "nodir/r.txt"], "--out"),
        (["energy", "--schwarzschild", "m=1,r=4", "--out", "adir"], "--out"),
        (["residual", "--schwarzschild", "m=1,r=4", "--out", "nodir/r.txt"], "--out"),
        (["residual", "--schwarzschild", "m=1,r=4", "--columns", "nodir/r.cols"], "--columns"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--grid-n", "16", "--out", "nodir/r.txt"],
         "--out"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--grid-n", "16", "--columns", "nodir/r.cols"],
         "--columns"),
        (["verify", "--suite", "theorem1", "--schwarzschild", "m=1,r=4", "--out", "nodir/r.txt"],
         "--out"),
        (["gen-data", "--schwarzschild", "m=1,r=4", "--out", "nodir/t.dat"], "--out"),
        (["verify", "--suite", "identities", "--metric", "sphere:r=0"], "--metric"),
        (["energy", "--minkowski", "tau0=zero", "--metric", "sphere:r=-2"], "--metric"),
        (["energy", "--schwarzschild", "m=1,r=4", "--metric", "torus"], "--metric"),
        (["verify", "--suite", "identities", "--schwarzschild", "m=1,r=4",
          "--metric", "sphere:r=2"], "--metric"),
        (["energy", "--data", "t.dat", "--metric", "unit-sphere"], "--metric"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--max-iterations", "-3"], "--max-iterations"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--max-iterations", "-1"], "--max-iterations"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "zero", "--grid-n", "820"], "--grid-n"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "zero", "--grid-n", "790"], "--grid-n"),
        # finite, but overflowing in the lift
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "1e200*P1"], "--tau"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "1e300"], "--tau"),
        (["energy", "--minkowski", "tau0=1e200*P1"], "--minkowski"),
        (["verify", "--suite", "identities", "--metric", "sphere:r=1e300"], "--metric"),
        (["energy", "--schwarzschild", "m=1e300,r=1e301"], "--schwarzschild"),
        (["verify", "--suite", "identities", "--metric", "sphere:r=1e-300"], "--metric"),
    ]

    @pytest.mark.parametrize("argv, flag", CASES, ids=[" ".join(argv) for argv, _ in CASES])
    def test_rejected_input_names_its_flag(self, argv, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        store_physical_data(schwarzschild_sphere(make_grid(32), 1.0, 4.0), "t.dat")
        (tmp_path / "one.dat").write_text("# n=32\n")
        (tmp_path / "adir").mkdir()
        (tmp_path / "bin.dat").write_bytes(bytes(range(256)))
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

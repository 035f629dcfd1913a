"""Command line behavior: parsing, exit codes, report determinism."""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import legendre_mode
from quasilocal import cli
from quasilocal.cli import CliValidationError, main, parse_tau
from quasilocal.geometry import make_grid
from quasilocal import physdata
from quasilocal.physdata import _fmt, load_physical_data, schwarzschild_sphere, store_physical_data
from quasilocal.verify import check_theorem1, format_report

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

    def test_mode_sum_matches_legendre_modes(self):
        grid = make_grid(16)
        tau = parse_tau("0.3*P1+0.1*P2", grid)
        expected = legendre_mode(grid, 1, 0.3) + legendre_mode(grid, 2, 0.1)
        assert np.max(np.abs(tau - expected)) < 1e-15

    def test_spec_is_the_time_function_plus_its_constant(self):
        # the modes go through Grid.time_function, and a constant is added after it
        grid = make_grid(16)
        modes = grid.time_function((-0.5, 0.0, 0.02))
        assert parse_tau("-0.5*P1+2e-2*P3", grid).tobytes() == modes.tobytes()
        assert parse_tau("-0.5*P1+1.5+2e-2*P3", grid).tobytes() == (1.5 + modes).tobytes()
        assert parse_tau("0.25*P0-0.5*P1+2e-2*P3", grid).tobytes() == (0.25 + modes).tobytes()

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

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_modes_above_n_minus_2_are_not_resolved(self, n, capsys):
        # the Laplacian of P_{n-1} is wrong by O(1) on n nodes
        grid = make_grid(n)
        expected = legendre_mode(grid, n - 2, 0.01)
        assert np.max(np.abs(parse_tau(f"0.01*P{n - 2}", grid) - expected)) < 1e-15
        argv = ["energy", "--schwarzschild", "m=1,r=4", "--grid-n", str(n), "--tau", f"0.01*P{n - 1}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --tau: mode P{n - 1} is not resolved on an n={n} grid (highest P{n - 2})\n"

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

    def test_a_spec_starting_with_minus_is_joined_to_its_flag(self, capsys):
        # after a space argparse reads -0.3*P1 as an option, not as the value of --tau
        argv = ["energy", "--schwarzschild", "m=1,r=4"]
        assert main(argv + ["--tau", "-0.3*P1"]) == 1
        assert "--tau: expected one argument" in capsys.readouterr().err
        assert main(argv + ["--tau=-0.3*P1"]) == 0
        assert report_value(capsys.readouterr().out, "tau") == "-0.3*P1"


def _term(first: bool):
    """A c*Pl term with c from 1e-320 to 9.99e320 and l from 0 to 40; signed unless first."""
    sign = st.sampled_from(["", "+", "-"] if first else ["+", "-"])
    mantissa = st.sampled_from(["1", "2.5", "9.99"])
    return st.builds(
        lambda s, c, e, l: f"{s}{c}e{e}*P{l}", sign, mantissa, st.integers(-320, 320), st.integers(0, 40)
    )


TAU_SPECS = st.one_of(
    st.just("zero"),
    st.builds(lambda head, tail: head + "".join(tail), _term(True), st.lists(_term(False), max_size=3)),
)


def run_cli(argv):
    """Exit status, stdout and stderr of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def run_energy(argv, tau="zero"):
    """Exit status, stdout and stderr of an energy run; a report's six values must be finite."""
    status, out, err = run_cli(["energy", *argv, "--tau=" + tau])
    if status == 0:
        body = out.split(f"tau = {tau}\n", 1)[1]
        values = [float(line.split(" = ", 1)[1]) for line in body.splitlines()]
        assert len(values) == 6 and np.all(np.isfinite(values)), out
    return status, out, err


@settings(deadline=None, derandomize=True, max_examples=150)
@given(spec=TAU_SPECS)
def test_every_tau_spec_gives_a_finite_report_or_a_named_error(spec):
    status, _, err = run_energy(["--schwarzschild", "m=1,r=4"], spec)
    if status == 1:
        assert err.startswith("error: --tau: "), err
    elif status:
        assert status == 2 and err.startswith("error: "), err


NUMBERS = st.builds(
    lambda s, c, e: f"{s}{c}e{e}",
    st.sampled_from(["", "-", " "]),
    st.sampled_from(["1", "2.5", "9.99"]),
    st.one_of(st.integers(-40, 40), st.integers(-320, 320)),
)
VALUES = st.one_of(NUMBERS, st.sampled_from(["0", "4", "nan", "inf", "-inf", "x", "", "1e", "=2"]))


def _assignment_specs(keys: tuple):
    """'k=v,...' specs for a row with these keys.

    Either each key once in any order with any value, or one to three
    pieces that repeat, omit or mix in unknown and empty keys, or lack
    the '='.
    """
    piece = st.builds(
        "{}{}{}".format,
        st.sampled_from([*keys, *keys, " r ", "q", "M", ""]),
        st.sampled_from(["=", "=", "=", ""]),
        VALUES,
    )
    each_once = st.permutations(keys).flatmap(
        lambda order: st.tuples(*(VALUES.map(f"{k}=".__add__) for k in order))
    )
    return st.one_of(each_once, st.lists(piece, min_size=1, max_size=3)).map(",".join)


ASSIGNMENT_SPECS = {
    "--schwarzschild": _assignment_specs(("m", "r")),
    "--metric": _assignment_specs(("r",)),
}


@pytest.mark.parametrize("flag", ASSIGNMENT_SPECS)
@settings(deadline=None, derandomize=True, max_examples=150)
@given(data=st.data())
def test_every_assignment_spec_gives_a_finite_report_or_a_named_error(flag, data):
    spec = data.draw(ASSIGNMENT_SPECS[flag])
    if flag == "--schwarzschild":
        status, _, err = run_energy(["--schwarzschild=" + spec])
    else:
        status, _, err = run_energy(["--minkowski", "tau0=zero", "--metric=sphere:" + spec])
    assert status in (0, 1, 2), status
    if status:
        assert err.startswith(f"error: {flag}: "), err


TABLE_CELLS = st.tuples(
    st.integers(0, 31),
    st.sampled_from(["P", "Q", "normH", "alpha_theta"]),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e-300", "-1e-300", "1e300", "-1e300",
                     "1e38", "1e-38", "1e20", "1e-20", "3", "-3", "0.5"]),
)
DATA_COMMANDS = {
    "energy": ["energy"],
    "residual": ["residual"],
    "theorem1": ["verify", "--suite", "theorem1"],
    "theorem3": ["verify", "--suite", "theorem3"],
    "minimize": ["minimize", "--max-iterations", "20"],
}
# what a computation that fails on admitted data names, one prefix per error
FAILED_COMPUTATIONS = (
    "error: metric is not embeddable as a surface of revolution: P^2 - (Q sin)'^2 = ",
    "error: mean curvature vector is not spacelike: <H, H> = ",
    "error: <H, e3_breve> = ",
    "error: initial time function violates the convexity guard",
    "error: no acceptable step above ",
)


SUITES = ("identities", "lemma41", "theorem1", "theorem3")


def expect_finite_report_or_named_error(name, status, out, err, flag):
    """A finite report (exit 0), input rejected naming flag (exit 1), or a failed
    computation or certification that says what failed (exit 2)."""
    if status == 0:
        for line in out.splitlines():
            value = line.split(" = ", 1)[1]
            with contextlib.suppress(ValueError):
                assert np.isfinite(float(value)), (name, line)
    elif status == 1:
        assert err.startswith(f"error: {flag}: "), (name, err)
    elif err:
        assert status == 2 and err.startswith(FAILED_COMPUTATIONS), (name, err)
    else:
        assert status == 2 and name in SUITES, (name, out)
        assert report_value(out, "pass") == "false" and report_value(out, "worst_check"), out


@settings(deadline=None, derandomize=True, max_examples=400)
@given(cells=st.lists(TABLE_CELLS, min_size=1, max_size=3))
def test_every_edited_data_table_gives_a_finite_report_or_a_named_error(cells, tmp_path_factory):
    # a Schwarzschild table with one to three cells replaced, through every
    # command that reads --data: a finite report, a rejected field (exit 1),
    # or a failed computation or certification that says what failed (exit 2)
    path = tmp_path_factory.mktemp("table") / "t.dat"
    assert run_cli(["gen-data", "--schwarzschild", "m=1,r=4", "--out", str(path)])[0] == 0
    lines = path.read_text().splitlines()
    for row, column, value in cells:
        parts = lines[2 + row].split()
        parts[physdata.COLUMNS.index(column)] = value
        lines[2 + row] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    for name, command in DATA_COMMANDS.items():
        status, out, err = run_cli([*command, "--data", str(path)])
        expect_finite_report_or_named_error(name, status, out, err, "--data")
        if status == 1:
            assert err.split(": ", 2)[2].lstrip("|").startswith(("P", "Q", "normH", "alpha_theta")), (name, err)
        elif status == 2 and not err:
            assert name.startswith("theorem"), (name, out)


# a --tau file: the n = 32 node values of 0.01 P1 + 0.05 P2, one per row or
# as 'theta value' rows, with up to three cells replaced (theta or value)
# and perhaps a row dropped, a row repeated or a column added
TAU_FILE_BASE = 0.01 * legendre_mode(make_grid(32), 1) + 0.05 * legendre_mode(make_grid(32), 2)
TAU_FILE_CELLS = st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0", "1e-300", "1e300", "1e38", "1e20", "3", "-3", "0.5",
     "0.06", "0.04", "-0.01", "x", "1e", ""]
)
TAU_FILES = st.tuples(
    st.sampled_from(["values", "pairs"]),
    st.lists(st.tuples(st.integers(0, 31), st.sampled_from([0, 1]), TAU_FILE_CELLS), max_size=3),
    st.sampled_from(["", "", "", "drop", "repeat", "column"]),
)
# every command that reads --tau on data; minimize runs on the 30 modes
# the grid resolves, so a table that carries P31 is rejected naming --tau
TAU_COMMANDS = {
    "energy": ["energy"],
    "residual": ["residual"],
    "minimize": ["minimize", "--modes", "30", "--max-iterations", "20"],
    "identities": ["verify", "--suite", "identities"],
    "lemma41": ["verify", "--suite", "lemma41"],
    "theorem1": ["verify", "--suite", "theorem1"],
}


@settings(deadline=None, derandomize=True, max_examples=150)
@given(table=TAU_FILES)
def test_every_edited_tau_file_gives_a_finite_report_or_a_named_error(table, tmp_path_factory):
    layout, cells, shape = table
    rows = [[repr(float(t)), repr(float(v))] for t, v in zip(make_grid(32).nodes, TAU_FILE_BASE)]
    for row, column, value in cells:
        rows[row][column if layout == "pairs" else 1] = value
    if layout == "values":
        rows = [row[1:] for row in rows]
    if shape == "drop":
        rows = rows[:-1]
    elif shape == "repeat":
        rows = rows + rows[-1:]
    elif shape == "column":
        rows = [row + ["0"] for row in rows]
    path = tmp_path_factory.mktemp("tau") / "tau.txt"
    path.write_text("".join(" ".join(row) + "\n" for row in rows))
    for name, command in TAU_COMMANDS.items():
        status, out, err = run_cli([*command, "--schwarzschild", "m=1,r=4", f"--tau=file:{path}"])
        expect_finite_report_or_named_error(name, status, out, err, "--tau")


class TestTauFileResolution:
    """A --tau file: table is read only if its interpolant stays within P_{n-2}.

    The table whose node 8 is set to 0 carries P31 (c31 = -4.09e-3) on
    n = 32, whose discrete Laplacian is wrong by O(1): energy used to
    report total = 32.777 with cross_check_deviation = 3.09, exit 0.
    """

    @staticmethod
    def write(tmp_path, values):
        path = tmp_path / "tau.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in values))
        return path

    @pytest.mark.parametrize("command", [
        ["energy"], ["residual"], ["verify", "--suite", "theorem1"],
    ], ids=["energy", "residual", "theorem1"])
    def test_a_table_that_carries_p31_is_rejected(self, command, tmp_path, capsys):
        values = parse_tau("0.01*P1+0.05*P2", make_grid(32))
        values[8] = 0.0
        path = self.write(tmp_path, values)
        assert main([*command, "--schwarzschild", "m=1,r=4", f"--tau=file:{path}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: --tau: {path}: mode P31 is not resolved on an n=32 grid (highest P30)"
        )

    def test_the_minkowski_flag_is_named(self, tmp_path, capsys):
        values = parse_tau("0.01*P1+0.05*P2", make_grid(32))
        values[8] = 0.0
        path = self.write(tmp_path, values)
        assert main(["energy", f"--minkowski=tau0=file:{path}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: --minkowski: {path}: mode P31 is not resolved")

    def test_a_17_digit_table_of_a_resolved_tau_reports(self, tmp_path, capsys):
        spec = "0.01*P1+0.05*P2+0.002*P30"
        path = self.write(tmp_path, parse_tau(spec, make_grid(32)))
        assert main(["energy", "--schwarzschild", "m=1,r=4", f"--tau=file:{path}"]) == 0
        from_file = capsys.readouterr().out.split("\n", 5)[5]
        assert main(["energy", "--schwarzschild", "m=1,r=4", f"--tau={spec}"]) == 0
        assert capsys.readouterr().out.split("\n", 5)[5] == from_file

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e300"])
    def test_a_value_outside_the_admission_gets_its_message(self, cell, tmp_path, capsys):
        values = [f"{v:.17g}" for v in parse_tau("0.01*P1", make_grid(32))]
        values[5] = cell
        path = tmp_path / "tau.txt"
        path.write_text("\n".join(values) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["energy", "--schwarzschild", "m=1,r=4", f"--tau=file:{path}"]) == 1
        rule = "|tau| must be at most 1e+38" if cell == "1e300" else "tau must be finite"
        assert capsys.readouterr().err.startswith(f"error: --tau: {rule}")


class TestTauTable:
    """A file: table has one row per node, 'value' or 'theta value', and is read by physdata's row reader."""

    def test_a_residual_columns_file_reads_back_bit_for_bit(self, tmp_path, monkeypatch, capsys):
        # the '# theta residual' heading is skipped and 17 digits round-trip every value
        monkeypatch.chdir(tmp_path)
        argv = ["residual", "--schwarzschild", "m=1,r=4", "--tau", "0.01*P1", "--columns", "c.txt"]
        assert main(argv) == 0
        capsys.readouterr()
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        field = d.evaluate(parse_tau("0.01*P1", grid)).residual
        assert (tmp_path / "c.txt").read_text().startswith("# theta residual\n")
        assert parse_tau("file:c.txt", grid).tobytes() == field.tobytes()

    def test_comma_separated_rows_are_read(self, tmp_path):
        grid = make_grid(32)
        spaced, commas = tmp_path / "spaced.txt", tmp_path / "commas.txt"
        spaced.write_text("".join(f"{_fmt(t)} {_fmt(v)}\n" for t, v in zip(grid.nodes, TAU_FILE_BASE)))
        commas.write_text("".join(f"{_fmt(t)}, {_fmt(v)}\n" for t, v in zip(grid.nodes, TAU_FILE_BASE)))
        assert parse_tau(f"file:{commas}", grid).tobytes() == parse_tau(f"file:{spaced}", grid).tobytes()
        assert parse_tau(f"file:{spaced}", grid).tobytes() == TAU_FILE_BASE.tobytes()

    def test_all_values_on_one_line_are_refused_by_row_count(self, tmp_path):
        path = tmp_path / "tau.txt"
        path.write_text(" ".join(map(_fmt, TAU_FILE_BASE)) + "\n")
        with pytest.raises(CliValidationError) as info:
            parse_tau(f"file:{path}", make_grid(32))
        assert str(info.value) == "--tau: table has 1 rows, expected 32 node values"

    @pytest.mark.parametrize("layout", ["values", "pairs"])
    def test_a_cell_that_is_not_a_number_is_named_by_row_and_column(self, layout, tmp_path):
        grid = make_grid(32)
        rows = [f"{_fmt(v)}" if layout == "values" else f"{_fmt(t)} {_fmt(v)}"
                for t, v in zip(grid.nodes, TAU_FILE_BASE)]
        rows[2] = rows[2].rpartition(" ")[0] + " x" if layout == "pairs" else "x"
        path = tmp_path / "tau.txt"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CliValidationError) as info:
            parse_tau(f"file:{path}", grid, "--minkowski")
        assert str(info.value) == "--minkowski: row 2, column value: not a number: 'x'"


@pytest.mark.parametrize("argv, flag", [
    (["energy", "--schwarzschild", "m=1,r=4,r=5"], "--schwarzschild"),
    (["verify", "--suite", "identities", "--metric", "sphere:r=2,r=3"], "--metric"),
], ids=["family", "metric"])
def test_a_repeated_key_is_rejected(argv, flag, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag}: key 'r' is given twice\n"
    assert captured.out == ""


class TestOneRowIsEnough:
    """A data family added as one row of physdata.DATA_FAMILIES is a full data source."""

    @pytest.fixture(autouse=True)
    def toy_row(self, monkeypatch):
        row = (lambda grid, r: schwarzschild_sphere(grid, 0.0, r), ("r",))
        monkeypatch.setitem(physdata.DATA_FAMILIES, "toy", row)

    def test_energy_echoes_the_row(self, capsys):
        assert main(["energy", "--toy", "r=2"]) == 0
        assert report_value(capsys.readouterr().out, "source") == "toy r=2"

    def test_gen_data_writes_a_table_that_data_reads(self, tmp_path, capsys):
        path = str(tmp_path / "t.dat")
        assert main(["gen-data", "--toy", "r=2", "--out", path]) == 0
        assert main(["energy", "--toy", "r=2"]) == 0
        direct = report_value(capsys.readouterr().out, "total")
        assert main(["energy", "--data", path]) == 0
        assert report_value(capsys.readouterr().out, "total") == direct

    def test_a_rejected_parameter_names_the_flag(self, capsys):
        assert main(["energy", "--toy", "r=0"]) == 1
        assert capsys.readouterr().err.startswith("error: --toy: ")

    def test_conflicts_with_the_other_sources(self, capsys):
        assert main(["energy", "--toy", "r=2", "--schwarzschild", "m=1,r=4"]) == 1
        err = capsys.readouterr().err
        assert "--toy" in err and "--schwarzschild" in err

    def test_the_missing_source_error_names_it(self, capsys):
        assert main(["energy"]) == 1
        assert "--toy" in capsys.readouterr().err


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

    def test_residual_l2_is_the_norm_field_of_the_data_at_tau(self, capsys):
        assert main(["residual", "--schwarzschild", "m=1,r=4", "--tau", "0.1*P2"]) == 0
        grid = make_grid(32)
        at_tau = schwarzschild_sphere(grid, 1.0, 4.0).evaluate(parse_tau("0.1*P2", grid))
        assert report_value(capsys.readouterr().out, "residual_l2") == _fmt(at_tau.residual_norm)

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

    @pytest.mark.parametrize("suite", ["identities", "lemma41"])
    def test_identity_suites_hold_on_the_lift(self, suite, capsys):
        argv = ["verify", "--suite", suite, "--tau", "0.7*P2", "--grid-n", "64"]
        assert main(argv) == 0
        assert report_value(capsys.readouterr().out, "pass") == "true"

    def test_lift_is_not_physical_data(self, capsys):
        argv = ["energy", "--minkowski", "tau0=0.7*P2", "--tau", "zero"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --minkowski: mean curvature vector is not spacelike: ")

    def test_theorem1_base_point_whose_lift_is_not_data_names_tau(self, capsys):
        argv = ["verify", "--suite", "theorem1", "--schwarzschild", "m=0,r=1", "--tau", "0.7*P2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: --tau: the lift of tau0, Sigma_tau0, is not physical data: "
            "mean curvature vector is not spacelike: "
        )
        assert captured.out == ""


class TestMinimizeCommand:
    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_every_resolved_mode_descends_to_the_gradient_stop(self, n, capsys):
        argv = ["minimize", "--schwarzschild", "m=1,r=4", "--tau", "0.05*P2", "--grid-n", str(n)]
        assert main(argv + ["--modes", str(n - 2)]) == 0
        assert report_value(capsys.readouterr().out, "stop") == "gradient"
        assert main(argv + ["--modes", str(n - 1)]) == 1
        assert capsys.readouterr().err == f"error: --modes: must be in [1, {n - 2}], got {n - 1}\n"

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

    def test_calibration_does_not_depend_on_the_tolerance(self, capsys):
        # at the critical start the finite differences of qle are rounding:
        # their norm is below the energy's rounding floor over the step, so
        # they calibrate nothing, whatever --tol is
        values = []
        for tol in ("1e-7", "1e-12"):
            assert main(["minimize", "--schwarzschild", "m=1,r=4", "--tol", tol]) == 0
            values.append(report_value(capsys.readouterr().out, "calibration_rel_error"))
        assert values == ["0", "0"]

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

    @pytest.mark.parametrize("args", [["--metric", "sphere:r=1e5"],
                                      ["--metric", "sphere:r=0.01", "--tau", "0.001*P1"]])
    def test_lemma41_passes_far_from_unit_radius(self, args, capsys):
        # a difference step of a bare 1e-4 failed variation-2 at r = 1e5
        # and variation-3 at r = 0.01
        assert main(["verify", "--suite", "lemma41", *args]) == 0
        out, err = capsys.readouterr()
        assert report_value(out, "pass") == "true" and err == ""

    def test_theorem3_hypothesis_failure_is_a_suite_failure(self, tmp_path, capsys):
        out = tmp_path / "flat.txt"
        argv = ["verify", "--suite", "theorem3", "--schwarzschild", "m=0,r=1",
                "--out", str(out)]
        assert main(argv) == 2
        text = out.read_text()
        assert report_value(text, "pass") == "false"
        assert "margin.mean-curvature-gap" in text

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
        assert capsys.readouterr().err.startswith(
            "error: --data: normH must be finite, got nan at node 5 "
        )

    def test_profile_beyond_the_length_range_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sphere.dat"
        main(["gen-data", "--schwarzschild", "m=1,r=4", "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        parts = lines[5].split()
        parts[1] = "1e39"
        lines[5] = " ".join(parts)
        out.write_text("\n".join(lines) + "\n")
        assert main(["energy", "--data", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --data: P must lie in [1e-38, 1e+38]; P[3] ")

    @pytest.mark.parametrize(
        "column, message",
        [(3, "normH must lie in [1e-38, 1e+38]; normH[3] = 1e+300 "),
         (4, "|alpha_theta| must be at most 1e+38; alpha_theta[3] = 1e+300 ")],
    )
    def test_data_beyond_the_length_range_exits_one(self, column, message, tmp_path, capsys):
        # admitted, normH = 1e300 would print physical_term = inf and total = -inf and exit 0
        out = tmp_path / "sphere.dat"
        main(["gen-data", "--schwarzschild", "m=1,r=4", "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        parts = lines[5].split()
        parts[column] = "1e300"
        lines[5] = " ".join(parts)
        out.write_text("\n".join(lines) + "\n")
        assert main(["energy", "--data", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --data: {message}")

    def test_unbuildable_declared_size_names_data(self, tmp_path, capsys):
        out = tmp_path / "two.dat"
        out.write_text("# n=2\ntheta P Q normH alpha_theta\n0.5 1 1 2 0\n1.0 1 1 2 0\n")
        assert main(["energy", "--data", str(out), "--tau", "zero"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --data: grid declaration '# n=2': ")
        assert "at least 4" in err


class TestExitPaths:
    @pytest.mark.parametrize("argv", [["energy", "--tau", "zero"], ["residual"], ["minimize"],
                                      ["gen-data", "--out", "never.dat"],
                                      ["verify", "--suite", "theorem1"],
                                      ["verify", "--suite", "theorem3"]],
                             ids=["energy", "residual", "minimize", "gen-data", "verify-theorem1",
                                  "verify-theorem3"])
    def test_missing_source_names_the_fields(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--schwarzschild", "--minkowski", "--data"))
        assert not (tmp_path / "never.dat").exists()

    @pytest.mark.parametrize("command", ["energy", "verify"])
    def test_conflicting_sources_rejected(self, command, capsys):
        argv = [command, "--schwarzschild", "m=1,r=4", "--minkowski", "tau0=zero"]
        argv += ["--suite", "theorem1"] if command == "verify" else []
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "--schwarzschild" in captured.err and "--minkowski" in captured.err
        assert captured.out == ""

    def test_identity_suite_needs_no_source(self, capsys):
        assert main(["verify", "--suite", "identities"]) == 0
        assert report_value(capsys.readouterr().out, "source") == "metric unit-sphere"

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


class TestMainBuildsTheSourceOnce:
    """main builds the data source once per run and hands it to the command; a usage error builds none."""

    @staticmethod
    def counted(monkeypatch):
        built = []
        build = cli.build_data

        def counting(args, grid):
            built.append(args.command)
            return build(args, grid)

        monkeypatch.setattr(cli, "build_data", counting)
        return built

    @pytest.mark.parametrize("argv, status", [
        (["energy"], 0),
        (["residual", "--tau", "0.1*P2"], 0),
        (["minimize", "--tau", "0.05*P2", "--modes", "2"], 0),
        (["verify", "--suite", "theorem1", "--tau", "0.01*P1"], 2),
        (["gen-data", "--out", "sphere.dat"], 0),
    ], ids=["energy", "residual", "minimize", "verify", "gen-data"])
    def test_each_command_builds_its_source_once(self, argv, status, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        built = self.counted(monkeypatch)
        assert main([*argv, "--schwarzschild", "m=1,r=4", "--grid-n", "16"]) == status
        assert capsys.readouterr().err == ""
        assert built == [argv[0]]

    def test_a_metric_suite_asks_main_for_its_source_once(self, monkeypatch, capsys):
        built = self.counted(monkeypatch)
        assert main(["verify", "--suite", "identities", "--grid-n", "16"]) == 0
        assert report_value(capsys.readouterr().out, "source") == "metric unit-sphere"
        assert built == ["verify"]

    @pytest.mark.parametrize("argv, status", [
        (["frobnicate"], 1),
        (["energy", "--bogus"], 1),
        (["minimize", "--schwarzschild", "m=1,r=4", "--modes", "two"], 1),
        (["verify", "--schwarzschild", "m=1,r=4"], 1),
        (["energy", "--help"], 0),
    ])
    def test_a_usage_error_or_help_builds_no_source(self, argv, status, monkeypatch, capsys):
        built = self.counted(monkeypatch)
        assert main(argv) == status
        capsys.readouterr()
        assert built == []


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

    def test_nan_theta_in_a_tau_file(self, tmp_path, capsys):
        path = tmp_path / "tau.txt"
        theta = make_grid(32).nodes.copy()
        theta[5] = np.nan
        np.savetxt(path, np.column_stack([theta, np.zeros(32)]))
        argv = ["energy", "--schwarzschild", "m=1,r=4", "--tau", f"file:{path}"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "error: --tau: row 5, column theta: node nan does not match the n=32 grid node "
        )

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
        assert main(["energy", "--schwarzschild", "m=1,r=4", "--grid-n", "1099"]) == 1
        assert capsys.readouterr().err.startswith("error: --grid-n: ")

    def test_largest_grid_is_accepted(self, capsys):
        assert main(["energy", "--schwarzschild", "m=1,r=4", "--grid-n", "1098"]) == 0
        assert "\ngrid_n = 1098\n" in capsys.readouterr().out


class TestFlagBoundary:
    """Each rejected input or path exits 1 with the name of its flag.

    A case gives its flag, or its whole message after "error: " where that
    is pinned.  Commands run in a directory holding a valid table (t.dat),
    a table with its grid declaration alone (one.dat), an n = 16 table
    (n16.dat), tables declared '# m=32' (m32.dat) and '# n=abc' (nabc.dat),
    a table whose row 3 has 4 fields (four.dat), a directory (adir), a
    symlink to itself (loop), a file that is not text (bin.dat), a --tau
    table (tau.txt), a columns file (c.txt) and hard links to t.dat,
    tau.txt and c.txt (t.link, tau.link and c.link); nodir and nope.txt
    do not exist, so nothing can be written under nodir.  {cwd} stands
    for that directory.  No rejected command writes or changes a file.
    """

    CASES = [
        (["energy", "--data", "nope.dat"], "--data: nope.dat: No such file or directory"),
        (["energy", "--data", "adir"], "--data: adir: Is a directory"),
        (["energy", "--data", "bin.dat"], "--data"),
        (["energy", "--data", "one.dat"], "--data"),
        (["energy", "--schwarzschild", "m=1,r=4", "--out", "nodir/r.txt"], "--out"),
        (["energy", "--schwarzschild", "m=1,r=4", "--out", "adir"], "--out: adir: Is a directory"),
        (["energy", "--schwarzschild", "m=1,r=4", "--out", "loop"],
         "--out: loop: Too many levels of symbolic links"),
        (["residual", "--schwarzschild", "m=1,r=4", "--out", "nodir/r.txt"], "--out"),
        (["residual", "--schwarzschild", "m=1,r=4", "--columns", "nodir/r.cols"], "--columns"),
        (["residual", "--schwarzschild", "m=1,r=4", "--columns", "adir"],
         "--columns: adir: Is a directory"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--grid-n", "16", "--out", "nodir/r.txt"],
         "--out"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--grid-n", "16", "--columns", "nodir/r.cols"],
         "--columns"),
        (["verify", "--suite", "theorem1", "--schwarzschild", "m=1,r=4", "--out", "nodir/r.txt"],
         "--out"),
        (["gen-data", "--schwarzschild", "m=1,r=4", "--out", "nodir/t.dat"], "--out"),
        (["gen-data", "--schwarzschild", "m=1,r=4", "--out", "adir"], "--out: adir: Is a directory"),
        (["verify", "--suite", "identities", "--metric", "sphere:r=0"], "--metric"),
        (["energy", "--minkowski", "tau0=zero", "--metric", "sphere:r=-2"], "--metric"),
        (["energy", "--schwarzschild", "m=1,r=4", "--metric", "torus"], "--metric"),
        (["verify", "--suite", "identities", "--schwarzschild", "m=1,r=4",
          "--metric", "sphere:r=2"], "--metric"),
        (["energy", "--data", "t.dat", "--metric", "unit-sphere"], "--metric"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--max-iterations", "-3"], "--max-iterations"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--max-iterations", "-1"], "--max-iterations"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "zero", "--grid-n", "1099"], "--grid-n"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "zero", "--grid-n", "100000"], "--grid-n"),
        # finite, but overflowing in the lift
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "1e200*P1"], "--tau"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "1e300"], "--tau"),
        (["energy", "--minkowski", "tau0=1e200*P1"], "--minkowski"),
        (["verify", "--suite", "identities", "--metric", "sphere:r=1e300"], "--metric"),
        (["energy", "--schwarzschild", "m=1e300,r=1e301"], "--schwarzschild"),
        (["verify", "--suite", "identities", "--metric", "sphere:r=1e-300"], "--metric"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", " "], "--tau: empty time-function spec"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "file:nope.txt"],
         "--tau: nope.txt: No such file or directory"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "file:adir"],
         "--tau: adir: Is a directory"),
        (["energy", "--minkowski", "0.1*P1"], "--minkowski: expected tau0=SPEC, got '0.1*P1'"),
        (["energy", "--data", "n16.dat", "--grid-n", "32"],
         "--data: file grid n=16 does not match --grid-n 32"),
        (["energy", "--data", "m32.dat"], "--data: malformed grid declaration '# m=32'"),
        (["energy", "--data", "nabc.dat"], "--data: malformed grid declaration '# n=abc'"),
        (["energy", "--data", "four.dat"], "--data: row 3 has 4 fields, expected 5"),
        # an empty path is refused, never read as no path or rendered as nothing
        (["energy", "--schwarzschild", "m=1,r=4", "--out", ""], "--out: empty path"),
        (["residual", "--schwarzschild", "m=1,r=4", "--columns", ""], "--columns: empty path"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "file:"], "--tau: empty path"),
        (["energy", "--data", ""], "--data: empty path"),
        (["gen-data", "--schwarzschild", "m=1,r=4", "--out", ""], "--out: empty path"),
        # and so is a blank one
        (["energy", "--schwarzschild", "m=1,r=4", "--out", " "], "--out: empty path"),
        (["residual", "--schwarzschild", "m=1,r=4", "--columns", "  "], "--columns: empty path"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "file:  "], "--tau: empty path"),
        (["energy", "--minkowski", "tau0=file: "], "--minkowski: empty path"),
        (["energy", "--data", " "], "--data: empty path"),
        (["gen-data", "--schwarzschild", "m=1,r=4", "--out", "\t"], "--out: empty path"),
        # an output never overwrites an input or the other output, however the path is spelled
        (["energy", "--data", "t.dat", "--out", "t.dat"], "--out: t.dat is the same file as --data t.dat"),
        (["energy", "--data", "./t.dat", "--out", "{cwd}/t.dat"],
         "--out: {cwd}/t.dat is the same file as --data ./t.dat"),
        (["gen-data", "--data", "t.dat", "--out", "t.dat"], "--out: t.dat is the same file as --data t.dat"),
        (["energy", "--schwarzschild", "m=1,r=4", "--tau", "file:tau.txt", "--out", "tau.txt"],
         "--out: tau.txt is the same file as --tau tau.txt"),
        (["energy", "--minkowski", "tau0=file: tau.txt", "--out", "./tau.txt"],
         "--out: ./tau.txt is the same file as --minkowski tau.txt"),
        (["residual", "--schwarzschild", "m=1,r=4", "--columns", "c.txt", "--out", "c.txt"],
         "--out: c.txt is the same file as --columns c.txt"),
        (["minimize", "--schwarzschild", "m=1,r=4", "--grid-n", "16", "--columns", "c.txt",
          "--out", "./c.txt"], "--out: ./c.txt is the same file as --columns c.txt"),
        (["residual", "--data", "t.dat", "--columns", "{cwd}/t.dat"],
         "--columns: {cwd}/t.dat is the same file as --data t.dat"),
        (["residual", "--schwarzschild", "m=1,r=4", "--tau", "file:tau.txt", "--columns", "tau.txt"],
         "--columns: tau.txt is the same file as --tau tau.txt"),
        # nor through a hard link, which shares the file but not its path
        (["energy", "--data", "t.dat", "--out", "t.link"], "--out: t.link is the same file as --data t.dat"),
        (["residual", "--schwarzschild", "m=1,r=4", "--tau", "file:tau.txt", "--columns", "tau.link"],
         "--columns: tau.link is the same file as --tau tau.txt"),
        (["residual", "--schwarzschild", "m=1,r=4", "--columns", "c.txt", "--out", "c.link"],
         "--out: c.link is the same file as --columns c.txt"),
    ]

    @pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(argv) for argv, _ in CASES])
    def test_rejected_input_names_its_flag(self, argv, expected, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        store_physical_data(schwarzschild_sphere(make_grid(32), 1.0, 4.0), "t.dat")
        store_physical_data(schwarzschild_sphere(make_grid(16), 1.0, 4.0), "n16.dat")
        declaration, header, *rows = (tmp_path / "t.dat").read_text().splitlines(keepends=True)
        (tmp_path / "one.dat").write_text(declaration)
        (tmp_path / "m32.dat").write_text("".join(["# m=32\n", header, *rows]))
        (tmp_path / "nabc.dat").write_text("".join(["# n=abc\n", header, *rows]))
        rows[3] = " ".join(rows[3].split()[:4]) + "\n"
        (tmp_path / "four.dat").write_text("".join([declaration, header, *rows]))
        (tmp_path / "adir").mkdir()
        (tmp_path / "loop").symlink_to("loop")
        (tmp_path / "bin.dat").write_bytes(bytes(range(256)))
        (tmp_path / "tau.txt").write_text("".join(f"{_fmt(v)}\n" for v in TAU_FILE_BASE))
        (tmp_path / "c.txt").write_text("# theta residual\n")
        for link, source in (("t.link", "t.dat"), ("tau.link", "tau.txt"), ("c.link", "c.txt")):
            (tmp_path / link).hardlink_to(tmp_path / source)
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        argv = [arg.replace("{cwd}", str(tmp_path)) for arg in argv]
        expected = expected.replace("{cwd}", str(tmp_path))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        flag, _, message = expected.partition(": ")
        if message:
            assert err == f"error: {expected}\n"
        else:
            assert err.startswith(f"error: {flag}: ")
        assert out == ""
        assert all(path.name.strip() for path in tmp_path.iterdir())
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == files

    def test_nonpositive_norm_in_a_table_is_out_of_range(self, tmp_path, monkeypatch, capsys):
        # normH meets the length range of P and Q, with the same message
        monkeypatch.chdir(tmp_path)
        store_physical_data(schwarzschild_sphere(make_grid(32), 1.0, 4.0), "t.dat")
        declaration, header, *rows = (tmp_path / "t.dat").read_text().splitlines(keepends=True)
        rows[5] = " ".join(rows[5].split()[:3] + ["0", "0"]) + "\n"
        (tmp_path / "z.dat").write_text("".join([declaration, header, *rows]))
        assert main(["energy", "--data", "z.dat"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --data: normH must lie in [1e-38, 1e+38]; normH[5] = 0.0 at theta = ")

    @pytest.mark.parametrize("source", [
        ["--schwarzschild", "m=1,r=4", "--tau", "file:{}"],
        ["--minkowski", "tau0=file:{}"],
    ])
    def test_the_path_after_file_is_stripped(self, source, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("".join(f"{_fmt(v)}\n" for v in TAU_FILE_BASE))
        bodies = []
        for path in ("t.txt", " t.txt"):
            assert main(["energy"] + [arg.format(path) for arg in source]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            bodies.append(out.splitlines()[5:])
        assert bodies[0] == bodies[1] != []

"""Command line front end.

Subcommands: energy, residual, minimize, verify and gen-data.  Each row
of physdata.DATA_FAMILIES is a data-source flag --NAME k=K,..., beside
--minkowski tau0=SPEC and --data PATH, and each row of METRIC_FAMILIES a
spec --metric NAME:k=K,...; flags, parsing and echo come from the rows,
so a new data family is one builder and one row.

Every report is flat 'key = value' text prefixed with the artifact
version, command, grid size, data source and time function, so a fixed
configuration reproduces the output byte for byte.  Column files for
plotting carry 'theta value' (or 'iteration energy') rows.  Exit status:
0 on success, 1 on a validation error or an unreadable, unwritable,
empty or blank path, or an output path that names the file of an input
or of the other output, naming the offending flag, 2 when a computation
or certification suite fails.

main(argv) reads every input a command shares: it refuses unusable
paths, builds the grid and then the data source, once, and passes both
to the command, which computes its report and writes it.  Subcommands
import optimize and verify, and data energy when evaluated, as they
run, so a process loads only its own command's code.  main(argv) is the
in-process entry and returns the status; run() is the process entry of
`python -m quasilocal.cli` and the console script.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import (
    LENGTH_MAX,
    FieldShapeError,
    InvalidParameterError,
    make_grid,
    round_sphere,
    Grid,
    AxisymMetric,
)
from .embedding import LIFT_ERRORS, NOT_DATA, Evaluation
from .physdata import (
    DATA_FAMILIES,
    METRIC_FAMILIES,
    DataFormatError,
    _fmt,
    _load_node_values,
    _write_table,
    load_physical_data,
    minkowski_surface_data,
    store_physical_data,
)

TAU_GRAMMAR = """\
time function grammar (--tau and tau0= in --minkowski):
  zero               the zero profile
  c*Pl[+c*Pl...]     signed sum of Legendre-coefficient terms, e.g.
                     0.3*P1+0.1*P2 or 0.5*P1-2e-2*P3; bare constants allowed;
                     a spec starting with '-' is joined to its flag by '=',
                     as in --tau=-0.3*P1
  file:PATH          table of node values, one row per node: 'value' or
                     'theta value' with theta on the grid's nodes; fields
                     split by whitespace or commas, lines starting with '#'
                     skipped, a bad field named by its row and column\
"""


class CliValidationError(ValueError):
    """Bad user input; the message starts with the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


def _for_flag(field: str, build, *args):
    """build(*args), with rejected input, lifts that cannot be data and unusable paths blamed on field.

    A path is named once, as 'PATH: REASON', without the errno.
    """
    try:
        return build(*args)
    except (InvalidParameterError, DataFormatError, OSError, *NOT_DATA) as exc:
        if isinstance(exc, OSError) and exc.filename is not None and exc.strerror:
            raise CliValidationError(field, f"{exc.filename}: {exc.strerror}") from None
        raise CliValidationError(field, str(exc)) from None


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?:\*P(\d+))?")


def parse_tau(spec: str, grid: Grid, field: str = "--tau") -> np.ndarray:
    """Node values of a time-function spec; see TAU_GRAMMAR."""
    path = _tau_path(spec)
    if path is not None:
        if not path:
            raise CliValidationError(field, "empty path")
        return _tau_from_file(path, grid, field)
    spec = spec.strip()
    if spec == "zero":
        return np.zeros(grid.n_nodes)
    compact = spec.replace(" ", "")
    if not compact:
        raise CliValidationError(field, "empty time-function spec")
    coeffs = np.zeros(grid.n_nodes)
    scale = 0.0  # bounds max |tau|, since |P_l| <= 1 on the grid
    pos = 0
    while pos < len(compact):
        match = _TERM.match(compact, pos)
        if match is None or match.end() == pos:
            raise CliValidationError(
                field, f"unparseable term at {compact[pos:]!r} (grammar: zero | c*Pl sums | file:PATH)"
            )
        coeff = float(match.group(1))
        scale += abs(coeff)
        if not np.isfinite(scale):
            raise CliValidationError(
                field, f"coefficient {match.group(1)} is not finite or the sum overflows"
            )
        degree = 0 if match.group(2) is None else int(match.group(2))
        if degree > grid.highest_mode:
            raise CliValidationError(
                field, f"mode P{degree} is not resolved on an n={grid.n_nodes} grid "
                f"(highest P{grid.highest_mode})"
            )
        coeffs[degree] += coeff
        pos = match.end()
    return grid.time_function(np.trim_zeros(coeffs[1:], "b")) + coeffs[0]


def _tau_on(spec: str, metric: AxisymMetric) -> Evaluation:
    """The lift of a --tau spec on the metric; what it does not admit is blamed on --tau."""
    lift = _for_flag("--tau", Evaluation, metric, parse_tau(spec, metric.grid))
    _for_flag("--tau", getattr, lift, "p_hat")
    return lift


def _tau_path(spec: str) -> str | None:
    """The stripped PATH of a 'file:PATH' time-function spec, or None for any other spec."""
    spec = spec.strip()
    return spec[5:].strip() if spec.startswith("file:") else None


def _tau_from_file(path: str, grid: Grid, field: str) -> np.ndarray:
    """The node values of a file: table, refused naming field if they carry a mode above P_{n-2}."""
    values = _for_flag(field, _load_node_values, path, grid)
    # values that are not finite or exceed LENGTH_MAX are named by the admission with the lift
    if np.all(np.abs(values) <= LENGTH_MAX):
        highest = grid.highest_mode
        defect = _defect(grid, values, grid.legendre_coeffs(values)[: highest + 1])
        if defect is not None:
            raise CliValidationError(
                field,
                f"{path}: mode P{highest + 1} is not resolved on an n={grid.n_nodes} grid "
                f"(highest P{highest}), and the table carries it (defect {defect:.2e})",
            )
    return values


def _defect(grid: Grid, field: np.ndarray, coeffs: np.ndarray) -> float | None:
    """max|field - sum_l coeffs[l] P_l| when above 1e-10 max(1, max|field|): modes beyond coeffs."""
    defect = float(np.abs(field - coeffs[0] - grid.time_function(coeffs[1:])).max())
    return defect if defect > 1e-10 * max(1.0, float(np.abs(field).max())) else None


def _parse_assignments(spec: str, field: str, keys: tuple) -> list:
    """The values of a 'k=v,...' spec as floats in the order of keys, each key given once."""
    given = {}
    for piece in spec.split(","):
        key, eq, value = piece.partition("=")
        key = key.strip()
        if not eq:
            raise CliValidationError(field, f"expected key=value, got {piece!r}")
        if key not in keys:
            raise CliValidationError(field, f"unknown key {key!r}, expected {'/'.join(keys)}")
        if key in given:
            raise CliValidationError(field, f"key {key!r} is given twice")
        try:
            given[key] = float(value)
        except ValueError:
            raise CliValidationError(field, f"not a number: {value.strip()!r}") from None
    missing = [k for k in keys if k not in given]
    if missing:
        raise CliValidationError(field, f"missing {'/'.join(missing)}")
    return [given[k] for k in keys]


def _usage(keys: tuple) -> str:
    return ",".join(f"{k}={k.upper()}" for k in keys)


def _metric_specs() -> str:
    specs = (f"{name}:{_usage(keys)}" for name, (_, keys) in METRIC_FAMILIES.items())
    return " | ".join(["unit-sphere", *specs])


def build_metric(spec: str | None, grid: Grid) -> AxisymMetric:
    """The metric of a --metric spec; no spec is the unit sphere."""
    if spec in (None, "unit-sphere"):
        return round_sphere(grid)
    name, colon, params = spec.partition(":")
    if colon and name in METRIC_FAMILIES:
        build, keys = METRIC_FAMILIES[name]
        return _for_flag("--metric", build, grid, *_parse_assignments(params, "--metric", keys))
    raise CliValidationError("--metric", f"unknown metric {spec!r} ({_metric_specs()})")


# the suites that read a metric alone, so verify runs them without a data source
METRIC_SUITES = ("identities", "lemma41")


def build_data(args, grid: Grid):
    """PhysicalData and its echo string from the one source given, or None for a metric suite.

    A command without the source it needs is refused here, and only here.
    """
    family = next((name for name in DATA_FAMILIES if getattr(args, name) is not None), None)
    unread = [flag for flag, value in ((f"--{family}", family), ("--data", args.data))
              if value is not None]
    if args.metric is not None and unread:
        raise CliValidationError(
            "--metric",
            f"is read only with --minkowski or without a data source, not with {unread[0]}",
        )
    if family is not None:
        build, keys = DATA_FAMILIES[family]
        flag, spec = f"--{family}", getattr(args, family)
        return _for_flag(flag, build, grid, *_parse_assignments(spec, flag, keys)), f"{family} {spec}"
    if args.minkowski is not None:
        spec = args.minkowski.strip()
        if not spec.startswith("tau0="):
            raise CliValidationError("--minkowski", f"expected tau0=SPEC, got {spec!r}")
        metric = build_metric(args.metric, grid)
        tau0 = parse_tau(spec[len("tau0="):], grid, "--minkowski")
        d = _for_flag("--minkowski", minkowski_surface_data, metric, tau0)
        return d, f"minkowski {spec}"
    if args.data is not None:
        d = _for_flag("--data", load_physical_data, args.data)
        if d.metric.grid.n_nodes != grid.n_nodes:
            raise CliValidationError(
                "--data", f"file grid n={d.metric.grid.n_nodes} does not match --grid-n {grid.n_nodes}"
            )
        return d, f"data {args.data}"
    if getattr(args, "suite", None) in METRIC_SUITES:
        return None, f"metric {args.metric or 'unit-sphere'}"
    flags = [f"--{name}" for name in DATA_FAMILIES] + ["--minkowski", "--data"]
    raise CliValidationError("/".join(flags), f"{args.command} needs a data source")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _emit(command: str, args, echo: str, body: list, columns=None) -> None:
    """Print the report, or write it to --out, under its header.

    columns, (heading lines, rows), go to --columns if it is given,
    before anything is printed, so that a path that cannot be written
    leaves stdout empty; their 'wrote' line follows the report.
    """
    if columns and args.columns:
        _for_flag("--columns", _write_table, args.columns, *columns)
    header = [
        f"artifact = quasilocal {__version__}",
        f"command = {command}",
        f"grid_n = {args.grid_n}",
        f"source = {echo}",
        f"tau = {args.tau}",
    ]
    text = "\n".join(header + body) + "\n"
    if args.out:
        _for_flag("--out", Path(args.out).write_text, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    if columns and args.columns:
        print(f"wrote {args.columns}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_energy(args, grid: Grid, d, echo: str) -> int:
    at_tau = d.evaluate(_tau_on(args.tau, d.metric))
    breakdown, cross = at_tau.energy, at_tau.angle_form
    body = [
        f"reference_term = {_fmt(breakdown.reference_term)}",
        f"physical_term = {_fmt(breakdown.physical_term)}",
        f"total = {_fmt(breakdown.total)}",
        f"cross_check_total = {_fmt(cross.total)}",
        f"cross_check_deviation = {_fmt(abs(cross.total - breakdown.total))}",
        f"guard_margin = {_fmt(at_tau.ev.guard)}",
    ]
    _emit("energy", args, echo, body)
    return 0


def cmd_residual(args, grid: Grid, d, echo: str) -> int:
    at_tau = d.evaluate(_tau_on(args.tau, d.metric))
    field = at_tau.residual
    body = [
        f"residual_l2 = {_fmt(at_tau.residual_norm)}",
        f"residual_max = {_fmt(np.abs(field).max())}",
    ]
    _emit("residual", args, echo, body, (["# theta residual"], zip(grid.nodes, field)))
    return 0


def _initial_coefficients(args, metric: AxisymMetric):
    """The TauCoefficients start of minimize, after checking --tol, --max-iterations and --modes."""
    from .optimize import TauCoefficients

    grid = metric.grid
    if not (args.tol > 0.0 and np.isfinite(args.tol)):
        raise CliValidationError("--tol", f"must be positive and finite, got {args.tol}")
    if args.max_iterations < 0:
        raise CliValidationError("--max-iterations", f"must be at least 0, got {args.max_iterations}")
    field = _tau_on(args.tau, metric).tau
    coeffs = grid.legendre_coeffs(field)
    if not 1 <= args.modes <= grid.highest_mode:
        raise CliValidationError("--modes", f"must be in [1, {grid.highest_mode}], got {args.modes}")
    defect = _defect(grid, field, coeffs[: args.modes + 1])
    if defect is not None:
        raise CliValidationError(
            "--tau", f"initial profile uses modes above P{args.modes} (defect {defect:.2e})"
        )
    return TauCoefficients(tuple(coeffs[1 : args.modes + 1]))


def cmd_minimize(args, grid: Grid, d, echo: str) -> int:
    from .optimize import GuardViolationError, LineSearchError, minimize_energy

    init = _initial_coefficients(args, d.metric)
    try:
        report = minimize_energy(d, init, tol=args.tol, max_iterations=args.max_iterations)
    except (GuardViolationError, LineSearchError) as exc:
        return _failed(exc, 2)
    body = [
        f"tolerance = {_fmt(args.tol)}",
        f"initial_energy = {_fmt(report.energy_trace[0])}",
        f"energy = {_fmt(report.energy_star)}",
        f"iterations = {report.iterations}",
        f"stop = {report.stop}",
        f"residual_norm = {_fmt(report.residual_norm)}",
        f"guard_active = {'true' if report.guard_active else 'false'}",
        f"calibration_rel_error = {_fmt(report.calibration_rel_error)}",
        f"hessian_min_eigenvalue = {_fmt(report.hessian_min_eigenvalue)}",
    ]
    body.extend(
        f"coefficient.P{i} = {_fmt(c)}" for i, c in enumerate(report.tau_star.coeffs, start=1)
    )
    body.extend(f"trace.{k} = {_fmt(e)}" for k, e in enumerate(report.energy_trace))
    _emit("minimize", args, echo, body, (["# iteration energy"], enumerate(report.energy_trace)))
    return 0


def cmd_verify(args, grid: Grid, d, echo: str) -> int:
    from .verify import (
        check_identities,
        check_lemma41,
        check_theorem1,
        check_theorem3,
        format_report,
    )

    metric = d.metric if d is not None else build_metric(args.metric, grid)
    lift = _tau_on(args.tau, metric)
    if args.suite in METRIC_SUITES:
        report = (check_identities if args.suite == "identities" else check_lemma41)(metric, lift)
    elif args.suite == "theorem1":
        try:
            report = check_theorem1(d, lift.tau)
        except NOT_DATA as exc:
            # only Sigma_tau0 is read as data; at a zero tau0 it is the data's own rest image
            if not np.any(lift.tau):
                raise
            raise CliValidationError(
                "--tau", f"the lift of tau0, Sigma_tau0, is not physical data: {exc}"
            ) from None
    elif np.any(lift.tau != 0.0):
        raise CliValidationError("--tau", f"suite theorem3 certifies tau = zero, got {args.tau!r}")
    else:
        report = check_theorem3(d)
    _emit(f"verify {args.suite}", args, echo, format_report(report).splitlines())
    return 0 if report.passed else 2


def cmd_gen_data(args, grid: Grid, d, echo: str) -> int:
    if not args.out:
        raise CliValidationError("--out", "gen-data needs an output path")
    _for_flag("--out", store_physical_data, d, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route those through the
    # validation-error status instead
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_command(commands, name: str, help_text: str, run, tau_help=None):
    """A subcommand with grid, output and data-source flags, and --tau if it has a tau_help."""
    sub = commands.add_parser(name, help=help_text, epilog=TAU_GRAMMAR,
                              formatter_class=argparse.RawDescriptionHelpFormatter)
    sub.set_defaults(run=run)
    sub.add_argument("--grid-n", type=int, default=32, help="collocation nodes (default 32)")
    sub.add_argument("--out", default=None, help="write the report to this path")
    sources = sub.add_mutually_exclusive_group()
    for family, (build, keys) in DATA_FAMILIES.items():
        sources.add_argument(f"--{family}", dest=family, default=None, metavar=_usage(keys),
                             help=(build.__doc__ or "").strip().split("\n")[0])
    sources.add_argument("--minkowski", default=None, metavar="tau0=SPEC",
                         help="lift of the metric by the given time function, as flat-space data")
    sources.add_argument("--data", default=None, metavar="PATH", help="physical-data table")
    sub.add_argument("--metric", default=None,
                     help=f"metric for --minkowski and the identity suites ({_metric_specs()})")
    if tau_help is not None:
        sub.add_argument("--tau", default="zero", help=f"{tau_help} (see grammar below)")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quasilocal",
        description=__doc__.split("\n\n")[0],
        epilog=TAU_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"quasilocal {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    _add_command(commands, "energy", "energy breakdown", cmd_energy, "time function")

    sub = _add_command(commands, "residual", "criticality residual", cmd_residual, "time function")
    sub.add_argument("--columns", default=None, help="write 'theta residual' rows to this path")

    sub = _add_command(commands, "minimize", "minimize the energy", cmd_minimize,
                       "initial time function")
    sub.add_argument("--tol", type=float, default=1e-7,
                     help="gradient norm below which the run stops (default 1e-7); it also stops "
                          "when the Newton decrement falls below the energy's rounding floor")
    sub.add_argument("--max-iterations", type=int, default=500)
    sub.add_argument("--modes", type=int, default=8,
                     help="Legendre modes P1..PL optimized, L in [1, n - 2] (default 8)")
    sub.add_argument("--columns", default=None, help="write 'iteration energy' rows to this path")

    sub = _add_command(commands, "verify", "run a certification suite", cmd_verify,
                       "time function; theorem1's base point, zero for theorem3")
    sub.add_argument("--suite", required=True,
                     choices=("identities", "theorem1", "theorem3", "lemma41"))

    _add_command(commands, "gen-data", "write a physical-data table", cmd_gen_data)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_paths(args)
        grid = _for_flag("--grid-n", make_grid, args.grid_n)
        return args.run(args, grid, *build_data(args, grid))
    except (CliValidationError, FieldShapeError) as exc:
        return _failed(exc, 1)
    except (*LIFT_ERRORS, InvalidParameterError) as exc:
        return _failed(exc, 2)


def _check_paths(args) -> None:
    """Refuse a blank --out, --columns or --data path, and an output that would overwrite an input.

    An --out or --columns path must not name the file of the other
    output, of --data, or of the file: path of --tau or --minkowski
    tau0=: not by its real path, and, where both exist, not by its
    device and inode, which a hard link shares.  Nothing has been read
    or written yet.  realpath, unlike Path.resolve, and _file_id leave a
    symlink loop to fail where it is opened.
    """
    tau0 = (args.minkowski or "").strip().removeprefix("tau0=")
    paths = [("--out", args.out), ("--columns", getattr(args, "columns", None)), ("--data", args.data),
             ("--tau", _tau_path(getattr(args, "tau", None) or "")), ("--minkowski", _tau_path(tau0))]
    for flag, path in paths[:3]:
        if path is not None and not path.strip():
            raise CliValidationError(flag, "empty path")
    named = [(flag, path, os.path.realpath(path), _file_id(path)) for flag, path in paths if path]
    for i, (flag, path, target, file_id) in enumerate(named):
        for other, other_path, other_target, other_id in named[i + 1:]:
            same = target == other_target or (file_id is not None and file_id == other_id)
            if same and flag in ("--out", "--columns"):
                raise CliValidationError(flag, f"{path} is the same file as {other} {other_path}")


def _file_id(path: str) -> tuple | None:
    """(st_dev, st_ino) of the file path names, or None where os.stat raises: no file yet, or a loop."""
    try:
        info = os.stat(path)
    except OSError:
        return None
    return info.st_dev, info.st_ino


def _failed(exc: Exception, status: int) -> int:
    """Print the error and return its exit status: 1 for rejected input, 2 for a failed computation."""
    print(f"error: {exc}", file=sys.stderr)
    return status


def run() -> None:
    """Process entry: exit with main's status, the heap frozen first.

    Interpreter shutdown runs full garbage collections, and after main
    they walk the whole numpy and package heap, which is still in use,
    to free little.  gc.freeze moves the live objects out of their
    reach; shutdown otherwise runs as usual, atexit handlers and the
    flushing of buffered streams included.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()

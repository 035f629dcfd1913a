"""Command line front end.

Subcommands:

    energy     energy breakdown for a data source and a time function
    residual   criticality residual field for a data source and time function
    minimize   minimize the energy over Legendre coefficients
    verify     run one certification suite
    gen-data   write a physical-data table to a file

Every report is flat 'key = value' text prefixed with the artifact
version, command, grid size, data source and time function, so a fixed
configuration reproduces the output byte for byte.  Column files for
plotting carry 'theta value' (or 'iteration energy') rows.  Exit status:
0 on success, 1 on a validation error naming the offending field, 2 when
a computation or certification suite fails.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .geometry import (
    FieldShapeError,
    InvalidParameterError,
    integrate_surface,
    make_grid,
    round_sphere,
    Grid,
    AxisymMetric,
)
from .embedding import (
    GaugeOrientationError,
    NonEmbeddableError,
    NonSpacelikeMeanCurvatureError,
)
from .physdata import (
    DataFormatError,
    PhysicalData,
    load_physical_data,
    minkowski_surface_data,
    schwarzschild_sphere,
    store_physical_data,
)
from .energy import evaluate, qle, qle_angle_form, residual
from .optimize import (
    GuardViolationError,
    LineSearchError,
    TauCoefficients,
    convexity_guard,
    minimize_energy,
    tau_from_coefficients,
)
from .verify import (
    check_identities,
    check_lemma41,
    check_theorem1,
    check_theorem3,
    format_report,
    legendre_mode,
)

TAU_GRAMMAR = """\
time function grammar (--tau, --tau0, and tau0= in --minkowski):
  zero               the zero profile
  c*Pl[+c*Pl...]     signed sum of Legendre-coefficient terms, e.g.
                     0.3*P1+0.1*P2 or 0.5*P1-2e-2*P3; bare constants allowed
  file:PATH          whitespace table of node values: either one value per
                     node or 'theta value' rows matching the grid exactly\
"""


class CliValidationError(ValueError):
    """Bad user input; the message starts with the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """One command invocation: sizes and echoes of the input specs."""

    command: str
    grid_n: int
    source: str
    tau_spec: str
    tolerance: float = 1e-7

    def __post_init__(self):
        if not self.grid_n >= 4:
            raise CliValidationError("--grid-n", f"must be at least 4, got {self.grid_n}")
        if not (self.tolerance > 0.0 and np.isfinite(self.tolerance)):
            raise CliValidationError("--tol", f"must be positive and finite, got {self.tolerance}")

    def header(self) -> list:
        return [
            f"artifact = quasilocal {__version__}",
            f"command = {self.command}",
            f"grid_n = {self.grid_n}",
            f"source = {self.source}",
            f"tau = {self.tau_spec}",
        ]


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?:\*P(\d+))?")


def build_grid(n: int) -> Grid:
    try:
        return make_grid(n)
    except InvalidParameterError as exc:
        raise CliValidationError("--grid-n", str(exc)) from None


def parse_tau(spec: str, grid: Grid, field: str = "--tau") -> np.ndarray:
    """Node values of a time-function spec; see TAU_GRAMMAR."""
    spec = spec.strip()
    if spec == "zero":
        return np.zeros(grid.n_nodes)
    if spec.startswith("file:"):
        return _tau_from_file(spec[5:], grid, field)
    compact = spec.replace(" ", "")
    if not compact:
        raise CliValidationError(field, "empty time-function spec")
    total = np.zeros(grid.n_nodes)
    scale = 0.0  # bounds max |total|, since |P_l| <= 1 on the grid
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
        if match.group(2) is None:
            total = total + coeff
        else:
            degree = int(match.group(2))
            if degree >= grid.n_nodes:
                raise CliValidationError(
                    field, f"mode P{degree} is not resolved on an n={grid.n_nodes} grid"
                )
            total = total + legendre_mode(grid, degree, coeff)
        pos = match.end()
    return total


def _tau_from_file(path: str, grid: Grid, field: str) -> np.ndarray:
    try:
        table = np.loadtxt(path)
    except OSError as exc:
        raise CliValidationError(field, f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise CliValidationError(field, f"{path} is not a numeric table: {exc}") from None
    if not np.isfinite(table).all():
        j = int(np.argmin(np.isfinite(table).ravel()))
        raise CliValidationError(field, f"{path}: value {table.ravel()[j]} is not finite")
    if table.ndim == 2 and table.shape[1] == 2:
        theta, values = table[:, 0], table[:, 1]
        if theta.shape != grid.nodes.shape or np.max(np.abs(theta - grid.nodes)) > 1e-12:
            raise CliValidationError(
                field, f"{path}: theta column does not match the n={grid.n_nodes} grid"
            )
        return values
    if table.ndim == 1 and table.shape == (grid.n_nodes,):
        return table
    raise CliValidationError(
        field,
        f"{path}: expected {grid.n_nodes} node values or 'theta value' rows, got shape {table.shape}",
    )


def _parse_assignments(spec: str, field: str, keys: tuple) -> dict:
    out = {}
    for piece in spec.split(","):
        if "=" not in piece:
            raise CliValidationError(field, f"expected key=value, got {piece!r}")
        key, _, value = piece.partition("=")
        key = key.strip()
        if key not in keys:
            raise CliValidationError(field, f"unknown key {key!r}, expected {'/'.join(keys)}")
        out[key] = value.strip()
    missing = [k for k in keys if k not in out]
    if missing:
        raise CliValidationError(field, f"missing {'/'.join(missing)}")
    return out


def _float_of(raw: str, field: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CliValidationError(field, f"not a number: {raw!r}") from None
    if not np.isfinite(value):
        raise CliValidationError(field, f"not finite: {raw!r}")
    return value


def build_metric(spec: str, grid: Grid) -> AxisymMetric:
    if spec == "unit-sphere":
        return round_sphere(grid)
    if spec.startswith("sphere:"):
        params = _parse_assignments(spec[len("sphere:"):], "--metric", ("r",))
        return round_sphere(grid, _float_of(params["r"], "--metric"))
    raise CliValidationError("--metric", f"unknown metric {spec!r} (unit-sphere | sphere:r=R)")


def build_data(args, grid: Grid):
    """PhysicalData and its echo string from the mutually exclusive sources."""
    chosen = [
        name
        for name, value in (
            ("--schwarzschild", args.schwarzschild),
            ("--minkowski", args.minkowski),
            ("--data", args.data),
        )
        if value is not None
    ]
    if len(chosen) > 1:
        raise CliValidationError("/".join(chosen), "give exactly one data source")
    if not chosen:
        return None, f"metric {args.metric}"
    if args.schwarzschild is not None:
        params = _parse_assignments(args.schwarzschild, "--schwarzschild", ("m", "r"))
        mass = _float_of(params["m"], "--schwarzschild")
        radius = _float_of(params["r"], "--schwarzschild")
        try:
            d = schwarzschild_sphere(grid, mass, radius)
        except InvalidParameterError as exc:
            raise CliValidationError("--schwarzschild", str(exc)) from None
        return d, f"schwarzschild {args.schwarzschild}"
    if args.minkowski is not None:
        spec = args.minkowski.strip()
        if not spec.startswith("tau0="):
            raise CliValidationError("--minkowski", f"expected tau0=SPEC, got {spec!r}")
        tau0 = parse_tau(spec[len("tau0="):], grid, field="--minkowski")
        d = minkowski_surface_data(build_metric(args.metric, grid), tau0)
        return d, f"minkowski {spec}"
    try:
        d = load_physical_data(args.data)
    except DataFormatError as exc:
        raise CliValidationError("--data", str(exc)) from None
    if d.metric.grid.n_nodes != grid.n_nodes:
        raise CliValidationError(
            "--data", f"file grid n={d.metric.grid.n_nodes} does not match --grid-n {grid.n_nodes}"
        )
    return d, f"data {args.data}"


def require_data(args, grid: Grid):
    d, echo = build_data(args, grid)
    if d is None:
        raise CliValidationError(
            "--schwarzschild/--minkowski/--data", f"command {args.command!r} needs a data source"
        )
    return d, echo


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _emit(config: RunConfig, body: list, out) -> None:
    text = "\n".join(config.header() + body) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        print(text, end="")


def _write_columns(path, first, second, labels) -> None:
    lines = [f"# {labels[0]} {labels[1]}"]
    lines.extend(f"{_fmt(a)} {_fmt(b)}" for a, b in zip(first, second))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_energy(args) -> int:
    grid = build_grid(args.grid_n)
    d, echo = require_data(args, grid)
    tau = parse_tau(args.tau, grid)
    config = RunConfig("energy", args.grid_n, echo, args.tau)
    at_tau = evaluate(d.metric, tau)
    breakdown = qle(d, at_tau)
    cross = qle_angle_form(d, at_tau)
    body = [
        f"reference_term = {_fmt(breakdown.reference_term)}",
        f"physical_term = {_fmt(breakdown.physical_term)}",
        f"total = {_fmt(breakdown.total)}",
        f"cross_check_total = {_fmt(cross.total)}",
        f"cross_check_deviation = {_fmt(abs(cross.total - breakdown.total))}",
        f"guard_margin = {_fmt(convexity_guard(d.metric, at_tau))}",
    ]
    _emit(config, body, args.out)
    return 0


def cmd_residual(args) -> int:
    grid = build_grid(args.grid_n)
    d, echo = require_data(args, grid)
    tau = parse_tau(args.tau, grid)
    config = RunConfig("residual", args.grid_n, echo, args.tau)
    field = residual(d, tau)
    norm = float(np.sqrt(integrate_surface(d.metric, field**2)))
    body = [
        f"residual_l2 = {_fmt(norm)}",
        f"residual_max = {_fmt(np.max(np.abs(field)))}",
    ]
    _emit(config, body, args.out)
    if args.columns:
        _write_columns(args.columns, grid.nodes, field, ("theta", "residual"))
        print(f"wrote {args.columns}")
    return 0


def _initial_coefficients(args, grid: Grid) -> TauCoefficients:
    field = parse_tau(args.tau, grid)
    coeffs = grid.legendre_coeffs(field)
    if args.modes < 1 or args.modes >= grid.n_nodes:
        raise CliValidationError("--modes", f"must be in [1, {grid.n_nodes - 1}], got {args.modes}")
    init = TauCoefficients(tuple(coeffs[1 : args.modes + 1]))
    synthesized = tau_from_coefficients(grid, init) + coeffs[0]
    defect = float(np.max(np.abs(field - synthesized)))
    if defect > 1e-10 * max(1.0, float(np.max(np.abs(field)))):
        raise CliValidationError(
            "--tau", f"initial profile uses modes above P{args.modes} (defect {defect:.2e})"
        )
    return init


def cmd_minimize(args) -> int:
    grid = build_grid(args.grid_n)
    d, echo = require_data(args, grid)
    config = RunConfig("minimize", args.grid_n, echo, args.tau, tolerance=args.tol)
    init = _initial_coefficients(args, grid)
    report = minimize_energy(d, init, tol=args.tol, max_iterations=args.max_iterations)
    body = [
        f"tolerance = {_fmt(args.tol)}",
        f"initial_energy = {_fmt(report.energy_trace[0])}",
        f"energy = {_fmt(report.energy_star)}",
        f"iterations = {report.iterations}",
        f"residual_norm = {_fmt(report.residual_norm)}",
        f"guard_active = {'true' if report.guard_active else 'false'}",
        f"calibration_rel_error = {_fmt(report.calibration_rel_error)}",
    ]
    body.extend(
        f"coefficient.P{i} = {_fmt(c)}" for i, c in enumerate(report.tau_star.coeffs, start=1)
    )
    body.extend(f"trace.{k} = {_fmt(e)}" for k, e in enumerate(report.energy_trace))
    _emit(config, body, args.out)
    if args.columns:
        _write_columns(
            args.columns,
            np.arange(len(report.energy_trace)),
            np.asarray(report.energy_trace),
            ("iteration", "energy"),
        )
        print(f"wrote {args.columns}")
    return 0


def cmd_verify(args) -> int:
    grid = build_grid(args.grid_n)
    d, echo = build_data(args, grid)
    tau = parse_tau(args.tau, grid)
    if args.suite in ("identities", "lemma41"):
        metric = d.metric if d is not None else build_metric(args.metric, grid)
        report = (check_identities if args.suite == "identities" else check_lemma41)(metric, tau)
    elif args.suite == "theorem1":
        if d is None:
            raise CliValidationError(
                "--schwarzschild/--minkowski/--data", "suite theorem1 needs a data source"
            )
        report = check_theorem1(d, parse_tau(args.tau0, grid, field="--tau0"))
    else:
        if d is None:
            raise CliValidationError(
                "--schwarzschild/--minkowski/--data", "suite theorem3 needs a data source"
            )
        report = check_theorem3(d)
    config = RunConfig(f"verify {args.suite}", args.grid_n, echo, args.tau)
    _emit(config, format_report(report).splitlines(), args.out)
    return 0 if report.passed else 2


def cmd_gen_data(args) -> int:
    grid = build_grid(args.grid_n)
    d, echo = require_data(args, grid)
    if not args.out:
        raise CliValidationError("--out", "gen-data needs an output path")
    store_physical_data(d, args.out)
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


def _add_common(sub, tau_default="zero"):
    sub.add_argument("--grid-n", type=int, default=32, help="collocation nodes (default 32)")
    sub.add_argument("--out", default=None, help="write the report to this path")
    sub.add_argument("--schwarzschild", default=None, metavar="m=M,r=R",
                     help="round sphere of radius R in the mass-M time-symmetric slice")
    sub.add_argument("--minkowski", default=None, metavar="tau0=SPEC",
                     help="lift of the metric by the given time function, as flat-space data")
    sub.add_argument("--data", default=None, metavar="PATH", help="physical-data table")
    sub.add_argument("--metric", default="unit-sphere",
                     help="metric for --minkowski and the identity suites (unit-sphere | sphere:r=R)")
    sub.add_argument("--tau", default=tau_default, help="time function (see grammar below)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quasilocal",
        description=__doc__.split("\n\n")[0],
        epilog=TAU_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"quasilocal {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("energy", help="energy breakdown",
                              epilog=TAU_GRAMMAR, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(sub)
    sub.set_defaults(run=cmd_energy)

    sub = commands.add_parser("residual", help="criticality residual",
                              epilog=TAU_GRAMMAR, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(sub)
    sub.add_argument("--columns", default=None, help="write 'theta residual' rows to this path")
    sub.set_defaults(run=cmd_residual)

    sub = commands.add_parser("minimize", help="minimize the energy",
                              epilog=TAU_GRAMMAR, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(sub)
    sub.add_argument("--tol", type=float, default=1e-7, help="gradient norm target (default 1e-7)")
    sub.add_argument("--max-iterations", type=int, default=500)
    sub.add_argument("--modes", type=int, default=8, help="Legendre modes optimized (default 8)")
    sub.add_argument("--columns", default=None, help="write 'iteration energy' rows to this path")
    sub.set_defaults(run=cmd_minimize)

    sub = commands.add_parser("verify", help="run a certification suite",
                              epilog=TAU_GRAMMAR, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(sub)
    sub.add_argument("--suite", required=True,
                     choices=("identities", "theorem1", "theorem3", "lemma41"))
    sub.add_argument("--tau0", default="zero", help="base point for the theorem1 suite")
    sub.set_defaults(run=cmd_verify)

    sub = commands.add_parser("gen-data", help="write a physical-data table",
                              epilog=TAU_GRAMMAR, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(sub)
    sub.set_defaults(run=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (CliValidationError, DataFormatError, FieldShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        NonEmbeddableError,
        NonSpacelikeMeanCurvatureError,
        GaugeOrientationError,
        GuardViolationError,
        LineSearchError,
        InvalidParameterError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

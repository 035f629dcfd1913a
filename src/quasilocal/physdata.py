"""Physical surface data: construction, ingestion, persistence.

A physical surface is a metric together with the norm of its spacetime
mean curvature vector and the connection one-form of the frame aligned
with it.  Everything downstream (energy evaluation, minimization,
certification) consumes this triple and nothing else, so data can come
from closed-form families, from a lifted surface, or from a text table.

Data of a surface in Minkowski space (minkowski_surface_data), where a
lift becomes physical data and the only code that checks it can, carries
the lift it was computed from; nothing else sets PhysicalData.lift.
PhysicalData.evaluate, through which the formulas that take data
evaluate a time function on its metric, returns that lift for the data's
own time function, given bit for bit, so the energy, the residual and
the gradient at tau0 reuse it instead of lifting (m, tau0) again.

Files are whitespace-separated decimal tables with one comment line
declaring the grid size and one header line naming the columns:

    # n=32
    theta P Q normH alpha_theta
    <one row per node, 17 significant digits>

Node positions are regenerated from the declared grid size on load and
checked against the theta column; values are never interpolated.
AxisymMetric and PhysicalData admit the values, as they do data from
any other source.

DATA_FAMILIES and METRIC_FAMILIES are the table of what the command line
builds from parameters, one row each: a name, a builder taking the grid
and then floats, and the names of those parameters in order.  A new
family is one builder and one row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    AxisymMetric,
    Grid,
    InvalidParameterError,
    _admit,
    _check_field,
    _read_only,
    make_grid,
    round_sphere,
)
from .embedding import Evaluation, GaugeOrientationError, NonSpacelikeMeanCurvatureError, evaluate

COLUMNS = ("theta", "P", "Q", "normH", "alpha_theta")


def _fmt(value: float) -> str:
    """A number in every table and report: 17 significant digits, enough to round-trip a float."""
    return f"{float(value):.17g}"


class HorizonError(InvalidParameterError):
    """The requested sphere lies at or inside the horizon radius."""


class DataFormatError(ValueError):
    """A data table violates the expected layout or value ranges."""


@dataclass(frozen=True, eq=False)
class PhysicalData:
    """Surface data (metric, |H|, alpha_H).

    alpha_H is the dtheta component of the connection one-form.  |H| is
    a curvature and must lie in [1/LENGTH_MAX, LENGTH_MAX], and alpha_H
    must be at most LENGTH_MAX in size, so that the energy's squares and
    products of them stay finite; the constructor admits both by
    geometry._admit, which names the first bad node, and names a finite
    |H| <= 0 as not positive.  The metric's P must be one profile, not a
    stack.

    lift is not a constructor argument: it is None, except on data built
    by minkowski_surface_data, which sets it to the lift of its own copy
    of tau0.  It takes no part in repr, and evaluate serves it for that
    time function; dataclasses.replace gives data without it.  Data
    compare and hash by identity.
    """

    metric: AxisymMetric
    norm_H: np.ndarray
    alpha_H: np.ndarray
    lift: Evaluation | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        grid = self.metric.grid
        _check_field(grid, "P", self.metric.P)  # the data of one surface, not a stack
        try:
            norm_h = _admit(grid, "normH", self.norm_H, lengths=True)
        except InvalidParameterError:
            norm_h = np.asarray(self.norm_H, dtype=float)
            j = int(np.argmin(norm_h))
            if np.isfinite(norm_h).all() and norm_h[j] <= 0.0:
                raise InvalidParameterError(
                    f"normH must be positive; normH = {norm_h[j]} at node {j}"
                ) from None
            raise
        object.__setattr__(self, "norm_H", norm_h)
        object.__setattr__(self, "alpha_H", _admit(grid, "alpha_theta", self.alpha_H, lengths=False))

    def evaluate(self, tau: np.ndarray | Evaluation) -> Evaluation:
        """The Evaluation of tau on the metric: the kept lift for its own time function.

        The lift is served only for an array of its dtype and shape whose
        bytes equal its tau, so -0.0 for 0.0 or another NaN payload
        builds a new Evaluation, as does every other field or stack.
        """
        lift = self.lift
        if (
            lift is not None
            and isinstance(tau, np.ndarray)
            and tau.dtype == lift.tau.dtype
            and tau.shape == lift.tau.shape
            and tau.tobytes() == lift.tau.tobytes()
        ):
            return lift
        return evaluate(self.metric, tau)


def schwarzschild_sphere(grid: Grid, mass: float, radius: float) -> PhysicalData:
    """Round coordinate sphere of radius r in the time-symmetric slice of mass m.

    |H| = (2/r) sqrt(1 - 2m/r) and alpha_H = 0, so the zero time
    function solves the criticality equation for this data.  A mass or
    radius that is not finite is rejected, naming it, before anything is
    built.
    """
    if not 0.0 <= mass < np.inf:
        raise InvalidParameterError(f"mass must be nonnegative and finite, got {mass}")
    if radius <= 2.0 * mass:
        raise HorizonError(
            f"radius {radius} does not lie outside the horizon radius {2.0 * mass}"
        )
    metric = round_sphere(grid, radius)
    norm_h = np.full(grid.n_nodes, (2.0 / radius) * np.sqrt(1.0 - 2.0 * mass / radius))
    return PhysicalData(metric=metric, norm_H=norm_h, alpha_H=np.zeros(grid.n_nodes))


# name -> (builder, parameter names); see the module docstring
DATA_FAMILIES = {"schwarzschild": (schwarzschild_sphere, ("m", "r"))}
METRIC_FAMILIES = {"sphere": (round_sphere, ("r",))}


def minkowski_surface_data(m: AxisymMetric, tau0: np.ndarray) -> PhysicalData:
    """Data of the lift of (m, tau0) viewed as a surface in flat spacetime.

    This is where a lift becomes physical data, and the only place that
    checks it can be.  It reads the lift's normal-bundle fields mean_sq,
    breve_h, breve_h4 and breve_alpha, and raises
    NonSpacelikeMeanCurvatureError if <H, H> <= 0 somewhere (the field
    is attached to the error) and GaugeOrientationError if
    <H, e3_breve> >= 0 somewhere, which would put H outside the frame
    wedge.  alpha_H is obtained by boosting: with
    sinh(beta) = <H, e4_breve>/|H| the frame aligned with H is the
    beta-boost of the breve frame, and connection one-forms shift by the
    differential of the boost angle, alpha_H = breve_alpha - d beta.

    tau0 is an array of node values of shape (n,).  It is lifted from a
    read-only copy, which the data keeps as its lift, so changing the
    caller's array later cannot leave the lift stale.
    """
    tau0 = _check_field(m.grid, "tau0", np.array(tau0, dtype=float))
    lift = Evaluation(m, _read_only(tau0))
    j = int(np.argmin(lift.mean_sq))
    if lift.mean_sq[j] <= 0.0:
        raise NonSpacelikeMeanCurvatureError(lift.mean_sq, j)
    j = int(np.argmax(lift.breve_h))
    if lift.breve_h[j] >= 0.0:
        raise GaugeOrientationError(
            f"<H, e3_breve> = {lift.breve_h[j]} >= 0 at node {j}; "
            "the lifted surface is not convex enough to frame H"
        )
    norm_h = np.sqrt(lift.mean_sq)
    alpha_h = lift.breve_alpha - m.grid.dtheta(np.arcsinh(lift.breve_h4 / norm_h))
    d = PhysicalData(metric=m, norm_H=norm_h, alpha_H=alpha_h)
    object.__setattr__(d, "lift", lift)
    return d


def store_physical_data(d: PhysicalData, path: str | os.PathLike) -> None:
    """Write a PhysicalData table; see the module docstring for layout."""
    g = d.metric.grid
    rows = np.column_stack(
        [g.nodes, d.metric.P, d.metric.Q, d.norm_H, d.alpha_H]
    )
    lines = [f"# n={g.n_nodes}", " ".join(COLUMNS)]
    for row in rows:
        lines.append(" ".join(map(_fmt, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _split_row(line: str) -> list[str]:
    return line.replace(",", " ").split()


def load_physical_data(path: str | os.PathLike) -> PhysicalData:
    """Read a PhysicalData table written by store_physical_data.

    Only the layout is checked here, the theta column against the nodes
    of the grid regenerated from the declared size; AxisymMetric and
    PhysicalData admit the values.  Raises DataFormatError on any
    violation, naming the column and the row or node, or the declaration.
    """
    with open(path) as fh:
        try:
            raw = [line.strip() for line in fh]
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not a text table: {exc}") from None
    lines = [line for line in raw if line]
    if not lines or not lines[0].startswith("#"):
        raise DataFormatError("missing '# n=<N>' declaration on the first line")
    decl = lines[0].lstrip("#").strip()
    if not decl.startswith("n="):
        raise DataFormatError(f"malformed grid declaration {lines[0]!r}")
    try:
        n = int(decl[2:])
    except ValueError:
        raise DataFormatError(f"malformed grid declaration {lines[0]!r}") from None

    if len(lines) < 2:
        raise DataFormatError(f"missing header line naming the columns {' '.join(COLUMNS)}")
    header = tuple(_split_row(lines[1]))
    if header != COLUMNS:
        raise DataFormatError(
            f"header must name columns {' '.join(COLUMNS)}, got {lines[1]!r}"
        )

    body = lines[2:]
    if len(body) != n:
        raise DataFormatError(f"table has {len(body)} rows, declared grid needs {n}")
    table = np.empty((n, len(COLUMNS)))
    for i, line in enumerate(body):
        parts = _split_row(line)
        if len(parts) != len(COLUMNS):
            raise DataFormatError(
                f"row {i} has {len(parts)} fields, expected {len(COLUMNS)}"
            )
        for j, part in enumerate(parts):
            try:
                table[i, j] = float(part)
            except ValueError:
                raise DataFormatError(
                    f"row {i}, column {COLUMNS[j]}: not a number: {part!r}"
                ) from None

    try:
        grid = make_grid(n)
    except InvalidParameterError as exc:
        raise DataFormatError(f"grid declaration {lines[0]!r}: {exc}") from None
    theta = table[:, 0]
    j = int(np.argmax(np.abs(theta - grid.nodes)))  # a NaN is the first maximum
    if not abs(theta[j] - grid.nodes[j]) <= 1e-12:
        raise DataFormatError(
            f"row {j}, column theta: node {theta[j]} does not match the "
            f"n={n} grid node {grid.nodes[j]}"
        )
    try:
        return PhysicalData(
            metric=AxisymMetric(grid, table[:, 1], table[:, 2]),
            norm_H=table[:, 3],
            alpha_H=table[:, 4],
        )
    except InvalidParameterError as exc:
        raise DataFormatError(str(exc)) from None

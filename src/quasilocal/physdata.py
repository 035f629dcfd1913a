"""Physical surface data: construction, ingestion, persistence.

A physical surface is a metric together with the norm of its spacetime
mean curvature vector and the connection one-form of the frame aligned
with it.  Everything downstream (energy evaluation, minimization,
certification) consumes this triple and nothing else, so data can come
from closed-form families, from a lifted surface, or from a text table.

Data keep what they have lifted and bound behind two doors, the only
ways to it.  PhysicalData.evaluate binds the Evaluation of a time
function to the data (an energy.DataEvaluation).  Data of a surface in
Minkowski space (minkowski_surface_data), where a lift becomes physical
data and the only code that checks it can, carry the lift they were
computed from; nothing else sets PhysicalData.lift.  evaluate serves
that lift, bound once, for the data's own time function, given bit for
bit, so the energy, the residual and the gradient at tau0 share the lift
and its fields.  PhysicalData.compared_at gives Sigma_tau0, the data of
the lift at tau0, with the data bound to its lift: the comparison both
suites make.  It decides which comparisons are kept: Sigma_0 and that
binding are formed once per data, however often the suites run, and
every other tau0 is lifted anew.

Every array data keep is theirs: PhysicalData keeps a read-only copy of
the |H| and alpha_H it admits, as AxisymMetric does of P and Q, and
minkowski_surface_data lifts a read-only copy of tau0, so nothing a
caller writes to its arrays later reaches what data have formed or will
form.  A metric the package derives (a lift's projection, the rows of a
metric stack) holds its profile read-only too, so no write reaches the
projection of a kept lift.  An Evaluation reads the tau it is given, and
the other arrays it forms stay writable: whatever keeps one owns its tau
and them.

Files are whitespace-separated decimal tables with one comment line
declaring the grid size and one header line naming the columns:

    # n=32
    theta P Q normH alpha_theta
    <one row per node, 17 significant digits>

Node positions are regenerated from the declared grid size on load and
checked against the theta column; values are never interpolated.
AxisymMetric and PhysicalData admit the values, as they do data from
any other source.  Fields may also be split by commas.  The same row
reader, theta check and row writer serve the command line's other
tables: the time functions of its file: specs, one row per node
('value' or 'theta value', '#' lines skipped), and the files of
--columns.

DATA_FAMILIES and METRIC_FAMILIES are the table of what the command line
builds from parameters, one row each: a name, a builder taking the grid
and then floats, and the names of those parameters in order.  A new
family is one builder and one row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    AxisymMetric,
    Grid,
    InvalidParameterError,
    _admit,
    _check_field,
    _owned,
    lazy,
    make_grid,
    round_sphere,
)
from .embedding import Evaluation, GaugeOrientationError, NonSpacelikeMeanCurvatureError, evaluate

if TYPE_CHECKING:
    from .energy import DataEvaluation

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
    geometry._admit, which names the first bad node, and keeps a
    read-only copy of each, as AxisymMetric does of P and Q.  The
    metric's P must be one profile, not a stack.

    lift is not a constructor argument: it is None, except on data built
    by minkowski_surface_data, which sets it to the lift of its own copy
    of tau0.  It takes no part in repr, and evaluate serves it, bound to
    the data, for that time function; dataclasses.replace gives data
    without it.  evaluate and compared_at are the only ways to what the
    data keep, the bound lift and the comparison at tau0 = 0, each formed
    when first asked for; neither refers back to the data, so data are
    freed when their last reference goes.  Data compare and hash by identity.
    """

    metric: AxisymMetric
    norm_H: np.ndarray
    alpha_H: np.ndarray
    lift: Evaluation | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        grid = self.metric.grid
        _check_field(grid, "P", self.metric.P)  # the data of one surface, not a stack
        object.__setattr__(self, "norm_H", _owned(_admit(grid, "normH", self.norm_H, lengths=True)))
        object.__setattr__(self, "alpha_H", _owned(_admit(grid, "alpha_theta", self.alpha_H, lengths=False)))

    @lazy
    def _own(self) -> DataEvaluation:
        """lift bound to the data, formed when they are first evaluated at its tau."""
        return _data_evaluation()(self, self.lift)

    @lazy
    def _rest(self) -> tuple[PhysicalData, DataEvaluation]:
        """Sigma_0, minkowski_surface_data(metric, 0), and the data bound to its lift."""
        rest = minkowski_surface_data(self.metric, np.zeros(self.metric.grid.n_nodes))
        return rest, _data_evaluation()(self, rest.lift)

    def compared_at(self, tau0: np.ndarray) -> tuple[PhysicalData, DataEvaluation]:
        """Sigma_tau0 and these data evaluated on its lift, the comparison at tau0.

        tau0 must be one field of node values; only its shape and bytes
        are read here.  One whose bytes are all those of +0.0 gives
        Sigma_0 and its binding, formed once and kept; any other, -0.0
        included, is lifted anew by minkowski_surface_data, from its copy.
        """
        tau0 = _check_field(self.metric.grid, "tau0", tau0)
        if tau0.tobytes() == bytes(tau0.nbytes):
            return self._rest
        reference = minkowski_surface_data(self.metric, tau0)
        return reference, self.evaluate(reference.lift)

    def evaluate(self, tau: np.ndarray | Evaluation) -> DataEvaluation:
        """The DataEvaluation of tau on the metric; the data's lift, bound once, at its own tau.

        That is served only for an array of its dtype and shape whose bytes
        equal the lift's tau, so -0.0 for 0.0 or another NaN payload gets a
        new DataEvaluation, as does every other field, stack or Evaluation.
        """
        lift = self.lift
        if (
            lift is not None
            and isinstance(tau, np.ndarray)
            and tau.dtype == lift.tau.dtype
            and tau.shape == lift.tau.shape
            and tau.tobytes() == lift.tau.tobytes()
        ):
            return self._own
        return _data_evaluation()(self, evaluate(self.metric, tau))


@cache
def _data_evaluation() -> type[DataEvaluation]:
    """energy.DataEvaluation, imported when data are first evaluated, not when this module is."""
    from .energy import DataEvaluation
    return DataEvaluation


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
    read-only copy, which the data keep as their lift, as they keep
    read-only copies of the norm_H and alpha_H formed here; every call
    lifts anew, a zero tau0 included (PhysicalData.compared_at keeps one
    such lift per data for the comparison suites).
    """
    lift = Evaluation(m, _owned(_check_field(m.grid, "tau0", tau0)))
    j = int(lift.mean_sq.argmin())
    if lift.mean_sq[j] <= 0.0:
        raise NonSpacelikeMeanCurvatureError(lift.mean_sq, j)
    j = int(lift.breve_h.argmax())
    if lift.breve_h[j] >= 0.0:
        raise GaugeOrientationError(
            f"<H, e3_breve> = {lift.breve_h[j]} >= 0 at node {j}; "
            "the lifted surface is not convex enough to frame H"
        )
    norm_h = np.sqrt(lift.mean_sq)
    d = PhysicalData(m, norm_h, lift.breve_alpha - m.grid.dtheta(np.arcsinh(lift.breve_h4 / norm_h)))
    object.__setattr__(d, "lift", lift)
    return d


def store_physical_data(d: PhysicalData, path: str | os.PathLike) -> None:
    """Write a PhysicalData table; see the module docstring for layout."""
    g = d.metric.grid
    rows = np.column_stack(
        [g.nodes, d.metric.P, d.metric.Q, d.norm_H, d.alpha_H]
    )
    _write_table(path, [f"# n={g.n_nodes}", " ".join(COLUMNS)], rows)


def load_physical_data(path: str | os.PathLike) -> PhysicalData:
    """Read a PhysicalData table written by store_physical_data.

    Only the layout is checked here, the theta column against the nodes
    of the grid regenerated from the declared size; AxisymMetric and
    PhysicalData admit the values.  Raises DataFormatError on any
    violation, naming the column and the row or node, or the declaration.
    """
    lines = _text_lines(path)
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
    table = _parse_rows(body, COLUMNS)

    try:
        grid = make_grid(n)
    except InvalidParameterError as exc:
        raise DataFormatError(f"grid declaration {lines[0]!r}: {exc}") from None
    _check_theta(grid, table[:, 0])
    try:
        return PhysicalData(
            metric=AxisymMetric(grid, table[:, 1], table[:, 2]),
            norm_H=table[:, 3],
            alpha_H=table[:, 4],
        )
    except InvalidParameterError as exc:
        raise DataFormatError(str(exc)) from None


def _load_node_values(path: str | os.PathLike, grid: Grid) -> np.ndarray:
    """The node values of a file: spec's table; see the module docstring for its layout.

    Only the layout is checked, as by load_physical_data; the layout of
    the first row, 'value' or 'theta value', is the table's.
    """
    body = [line for line in _text_lines(path) if not line.startswith("#")]
    if len(body) != grid.n_nodes:
        raise DataFormatError(f"table has {len(body)} rows, expected {grid.n_nodes} node values")
    table = _parse_rows(body, ("value",) if len(_split_row(body[0])) == 1 else ("theta", "value"))
    if table.shape[1] == 2:
        _check_theta(grid, table[:, 0])
    return table[:, -1]


def _write_table(path: str | os.PathLike, head: list[str], rows) -> None:
    """Write the lines of head, then each row as its numbers by _fmt, joined by spaces."""
    with open(path, "w") as fh:
        fh.write("\n".join(head + [" ".join(map(_fmt, row)) for row in rows]) + "\n")


def _text_lines(path: str | os.PathLike) -> list[str]:
    """The lines of a text table that are not blank, stripped."""
    with open(path) as fh:
        try:
            return [text for line in fh if (text := line.strip())]
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not a text table: {exc}") from None


def _split_row(line: str) -> list[str]:
    return line.replace(",", " ").split()


def _parse_rows(body: list[str], columns: tuple[str, ...]) -> np.ndarray:
    """The rows as floats, one column each; DataFormatError names the row, and the column of a non-number."""
    table = np.empty((len(body), len(columns)))
    for i, line in enumerate(body):
        parts = _split_row(line)
        if len(parts) != len(columns):
            raise DataFormatError(f"row {i} has {len(parts)} fields, expected {len(columns)}")
        for j, part in enumerate(parts):
            try:
                table[i, j] = float(part)
            except ValueError:
                raise DataFormatError(f"row {i}, column {columns[j]}: not a number: {part!r}") from None
    return table


def _check_theta(grid: Grid, theta: np.ndarray) -> None:
    """Raise DataFormatError naming the first row whose theta is not within 1e-12 of its node."""
    j = int(np.abs(theta - grid.nodes).argmax())  # a NaN is the first maximum
    if not abs(theta[j] - grid.nodes[j]) <= 1e-12:
        raise DataFormatError(
            f"row {j}, column theta: node {theta[j]} does not match the "
            f"n={grid.n_nodes} grid node {grid.nodes[j]}"
        )

"""Physical surface data: construction, ingestion, persistence.

A physical surface is a metric together with the norm of its spacetime
mean curvature vector and the connection one-form of the frame aligned
with it.  Everything downstream (energy evaluation, minimization,
certification) consumes this triple and nothing else, so data can come
from closed-form families, from a lifted surface, or from a text table.

Data of a surface in Minkowski space (minkowski_surface_data) carries the
lift it was computed from.  PhysicalData.evaluate, through which the
formulas that take data evaluate a time function on its metric, returns
that lift for the data's own time function, given bit for bit, so the
energy, the residual and the gradient at tau0 reuse it instead of
lifting (m, tau0) again.

Files are whitespace-separated decimal tables with one comment line
declaring the grid size and one header line naming the columns:

    # n=32
    theta P Q normH alpha_theta
    <one row per node, 17 significant digits>

Node positions are regenerated from the declared grid size on load and
checked against the theta column; values must be finite and are never
interpolated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    AxisymMetric,
    Grid,
    InvalidParameterError,
    _check_single_field,
    _read_only,
    make_grid,
    round_sphere,
)
from .embedding import Evaluation, evaluate

COLUMNS = ("theta", "P", "Q", "normH", "alpha_theta")


class HorizonError(InvalidParameterError):
    """The requested sphere lies at or inside the horizon radius."""


class DataFormatError(ValueError):
    """A data table violates the expected layout or value ranges."""


@dataclass(frozen=True, eq=False)
class PhysicalData:
    """Surface data (metric, |H| > 0, alpha_H), all finite, with a provenance tag.

    alpha_H is the dtheta component of the connection one-form.

    lift, when set, is an Evaluation of one time function on this metric:
    minkowski_surface_data keeps the lift the data came from.  It takes no
    part in repr, and evaluate serves it for that time function.  Data
    compare and hash by identity.
    """

    metric: AxisymMetric
    norm_H: np.ndarray
    alpha_H: np.ndarray
    provenance: str
    lift: Evaluation | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.lift is not None and self.lift.metric is not self.metric:
            raise InvalidParameterError("the lift belongs to a different metric")
        norm_h = _check_single_field(self.metric.grid, self.norm_H, "normH")
        alpha = _check_single_field(self.metric.grid, self.alpha_H, "alpha_theta")
        for name, values in (("normH", norm_h), ("alpha_theta", alpha)):
            j = int(np.argmin(np.isfinite(values)))
            if not np.isfinite(values[j]):
                raise InvalidParameterError(f"{name} must be finite, got {values[j]} at node {j}")
        j = int(np.argmin(norm_h))
        if norm_h[j] <= 0.0:
            raise InvalidParameterError(
                f"normH must be positive; normH = {norm_h[j]} at node {j}"
            )
        object.__setattr__(self, "norm_H", norm_h)
        object.__setattr__(self, "alpha_H", alpha)

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
    """Round coordinate sphere in the time-symmetric slice of mass m.

    |H| = (2/r) sqrt(1 - 2m/r) and alpha_H = 0, so the zero time
    function solves the criticality equation for this data.
    """
    if mass < 0.0:
        raise InvalidParameterError(f"mass must be nonnegative, got {mass}")
    if radius <= 2.0 * mass:
        raise HorizonError(
            f"radius {radius} does not lie outside the horizon radius {2.0 * mass}"
        )
    norm_h = np.full(grid.n_nodes, (2.0 / radius) * np.sqrt(1.0 - 2.0 * mass / radius))
    return PhysicalData(
        metric=round_sphere(grid, radius),
        norm_H=norm_h,
        alpha_H=np.zeros(grid.n_nodes),
        provenance="schwarzschild",
    )


def minkowski_surface_data(m: AxisymMetric, tau0: np.ndarray | Evaluation) -> PhysicalData:
    """Data of the lift of (m, tau0) viewed as a surface in flat spacetime.

    The data keeps that lift.  An array tau0 is lifted from a read-only
    copy, so changing the caller's array later cannot leave it stale.
    """
    if not isinstance(tau0, Evaluation):
        tau0 = _read_only(np.array(tau0, dtype=float))
    lift = evaluate(m, tau0)
    data = lift.extrinsic
    return PhysicalData(
        metric=m, norm_H=data.norm_H, alpha_H=data.alpha_H, provenance="minkowski", lift=lift
    )


def store_physical_data(d: PhysicalData, path: str | os.PathLike) -> None:
    """Write a PhysicalData table; see the module docstring for layout."""
    g = d.metric.grid
    rows = np.column_stack(
        [g.nodes, d.metric.P, d.metric.Q, d.norm_H, d.alpha_H]
    )
    lines = [f"# n={g.n_nodes}", " ".join(COLUMNS)]
    for row in rows:
        lines.append(" ".join(f"{val:.17g}" for val in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _split_row(line: str) -> list[str]:
    return line.replace(",", " ").split()


def load_physical_data(path: str | os.PathLike) -> PhysicalData:
    """Read a PhysicalData table written by store_physical_data.

    The grid is regenerated from the declared size; the theta column must
    reproduce its nodes.  Raises DataFormatError naming the offending row
    and column on any violation.
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
            if not np.isfinite(table[i, j]):
                raise DataFormatError(f"row {i}, column {COLUMNS[j]}: not finite: {part!r}")

    grid = make_grid(n)
    theta = table[:, 0]
    j = int(np.argmax(np.abs(theta - grid.nodes)))
    if abs(theta[j] - grid.nodes[j]) > 1e-12:
        raise DataFormatError(
            f"row {j}, column theta: node {theta[j]} does not match the "
            f"n={n} grid node {grid.nodes[j]}"
        )
    for name, col in (("P", 1), ("Q", 2), ("normH", 3)):
        i = int(np.argmin(table[:, col]))
        if table[i, col] <= 0.0:
            raise DataFormatError(
                f"row {i}, column {name}: must be positive, got {table[i, col]}"
            )

    return PhysicalData(
        metric=AxisymMetric(grid, table[:, 1], table[:, 2]),
        norm_H=table[:, 3],
        alpha_H=table[:, 4],
        provenance="file",
    )

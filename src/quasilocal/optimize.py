"""Minimization of the energy over axisymmetric time functions.

The search space is the span of Legendre modes P_l(cos theta) for
l = 1..L; the constant mode is excluded because the energy is invariant
under time translation.  The gradient pairs the stationarity residual
with the mode fields in weak form, its divergence part summed by parts
against the mode derivatives, so it is the exact derivative of the
discrete energy.  The minimizer takes Newton steps on central differences
of that gradient, evaluated as one stack, and keeps every accepted
iterate inside the region where the lifted metric stays convex.  Its
start is row 0 of the stack of its first Hessian, so the start's guard,
energy and gradient cost no evaluation of their own, and the residual it
reports is formed from the terms that gave its last gradient.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (
    AxisymMetric,
    FieldShapeError,
    InvalidParameterError,
    _divergence_from_x_component,
    _hat_gauss_curvature,
    check_lift_lengths,
    integrate_surface,
)
from .embedding import Evaluation, NonEmbeddableError, evaluate
from .energy import _first_variation, _stationarity_terms, qle
from .physdata import PhysicalData

DEFAULT_MODE_COUNT = 8

# Armijo sufficient-decrease factor; the step below which the line search
# gives up; the central-difference step of the Hessian and of the
# calibration; how many rounding floors of the energy a converged run may
# still predict; the least eigenvalue of a Newton model, as a fraction of
# the largest.  A raise to 1e-3 bent Schwarzschild runs (up to 43
# iterations, 10.8 accuracy digits on the benchmark's minimize-sweep);
# 1e-5 cost up to 0.1 digit; dropping the soft eigenvalues instead (a
# pseudo-inverse) left lift runs at E = 2e-11 to 4e-11.
ARMIJO = 1e-4
STEP_FLOOR = 1e-14
FD_STEP = 1e-5
FLOOR_MULTIPLE = 8.0
EIGEN_FLOOR = 1e-4


class GuardViolationError(ValueError):
    """Starting point outside the convexity region."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(
            f"initial time function violates the convexity guard (margin {margin:.6e})"
        )


class LineSearchError(RuntimeError):
    """Backtracking hit the step floor without an acceptable iterate."""


@dataclass(frozen=True)
class TauCoefficients:
    """Legendre coefficients c_1..c_L of a time function (no constant)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @classmethod
    def zeros(cls, count: int = DEFAULT_MODE_COUNT) -> "TauCoefficients":
        return cls(coeffs=(0.0,) * count)


@dataclass(frozen=True)
class MinimizeReport:
    """The outcome of minimize_energy; its docstring defines each field.

    calibration_rel_error is the agreement of the gradient with central
    differences of qle at the start, not the gradient's own error: it is
    bounded below by the finite-difference error, about 3e-9 at FD_STEP.
    """

    tau_star: TauCoefficients
    energy_star: float
    residual_norm: float
    iterations: int
    guard_active: bool
    energy_trace: tuple
    calibration_rel_error: float
    hessian_min_eigenvalue: float
    stop: str  # "gradient", "decrement", "rounding-floor" or "iterations"


def tau_from_coefficients(grid, tau: TauCoefficients) -> np.ndarray:
    return grid.legendre_synthesis(np.concatenate([[0.0], tau.coeffs]))


def convexity_guard(m: AxisymMetric, tau: np.ndarray | Evaluation) -> float | np.ndarray:
    """Worst convexity margin of the lifted metric.

    Returns the least of: the Gauss curvature of sigma + dtau x dtau,
    the base Gauss curvature K, and K + det(Hess tau)/(1+|grad tau|^2).
    Positive margin means the lift embeds as a convex surface and stays
    convex along the segment s*tau, s in [0, 1].  A negative value is
    a measurement, not an error.  A (k, n) stack of time functions gets
    one margin per row; the guard never builds a lift.
    """
    ev = evaluate(m, tau)
    k_hat = _hat_gauss_curvature(m, ev.hess_tt, ev.tau_x, ev.grad_sq)
    scaled = k_hat * (1.0 + ev.grad_sq)
    worst = np.minimum(np.minimum(k_hat.min(axis=-1), m.K.min()), scaled.min(axis=-1))
    return float(worst) if worst.ndim == 0 else worst


def energy_gradient(d: PhysicalData, tau: TauCoefficients) -> np.ndarray:
    """Coefficient-space gradient of qle: its first variation along each mode P_l.

    energy._first_variation pairs the residual's trace term with the modes
    and its flux with their derivatives.  This is the exact derivative of
    the discrete energy, so it needs no differentiation of the flux, and
    its rounding does not grow with the grid the way the residual's does.
    The positive sign is the calibrated one: central finite differences of
    qle along each mode reproduce these pairings.
    """
    grid = d.metric.grid
    count = len(tau.coeffs)
    if count >= grid.n_nodes:
        raise FieldShapeError(f"{count} modes requested, the grid resolves {grid.n_nodes - 1}")
    return _gradient(d, tau_from_coefficients(grid, tau), count)[0]


def _gradient(d: PhysicalData, tau: np.ndarray | Evaluation, count: int) -> tuple:
    """energy_gradient over count modes at the field tau, and the stationarity terms it pairs.

    One gradient row per row of a stack; the terms are the (trace term,
    flux) pair of energy._stationarity_terms.
    """
    grid = d.metric.grid
    modes = grid.legendre_vandermonde[:, 1 : count + 1]
    slopes = grid.legendre_vandermonde_dx[:, 1 : count + 1]
    terms = _stationarity_terms(d, d.evaluate(tau))
    return _first_variation(d.metric, terms, modes, slopes)[0], terms


def _perturbed(m: AxisymMetric, tau: np.ndarray, count: int) -> np.ndarray:
    """The 2 count fields tau + FD_STEP P_l, then tau - FD_STEP P_l, as one stack."""
    bumps = FD_STEP * m.grid.legendre_vandermonde[:, 1 : count + 1].T
    return np.concatenate([tau + bumps, tau - bumps])


def _fd_gradient(totals: np.ndarray) -> np.ndarray:
    """Central differences of qle along the modes, from its totals on a _perturbed stack."""
    count = totals.size // 2
    return (totals[:count] - totals[count:]) / (2.0 * FD_STEP)


def _hessian(grads: np.ndarray) -> tuple:
    """Eigenvalues (ascending) and eigenvectors of H, from the gradients on a _perturbed stack.

    H is the symmetrized central difference of those 2 count gradient rows.
    """
    count = grads.shape[-1]
    h = (grads[:count] - grads[count:]) / (2.0 * FD_STEP)
    return np.linalg.eigh(0.5 * (h + h.T))


def _newton_direction(values: np.ndarray, vectors: np.ndarray, grad: np.ndarray):
    """-H_mod^-1 g, every eigenvalue of H below EIGEN_FLOOR times the largest raised to it.

    None when H has no positive eigenvalue.
    """
    if not values[-1] > 0.0:
        return None
    raised = np.maximum(values, EIGEN_FLOOR * values[-1])
    return -(vectors @ ((vectors.T @ grad) / raised))


def _rounding_floor(reference: float, energy: float) -> float:
    """16 eps max(1, |reference_term|, |physical_term|) at an iterate of that energy.

    The energy is the difference of its two terms, so its rounding scales
    with them, not with the energy, which vanishes on lift data.
    """
    return 16.0 * np.finfo(float).eps * max(1.0, abs(reference), abs(reference - energy))


def minimize_energy(
    d: PhysicalData,
    init: TauCoefficients,
    tol: float = 1e-7,
    max_iterations: int = 500,
) -> MinimizeReport:
    """Descend qle over the coefficient space from init.

    Newton steps with Armijo backtracking.  The Hessian H is the
    symmetrized central difference (step FD_STEP) of the gradient along
    the modes; its 2L perturbed fields are one stacked evaluation.  At
    the start that stack has 2L + 1 rows, the start field first: row 0
    gives the guard margin, the energy, the rounding floor and the
    gradient, and rows 1..2L the calibration and the first H.  Every
    eigenvalue of H below EIGEN_FLOOR times the largest is raised to that
    value, which keeps each step a descent direction and bounds it along
    soft directions: on data that is itself a surface in Minkowski space
    the minimum is a boost curve, not a point, and H is singular along it.
    Where the stack does not lift, or H has no positive eigenvalue, the
    iteration takes a steepest-descent step instead.  Steps leaving the
    convexity region or the embeddable family are rejected and shortened,
    so every accepted iterate is admissible; a trial whose guard margin
    is not positive, NaN included, counts as leaving the region.  At the
    start the same stack calibrates the gradient against central finite
    differences of qle and the relative distance is recorded as
    calibration_rel_error.  That distance measures agreement with the
    finite differences, not the gradient's error, and cannot fall much
    below their own error, about 3e-9 at FD_STEP.
    hessian_min_eigenvalue is the least eigenvalue of the last H before
    the raise: the discrete second variation.  residual_norm is the L2
    norm of energy.residual at the final iterate, formed from the
    stationarity terms that gave the last gradient.

    A tol that is not positive and finite, or a max_iterations that is
    not an integer >= 0, raises InvalidParameterError, as does a start
    field that geometry.check_lift_lengths rejects; an init with no
    modes raises FieldShapeError.  Then a start outside the guard raises
    GuardViolationError before anything is lifted, and a start or a
    perturbed field that does not lift raises NonEmbeddableError naming
    its row of the (2L + 1)-row stack.

    MinimizeReport.stop says why the run ended: "gradient" when the
    gradient norm drops below tol (checked before H is built, so a
    converged iterate after the start costs no stack); "decrement" when
    the Newton decrement g.H_mod^-1 g / 2 is below the energy's rounding floor
    16 eps max(1, |reference_term|, |physical_term|); "iterations" after
    max_iterations steps; "rounding-floor" when the predicted decrease
    -g.d is below FLOOR_MULTIPLE rounding floors and backtracking finds no
    step (the trial field equals the current one, or the step passes
    STEP_FLOOR) or one whose energy ties the current energy.  The run
    ends at the current iterate.  No step above that floor raises
    LineSearchError.  Each trial field is evaluated once, for the guard,
    the energy and, if accepted, the gradient.
    """
    if not 0.0 < tol < np.inf:
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
    if (
        isinstance(max_iterations, bool)
        or not isinstance(max_iterations, (int, np.integer))
        or max_iterations < 0
    ):
        raise InvalidParameterError(
            f"max_iterations must be an integer at least 0, got {max_iterations!r}"
        )
    m = d.metric
    grid = m.grid
    coeffs = np.array(init.coeffs, dtype=float)
    count = coeffs.size
    if count == 0:
        raise FieldShapeError("0 modes requested, the minimizer needs at least 1")
    tau = tau_from_coefficients(grid, init)
    check_lift_lengths(m, tau)

    # the start and its 2L perturbations as one stack: row 0 for the guard,
    # the energy and the gradient, rows 1..2L for the calibration and H
    stack = evaluate(m, np.concatenate([tau[None], _perturbed(m, tau, count)]))
    margin = float(convexity_guard(m, stack)[0])
    if not margin > 0.0:
        raise GuardViolationError(margin)

    totals = qle(d, stack).total
    energy = float(totals[0])
    floor = _rounding_floor(float(stack.reference[0]), energy)
    grads, (trace_part, flux) = _gradient(d, stack, count)
    grad = grads[0]
    terms = trace_part[0], flux[0]

    fd = _fd_gradient(totals[1:])
    scale = max(float(np.linalg.norm(fd)), tol)
    calibration = float(np.linalg.norm(fd - grad)) / scale if scale > tol else 0.0
    model = _hessian(grads[1:])
    least = float(model[0][0])

    trace = [energy]
    guard_active = False
    iterations = 0

    while iterations < max_iterations and np.linalg.norm(grad) >= tol:
        if iterations > 0:
            try:
                model = _hessian(_gradient(d, _perturbed(m, tau, count), count)[0])
                least = float(model[0][0])
            except NonEmbeddableError:
                model = None
        newton = None if model is None else _newton_direction(*model, grad)
        direction = -grad if newton is None else newton
        slope = float(grad @ direction)
        if newton is not None and -0.5 * slope < floor:
            stop = "decrement"
            break

        accepted = False
        step = 1.0
        while step >= STEP_FLOOR:
            trial = coeffs + step * direction
            field = tau_from_coefficients(grid, TauCoefficients(tuple(trial)))
            if np.array_equal(field, tau):
                break
            evaluation = evaluate(m, field)
            trial_energy = _trial_energy(d, evaluation)
            if trial_energy is None:
                guard_active = True
            else:
                # strict decrease below the rounding floor cannot be
                # certified; accept any non-increasing step there
                predicted = -ARMIJO * step * slope
                if trial_energy <= energy - (predicted if predicted >= floor else 0.0):
                    accepted = True
                    break
            step *= 0.5
        if (not accepted or trial_energy >= energy) and -slope < FLOOR_MULTIPLE * floor:
            stop = "rounding-floor"
            break
        if not accepted:
            raise LineSearchError(
                f"no acceptable step above {STEP_FLOOR:.1e} at iteration {iterations}"
            )

        tau = field
        coeffs = trial
        energy = trial_energy
        floor = _rounding_floor(evaluation.reference, energy)
        grad, terms = _gradient(d, evaluation, count)
        trace.append(energy)
        iterations += 1
    else:
        stop = "gradient" if np.linalg.norm(grad) < tol else "iterations"
    # the residual of the terms the last gradient paired, as residual forms it
    res = terms[0] + _divergence_from_x_component(m, terms[1])
    return MinimizeReport(
        tau_star=TauCoefficients(tuple(coeffs)),
        energy_star=energy,
        residual_norm=float(np.sqrt(integrate_surface(m, res * res))),
        iterations=iterations,
        guard_active=guard_active,
        energy_trace=tuple(trace),
        calibration_rel_error=calibration,
        hessian_min_eigenvalue=least,
        stop=stop,
    )


def _trial_energy(d: PhysicalData, evaluation: Evaluation) -> float | None:
    """qle at a line-search trial: None outside the guard, inf if the projection fails."""
    if not convexity_guard(d.metric, evaluation) > 0.0:
        return None
    try:
        return qle(d, evaluation).total
    except NonEmbeddableError:
        return np.inf

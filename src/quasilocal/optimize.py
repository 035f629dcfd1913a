"""Minimization of the energy over axisymmetric time functions.

The search space is the span of Legendre modes P_l(cos theta) for
l = 1..L; the constant mode is excluded because the energy is invariant
under time translation.  Gradients are assembled by pairing the
stationarity residual with the mode fields, and every accepted iterate
is kept inside the region where the lifted metric stays convex.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import AxisymMetric, FieldShapeError, _hat_gauss_curvature, integrate_surface
from .embedding import (
    Evaluation,
    GaugeOrientationError,
    NonEmbeddableError,
    NonSpacelikeMeanCurvatureError,
    evaluate,
)
from .energy import qle, residual
from .physdata import PhysicalData

DEFAULT_MODE_COUNT = 8

# Armijo sufficient-decrease factor; the step below which the line search
# gives up; the central-difference step that calibrates the first gradient;
# how many rounding floors of the energy a converged run may still predict
ARMIJO = 1e-4
STEP_FLOOR = 1e-14
FD_STEP = 1e-5
FLOOR_MULTIPLE = 8.0


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
    tau_star: TauCoefficients
    energy_star: float
    residual_norm: float
    iterations: int
    guard_active: bool
    energy_trace: tuple
    calibration_rel_error: float
    stop: str  # "gradient", "rounding-floor" or "iterations"


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
    k_hat = _hat_gauss_curvature(m, ev.hess.theta_theta, ev.tau_x, ev.grad_sq)
    scaled = k_hat * (1.0 + ev.grad_sq)
    worst = np.minimum(np.minimum(k_hat.min(axis=-1), m.K.min()), scaled.min(axis=-1))
    return float(worst) if worst.ndim == 0 else worst


def energy_gradient(d: PhysicalData, tau: TauCoefficients) -> np.ndarray:
    """Coefficient-space gradient g_l = integral(residual * P_l) dv.

    The positive sign is the calibrated one: central finite differences
    of qle along each mode reproduce these pairings.
    """
    grid = d.metric.grid
    count = len(tau.coeffs)
    if count >= grid.n_nodes:
        raise FieldShapeError(f"{count} modes requested, the grid resolves {grid.n_nodes - 1}")
    return _gradient(d, tau_from_coefficients(grid, tau), count)


def _gradient(d: PhysicalData, tau: np.ndarray | Evaluation, count: int) -> np.ndarray:
    """energy_gradient over count modes at the field tau: the synthesis, transposed."""
    m = d.metric
    modes = m.grid.legendre_vandermonde[:, 1 : count + 1]
    return 2.0 * np.pi * (modes.T @ (m.grid.weights * m.P * m.Q * residual(d, tau)))


def _fd_gradient(d: PhysicalData, tau: np.ndarray, count: int) -> np.ndarray:
    """Central differences of qle along the first count modes at the field tau.

    The 2 count perturbed fields tau +- FD_STEP P_l are one stacked evaluation.
    """
    bumps = FD_STEP * d.metric.grid.legendre_vandermonde[:, 1 : count + 1].T
    totals = qle(d, np.concatenate([tau + bumps, tau - bumps])).total
    return (totals[:count] - totals[count:]) / (2.0 * FD_STEP)


def minimize_energy(
    d: PhysicalData,
    init: TauCoefficients,
    tol: float = 1e-7,
    max_iterations: int = 500,
) -> MinimizeReport:
    """Descend qle over the coefficient space from init.

    Gradient descent with Armijo backtracking, accelerated by a BFGS
    model of the coefficient Hessian (the mode stiffness grows steeply
    with l, so raw gradient steps crawl).  Model updates are skipped
    unless the secant pair has positive curvature, which keeps every
    search direction a descent direction.  Steps leaving the convexity
    region or the embeddable family are rejected and shortened, so every
    accepted iterate is admissible.  The first gradient is calibrated
    against central finite differences and the relative error recorded.

    MinimizeReport.stop says why the run ended: "gradient" when the
    gradient norm drops below tol, "iterations" after max_iterations
    steps, "rounding-floor" when the predicted decrease -g.d is below
    FLOOR_MULTIPLE times the energy's rounding floor 16 eps max(1, |E|)
    and backtracking finds no step (the trial field equals the current
    one, or the step passes STEP_FLOOR) or one whose energy ties the
    current energy; the run ends at the current iterate.  No step above
    that floor raises LineSearchError.  Each trial field is evaluated
    once, for the guard, the energy and, if accepted, the gradient.
    """
    m = d.metric
    grid = m.grid
    coeffs = np.array(init.coeffs, dtype=float)

    current = evaluate(m, tau_from_coefficients(grid, init))
    margin = convexity_guard(m, current)
    if margin <= 0.0:
        raise GuardViolationError(margin)

    energy = qle(d, current).total
    grad = _gradient(d, current, coeffs.size)

    fd = _fd_gradient(d, current.tau, coeffs.size)
    scale = max(float(np.linalg.norm(fd)), tol)
    calibration = float(np.linalg.norm(fd - grad)) / scale if scale > tol else 0.0

    trace = [energy]
    guard_active = False
    iterations = 0
    inverse_model = np.eye(coeffs.size)
    first_pair = True

    while iterations < max_iterations and np.linalg.norm(grad) >= tol:
        direction = -(inverse_model @ grad)
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)

        accepted = False
        step = 1.0
        # strict decrease below the energy's rounding floor cannot be
        # certified; accept any non-increasing step there (still monotone)
        noise = 16.0 * np.finfo(float).eps * max(1.0, abs(energy))
        while step >= STEP_FLOOR:
            trial = coeffs + step * direction
            field = tau_from_coefficients(grid, TauCoefficients(tuple(trial)))
            if np.array_equal(field, current.tau):
                break
            evaluation = evaluate(m, field)
            trial_energy = _trial_energy(d, evaluation)
            if trial_energy is None:
                guard_active = True
            else:
                predicted = -ARMIJO * step * slope
                if trial_energy <= energy - (predicted if predicted >= noise else 0.0):
                    accepted = True
                    break
            step *= 0.5
        if (not accepted or trial_energy >= energy) and -slope < FLOOR_MULTIPLE * noise:
            stop = "rounding-floor"
            break
        if not accepted:
            raise LineSearchError(
                f"no acceptable step above {STEP_FLOOR:.1e} at iteration {iterations}"
            )

        current = evaluation
        new_grad = _gradient(d, current, coeffs.size)
        s = trial - coeffs
        y = new_grad - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            if first_pair:
                inverse_model *= sy / float(y @ y)
                first_pair = False
            rho = 1.0 / sy
            left = np.eye(coeffs.size) - rho * np.outer(s, y)
            inverse_model = left @ inverse_model @ left.T + rho * np.outer(s, s)

        coeffs = trial
        energy = trial_energy
        grad = new_grad
        trace.append(energy)
        iterations += 1
    else:
        stop = "gradient" if np.linalg.norm(grad) < tol else "iterations"
    res = residual(d, current)
    return MinimizeReport(
        tau_star=TauCoefficients(tuple(coeffs)),
        energy_star=energy,
        residual_norm=float(np.sqrt(integrate_surface(m, res * res))),
        iterations=iterations,
        guard_active=guard_active,
        energy_trace=tuple(trace),
        calibration_rel_error=calibration,
        stop=stop,
    )


def _trial_energy(d: PhysicalData, evaluation: Evaluation) -> float | None:
    """qle at a line-search trial: None outside the guard, inf where the lift fails."""
    if convexity_guard(d.metric, evaluation) <= 0.0:
        return None
    try:
        return qle(d, evaluation).total
    except (NonEmbeddableError, NonSpacelikeMeanCurvatureError, GaugeOrientationError):
        return np.inf

"""Minimization of the energy over axisymmetric time functions.

The search space is the span of Legendre modes P_l(cos theta) for
l = 1..L; the constant mode is excluded because the energy is invariant
under time translation.  Gradients are assembled by pairing the
stationarity residual with the mode fields, and every accepted iterate
is kept inside the region where the lifted metric stays convex.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import AxisymMetric, FieldShapeError, integrate_surface
from .embedding import GaugeOrientationError, NonEmbeddableError, NonSpacelikeMeanCurvatureError
from .energy import Evaluation, evaluate, qle, residual
from .physdata import PhysicalData

DEFAULT_MODE_COUNT = 8


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


def tau_from_coefficients(grid, tau: TauCoefficients) -> np.ndarray:
    return grid.legendre_synthesis(np.concatenate([[0.0], tau.coeffs]))


def convexity_guard(m: AxisymMetric, tau: np.ndarray | Evaluation) -> float:
    """Worst convexity margin of the lifted metric.

    Returns the least of: the Gauss curvature of sigma + dtau x dtau,
    the base Gauss curvature K, and K + det(Hess tau)/(1+|grad tau|^2).
    Positive margin means the lift embeds as a convex surface and stays
    convex along the segment s*tau, s in [0, 1].  A negative value is
    a measurement, not an error.
    """
    return evaluate(m, tau).convexity_guard()


def energy_gradient(d: PhysicalData, tau: TauCoefficients) -> np.ndarray:
    """Coefficient-space gradient g_l = integral(residual * P_l) dv.

    The positive sign is the calibrated one: central finite differences
    of qle along each mode reproduce these pairings.
    """
    return _gradient(d, tau_from_coefficients(d.metric.grid, tau), len(tau.coeffs))


def _gradient(d: PhysicalData, tau: np.ndarray | Evaluation, count: int) -> np.ndarray:
    """energy_gradient over count modes at the field tau."""
    grid = d.metric.grid
    if count >= grid.n_nodes:
        raise FieldShapeError(f"{count} modes requested, the grid resolves {grid.n_nodes - 1}")
    res = residual(d, tau)
    modes = grid.legendre_vandermonde[:, 1 : count + 1]
    return np.array([integrate_surface(d.metric, res * modes[:, l]) for l in range(count)])


def _fd_gradient(d: PhysicalData, coeffs: np.ndarray, step: float = 1e-5) -> np.ndarray:
    grid = d.metric.grid
    out = np.empty_like(coeffs)
    for l in range(coeffs.size):
        bump = np.zeros_like(coeffs)
        bump[l] = step
        plus = qle(d, tau_from_coefficients(grid, TauCoefficients(tuple(coeffs + bump)))).total
        minus = qle(d, tau_from_coefficients(grid, TauCoefficients(tuple(coeffs - bump)))).total
        out[l] = (plus - minus) / (2.0 * step)
    return out


def minimize_energy(
    d: PhysicalData,
    init: TauCoefficients,
    tol: float = 1e-7,
    max_iterations: int = 500,
    armijo: float = 1e-4,
    step_floor: float = 1e-14,
) -> MinimizeReport:
    """Descend qle over the coefficient space from init.

    Gradient descent with Armijo backtracking, accelerated by a BFGS
    model of the coefficient Hessian (the mode stiffness grows steeply
    with l, so raw gradient steps crawl).  Model updates are skipped
    unless the secant pair has positive curvature, which keeps every
    search direction a descent direction.  Steps leaving the convexity
    region or the embeddable family are rejected and shortened, so every
    accepted iterate is admissible.  Terminates when the coefficient
    gradient norm drops below tol.  The first gradient is calibrated
    against central finite differences and the relative error recorded.

    Each synthesized field is evaluated once: the guard, the energy and,
    for an accepted step, the gradient read one Evaluation, and a trial
    field byte-equal to one seen earlier in the run reuses its energy
    (or its guard rejection) instead of being evaluated again.
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

    fd = _fd_gradient(d, coeffs)
    scale = max(float(np.linalg.norm(fd)), tol)
    calibration = float(np.linalg.norm(fd - grad)) / scale if scale > tol else 0.0

    trace = [energy]
    guard_active = False
    iterations = 0
    inverse_model = np.eye(coeffs.size)
    first_pair = True
    current_key = current.tau.tobytes()
    # trial energy by the bytes of the trial field; None: the guard rejected it
    seen = {current_key: energy}

    while iterations < max_iterations and np.linalg.norm(grad) >= tol:
        direction = -(inverse_model @ grad)
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)

        accepted = False
        step = 1.0
        # once the Armijo decrease falls below the rounding floor of the
        # energy itself, certifying strict decrease is impossible; accept
        # any non-increasing step there (monotonicity is preserved)
        noise = 16.0 * np.finfo(float).eps * max(1.0, abs(energy))
        while step >= step_floor:
            trial = coeffs + step * direction
            field = tau_from_coefficients(grid, TauCoefficients(tuple(trial)))
            key = field.tobytes()
            evaluation = None
            if key in seen:
                trial_energy = seen[key]
            else:
                evaluation = evaluate(m, field)
                trial_energy = seen[key] = _trial_energy(d, evaluation)
            if trial_energy is None:
                guard_active = True
            else:
                predicted = -armijo * step * slope
                if trial_energy <= energy - (predicted if predicted >= noise else 0.0):
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            raise LineSearchError(
                f"no acceptable step above {step_floor:.1e} at iteration {iterations}"
            )

        if key == current_key:
            new_grad = grad
        else:
            current = evaluation if evaluation is not None else evaluate(m, field)
            current_key = key
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

    res = residual(d, current)
    return MinimizeReport(
        tau_star=TauCoefficients(tuple(coeffs)),
        energy_star=energy,
        residual_norm=float(np.sqrt(integrate_surface(m, res * res))),
        iterations=iterations,
        guard_active=guard_active,
        energy_trace=tuple(trace),
        calibration_rel_error=calibration,
    )


def _trial_energy(d: PhysicalData, evaluation: Evaluation) -> float | None:
    """qle at a line-search trial: None outside the guard, inf where the lift fails."""
    if convexity_guard(d.metric, evaluation) <= 0.0:
        return None
    try:
        return qle(d, evaluation).total
    except (NonEmbeddableError, NonSpacelikeMeanCurvatureError, GaugeOrientationError):
        return np.inf

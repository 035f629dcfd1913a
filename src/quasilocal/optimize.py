"""Minimization of the energy over axisymmetric time functions.

The search space is the span of Legendre modes P_l(cos theta) for
l = 1..L, L at most Grid.highest_mode (n - 2 on n nodes, the modes whose
Laplacian the grid resolves); the constant mode is excluded because the
energy is invariant under time translation.  The gradient is
DataEvaluation.first_variation along the modes, the weak-form pairing of
the stationarity terms with the modes and their derivatives, so it is
the exact derivative of the discrete energy.  The minimizer takes Newton
steps on central differences of that gradient, evaluated as one stack,
and keeps every accepted iterate inside the region where the lifted
metric stays convex, the Evaluation's guard field.  Near the minimum the
Hessian is positive and varies slowly, so a model that needed no
modification and predicts a small decrease is kept for the next iterate
instead of being built again (a lagged Newton model, Kelley 1995,
section 5.4); a kept model takes one full step, which must not raise the
energy and must lower the gradient norm, and never decides a stop.  It
reads the guard, the energy and the gradient at each field or stack from
one DataEvaluation.  Its start is row 0 of the stack of its first
Hessian, so the start costs no evaluation of its own, and it reports the
residual_norm of the evaluation that gave its last gradient.  The
iteration runs on arrays of coefficients: Grid.time_function gives the
node values of the start and of every trial and Grid.modes the gradient's
directions, the grid's one basis and mode bound, and the kept model is
tested only when another iteration follows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AxisymMetric, FieldShapeError, InvalidParameterError
from .embedding import Evaluation, NonEmbeddableError, evaluate
from .physdata import PhysicalData

# Armijo sufficient-decrease factor; the step below which the line search
# gives up; the central-difference step of the Hessian and of the
# calibration, in units of the sphere's area radius; how many rounding
# floors of the energy a converged run may still predict; the least
# eigenvalue of a Newton model, as a fraction of the largest.  A raise to
# 1e-3 bent Schwarzschild runs (up to 43 iterations, 10.8 accuracy digits
# on the benchmark's minimize-sweep); 1e-5 cost up to 0.1 digit; dropping
# the soft eigenvalues instead (a pseudo-inverse) left lift runs at
# E = 2e-11 to 4e-11.
ARMIJO = 1e-4
STEP_FLOOR = 1e-14
FD_STEP = 1e-5
FLOOR_MULTIPLE = 8.0
EIGEN_FLOOR = 1e-4
# The Newton decrement, as a fraction of the energy's term scale, below
# which an unmodified model is kept for the next iterate.  Over 100
# seeded Schwarzschild starts per scale (tests/test_optimize.py), 1e-6
# and 1e-4 raised the largest iteration count at scale 0.3 from 3 (a
# model built at every iterate) to 7 and 8, and 1e-4 raised it at scale
# 1.0 from 5 to 11; 1e-8 gave 4 and 6.  On the benchmark's minimize-sweep
# (scale 0.05) every value from 1e-10 to 1e-6 builds 1.34 to 1.35 models
# per run.
KEEP_DECREMENT = 1e-8
# the float spacing at 1, in the energy's rounding floor
EPS = float(np.finfo(float).eps)


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


@dataclass(frozen=True)
class MinimizeReport:
    """The outcome of minimize_energy; its docstring defines each field.

    hessian_min_eigenvalue is the least eigenvalue of the last Hessian the
    run built, the start's for a run that kept it throughout.  It comes from
    central differences of the gradient, so on flat directions near 1e-9 it
    carries about one significant digit.
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
    """Node values of sum_l c_l P_l, Grid.time_function; FieldShapeError above Grid.highest_mode."""
    return grid.time_function(tau.coeffs)


def convexity_guard(m: AxisymMetric, tau: np.ndarray | Evaluation) -> float | np.ndarray:
    """Worst convexity margin of the lifted metric, Evaluation.guard; a float for one field.

    Positive margin means the lift embeds as a convex surface and stays
    convex along the segment s*tau, s in [0, 1].  A negative value is
    a measurement, not an error.  A (k, n) stack of time functions gets
    one margin per row; the guard never builds a lift.
    """
    worst = evaluate(m, tau).guard
    return float(worst) if worst.ndim == 0 else worst


def energy_gradient(d: PhysicalData, tau: TauCoefficients) -> np.ndarray:
    """Coefficient-space gradient of qle: its first variation along each mode P_l.

    DataEvaluation.first_variation pairs the residual's trace term with
    the modes and its flux with their derivatives.  This is the exact
    derivative of the discrete energy, so it needs no differentiation of
    the flux, and its rounding does not grow with the grid the way the
    residual's does.  The positive sign is the calibrated one: central
    finite differences of qle along each mode reproduce these pairings.
    """
    grid = d.metric.grid
    return d.evaluate(grid.time_function(tau.coeffs)).first_variation(*grid.modes(len(tau.coeffs)))[0]


def _perturbed(tau: np.ndarray, bumps: np.ndarray) -> np.ndarray:
    """tau + b for each row b of bumps, then tau - b, as one stack.

    The package's one central difference: the minimizer's calibration and
    Hessian and verify.check_lemma41 evaluate on this stack and take
    _fd_gradient of the values.
    """
    return np.concatenate([tau + bumps, tau - bumps])


def _fd_gradient(values: np.ndarray, step: float) -> np.ndarray:
    """(f(tau + b) - f(tau - b)) / (2 step) per bump b of size step, from f on a _perturbed stack."""
    count = len(values) // 2
    return (values[:count] - values[count:]) / (2.0 * step)


def _hessian(grads: np.ndarray, step: float) -> tuple:
    """Eigenvalues (ascending) and eigenvectors of H, from the gradients on a _perturbed stack.

    H is the symmetrized _fd_gradient, of that step, of those gradient rows.
    """
    h = _fd_gradient(grads, step)
    return np.linalg.eigh(0.5 * (h + h.T))


def _newton_direction(values: np.ndarray, vectors: np.ndarray, grad: np.ndarray):
    """-H_mod^-1 g, every eigenvalue of H below EIGEN_FLOOR times the largest raised to it.

    None when H has no positive eigenvalue.
    """
    if not values[-1] > 0.0:
        return None
    raised = np.maximum(values, EIGEN_FLOOR * values[-1])
    return -(vectors @ ((vectors.T @ grad) / raised))


def _kept_direction(model, grad: np.ndarray, scale: float):
    """-H^-1 g on a model H worth keeping at this gradient, or None.

    H is kept when no eigenvalue was raised, so the direction is a true
    Newton step, and its decrement g.H^-1 g / 2 is below KEEP_DECREMENT
    times the term scale.
    """
    if model is None:
        return None
    values, vectors = model
    if not values[0] >= EIGEN_FLOOR * values[-1] > 0.0:
        return None
    direction = _newton_direction(values, vectors, grad)
    return direction if -0.5 * float(grad @ direction) < KEEP_DECREMENT * scale else None


def _norm(v: np.ndarray) -> float:
    """The L2 norm of a vector, sqrt(v @ v), as np.linalg.norm forms it for a 1-D float array."""
    return math.sqrt(v @ v)


def _term_scale(reference: float, energy: float) -> float:
    """max(1, |reference_term|, |physical_term|) at an iterate of that energy.

    The energy is the difference of its two terms, so its rounding scales
    with them, not with the energy, which vanishes on lift data.
    """
    return max(1.0, abs(reference), abs(reference - energy))


def _rounding_floor(scale: float) -> float:
    """16 eps times the term scale: the energy's rounding floor at an iterate."""
    return 16.0 * EPS * scale


def _assess(d: PhysicalData, field: np.ndarray) -> tuple:
    """A trial field's DataEvaluation and energy.

    The energy is None when the guard margin is not positive, and inf (with
    no DataEvaluation) when the Evaluation does not admit the field or its
    projection does not embed.
    """
    try:
        at_trial = d.evaluate(field)
        return at_trial, at_trial.energy.total if at_trial.ev.guard > 0.0 else None
    except (InvalidParameterError, NonEmbeddableError):
        # refused by the Evaluation, p_hat out of range, or a projection that does not embed
        return None, np.inf


def minimize_energy(
    d: PhysicalData,
    init: TauCoefficients,
    tol: float = 1e-7,
    max_iterations: int = 500,
) -> MinimizeReport:
    """Descend qle over the coefficient space from init.

    Newton steps with Armijo backtracking.  The Hessian H is the
    symmetrized central difference (step FD_STEP times the area radius, so
    that a sphere scaled by 2^k runs the same steps scaled by 2^k) of the
    gradient along the modes; its 2L perturbed fields are one stacked
    evaluation.  At
    the start that stack has 2L + 1 rows, the start field first: row 0
    gives the guard margin, the energy, the rounding floor and the
    gradient, and rows 1..2L the calibration and the first H.  Every
    eigenvalue of H below EIGEN_FLOOR times the largest is raised to that
    value, which keeps each step a descent direction and bounds it along
    soft directions: on data that is itself a surface in Minkowski space
    the minimum is a boost curve, not a point, and H is singular along it.
    Where the stack does not lift, or H has no positive eigenvalue, the
    iteration takes a steepest-descent step instead.

    After an accepted step H is kept for the next iteration when no
    eigenvalue was raised, so -H^-1 g is a true Newton step, and its
    decrement g.H^-1 g / 2 at the new iterate is below KEEP_DECREMENT times
    the term scale max(1, |reference_term|, |physical_term|); that test is
    made only when another iteration follows.  A kept H takes one full
    step, accepted only if the trial is admitted, passes the guard, does
    not raise the energy and lowers the gradient norm; otherwise H is
    rebuilt at that iterate and the iteration runs as above.  So only a
    freshly built H ends a run on the decrement, and a modified model (lift
    data's boost orbit) is rebuilt at every iterate.

    Steps leaving the
    convexity region, the length range or the embeddable family are
    rejected and shortened, so every accepted iterate is admissible; a
    trial whose guard margin is not positive counts as leaving the region,
    and one the Evaluation does not admit as one that does not lift.  At the
    start the same stack calibrates the gradient against central finite
    differences of qle and the relative distance is recorded as
    calibration_rel_error.  That distance measures agreement with the
    finite differences, not the gradient's error, and cannot fall much
    below their own error, about 1e-8 at their step.  Differences whose
    norm is below their resolution, the rounding floor over the step, are
    rounding and calibrate nothing: calibration_rel_error is then 0.
    hessian_min_eigenvalue is the least eigenvalue, before the raise, of
    the last H the run built (the start's when it kept that one
    throughout): the discrete second variation.  residual_norm is
    DataEvaluation.residual_norm at the final iterate, read from the
    evaluation that gave the last gradient (row 0 of the start's stack).

    A tol that is not positive and finite, or a max_iterations that is
    not an integer >= 0, raises InvalidParameterError; an init with no
    modes, or with more than Grid.highest_mode, raises FieldShapeError as
    energy_gradient does.  A start the Evaluation of the (2L + 1)-row
    stack does not admit raises InvalidParameterError naming row 0; then a
    start outside the guard raises GuardViolationError before anything is
    lifted, and a start or a perturbed field whose lift fails raises
    naming its row of the stack.

    MinimizeReport.stop says why the run ended: "gradient" when the
    gradient norm drops below tol (checked before H is built, so a
    converged iterate after the start costs no stack); "decrement" when
    the Newton decrement g.H_mod^-1 g / 2 of an H built at the current
    iterate is below the energy's rounding floor 16 eps times the term
    scale; "iterations" after
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
    tau = grid.time_function(coeffs)
    modes = grid.modes(count)
    fd_step = FD_STEP * m.area_radius
    bumps = fd_step * modes[0].T

    # the start and its 2L perturbations (_perturbed) as one stack: row 0
    # for the guard, the energy and the gradient, rows 1..2L for the
    # calibration and H
    stack = d.evaluate(np.concatenate([tau[None], _perturbed(tau, bumps)]))
    margin = float(stack.ev.guard[0])
    if not margin > 0.0:
        raise GuardViolationError(margin)

    totals = stack.energy.total
    energy = float(totals[0])
    scale = _term_scale(float(stack.ev.reference[0]), energy)
    grads = stack.first_variation(*modes)[0]
    grad = grads[0]
    grad_norm = _norm(grad)
    last = stack  # the DataEvaluation the last gradient came from

    # differences below the energy's rounding floor over the step are rounding
    fd = _fd_gradient(totals[1:], fd_step)
    fd_norm = _norm(fd)
    floor = _rounding_floor(scale)
    calibration = _norm(fd - grad) / fd_norm if fd_norm > floor / fd_step else 0.0
    model = _hessian(grads[1:], fd_step)
    least = float(model[0][0])

    trace = [energy]
    guard_active = False
    iterations = 0

    while iterations < max_iterations and grad_norm >= tol:
        accepted = False
        # the Newton step of the model of the last iterate, if kept
        kept = _kept_direction(model, grad, scale) if iterations else None
        if kept is not None:
            # one full step on the kept model, accepted only if it does not
            # raise the energy and lowers the gradient norm; otherwise H is
            # rebuilt at this iterate and the iteration runs as below
            trial = coeffs + kept
            field = grid.time_function(trial)
            at_trial, trial_energy = _assess(d, field)
            if trial_energy is None:
                guard_active = True
            elif trial_energy <= energy:
                trial_grad = at_trial.first_variation(*modes)[0]
                trial_norm = _norm(trial_grad)
                accepted = trial_norm < grad_norm
        if not accepted:
            if iterations > 0:
                try:
                    model = _hessian(
                        d.evaluate(_perturbed(tau, bumps)).first_variation(*modes)[0], fd_step
                    )
                    least = float(model[0][0])
                except NonEmbeddableError:
                    model = None
            newton = None if model is None else _newton_direction(*model, grad)
            direction = -grad if newton is None else newton
            slope = float(grad @ direction)
            if newton is not None and -0.5 * slope < floor:
                stop = "decrement"
                break

            step = 1.0
            while step >= STEP_FLOOR:
                trial = coeffs + step * direction
                field = grid.time_function(trial)
                if (field == tau).all():
                    break
                at_trial, trial_energy = _assess(d, field)
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
            trial_grad = at_trial.first_variation(*modes)[0]
            trial_norm = _norm(trial_grad)

        tau = field
        coeffs = trial
        energy = trial_energy
        scale = _term_scale(at_trial.ev.reference, energy)
        floor = _rounding_floor(scale)
        grad = trial_grad
        grad_norm = trial_norm
        last = at_trial
        trace.append(energy)
        iterations += 1
    else:
        stop = "gradient" if grad_norm < tol else "iterations"
    return MinimizeReport(
        tau_star=TauCoefficients(tuple(coeffs)),
        energy_star=energy,
        residual_norm=float(np.ravel(last.residual_norm)[0]),
        iterations=iterations,
        guard_active=guard_active,
        energy_trace=tuple(trace),
        calibration_rel_error=calibration,
        hessian_min_eigenvalue=least,
        stop=stop,
    )

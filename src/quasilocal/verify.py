"""Numerical certification of the comparison theorems and their identities.

Each check_* function evaluates one bundle of inequalities or identities
over sampled time functions and returns a TheoremReport: a flat record of
signed margins together with the undershoot each margin is allowed.  The
report passes when every margin clears its allowance.

Margins are uniform signed slacks.  An inequality-type check records the
worst sampled value of the quantity that must stay nonnegative; an
identity-type check records minus the worst absolute deviation.  Strict
hypotheses (the pointwise mean curvature inequalities the statements
assume) carry a negative allowance, which demands the margin clear a
positive floor instead of merely staying above it; violated hypotheses
fail the report rather than raising, so a run over inadmissible data
still produces a document.

Sampling is deterministic: the default sample families are fixed
Legendre-coefficient boxes and profiles.  Derivatives in the family
parameter s are spectral (Chebyshev interpolation on a nested s-grid),
never one-sided differences; the s = 0 endpoint is covered by dedicated
value and derivative checks because the comparison inequality F' >= F/s
degenerates there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    AxisymMetric,
    Grid,
    _differentiation_matrix,
    divergence_from_x_component,
    hessian,
    integrate_surface,
    sin_factored_theta_derivative,
)
from .embedding import embed_r3, mean_curvature
from .physdata import PhysicalData, minkowski_surface_data
from .energy import GaugeData, evaluate, qle, residual, tilde_energy
from .optimize import convexity_guard

# a strict hypothesis must clear this floor; discretization noise in the
# margins sits around 1e-12, physical margins around 1e-1
STRICT_FLOOR = 1e-9


@dataclass(frozen=True)
class CheckOutcome:
    """One named margin with the undershoot it is allowed.

    ok means margin >= -allowance.  A negative allowance encodes a strict
    inequality: the margin must then exceed the positive floor -allowance.
    """

    label: str
    margin: float
    allowance: float

    @property
    def ok(self) -> bool:
        return self.margin >= -self.allowance

    @property
    def slack(self) -> float:
        return self.margin + self.allowance


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one certification suite.

    checks carries every margin; pass requires all of them to clear
    their allowances, and worst_margin reports the margin of the check
    with the least slack, so passed == (worst_margin >= -tolerance) with
    tolerance the allowance of that same check.  equality_cases record
    degenerate inputs for which the certified inequality saturates, and
    details carry reported quantities that do not gate the outcome.
    """

    name: str
    samples: int
    checks: tuple
    equality_cases: tuple = ()
    details: tuple = ()

    @property
    def worst(self) -> CheckOutcome:
        return min(self.checks, key=lambda c: c.slack)

    @property
    def worst_margin(self) -> float:
        return self.worst.margin

    @property
    def tolerances(self) -> tuple:
        return tuple((c.label, c.allowance) for c in self.checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def format_report(report: TheoremReport) -> str:
    """Serialize a report as deterministic key-value lines."""
    lines = [
        f"suite = {report.name}",
        f"samples = {report.samples}",
        f"pass = {'true' if report.passed else 'false'}",
        f"worst_check = {report.worst.label}",
        f"worst_margin = {report.worst_margin:.17g}",
        f"allowance = {report.worst.allowance:.17g}",
    ]
    for c in report.checks:
        lines.append(f"margin.{c.label} = {c.margin:.17g}")
        lines.append(f"allowance.{c.label} = {c.allowance:.17g}")
    for label, value in report.equality_cases:
        lines.append(f"equality.{label} = {value:.17g}")
    for label, value in report.details:
        lines.append(f"detail.{label} = {value:.17g}")
    return "\n".join(lines) + "\n"


def legendre_mode(grid: Grid, degree: int, coeff: float = 1.0) -> np.ndarray:
    """Node values of coeff * P_degree(cos theta)."""
    return coeff * grid.legendre_vandermonde[:, degree]


def coefficient_box(grid: Grid) -> tuple:
    """The +-amplitude box over the first two Legendre modes.

    Returns all (c, d) combinations of c*P1 + d*P2 with c and d running
    over 0.05, 0.2, 0.5 and their negatives: the default sample family
    for the comparison inequality.
    """
    signed = [a * s for a in (0.05, 0.2, 0.5) for s in (1.0, -1.0)]
    p1 = legendre_mode(grid, 1)
    p2 = legendre_mode(grid, 2)
    return tuple(c * p1 + d * p2 for c in signed for d in signed)


def chebyshev_s_grid() -> np.ndarray:
    """The 33 Chebyshev-Lobatto nodes on [0, 1], ascending from s = 0."""
    k = np.arange(33)
    return (1.0 - np.cos(np.pi * k / 32)) / 2.0


def _spectral_s_derivative(s_grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Derivative of the polynomial interpolant through (s_grid, values).

    The grid's barycentric differentiation matrix, the one make_grid
    builds, applied on these nodes; well conditioned on Lobatto-type grids.
    """
    return _differentiation_matrix(s_grid) @ values


def _is_constant(tau: np.ndarray) -> bool:
    return float(np.max(np.abs(tau - tau[0]))) <= 1e-14 * max(1.0, abs(float(tau[0])))


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def check_identities(m: AxisymMetric, tau: np.ndarray, tolerance: float = 1e-8) -> TheoremReport:
    """Certify the algebraic identities tying a lift to its projection.

    Six identities, each evaluated through two independent code paths and
    reported as a max-norm deviation:

      mean-curvature-norm   <H,H> against the rest mean curvature minus
                            the squared Laplacian defect (the axisymmetric
                            closed form, shape-operator route vs coordinate
                            Laplacians)
      generalized-mean      h in the translated gauge against
                            Hhat * sqrt(1 + |grad tau|^2)
      projection            Hhat + <H, e3_breve> + alpha(grad tau)/sqrt(...) = 0
      gauge-one-form        breve alpha against the frame derivative
                            <d e3_breve / dtheta, e4_breve>
      inverse-metric        the rank-one update formula for the inverse of
                            sigma + dtau x dtau
      graph-hessian         Hess of tau w.r.t. the augmented metric against
                            Hess / (1 + |grad tau|^2)
    """
    g = m.grid
    ev = evaluate(m, tau)
    data = ev.extrinsic
    proj = ev.lift.projected
    p_hat = proj.metric.P
    tau_theta = ev.tau_theta
    s1 = ev.s1

    # rest embedding quantities for the mean curvature identity
    base = embed_r3(m)
    h0 = mean_curvature(base)
    w_v = base.w
    taux = ev.tau_x
    defect = (w_v * ev.lap + taux * divergence_from_x_component(m, w_v)) ** 2
    lemma_dev = np.max(np.abs(data.mean_sq - (h0**2 - defect / (w_v**2 + taux**2))))

    h_gen = ev.generalized_mean_curvature(GaugeData.breve(data))
    prop_dev = np.max(np.abs(h_gen / s1 - data.Hhat))

    alpha_pair = ev.pairing(data.breve_alpha)
    proj_dev = np.max(np.abs(data.Hhat + data.breve_h + alpha_pair / s1))

    # frame derivative <d e3/dtheta, e4> at phi = 0; the vertical leg of
    # e3 carries a sin factor, so its derivative is assembled analytically
    d_vert = sin_factored_theta_derivative(g, proj.w / p_hat)
    d_horiz = g.dtheta(-proj.u_prime / p_hat)
    frame_alpha = (
        d_vert * tau_theta * proj.u_prime + d_horiz * tau_theta * proj.v_prime
    ) / (m.P * p_hat)
    gauge_dev = np.max(np.abs(data.breve_alpha.theta - frame_alpha))

    tau_up = tau_theta / m.P**2
    inverse_dev = np.max(np.abs((1.0 / m.P**2 - tau_up**2 / s1**2) * p_hat**2 - 1.0))

    hess_hat = hessian(proj.metric, ev.tau)
    graph_dev = np.max(np.abs(hess_hat.theta_theta - ev.hess.theta_theta / s1**2))

    checks = tuple(
        CheckOutcome(label, -float(dev), tolerance)
        for label, dev in (
            ("mean-curvature-norm", lemma_dev),
            ("generalized-mean", prop_dev),
            ("projection", proj_dev),
            ("gauge-one-form", gauge_dev),
            ("inverse-metric", inverse_dev),
            ("graph-hessian", graph_dev),
        )
    )
    return TheoremReport(name="identities", samples=1, checks=checks)


def check_lemma41(m: AxisymMetric, tau: np.ndarray, variations=None) -> TheoremReport:
    """Certify that tau is a critical point of its own gauge-fixed energy.

    Two faces of the same statement.  The pointwise flux identity

        -sigma_hat^{bd} h_hat_{cd} tau^c / sqrt(1 + |grad tau|^2)
        - tau^b alpha(grad tau) / (1 + |grad tau|^2) + alpha^b  =  0

    (all raisings with the induced metric except the leading inverse,
    alpha the translated-gauge one-form) makes the first variation of
    f -> E_tilde(lift of tau, translated gauge, f) a total divergence at
    f = tau; the derivative checks confirm that variation vanishes by
    central differences along each supplied direction.  Surfaces that
    fail to embed for a perturbed time function raise; the identity is
    only certified on valid configurations.
    """
    g = m.grid
    if variations is None:
        variations = tuple(legendre_mode(g, degree) for degree in (1, 2, 3))
    else:
        variations = tuple(np.asarray(v, dtype=float) for v in variations)

    ev = evaluate(m, tau)
    data = ev.extrinsic
    p_hat = ev.lift.projected.metric.P
    s1 = ev.s1
    tau_up = ev.tau_theta / m.P**2
    alpha_pair = ev.pairing(data.breve_alpha)
    flux = (
        -data.hhat.theta_theta * tau_up / (p_hat**2 * s1)
        - tau_up * alpha_pair / s1**2
        + data.breve_alpha.theta / m.P**2
    )
    flux_dev = float(np.max(np.abs(flux)))

    gauge = GaugeData.breve(data)
    step = 1e-4
    checks = [CheckOutcome("flux", -flux_dev, 1e-8)]
    for i, delta in enumerate(variations, start=1):
        upper = tilde_energy(ev.lift, gauge, ev.tau + step * delta)
        lower = tilde_energy(ev.lift, gauge, ev.tau - step * delta)
        derivative = (upper - lower) / (2.0 * step)
        checks.append(CheckOutcome(f"variation-{i}", -abs(float(derivative)), 1e-6))

    return TheoremReport(name="lemma41", samples=len(variations), checks=tuple(checks))


# ---------------------------------------------------------------------------
# comparison theorem
# ---------------------------------------------------------------------------


def check_theorem1(d: PhysicalData, tau0: np.ndarray, tau_samples=None) -> TheoremReport:
    """Certify the comparison inequality at a critical time function.

    With tau0 critical for the data and the lifted mean curvature norm
    strictly dominating the physical one pointwise, every admissible tau
    satisfies

        E(Sigma, tau) >= E(Sigma, tau0) + E(Sigma_tau0, tau)

    where the second energy on the right treats the lift of tau0 as a
    physical surface in flat spacetime.  The suite reports

      criticality          L2 norm of the residual at tau0 (hypothesis)
      mean-curvature-gap   min of |H_tau0| - |H|, strict (hypothesis)
      closed-form          E(Sigma, tau0) against its pointwise closed
                           form in |H_tau0|, |H| and the reduced Laplacian
      gap                  worst sampled inequality gap; -inf if no sample
                           passed the convexity guard
      equality             gap at tau = tau0 + 3, which must vanish

    Samples failing the convexity guard are skipped and counted in the
    details, never silently dropped.
    """
    m = d.metric
    g = m.grid
    tau0 = np.asarray(tau0, dtype=float)
    if tau_samples is None:
        tau_samples = tuple(tau0 + f for f in coefficient_box(g))

    # one evaluation per time function serves the guard and both energies;
    # reference shares the metric m with d
    at_tau0 = evaluate(m, tau0)
    reference = minkowski_surface_data(m, at_tau0)
    hyp_margin = float(np.min(reference.norm_H - d.norm_H))
    res = residual(d, at_tau0)
    res_norm = float(np.sqrt(integrate_surface(m, res * res)))

    energy_tau0 = qle(d, at_tau0).total
    s1 = at_tau0.s1
    x0 = at_tau0.lap / s1
    closed_form = integrate_surface(
        m, (np.sqrt(reference.norm_H**2 + x0**2) - np.sqrt(d.norm_H**2 + x0**2)) / s1
    )
    closed_dev = abs(closed_form - energy_tau0)

    gaps = []
    skipped = 0
    for tau in tau_samples:
        ev = evaluate(m, tau)
        if convexity_guard(m, ev) <= 0.0:
            skipped += 1
            continue
        gaps.append(qle(d, ev).total - energy_tau0 - qle(reference, ev).total)
    worst_gap = float(np.min(gaps)) if gaps else -np.inf

    shifted = evaluate(m, tau0 + 3.0)
    equality_gap = float(qle(d, shifted).total - energy_tau0 - qle(reference, shifted).total)

    checks = (
        CheckOutcome("criticality", -res_norm, 1e-6),
        CheckOutcome("mean-curvature-gap", hyp_margin, -STRICT_FLOOR),
        CheckOutcome("closed-form", -float(closed_dev), 1e-7),
        CheckOutcome("gap", worst_gap, 1e-8),
        CheckOutcome("equality", -abs(equality_gap), 1e-9),
    )
    details = (
        ("skipped-samples", float(skipped)),
        ("largest-gap", float(np.max(gaps)) if gaps else -np.inf),
        ("reference-mean-curvature-min", float(np.min(reference.norm_H))),
        ("physical-mean-curvature-max", float(np.max(d.norm_H))),
    )
    return TheoremReport(
        name="theorem1",
        samples=len(gaps),
        checks=checks,
        equality_cases=(("shift+3", equality_gap),),
        details=details,
    )


def _default_profiles(grid: Grid) -> tuple:
    p1 = legendre_mode(grid, 1)
    p2 = legendre_mode(grid, 2)
    p3 = legendre_mode(grid, 3)
    return (0.3 * p1, 0.2 * p1 + 0.1 * p2, 0.1 * p2 + 0.05 * p3)


def check_theorem3(d: PhysicalData, tau_samples=None) -> TheoremReport:
    """Certify that the rest time function is the global axisymmetric minimum.

    Hypotheses: alpha_H vanishes (so tau = 0 is critical) and the rest
    mean curvature H0 of the projected image strictly dominates |H| > 0
    pointwise.  For each sampled tau the scaled family F(s) = E of the
    rest image data at s*tau is traced over the s-grid and certified via

      guard                min convexity-guard margin over samples and s,
                           strict: the whole segment must stay embeddable
      zero-value           F(0) = 0
      zero-derivative      F'(0) = 0 by spectral differentiation
      ode                  F'(s) - F(s)/s >= 0 for s >= 0.02
      positivity           F(1) >= 0, the certified conclusion
      monotonicity         E(Sigma, tau) - E(Sigma, 0) >= 0 on the
                           physical data
      reference-derivative spectral derivative of the reference integral
                           G(s) against its closed form in the lifted
                           mean curvature norm

    Samples whose scaled segment violates the guard are skipped (the
    energies are undefined there) and fail the guard check; the counts
    land in the details.
    """
    m = d.metric
    g = m.grid
    if tau_samples is None:
        tau_samples = _default_profiles(g)
    tau_samples = tuple(np.asarray(t, dtype=float) for t in tau_samples)
    s_grid = chebyshev_s_grid()
    interior = s_grid >= 0.02  # F/s degenerates at s = 0

    alpha_dev = float(np.max(np.abs(d.alpha_H.theta)))
    # one evaluation per time function serves the guard, both energies and
    # the closed form; rest shares the metric m with d
    at_rest = evaluate(m, np.zeros(g.n_nodes))
    rest = minkowski_surface_data(m, at_rest)
    hyp_margin = float(np.min(rest.norm_H - d.norm_H))
    positive_margin = float(np.min(d.norm_H))

    energy_rest = qle(d, at_rest).total
    guard_min = np.inf
    zero_dev = 0.0
    zero_slope_dev = 0.0
    ode_margin = np.inf
    final_margin = np.inf
    monotone_margin = np.inf
    reference_dev = 0.0
    strict_increase = np.inf
    evaluated = 0
    skipped = 0

    for tau in tau_samples:
        # one evaluation of tau serves the family's s = 1 member (1.0 * tau
        # is tau to the bit), the monotonicity energy and the closed form
        at_tau = evaluate(m, tau)
        family_evals = [at_tau if s == 1.0 else evaluate(m, s * tau) for s in s_grid]
        sample_guard = min(convexity_guard(m, ev) for ev in family_evals)
        guard_min = min(guard_min, sample_guard)
        if sample_guard <= 0.0:
            skipped += 1
            continue
        evaluated += 1

        breakdowns = [qle(rest, ev) for ev in family_evals]
        family = np.array([b.total for b in breakdowns])
        slope = _spectral_s_derivative(s_grid, family)
        zero_dev = max(zero_dev, abs(family[0]))
        zero_slope_dev = max(zero_slope_dev, abs(slope[0]))
        ode_margin = min(
            ode_margin, float(np.min(slope[interior] - family[interior] / s_grid[interior]))
        )
        final_margin = min(final_margin, float(family[-1]))

        # rest shares the metric m, so these are the reference integrals of m
        reference = np.array([b.reference_term for b in breakdowns])
        reference_slope = _spectral_s_derivative(s_grid, reference)
        lap = at_tau.lap
        grad_sq = at_tau.grad_sq
        for i in np.nonzero(interior)[0]:
            s0 = s_grid[i]
            mean_sq = family_evals[i].extrinsic.mean_sq
            s1_sq = 1.0 + s0**2 * grad_sq
            integrand = np.sqrt(mean_sq + (s0 * lap) ** 2 / s1_sq) / np.sqrt(s1_sq)
            closed = (reference[i] - integrate_surface(m, integrand)) / s0
            reference_dev = max(reference_dev, abs(reference_slope[i] - closed))

        increase = qle(d, at_tau).total - energy_rest
        monotone_margin = min(monotone_margin, increase)
        if not _is_constant(tau):
            strict_increase = min(strict_increase, increase)

    # degenerate member of every family: the zero profile, exactly flat
    constant_value = abs(qle(rest, at_rest).total)

    checks = (
        CheckOutcome("alpha-rest", -alpha_dev, 1e-10),
        CheckOutcome("mean-curvature-gap", hyp_margin, -STRICT_FLOOR),
        CheckOutcome("physical-mean-curvature", positive_margin, -STRICT_FLOOR),
        CheckOutcome("guard", float(guard_min), -STRICT_FLOOR),
        CheckOutcome("zero-value", -float(zero_dev), 1e-10),
        CheckOutcome("zero-derivative", -float(zero_slope_dev), 1e-7),
        CheckOutcome("ode", float(ode_margin), 1e-7),
        CheckOutcome("positivity", float(final_margin), 1e-8),
        CheckOutcome("monotonicity", float(monotone_margin), 1e-8),
        CheckOutcome("reference-derivative", -float(reference_dev), 1e-6),
    )
    details = (
        ("skipped-samples", float(skipped)),
        ("strict-increase-min", float(strict_increase)),
        ("rest-energy", float(energy_rest)),
    )
    return TheoremReport(
        name="theorem3",
        samples=evaluated,
        checks=checks,
        equality_cases=(("constant-profile", float(constant_value)),),
        details=details,
    )

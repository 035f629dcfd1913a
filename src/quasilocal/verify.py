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

Allowances of margins that are lengths (energies and their derivatives
in s) are multiplied by the length scale L = max(1, sqrt(area / 4 pi)) of
the surface, since the rounding of an energy grows with its terms, of
size 8 pi L; allowances of hypotheses are not.  The identities and
lemma41's flux bound quantities of length dimension p; their allowances
are 1e-8 r^p, r = sqrt(area / 4 pi), so scaling cannot flip them.

Sampling is deterministic: the default sample families are fixed
Legendre-coefficient boxes and profiles.  They depend on the grid alone,
so each is a read-only stack built once per grid and shared by every
call, and each family is evaluated as one stack of time functions.
Derivatives in the family parameter s are the energy's weak first
variation along the profile, exact at every node of the s-grid, never
differences of sampled energies; the s = 0 endpoint is covered by
dedicated value and derivative checks because the comparison inequality
F' >= F/s degenerates there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    AxisymMetric,
    Grid,
    _check_field,
    _divergence_from_x_component,
    _hessian,
    _read_only,
    _sin_factored_theta_derivative,
    integrate_surface,
)
from .embedding import embed_r3, evaluate
from .physdata import PhysicalData, _fmt, minkowski_surface_data
from .energy import (
    _first_variation,
    _stationarity_terms,
    breve_gauge,
    generalized_mean_curvature,
    qle,
    residual,
    tilde_energy,
)
from .optimize import _fd_gradient, _perturbed, convexity_guard

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
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def format_report(report: TheoremReport) -> str:
    """Serialize a report as deterministic key-value lines."""
    lines = [
        f"suite = {report.name}",
        f"samples = {report.samples}",
        f"pass = {'true' if report.passed else 'false'}",
        f"worst_check = {report.worst.label}",
        f"worst_margin = {_fmt(report.worst_margin)}",
        f"allowance = {_fmt(report.worst.allowance)}",
    ]
    for c in report.checks:
        lines.append(f"margin.{c.label} = {_fmt(c.margin)}")
        lines.append(f"allowance.{c.label} = {_fmt(c.allowance)}")
    for label, value in report.equality_cases:
        lines.append(f"equality.{label} = {_fmt(value)}")
    for label, value in report.details:
        lines.append(f"detail.{label} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=8)
def coefficient_box(grid: Grid) -> np.ndarray:
    """The +-amplitude box over the first two Legendre modes.

    Returns all (c, d) combinations of c*P1 + d*P2 with c and d running
    over 0.05, 0.2, 0.5 and their negatives, as a read-only (36, n)
    stack: the default sample family for the comparison inequality.  It
    depends on the grid alone, so it is a grid constant, synthesized row
    by row and checked once per grid (the last 8 grids are kept) and
    shared by every caller.
    """
    signed = [a * s for a in (0.05, 0.2, 0.5) for s in (1.0, -1.0)]
    rows = [grid.legendre_synthesis([0.0, c, d]) for c in signed for d in signed]
    return _read_only(_sample_stack(grid, rows))


def chebyshev_s_grid() -> np.ndarray:
    """The 33 Chebyshev-Lobatto nodes on [0, 1], ascending from s = 0."""
    k = np.arange(33)
    return (1.0 - np.cos(np.pi * k / 32)) / 2.0


def _is_constant(taus: np.ndarray) -> np.ndarray:
    """Per row of a stack: is that time function constant?"""
    first = taus[:, :1]
    return np.max(np.abs(taus - first), axis=1) <= 1e-14 * np.maximum(1.0, np.abs(first[:, 0]))


def _sample_stack(grid: Grid, tau_samples) -> np.ndarray:
    """The sampled time functions as one (k, n) stack; k may be 0.  A wrong shape names its row."""
    samples = [_check_field(grid, f"tau at row {i}", t) for i, t in enumerate(tau_samples)]
    return np.stack(samples) if samples else np.empty((0, grid.n_nodes))


def _radius(m: AxisymMetric) -> float:
    """sqrt(area / 4 pi), the radius of the round sphere of the same area."""
    return float(np.sqrt(integrate_surface(m, np.ones(m.grid.n_nodes)) / (4.0 * np.pi)))


def _length_scale(m: AxisymMetric) -> float:
    """L = max(1, _radius(m)), the factor on allowances that are lengths."""
    return max(1.0, _radius(m))


def _least(values: np.ndarray) -> float:
    """The least value; inf when there is none."""
    return float(np.min(values, initial=np.inf))


def _deviation_margin(values: np.ndarray) -> float:
    """Minus the largest |value|; 0 when there is none."""
    return -float(np.max(np.abs(values), initial=0.0))


def _worst_index(values: np.ndarray, rows: np.ndarray) -> float:
    """The sample index rows[i] of the least values[i]; -1 when there is none."""
    return float(rows[np.argmin(values)]) if values.size else -1.0


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def check_identities(m: AxisymMetric, tau: np.ndarray) -> TheoremReport:
    """Certify the algebraic identities tying a lift to its projection.

    Six identities, each reported as a max-norm deviation.  Five compare
    two independent code paths; generalized-mean is the projection
    identity multiplied through by sqrt(1 + |grad tau|^2), so its margin
    repeats projection's up to rounding:

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
    proj = ev.projected
    p_hat = proj.metric.P
    tau_theta = ev.tau_theta
    s1 = ev.s1

    # rest embedding quantities for the mean curvature identity
    base = embed_r3(m)
    h0 = base.mean_curvature
    w_v = base.w
    taux = ev.tau_x
    defect = (w_v * ev.lap + taux * _divergence_from_x_component(m, w_v)) ** 2
    lemma_dev = np.max(np.abs(ev.mean_sq - (h0**2 - defect / (w_v**2 + taux**2))))

    h_gen = generalized_mean_curvature(breve_gauge(ev), m, ev)
    prop_dev = np.max(np.abs(h_gen / s1 - proj.mean_curvature))

    alpha_pair = ev.pairing(ev.breve_alpha)
    proj_dev = np.max(np.abs(proj.mean_curvature + ev.breve_h + alpha_pair / s1))

    # frame derivative <d e3/dtheta, e4> at phi = 0; the vertical leg of
    # e3 carries a sin factor, so its derivative is assembled analytically
    d_vert = _sin_factored_theta_derivative(g, proj.w / p_hat)
    d_horiz = g.dtheta(-proj.u_prime / p_hat)
    frame_alpha = (
        d_vert * tau_theta * proj.u_prime + d_horiz * tau_theta * proj.v_prime
    ) / (m.P * p_hat)
    gauge_dev = np.max(np.abs(ev.breve_alpha - frame_alpha))

    tau_up = tau_theta / m.P**2
    inverse_dev = np.max(np.abs((1.0 / m.P**2 - tau_up**2 / s1**2) * p_hat**2 - 1.0))

    graph_dev = np.max(np.abs(_hessian(proj.metric, ev.tau_x) - ev.hess_tt / s1**2))

    # each allowance is 1e-8 r^p, p the length dimension of its quantity
    r = _radius(m)
    checks = tuple(
        CheckOutcome(label, -float(dev), allowance)
        for label, dev, allowance in (
            ("mean-curvature-norm", lemma_dev, 1e-8 / (r * r)),
            ("generalized-mean", prop_dev, 1e-8 / r),
            ("projection", proj_dev, 1e-8 / r),
            ("gauge-one-form", gauge_dev, 1e-8),
            ("inverse-metric", inverse_dev, 1e-8),
            ("graph-hessian", graph_dev, 1e-8 * r),
        )
    )
    return TheoremReport(name="identities", samples=1, checks=checks)


def check_lemma41(m: AxisymMetric, tau: np.ndarray) -> TheoremReport:
    """Certify that tau is a critical point of its own gauge-fixed energy.

    Two faces of the same statement.  The pointwise flux identity

        -sigma_hat^{bd} h_hat_{cd} tau^c / sqrt(1 + |grad tau|^2)
        - tau^b alpha(grad tau) / (1 + |grad tau|^2) + alpha^b  =  0

    (all raisings with the induced metric except the leading inverse,
    alpha the translated-gauge one-form) makes the first variation of
    f -> E_tilde(lift of tau, translated gauge, f) a total divergence at
    f = tau; the derivative checks confirm that variation vanishes by
    the package's one central difference (optimize._perturbed and
    optimize._fd_gradient, step 1e-4 _radius(m), which leaves the margins
    bit-identical under 2^k scaling) along the Legendre modes P1, P2 and
    P3.  Surfaces that fail to embed for a perturbed time function raise;
    the identity is only certified on valid configurations.
    """
    variations = m.grid.legendre_vandermonde[:, 1:4].T

    ev = evaluate(m, tau)
    proj = ev.projected
    p_hat = proj.metric.P
    s1 = ev.s1
    tau_up = ev.tau_theta / m.P**2
    alpha_pair = ev.pairing(ev.breve_alpha)
    flux = (
        -proj.hhat_tt * tau_up / (p_hat**2 * s1)
        - tau_up * alpha_pair / s1**2
        + ev.breve_alpha / m.P**2
    )
    flux_dev = float(np.max(np.abs(flux)))

    # the perturbed time functions tau +- step * delta form one stack
    r = _radius(m)
    step = 1e-4 * r
    perturbed = _perturbed(ev.tau, step * variations)
    derivatives = _fd_gradient(tilde_energy(ev, breve_gauge(ev), perturbed), step)
    checks = [CheckOutcome("flux", -flux_dev, 1e-8 / (r * r))]
    checks += [
        CheckOutcome(f"variation-{i}", -abs(float(dv)), 1e-6)
        for i, dv in enumerate(derivatives, start=1)
    ]

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
    details, never silently dropped; the detail worst-gap-sample is the
    index into tau_samples that set gap, -1 if none was admitted.  An
    inadmissible tau0 or sample raises, naming tau and the sample's row.
    """
    m = d.metric
    g = m.grid
    # reference's lift, on the metric of d, serves the energies of both at tau0
    reference = minkowski_surface_data(m, tau0)
    at_tau0 = reference.lift
    tau0 = at_tau0.tau
    if tau_samples is None:
        samples = tau0 + coefficient_box(g)
    else:
        samples = _sample_stack(g, tau_samples)
    length = _length_scale(m)

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

    # the samples and the equality case tau0 + 3 as one evaluation, whose
    # admitted rows keep what the guard computed
    members = evaluate(m, np.concatenate([samples, [tau0 + 3.0]]))
    keep = convexity_guard(m, members) > 0.0
    keep[-1] = True  # the equality case is always evaluated
    admitted = np.flatnonzero(keep[:-1])
    trial = members.rows(keep)
    trial_gaps = qle(d, trial).total - energy_tau0 - qle(reference, trial).total
    gaps, equality_gap = trial_gaps[:-1], float(trial_gaps[-1])

    checks = (
        CheckOutcome("criticality", -res_norm, 1e-6),
        CheckOutcome("mean-curvature-gap", hyp_margin, -STRICT_FLOOR),
        CheckOutcome("closed-form", -float(closed_dev), 1e-7 * length),
        CheckOutcome("gap", float(np.min(gaps)) if gaps.size else -np.inf, 1e-8 * length),
        CheckOutcome("equality", -abs(equality_gap), 1e-9 * length),
    )
    details = (
        ("skipped-samples", float(len(samples) - gaps.size)),
        ("largest-gap", float(np.max(gaps, initial=-np.inf))),
        ("reference-mean-curvature-min", float(np.min(reference.norm_H))),
        ("physical-mean-curvature-max", float(np.max(d.norm_H))),
        ("worst-gap-sample", _worst_index(gaps, admitted)),
    )
    return TheoremReport(
        name="theorem1",
        samples=int(gaps.size),
        checks=checks,
        equality_cases=(("shift+3", equality_gap),),
        details=details,
    )


@lru_cache(maxsize=8)
def _default_profiles(grid: Grid) -> np.ndarray:
    """theorem3's default profiles 0.3 P1, 0.2 P1 + 0.1 P2 and 0.1 P2 + 0.05 P3.

    A read-only (3, n) stack, a grid constant like coefficient_box:
    synthesized row by row and checked once per grid (the last 8 grids
    are kept) and shared by every caller.
    """
    rows = [grid.legendre_synthesis(c) for c in ([0, 0.3], [0, 0.2, 0.1], [0, 0, 0.1, 0.05])]
    return _read_only(_sample_stack(grid, rows))


def check_theorem3(d: PhysicalData, tau_samples=None) -> TheoremReport:
    """Certify that the rest time function is the global axisymmetric minimum.

    Hypotheses: alpha_H vanishes (so tau = 0 is critical) and the rest
    mean curvature H0 of the projected image strictly dominates |H| > 0
    pointwise.  For each sampled tau the scaled family F(s) = E of the
    rest image data at s*tau is traced over the s-grid and certified via

      guard                min convexity-guard margin over samples and s,
                           strict: the whole segment must stay embeddable
      zero-value           F(0) = 0
      zero-derivative      F'(0) = 0, F' the weak first variation along tau
      ode                  F'(s) - F(s)/s >= 0 for s >= 0.02
      positivity           F(1) >= 0, the certified conclusion; -inf if
                           no sample passed the guard
      monotonicity         E(Sigma, tau) - E(Sigma, 0) >= 0 on the
                           physical data
      reference-derivative G'(s), the same variation of the reference integral
                           G(s), against its closed form in the lifted mean
                           curvature norm; -inf if the closed form's
                           radicand is negative somewhere

    Samples whose scaled segment violates the guard are skipped (the
    energies are undefined there) and fail the guard check; the counts
    land in the details, with worst-ode-sample the index into tau_samples
    that set ode, -1 if none was admitted.  An inadmissible sample
    raises, naming tau and its row.
    """
    m = d.metric
    g = m.grid
    if tau_samples is None:
        samples = _default_profiles(g)
    else:
        samples = _sample_stack(g, tau_samples)
    sampled = evaluate(m, samples)  # admits the samples, naming a bad one's row
    length = _length_scale(m)
    s_grid = chebyshev_s_grid()
    interior = s_grid >= 0.02  # F/s degenerates at s = 0

    alpha_dev = float(np.max(np.abs(d.alpha_H)))
    # rest's lift, on the metric of d, serves the energies of both at tau = 0
    rest = minkowski_surface_data(m, np.zeros(g.n_nodes))
    at_rest = rest.lift
    hyp_margin = float(np.min(rest.norm_H - d.norm_H))
    positive_margin = float(np.min(d.norm_H))
    energy_rest = qle(d, at_rest).total

    # the families s * tau over the s-grid as one evaluation, whose admitted
    # rows keep what the guard computed (1.0 * tau is tau to the bit, so the
    # s = 1 rows serve the monotonicity energies)
    n_s = s_grid.size
    members = evaluate(m, (s_grid[None, :, None] * samples[:, None, :]).reshape(-1, g.n_nodes))
    sample_guard = convexity_guard(m, members).reshape(-1, n_s).min(axis=1)
    admitted = np.flatnonzero(sample_guard > 0.0)
    family_ev = members.rows(np.repeat(sample_guard > 0.0, n_s))

    on_rest = qle(rest, family_ev)
    family = on_rest.total.reshape(-1, n_s)
    # each member pairs with its own profile: a diagonal of all the pairings
    profiles, own = samples[admitted], np.arange(admitted.size)
    terms = _stationarity_terms(rest, family_ev)
    variations = _first_variation(m, terms, profiles.T, sampled.tau_x[admitted].T)
    slope, reference_slope = (v.reshape(own.size, n_s, own.size)[own, :, own] for v in variations)
    ode = np.min(slope[:, interior] - family[:, interior] / s_grid[interior], axis=1)

    # rest shares the metric m, so these are the reference integrals of m;
    # their s-derivative has a closed form in <H, H> of the lift
    reference = on_rest.reference_term.reshape(-1, n_s)
    s1 = family_ev.s1
    radicand = family_ev.mean_sq + (family_ev.lap / s1) ** 2
    # rounding drives it negative on small spheres (r <= 1e-8), where there is nothing to measure
    integrand = np.sqrt(np.maximum(radicand, 0.0)) / s1
    physical = integrate_surface(m, integrand).reshape(-1, n_s)
    closed = (reference - physical)[:, interior] / s_grid[interior]
    closed_dev = _deviation_margin(reference_slope[:, interior] - closed)
    if (radicand < 0.0).any():
        closed_dev = -np.inf

    at_one = np.arange(admitted.size * n_s) % n_s == n_s - 1
    increase = qle(d, family_ev.rows(at_one)).total - energy_rest
    varying = ~_is_constant(samples[admitted])

    # degenerate member of every family: the zero profile, exactly flat
    constant_value = abs(qle(rest, at_rest).total)

    checks = (
        CheckOutcome("alpha-rest", -alpha_dev, 1e-10),
        CheckOutcome("mean-curvature-gap", hyp_margin, -STRICT_FLOOR),
        CheckOutcome("physical-mean-curvature", positive_margin, -STRICT_FLOOR),
        CheckOutcome("guard", _least(sample_guard), -STRICT_FLOOR),
        CheckOutcome("zero-value", _deviation_margin(family[:, 0]), 1e-10 * length),
        CheckOutcome("zero-derivative", _deviation_margin(slope[:, 0]), 1e-7 * length),
        CheckOutcome("ode", _least(ode), 1e-7 * length),
        CheckOutcome("positivity", _least(family[:, -1]) if admitted.size else -np.inf, 1e-8 * length),
        CheckOutcome("monotonicity", _least(increase), 1e-8 * length),
        CheckOutcome("reference-derivative", closed_dev, 1e-6 * length),
    )
    details = (
        ("skipped-samples", float(len(samples) - admitted.size)),
        ("strict-increase-min", _least(increase[varying])),
        ("rest-energy", float(energy_rest)),
        ("worst-ode-sample", _worst_index(ode, admitted)),
    )
    return TheoremReport(
        name="theorem3",
        samples=int(admitted.size),
        checks=checks,
        equality_cases=(("constant-profile", float(constant_value)),),
        details=details,
    )

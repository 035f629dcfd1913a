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

Every allowance is c r^p: c a constant of its check, r = sqrt(area / 4 pi)
the radius of the round sphere of the same area (AxisymMetric.area_radius,
formed once per metric), and p the length dimension of the quantity the
margin bounds.  The energy is homogeneous of degree one under
(sigma, tau) -> (lambda^2 sigma, lambda tau), so each margin scales as
its allowance; the default sample families do not (below):

  p = 1    energies and their s-derivatives (closed-form, gap, equality,
           zero-value, zero-derivative, ode, positivity, monotonicity,
           reference-derivative) and graph-hessian
  p = 0    alpha-rest, gauge-one-form, inverse-metric, variation-k
  p = -1   criticality, mean-curvature-gap, physical-mean-curvature,
           projection
  p = -2   theorem3's guard (a Gauss curvature), mean-curvature-norm, flux

The strict hypotheses' floor is STRICT_FLOOR r^p.

Sampling is deterministic: the default sample families are fixed
Legendre-coefficient boxes and profiles over the modes the grid resolves,
not scaled by r, so a verdict can depend on size alone: on the
Schwarzschild sphere m = 1e-4, r = 4e-4 theorem3 fails its guard (margin
-5.6e7) and theorem1 skips 28 of its 36 samples.  The families depend on
the grid's size alone, so each is a read-only stack built once per size
and shared by every call, and each family is evaluated as one stack of time
functions, anew on every call.  Both comparison suites
take Sigma_tau0 and the data's energy and residual at tau0 from
PhysicalData.compared_at, theorem1 at its tau0 and theorem3 at tau0 = 0;
the data keep that pair for a tau0 of +0.0 bytes and every other tau0
is lifted anew.  Each suite reads its samples' convexity margins from
the guard of the one stack it evaluates.

theorem1's gap G(tau) = E(Sigma, tau) - E(Sigma, tau0) - E(Sigma_tau0, tau)
compares two energies at the same tau on the same metric.  The reference
term of each, the total mean curvature of the projection of the lift of
(sigma, tau), depends on sigma and tau alone and cancels, so G is the
physical term of Sigma_tau0 at tau minus that of Sigma, less
E(Sigma, tau0): the samples' reference term is never formed.  Their
projection is, so each sample is admitted, or raises, as the energy
admits it.

Derivatives in the family parameter s are the energy's weak first
variation along the profile, exact at every node of the s-grid, never
differences of sampled energies; the s = 0 endpoint is covered by
dedicated value and derivative checks because the comparison inequality
F' >= F/s degenerates there.

Only check_lemma41 evaluates the gauge energy and takes the minimizer's
central difference, and it imports both where it runs: loading this
module loads neither energy nor optimize, and the comparison suites
load energy through the data they compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .geometry import (
    AxisymMetric,
    Grid,
    _admit,
    _check_field,
    _divergence_from_x_component,
    _hessian,
    _integrate,
    _read_only,
    _sin_factored_theta_derivative,
    make_grid,
)
from .embedding import evaluate
from .physdata import PhysicalData, _fmt

# a strict hypothesis must clear this floor times r^p; on the unit sphere
# discretization noise in the margins sits around 1e-12, physical
# margins around 1e-1
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
    tolerance the allowance of that same check.  details carry reported
    quantities that do not gate the outcome.
    """

    name: str
    samples: int
    checks: tuple
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
    for label, value in report.details:
        lines.append(f"detail.{label} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=8)
def coefficient_box(n: int) -> np.ndarray:
    """The +-amplitude box over the first two Legendre modes on the n-node grid.

    Returns all (c, d) combinations of c*P1 + d*P2 with c and d running
    over 0.05, 0.2, 0.5 and their negatives, as a read-only (36, n)
    stack: the default sample family for the comparison inequality.  It
    depends on the grid size alone, so it is a grid constant, synthesized
    row by row by make_grid(n).time_function once per size (the last 8
    sizes are kept) and shared by every caller.  It is keyed by the size,
    as make_grid is, so it keeps no grid alive that make_grid has let go.
    """
    grid = make_grid(n)
    signed = [a * s for a in (0.05, 0.2, 0.5) for s in (1.0, -1.0)]
    return _read_only(np.stack([grid.time_function((c, d)) for c in signed for d in signed]))


@cache
def chebyshev_s_grid() -> np.ndarray:
    """The 33 Chebyshev-Lobatto nodes on [0, 1], ascending from s = 0, formed once, read-only."""
    return _read_only((1.0 - np.cos(np.pi * np.arange(33) / 32)) / 2.0)


def _is_constant(taus: np.ndarray) -> np.ndarray:
    """Per row of a stack: is that time function constant?"""
    first = taus[:, :1]
    return np.abs(taus - first).max(axis=1) <= 1e-14 * np.maximum(1.0, np.abs(first[:, 0]))


def _samples(grid: Grid, tau_samples, default: np.ndarray) -> np.ndarray:
    """tau_samples as one (k, n) stack, k may be 0, or default if it is None; a wrong shape names its row."""
    if tau_samples is None:
        return default
    samples = [_check_field(grid, f"tau at row {i}", t) for i, t in enumerate(tau_samples)]
    return np.stack(samples) if samples else np.empty((0, grid.n_nodes))


def _least(values: np.ndarray) -> float:
    """The least value; inf when there is none."""
    return float(values.min(initial=np.inf))


def _deviation_margin(values: np.ndarray) -> float:
    """Minus the largest |value|; 0 when there is none."""
    return -float(np.abs(values).max(initial=0.0))


def _worst_index(values: np.ndarray, rows: np.ndarray) -> float:
    """The sample index rows[i] of the least values[i]; -1 when there is none."""
    return float(rows[values.argmin()]) if values.size else -1.0


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def check_identities(m: AxisymMetric, tau: np.ndarray) -> TheoremReport:
    """Certify the algebraic identities tying a lift to its projection.

    Five identities, each reported as a max-norm deviation between two
    independent code paths:

      mean-curvature-norm   <H,H> against the rest mean curvature minus
                            the squared Laplacian defect (the axisymmetric
                            closed form, shape-operator route vs coordinate
                            Laplacians)
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
    p_hat = proj.P
    tau_theta = ev.tau_theta
    s1 = ev.s1

    # rest embedding quantities for the mean curvature identity
    h0 = m.mean_curvature
    w_v = m.w
    taux = ev.tau_x
    defect = (w_v * ev.lap + taux * _divergence_from_x_component(m, w_v)) ** 2
    lemma_dev = np.abs(ev.mean_sq - (h0**2 - defect / (w_v**2 + taux**2))).max()

    alpha_pair = ev.pairing(ev.breve_alpha)
    proj_dev = np.abs(proj.mean_curvature + ev.breve_h + alpha_pair / s1).max()

    # frame derivative <d e3/dtheta, e4> at phi = 0; the vertical leg of
    # e3 carries a sin factor, so its derivative is assembled analytically
    d_vert = _sin_factored_theta_derivative(g, proj.w / p_hat)
    d_horiz = g.dtheta(-proj.u_prime / p_hat)
    frame_alpha = (
        d_vert * tau_theta * proj.u_prime + d_horiz * tau_theta * proj.v_prime
    ) / (m.P * p_hat)
    gauge_dev = np.abs(ev.breve_alpha - frame_alpha).max()

    tau_up = tau_theta / m.P_sq
    inverse_dev = np.abs((1.0 / m.P_sq - tau_up**2 / s1**2) * proj.P_sq - 1.0).max()

    graph_dev = np.abs(_hessian(proj, ev.tau_x, tau_theta) - ev.hess_tt / s1**2).max()

    r = m.area_radius
    checks = tuple(
        CheckOutcome(label, -float(dev), allowance)
        for label, dev, allowance in (
            ("mean-curvature-norm", lemma_dev, 1e-8 / (r * r)),
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
    optimize._fd_gradient, step 1e-4 m.area_radius, which leaves the
    margins bit-identical under 2^k scaling) along the first three modes
    the grid resolves, Grid.modes: P1, P2 and P3, or P1 and P2 on a 4-node
    grid.  Surfaces that fail to embed for a perturbed time function raise;
    the identity is only certified on valid configurations.  The central
    difference and the gauge energy are imported here, where they run.
    """
    from .energy import breve_gauge, tilde_energy
    from .optimize import _fd_gradient, _perturbed

    variations = m.grid.modes(min(3, m.grid.highest_mode))[0].T

    ev = evaluate(m, tau)
    proj = ev.projected
    s1 = ev.s1
    tau_up = ev.tau_theta / m.P_sq
    alpha_pair = ev.pairing(ev.breve_alpha)
    flux = (
        -proj.hhat_tt * tau_up / (proj.P_sq * s1)
        - tau_up * alpha_pair / s1**2
        + ev.breve_alpha / m.P_sq
    )
    flux_dev = float(np.abs(flux).max())

    # the perturbed time functions tau +- step * delta form one stack
    r = m.area_radius
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
    physical surface in flat spacetime.  Both energies at tau have the
    reference term of (sigma, tau), which cancels, so the gap is formed as

        G(tau) = Phys(Sigma_tau0, tau) - Phys(Sigma, tau) - E(Sigma, tau0)

    with Phys the physical term (DataEvaluation.physical_term); the
    samples' projection is formed only to admit them as qle does.  The
    suite reports

      criticality          L2 norm of the residual at tau0 (hypothesis)
      mean-curvature-gap   min of |H_tau0| - |H|, strict (hypothesis)
      closed-form          E(Sigma, tau0) against its pointwise closed
                           form in |H_tau0|, |H| and the reduced Laplacian
      gap                  worst sampled inequality gap; -inf if no sample
                           passed the convexity guard
      equality             gap at tau = tau0 + 3r, which must vanish

    Samples failing the convexity guard are skipped and counted in the
    details, never silently dropped; the detail worst-gap-sample is the
    index into tau_samples that set gap, -1 if none was admitted.  An
    inadmissible tau0 or sample raises, naming tau and the sample's row.
    """
    m = d.metric
    g = m.grid
    # reference's lift, on the metric of d, serves the energies of both at tau0
    reference, at_tau0 = d.compared_at(tau0)
    tau0 = at_tau0.ev.tau
    samples = _samples(g, tau_samples, tau0 + coefficient_box(g.n_nodes))
    r = m.area_radius

    hyp_margin = float((reference.norm_H - d.norm_H).min())

    energy_tau0 = at_tau0.energy.total
    s1 = at_tau0.ev.s1
    x0 = at_tau0.ev.lap / s1
    closed_form = _integrate(
        m, (np.sqrt(reference.norm_H**2 + x0**2) - np.sqrt(d.norm_H**2 + x0**2)) / s1
    )
    closed_dev = abs(closed_form - energy_tau0)

    # the samples and the equality case tau0 + 3r as one evaluation, whose
    # admitted rows keep what the guard computed
    members = evaluate(m, np.concatenate([samples, [tau0 + 3.0 * r]]))
    keep = members.guard > 0.0
    keep[-1] = True  # the equality case is always evaluated
    admitted = np.flatnonzero(keep[:-1])
    trial = members.rows(keep)
    # the two energies at tau share the reference term of (m, tau), which
    # cancels: the gap is a difference of physical terms.  Reading the
    # projection still admits each sample as qle would, raising its errors
    trial.projected
    trial_gaps = (reference.evaluate(trial).physical_term - d.evaluate(trial).physical_term) - energy_tau0
    gaps, equality_gap = trial_gaps[:-1], float(trial_gaps[-1])

    checks = (
        CheckOutcome("criticality", -float(at_tau0.residual_norm), 1e-6 / r),
        CheckOutcome("mean-curvature-gap", hyp_margin, -STRICT_FLOOR / r),
        CheckOutcome("closed-form", -float(closed_dev), 1e-7 * r),
        CheckOutcome("gap", float(gaps.min()) if gaps.size else -np.inf, 1e-8 * r),
        CheckOutcome("equality", -abs(equality_gap), 1e-9 * r),
    )
    details = (
        ("skipped-samples", float(len(samples) - gaps.size)),
        ("largest-gap", float(gaps.max(initial=-np.inf))),
        ("reference-mean-curvature-min", float(reference.norm_H.min())),
        ("physical-mean-curvature-max", float(d.norm_H.max())),
        ("worst-gap-sample", _worst_index(gaps, admitted)),
    )
    return TheoremReport(name="theorem1", samples=int(gaps.size), checks=checks, details=details)


@lru_cache(maxsize=8)
def _default_profiles(n: int) -> np.ndarray:
    """theorem3's default profiles 0.3 P1, 0.2 P1 + 0.1 P2 and 0.1 P2 + 0.05 P3 on the n-node grid.

    Only the profiles whose modes the grid resolves are kept, so 4 nodes
    (highest mode P2) give a (2, n) stack and larger grids (3, n).  A
    read-only grid constant keyed by the size like coefficient_box:
    synthesized row by row by make_grid(n).time_function once per size
    (the last 8 sizes are kept) and shared by every caller.
    """
    grid = make_grid(n)
    profiles = ((0.3,), (0.2, 0.1), (0.0, 0.1, 0.05))
    return _read_only(np.stack([grid.time_function(c) for c in profiles if len(c) <= grid.highest_mode]))


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
    # admitted as an Evaluation admits a time function, naming a bad sample's row
    samples = _admit(g, "tau", _samples(g, tau_samples, _default_profiles(g.n_nodes)), lengths=False, stack=True)
    r = m.area_radius
    s_grid = chebyshev_s_grid()
    interior = s_grid >= 0.02  # F/s degenerates at s = 0

    alpha_dev = float(np.abs(d.alpha_H).max())
    # rest's lift, on the metric of d, serves the energies of both at tau = 0
    rest, at_rest = d.compared_at(np.zeros(g.n_nodes))
    hyp_margin = float((rest.norm_H - d.norm_H).min())
    positive_margin = float(d.norm_H.min())
    energy_rest = at_rest.energy.total

    # the families s * tau over the s-grid as one evaluation, whose admitted
    # rows keep what the guard computed (1.0 * tau is tau to the bit, so the
    # s = 1 rows serve the monotonicity energies)
    n_s = s_grid.size
    members = evaluate(m, (s_grid[None, :, None] * samples[:, None, :]).reshape(-1, g.n_nodes))
    sample_guard = members.guard.reshape(-1, n_s).min(axis=1)
    admitted = np.flatnonzero(sample_guard > 0.0)
    family_ev = members.rows(np.repeat(sample_guard > 0.0, n_s))

    on_rest = rest.evaluate(family_ev)
    family = on_rest.energy.total.reshape(-1, n_s)
    # each member pairs with its own profile: a diagonal of all the pairings
    profiles, own = samples[admitted], np.arange(admitted.size)
    variations = on_rest.first_variation(profiles.T, g.dx(samples)[admitted].T)
    slope, reference_slope = (v.reshape(own.size, n_s, own.size)[own, :, own] for v in variations)
    ode = (slope[:, interior] - family[:, interior] / s_grid[interior]).min(axis=1)

    # rest shares the metric m, so these are the reference integrals of m;
    # their s-derivative has a closed form in <H, H> of the lift
    reference = on_rest.energy.reference_term.reshape(-1, n_s)
    s1 = family_ev.s1
    radicand = family_ev.mean_sq + (family_ev.lap / s1) ** 2
    # rounding drives it negative on small spheres (r <= 1e-8), where there is nothing to measure
    integrand = np.sqrt(np.maximum(radicand, 0.0)) / s1
    physical = _integrate(m, integrand).reshape(-1, n_s)
    closed = (reference - physical)[:, interior] / s_grid[interior]
    closed_dev = _deviation_margin(reference_slope[:, interior] - closed)
    if (radicand < 0.0).any():
        closed_dev = -np.inf

    at_one = np.arange(admitted.size * n_s) % n_s == n_s - 1
    increase = d.evaluate(family_ev.rows(at_one)).energy.total - energy_rest
    varying = ~_is_constant(samples[admitted])

    checks = (
        CheckOutcome("alpha-rest", -alpha_dev, 1e-10),
        CheckOutcome("mean-curvature-gap", hyp_margin, -STRICT_FLOOR / r),
        CheckOutcome("physical-mean-curvature", positive_margin, -STRICT_FLOOR / r),
        CheckOutcome("guard", _least(sample_guard), -STRICT_FLOOR / (r * r)),
        CheckOutcome("zero-value", _deviation_margin(family[:, 0]), 1e-10 * r),
        CheckOutcome("zero-derivative", _deviation_margin(slope[:, 0]), 1e-7 * r),
        CheckOutcome("ode", _least(ode), 1e-7 * r),
        CheckOutcome("positivity", _least(family[:, -1]) if admitted.size else -np.inf, 1e-8 * r),
        CheckOutcome("monotonicity", _least(increase), 1e-8 * r),
        CheckOutcome("reference-derivative", closed_dev, 1e-6 * r),
    )
    details = (
        ("skipped-samples", float(len(samples) - admitted.size)),
        ("strict-increase-min", _least(increase[varying])),
        ("rest-energy", float(energy_rest)),
        ("worst-ode-sample", _worst_index(ode, admitted)),
    )
    return TheoremReport(name="theorem3", samples=int(admitted.size), checks=checks, details=details)

"""The quasi-local energy functional and its stationarity machinery.

The energy of physical data (sigma, |H|, alpha_H) at a time function tau
compares a reference term against a physical term,

    E = integral over the projected surface of Hhat
      - integral over sigma of [ sqrt((1+|grad tau|^2)|H|^2 + (Dtau)^2)
                                 - Dtau asinh(Dtau / (|H| sqrt(1+|grad tau|^2)))
                                 - alpha_H(grad tau) ],

where Dtau is the Laplacian of tau.  This is the integrated-by-parts form
of the defining functional; qle_angle_form evaluates the original
integrand, with the boost angle and its gradient explicit, as an
independent cross-check.  The two agree to discretization rounding.

Stationary time functions satisfy a second-order equation whose left-hand
side `residual` assembles pointwise; _first_variation pairs its terms with
directions in weak form, the exact first variation of the discrete energy.

The gauge energy tilde_energy generalizes the physical term to an
arbitrary normal gauge via the generalized mean curvature
h = -sqrt(1+|grad f|^2) <H, e3> - alpha_{e3}(grad f); the energy proper
is recovered in the canonical gauge of f, the boost of the H-aligned
frame by minus the boost angle.  That identity is asserted in
tests/test_energy.py, with the canonical gauge built by tests/reference.py.

Every formula here reads its inputs from an Evaluation (defined in the
embedding module and importable from here): the lift of one time
function, or of a (k, n) stack of them, on one metric, whose
derivatives, projected surface, reference integral and extrinsic data
are each computed at most once.  For a stack every operator is one
matrix product over the rows, and each result gains a leading axis of
length k.  Each formula is one function that accepts either a node-value
array or an Evaluation of the same metric, so a caller that needs the
guard, the energy and the residual at one tau builds the lift once by
passing one Evaluation to all three.  The formulas that take physical
data evaluate tau through PhysicalData.evaluate, so data of a surface in
Minkowski space, which carries the lift it came from, reuses that lift
when evaluated at its own time function, with bit-identical results.

qle, qle_angle_form, residual and the gradient terms read the physical
data, the derivatives of tau and the projection (its hhat_tt and mean
curvature); breve_gauge, and through it the gauge energy of a lift,
reads the lift's breve-frame data (Evaluation.extrinsic).  None of them
checks that a lift could be physical data: only
physdata.minkowski_surface_data does.  One-forms are the arrays of their
dtheta components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import AxisymMetric, _divergence_from_x_component, integrate_surface
from .embedding import Evaluation, evaluate

if TYPE_CHECKING:
    from .physdata import PhysicalData


@dataclass(frozen=True)
class EnergyBreakdown:
    """Reference and physical terms of the energy; total is their difference.

    Floats for one time function, (k,) arrays for a stack of k.
    """

    reference_term: float | np.ndarray
    physical_term: float | np.ndarray

    @property
    def total(self) -> float | np.ndarray:
        return self.reference_term - self.physical_term


@dataclass(frozen=True, eq=False)
class GaugeData:
    """A normal gauge on a surface: <H, e3> and the connection form of e3 (dtheta)."""

    inner_h: np.ndarray
    alpha: np.ndarray


def reference_mean_curvature_integral(
    m: AxisymMetric, tau: np.ndarray | Evaluation
) -> float | np.ndarray:
    """Total mean curvature of the projected surface of the lift of (m, tau)."""
    return evaluate(m, tau).reference


def _boost_angle(ev: Evaluation, d: PhysicalData):
    """cosh of the boost angle and the angle itself.

    sinh(theta) = -Dtau / (|H| sqrt(1+|grad tau|^2)); cosh is computed
    from sinh directly rather than through the angle.
    """
    sh = -ev.lap / (d.norm_H * ev.s1)
    return np.sqrt(1.0 + sh * sh), np.arcsinh(sh)


def qle(d: PhysicalData, tau: np.ndarray | Evaluation) -> EnergyBreakdown:
    """Quasi-local energy of the data at the time function tau.

    No 1/(8pi) normalization is applied; reports may rescale for display
    but every stored/compared value is the bare surface integral.
    """
    ev = d.evaluate(tau)
    s1, lap = ev.s1, ev.lap
    integrand = (
        np.sqrt(s1 * s1 * d.norm_H**2 + lap * lap)
        - lap * np.arcsinh(lap / (d.norm_H * s1))
        - ev.pairing(d.alpha_H)
    )
    return EnergyBreakdown(
        reference_term=ev.reference,
        physical_term=integrate_surface(d.metric, integrand),
    )


def qle_angle_form(d: PhysicalData, tau: np.ndarray | Evaluation) -> EnergyBreakdown:
    """Energy with the boost-angle gradient term kept explicit.

    Independent of qle up to one integration by parts; the pair is the
    standing cross-check that the discrete quadrature and differentiation
    are mutually consistent.
    """
    ev = d.evaluate(tau)
    ch, angle = _boost_angle(ev, d)
    angle_pair = ev.pairing(d.metric.grid.dtheta(angle))
    integrand = ev.s1 * ch * d.norm_H - angle_pair - ev.pairing(d.alpha_H)
    return EnergyBreakdown(
        reference_term=ev.reference,
        physical_term=integrate_surface(d.metric, integrand),
    )


def generalized_mean_curvature(
    g: GaugeData, m: AxisymMetric, f: np.ndarray | Evaluation
) -> np.ndarray:
    """h = -sqrt(1+|grad f|^2) <H, e3> - alpha_{e3}(grad f)."""
    ev = evaluate(m, f)
    return -ev.s1 * g.inner_h - ev.pairing(g.alpha)


def breve_gauge(lift: Evaluation) -> GaugeData:
    """Gauge of the translated outward normal of the projected surface."""
    data = lift.extrinsic
    return GaugeData(inner_h=data.breve_h, alpha=data.breve_alpha)


def tilde_energy(
    lift: Evaluation, g: GaugeData, f: np.ndarray | Evaluation
) -> float | np.ndarray:
    """Gauge energy: reference term of f minus the integral of h(g, f).

    The lift supplies the base metric; the gauge carries all frame
    dependence, so any frame on any lift of the same metric can be
    compared against the same family of time functions f.
    """
    m = lift.metric
    ev = evaluate(m, f)
    return ev.reference - integrate_surface(m, generalized_mean_curvature(g, m, ev))


def residual(d: PhysicalData, tau: np.ndarray | Evaluation) -> np.ndarray:
    """Pointwise stationarity defect of the energy at tau.

    Assembles
        -(Hhat shat^{ab} - shat^{ac} shat^{bd} hhat_cd) Hess_ab(tau)
            / sqrt(1+|grad tau|^2)
        + div[ grad tau cosh(theta)|H| / sqrt(1+|grad tau|^2)
               - grad(theta) - alpha_H ]
    with shat the projected-surface metric and Hess the covariant Hessian
    of the base metric.  Critical time functions make this vanish.
    """
    return _residual_from_terms(d.metric, *_stationarity_terms(d, d.evaluate(tau)))


def _residual_from_terms(m: AxisymMetric, trace_part: np.ndarray, flux: np.ndarray) -> np.ndarray:
    """The residual from the trace term and flux of _stationarity_terms on the metric m."""
    return trace_part + _divergence_from_x_component(m, flux)


def _stationarity_terms(d: PhysicalData, ev: Evaluation):
    """The residual's trace term and the flux omega whose divergence completes it.

    residual = trace term + div W, with W the one-form whose dtheta
    component is sin(theta) omega, as _divergence_from_x_component expects.
    _first_variation pairs the trace term with directions and omega with
    their derivatives, so each formula is defined here once.

    The azimuthal contractions are formed with the sin(theta) factors
    cancelled analytically: Hess_pp / (Q sin)^2 = -u' tau_x / (P^2 Q) and
    hhat_pp Hess_pp / (Q sin)^4 = -w u' tau_x / (P_hat P^2 Q^2) with
    w = v_tilde'/sin, so every field stays smooth through the poles.
    Only the projection's hhat_tt and mean curvature are read, never the
    lift's normal-bundle data.
    """
    m = d.metric
    grid = m.grid
    proj = ev.projected
    p_hat, p_hat_sq = proj.metric.P, proj.metric.P_sq

    s1 = ev.s1
    tau_x = ev.tau_x
    hess_tt = ev.hess_tt
    u_prime = proj.u_prime

    hess_pp_scaled = -u_prime * tau_x / m.P_sq_Q
    cross_pp_scaled = -proj.w * u_prime * tau_x / (p_hat * m.P_sq * m.Q_sq)
    trace_term = (
        proj.mean_curvature * (hess_tt / p_hat_sq + hess_pp_scaled)
        - proj.hhat_tt * hess_tt / p_hat_sq**2
        - cross_pp_scaled
    )

    ch, angle = _boost_angle(ev, d)
    # grad(theta)/sin = -dx(angle)
    flux = (
        -tau_x * ch * d.norm_H / s1
        + grid.dx(angle)
        - d.alpha_H / grid.sin_theta
    )
    return -trace_term / s1, flux


def _first_variation(m: AxisymMetric, terms: tuple, directions: np.ndarray, slopes: np.ndarray):
    """Weak first variations of the energy and of its reference term, (..., j) each.

    terms is the (trace term, flux) pair of _stationarity_terms on the
    metric m.  directions holds j directions in its columns, (n, j), and
    slopes their x-derivatives.  The trace term, weighted by 2 pi w P Q
    and paired with the directions, is the reference term's variation;
    the flux, weighted by 2 pi w (1 - x^2) Q / P, pairs with the slopes,
    summed by parts.
    """
    trace_part, flux = terms
    reference = (m.weighted_PQ * trace_part) @ directions
    total = reference + (m.weighted_flux_factor * flux) @ slopes
    return (2.0 * np.pi) * total, (2.0 * np.pi) * reference

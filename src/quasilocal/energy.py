"""The quasi-local energy functional and its stationarity machinery.

The energy of physical data (sigma, |H|, alpha_H) at a time function tau
compares a reference term against a physical term,

    E = integral over the projected surface of Hhat
      - integral over sigma of [ sqrt((1+|grad tau|^2)|H|^2 + (Dtau)^2)
                                 + Dtau theta - alpha_H(grad tau) ],

where Dtau is the Laplacian of tau and theta the boost angle,
sinh(theta) = -Dtau / (|H| sqrt(1+|grad tau|^2)).  This is the
integrated-by-parts form of the defining functional; the angle form
evaluates the original integrand, with the angle's gradient explicit, as
an independent cross-check.  The two agree to discretization rounding.
Stationary time functions make the residual of a second-order equation
vanish, and its L2 norm, DataEvaluation.residual_norm, is the one measure
of criticality; the first variation pairs its terms with directions in
weak form, the exact first variation of the discrete energy.

PhysicalData.evaluate binds the Evaluation of a time function, or of a
(k, n) stack of them, to the data: a DataEvaluation, whose fields are
the quantities that depend on the data, each formed when first read and
kept (with a leading axis of length k for a stack).  physical_term is
the physical integral alone, one per row, and energy pairs it with the
lift's reference term; where two data are compared at the same tau, as
in theorem1's gap, the reference terms cancel and only physical_term is
read.  A caller that reads several at one tau holds one DataEvaluation,
and data of a surface in Minkowski space bind their own lift once, so
the boost angle and the stationarity terms are formed once per lift.
qle, qle_angle_form and residual wrap its fields for callers outside the
package, whose own code reads the fields (tests/test_source_hygiene.py).
The fields read the data, the derivatives of tau and the projection
(hhat_tt, the mean curvature), never the lift's normal-bundle data; only
physdata.minkowski_surface_data checks that a lift could be physical data.

The gauge energy tilde_energy generalizes the physical term to an
arbitrary normal gauge via the generalized mean curvature
h = -sqrt(1+|grad f|^2) <H, e3> - alpha_{e3}(grad f); the energy proper
is recovered in the canonical gauge of f, the boost of the H-aligned
frame by minus the boost angle.  That identity is asserted in
tests/test_energy.py, with the canonical gauge built by tests/reference.py.
The gauge formulas take node values or an Evaluation of the same metric;
breve_gauge reads the lift's breve-frame fields (Evaluation.breve_h and
Evaluation.breve_alpha).  One-forms are the arrays of their dtheta
components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    AxisymMetric,
    _check_field,
    _divergence_from_x_component,
    _integrate,
    lazy,
)
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


class DataEvaluation:
    """The Evaluation ev bound to data: it keeps their arrays, not the data, which may keep it."""

    def __init__(self, data: PhysicalData, ev: Evaluation):
        self.metric, self.norm_H, self.alpha_H = data.metric, data.norm_H, data.alpha_H
        self.ev = ev

    @lazy
    def sinh(self) -> np.ndarray:
        """sinh(theta) = -Dtau / (|H| sqrt(1+|grad tau|^2)) of the boost angle theta."""
        return -self.ev.lap / (self.norm_H * self.ev.s1)

    @lazy
    def angle(self) -> np.ndarray:
        """The boost angle theta."""
        return np.arcsinh(self.sinh)

    @lazy
    def cosh(self) -> np.ndarray:
        """cosh(theta), computed from sinh directly rather than through the angle."""
        return np.sqrt(1.0 + self.sinh * self.sinh)

    @lazy
    def physical_term(self) -> float | np.ndarray:
        """The physical integral of the integrated-by-parts form, one per row; no projection read."""
        ev = self.ev
        s1, lap = ev.s1, ev.lap
        integrand = (
            np.sqrt(s1 * s1 * self.norm_H**2 + lap * lap)
            + lap * self.angle
            - ev.pairing(self.alpha_H)
        )
        return _integrate(self.metric, integrand)

    @lazy
    def energy(self) -> EnergyBreakdown:
        """The energy in its integrated-by-parts form: bare surface integrals, no 1/(8pi) factor."""
        return EnergyBreakdown(self.ev.reference, self.physical_term)

    @lazy
    def angle_form(self) -> EnergyBreakdown:
        """The energy with the boost-angle gradient term kept explicit.

        Independent of energy up to one integration by parts; the pair is
        the standing cross-check that the discrete quadrature and
        differentiation are mutually consistent.
        """
        ev = self.ev
        angle_pair = ev.pairing(self.metric.grid.dtheta(self.angle))
        integrand = ev.s1 * self.cosh * self.norm_H - angle_pair - ev.pairing(self.alpha_H)
        return EnergyBreakdown(
            reference_term=ev.reference,
            physical_term=_integrate(self.metric, integrand),
        )

    @lazy
    def stationarity(self) -> tuple:
        """The residual's trace term and the flux omega: residual = trace term + div W.

        W is the one-form whose dtheta component is sin(theta) omega, as
        _divergence_from_x_component expects; first_variation pairs the
        trace term with directions and omega with their derivatives.  The
        azimuthal contractions are formed with the sin(theta) factors
        cancelled analytically: Hess_pp / (Q sin)^2 = -u' tau_x / (P^2 Q) and
        hhat_pp Hess_pp / (Q sin)^4 = -w u' tau_x / (P_hat P^2 Q^2) with
        w = v_tilde'/sin, so every field stays smooth through the poles.
        """
        ev, m = self.ev, self.metric
        proj = ev.projected
        p_hat, p_hat_sq = proj.P, proj.P_sq

        s1 = ev.s1
        tau_x = ev.tau_x
        hess_tt = ev.hess_tt

        hess_pp_scaled = ev.minus_u_prime_tau_x / m.P_sq_Q
        cross_pp_scaled = -proj.w * proj.u_prime * tau_x / (p_hat * m.P_sq * m.Q_sq)
        trace_term = (
            proj.mean_curvature * (hess_tt / p_hat_sq + hess_pp_scaled)
            - proj.hhat_tt * hess_tt / p_hat_sq**2
            - cross_pp_scaled
        )

        # grad(theta)/sin = -dx(angle)
        flux = (
            -tau_x * self.cosh * self.norm_H / s1
            + m.grid.dx(self.angle)
            - self.alpha_H / m.grid.sin_theta
        )
        return -trace_term / s1, flux

    @lazy
    def residual(self) -> np.ndarray:
        """Pointwise stationarity defect of the energy.

        Assembles
            -(Hhat shat^{ab} - shat^{ac} shat^{bd} hhat_cd) Hess_ab(tau)
                / sqrt(1+|grad tau|^2)
            + div[ grad tau cosh(theta)|H| / sqrt(1+|grad tau|^2)
                   - grad(theta) - alpha_H ]
        with shat the projected-surface metric and Hess the covariant
        Hessian of the base metric.  Critical time functions make this vanish.
        """
        trace_part, flux = self.stationarity
        return trace_part + _divergence_from_x_component(self.metric, flux)

    @lazy
    def residual_norm(self) -> float | np.ndarray:
        """The L2 norm of the residual, one per row: the criticality measure every caller reads."""
        res = self.residual
        return np.sqrt(_integrate(self.metric, res * res))

    def first_variation(self, directions: np.ndarray, slopes: np.ndarray) -> tuple:
        """Weak first variations of the energy and of its reference term, (..., j) each.

        directions holds j directions in its columns, (n, j), and slopes
        their x-derivatives.  The trace term, weighted by 2 pi w P Q and
        paired with the directions, is the reference term's variation; the
        flux, weighted by 2 pi w (1 - x^2) Q / P, pairs with the slopes,
        summed by parts.
        """
        m = self.metric
        trace_part, flux = self.stationarity
        # @, not np.dot: against the slopes np.dot differs in the last bit on one row at L = 2, 3
        reference = (m.weighted_PQ * trace_part) @ directions
        total = reference + (m.weighted_flux_factor * flux) @ slopes
        return (2.0 * np.pi) * total, (2.0 * np.pi) * reference


def reference_mean_curvature_integral(
    m: AxisymMetric, tau: np.ndarray | Evaluation
) -> float | np.ndarray:
    """Total mean curvature of the projected surface of the lift of (m, tau)."""
    return evaluate(m, tau).reference


def qle(d: PhysicalData, tau: np.ndarray | Evaluation) -> EnergyBreakdown:
    """Quasi-local energy of the data at the time function tau: DataEvaluation.energy."""
    return d.evaluate(tau).energy


def qle_angle_form(d: PhysicalData, tau: np.ndarray | Evaluation) -> EnergyBreakdown:
    """The energy's angle form at tau, the cross-check of qle: DataEvaluation.angle_form."""
    return d.evaluate(tau).angle_form


def residual(d: PhysicalData, tau: np.ndarray | Evaluation) -> np.ndarray:
    """Pointwise stationarity defect of the energy at tau: DataEvaluation.residual."""
    return d.evaluate(tau).residual


def generalized_mean_curvature(
    g: GaugeData, m: AxisymMetric, f: np.ndarray | Evaluation
) -> np.ndarray:
    """h = -sqrt(1+|grad f|^2) <H, e3> - alpha_{e3}(grad f); a wrongly shaped g.alpha is named."""
    ev = evaluate(m, f)
    return -ev.s1 * g.inner_h - ev.pairing(_check_field(m.grid, "alpha", g.alpha, stack=True))


def breve_gauge(lift: Evaluation) -> GaugeData:
    """Gauge of the translated outward normal of the projected surface."""
    return GaugeData(inner_h=lift.breve_h, alpha=lift.breve_alpha)


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
    return ev.reference - _integrate(m, generalized_mean_curvature(g, m, ev))

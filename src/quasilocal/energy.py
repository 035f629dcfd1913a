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
side `residual` assembles pointwise.  Its sign convention relative to the
first variation of the energy is fixed in the optimize module.

The gauge energy tilde_energy generalizes the physical term to an
arbitrary normal gauge via the generalized mean curvature
h = -sqrt(1+|grad f|^2) <H, e3> - alpha_{e3}(grad f); the energy proper
is recovered in the canonical gauge of f.

Every formula here reads its inputs from an Evaluation: one time
function, or a (k, n) stack of them, on one metric, whose derivatives,
lift, reference integral and extrinsic data are each computed at most
once.  For a stack every operator is one matrix product over the rows,
and each result gains a leading axis of length k.  The module functions
accept either a node-value array or an Evaluation of the same metric, so
a caller that needs the guard, the energy and the residual at one tau
builds the lift once by passing one Evaluation to all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    AxisymMetric,
    InvalidParameterError,
    OneForm,
    _check_field,
    _hat_gauss_curvature,
    _hessian,
    _norm_sq,
    _pairing,
    divergence_from_x_component,
    integrate_surface,
)
from .embedding import ExtrinsicData, LorentzSurface, embed_lifted, extrinsic_data, mean_curvature

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


@dataclass(frozen=True)
class GaugeData:
    """A normal gauge on a surface: <H, e3> and the connection form of e3."""

    inner_h: np.ndarray
    alpha: OneForm

    @classmethod
    def breve(cls, data: ExtrinsicData) -> GaugeData:
        """Gauge of the translated outward normal, from the lift's data."""
        return cls(inner_h=data.breve_h, alpha=data.breve_alpha)


class Evaluation:
    """A time function tau on a metric, each derived field computed once.

    tau is one field of node values or a (k, n) stack of fields; the
    metric is shared by every row.  The derivatives of tau, the lift of
    (metric, tau), the total mean curvature of its projection and its
    extrinsic data are computed when first read and then kept.
    Quantities that depend on the physical data take the data as an
    argument and are not kept.
    """

    def __init__(self, metric: AxisymMetric, tau: np.ndarray):
        self.metric = metric
        self.tau = _check_field(metric.grid, tau, "tau")

    @cached_property
    def tau_theta(self) -> np.ndarray:
        return self.metric.grid.dtheta(self.tau)

    @cached_property
    def tau_x(self) -> np.ndarray:
        return self.metric.grid.dx(self.tau)

    @cached_property
    def grad_sq(self) -> np.ndarray:
        """|grad tau|^2."""
        return _norm_sq(self.metric, self.tau_theta)

    @cached_property
    def s1(self) -> np.ndarray:
        """sqrt(1 + |grad tau|^2)."""
        return np.sqrt(1.0 + self.grad_sq)

    @cached_property
    def lap(self) -> np.ndarray:
        """Laplacian of tau."""
        return divergence_from_x_component(self.metric, -self.tau_x)

    @cached_property
    def hess(self):
        """Covariant Hessian of tau."""
        return _hessian(self.metric, self.tau_x)

    @cached_property
    def lift(self) -> LorentzSurface:
        return embed_lifted(self.metric, self.tau)

    @cached_property
    def reference(self) -> float | np.ndarray:
        """Total mean curvature of the projected surface of the lift."""
        proj = self.lift.projected
        return integrate_surface(proj.metric, mean_curvature(proj))

    @cached_property
    def extrinsic(self) -> ExtrinsicData:
        return extrinsic_data(self.lift)

    def pairing(self, alpha: OneForm) -> np.ndarray:
        """alpha(grad tau)."""
        a = _check_field(self.metric.grid, alpha.theta, "alpha.theta")
        return _pairing(self.metric, a, self.tau_theta)

    def boost_angle(self, d: PhysicalData):
        """cosh of the boost angle and the angle itself.

        sinh(theta) = -Dtau / (|H| sqrt(1+|grad tau|^2)); cosh is computed
        from sinh directly rather than through the angle.
        """
        sh = -self.lap / (d.norm_H * self.s1)
        return np.sqrt(1.0 + sh * sh), np.arcsinh(sh)

    def qle(self, d: PhysicalData) -> EnergyBreakdown:
        s1, lap = self.s1, self.lap
        integrand = (
            np.sqrt(s1 * s1 * d.norm_H**2 + lap * lap)
            - lap * np.arcsinh(lap / (d.norm_H * s1))
            - self.pairing(d.alpha_H)
        )
        return EnergyBreakdown(
            reference_term=self.reference,
            physical_term=integrate_surface(self.metric, integrand),
        )

    def qle_angle_form(self, d: PhysicalData) -> EnergyBreakdown:
        ch, angle = self.boost_angle(d)
        angle_form = OneForm(theta=self.metric.grid.dtheta(angle))
        integrand = (
            self.s1 * ch * d.norm_H
            - self.pairing(angle_form)
            - self.pairing(d.alpha_H)
        )
        return EnergyBreakdown(
            reference_term=self.reference,
            physical_term=integrate_surface(self.metric, integrand),
        )

    def residual(self, d: PhysicalData) -> np.ndarray:
        """See residual.

        The azimuthal contractions are formed with the sin(theta) factors
        cancelled analytically: Hess_pp / (Q sin)^2 = -u' tau_x / (P^2 Q) and
        hhat_pp Hess_pp / (Q sin)^4 = -w u' tau_x / (P_hat P^2 Q^2) with
        w = v_tilde'/sin, so every field stays smooth through the poles.
        """
        m = self.metric
        grid = m.grid
        data = self.extrinsic
        proj = self.lift.projected
        p_hat = proj.metric.P

        s1 = self.s1
        tau_x = self.tau_x
        hess_tt = self.hess.theta_theta
        u_prime = proj.u_prime

        hess_pp_scaled = -u_prime * tau_x / (m.P**2 * m.Q)
        cross_pp_scaled = -proj.w * u_prime * tau_x / (p_hat * m.P**2 * m.Q**2)
        trace_term = (
            data.Hhat * (hess_tt / p_hat**2 + hess_pp_scaled)
            - data.hhat.theta_theta * hess_tt / p_hat**4
            - cross_pp_scaled
        )

        ch, angle = self.boost_angle(d)
        # one-form components with the sin(theta) factor divided out, as
        # divergence_from_x_component expects: grad(theta)/sin = -dx(angle)
        flux = (
            -tau_x * ch * d.norm_H / s1
            + grid.dx(angle)
            - d.alpha_H.theta / grid.sin_theta
        )
        return -trace_term / s1 + divergence_from_x_component(m, flux)

    def convexity_guard(self) -> float | np.ndarray:
        """See optimize.convexity_guard."""
        k_hat = _hat_gauss_curvature(self.metric, self.hess.theta_theta, self.tau_x, self.grad_sq)
        scaled = k_hat * (1.0 + self.grad_sq)
        worst = np.minimum(
            np.minimum(k_hat.min(axis=-1), self.metric.K.min()), scaled.min(axis=-1)
        )
        return float(worst) if worst.ndim == 0 else worst

    def generalized_mean_curvature(self, g: GaugeData) -> np.ndarray:
        return -self.s1 * g.inner_h - self.pairing(g.alpha)

    def tilde_energy(self, g: GaugeData) -> float | np.ndarray:
        return self.reference - integrate_surface(self.metric, self.generalized_mean_curvature(g))


def evaluate(m: AxisymMetric, tau: np.ndarray | Evaluation) -> Evaluation:
    """The Evaluation of tau on m; tau itself when it already is one."""
    if not isinstance(tau, Evaluation):
        return Evaluation(m, tau)
    if tau.metric is not m:
        raise InvalidParameterError("the evaluation belongs to a different metric")
    return tau


def reference_mean_curvature_integral(
    m: AxisymMetric, tau: np.ndarray | Evaluation
) -> float | np.ndarray:
    """Total mean curvature of the projected surface of the lift of (m, tau)."""
    return evaluate(m, tau).reference


def qle(d: PhysicalData, tau: np.ndarray | Evaluation) -> EnergyBreakdown:
    """Quasi-local energy of the data at the time function tau.

    No 1/(8pi) normalization is applied; reports may rescale for display
    but every stored/compared value is the bare surface integral.
    """
    return evaluate(d.metric, tau).qle(d)


def qle_angle_form(d: PhysicalData, tau: np.ndarray | Evaluation) -> EnergyBreakdown:
    """Energy with the boost-angle gradient term kept explicit.

    Independent of qle up to one integration by parts; the pair is the
    standing cross-check that the discrete quadrature and differentiation
    are mutually consistent.
    """
    return evaluate(d.metric, tau).qle_angle_form(d)


def generalized_mean_curvature(
    g: GaugeData, m: AxisymMetric, f: np.ndarray | Evaluation
) -> np.ndarray:
    """h = -sqrt(1+|grad f|^2) <H, e3> - alpha_{e3}(grad f)."""
    return evaluate(m, f).generalized_mean_curvature(g)


def breve_gauge(surf: LorentzSurface) -> GaugeData:
    """Gauge of the translated outward normal of the projected surface."""
    return GaugeData.breve(extrinsic_data(surf))


def canonical_gauge(d: PhysicalData, tau: np.ndarray | Evaluation) -> GaugeData:
    """Gauge aligned with the boost angle of tau.

    Boosting the H-aligned frame by minus the boost angle gives
    <H, e3> = -cosh(theta)|H| and shifts the connection form by the
    angle differential.  In this gauge the gauge energy of tau equals
    the quasi-local energy.
    """
    ch, angle = evaluate(d.metric, tau).boost_angle(d)
    return GaugeData(
        inner_h=-ch * d.norm_H,
        alpha=OneForm(theta=d.alpha_H.theta + d.metric.grid.dtheta(angle)),
    )


def tilde_energy(
    surface: LorentzSurface, g: GaugeData, f: np.ndarray | Evaluation
) -> float | np.ndarray:
    """Gauge energy: reference term of f minus the integral of h(g, f).

    The surface supplies the base metric; the gauge carries all frame
    dependence, so any frame on any lift of the same metric can be
    compared against the same family of time functions f.
    """
    return evaluate(surface.base_metric, f).tilde_energy(g)


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
    return evaluate(d.metric, tau).residual(d)


def comparison_f(x, x0: float, h_big: float, h_small: float):
    """Scalar comparison function underlying the energy gap bound.

    f(x) = sqrt(h_big^2+x^2) - sqrt(h_small^2+x^2)
         - x [asinh(x/h_big) - asinh(x/h_small)
              - asinh(x0/h_big) + asinh(x0/h_small)].
    For h_big > h_small > 0 its global minimum over x sits at x0.
    """
    _check_curvature_pair(h_big, h_small)
    x = np.asarray(x, dtype=float)
    bracket = (
        np.arcsinh(x / h_big)
        - np.arcsinh(x / h_small)
        - np.arcsinh(x0 / h_big)
        + np.arcsinh(x0 / h_small)
    )
    return np.sqrt(h_big**2 + x * x) - np.sqrt(h_small**2 + x * x) - x * bracket


def comparison_f_prime(x, x0: float, h_big: float, h_small: float):
    """Derivative of comparison_f in x."""
    _check_curvature_pair(h_big, h_small)
    x = np.asarray(x, dtype=float)
    return (
        np.arcsinh(x / h_small)
        - np.arcsinh(x / h_big)
        + np.arcsinh(x0 / h_big)
        - np.arcsinh(x0 / h_small)
    )


def _check_curvature_pair(h_big: float, h_small: float) -> None:
    if h_big <= 0.0 or h_small <= 0.0:
        raise InvalidParameterError(
            f"curvature arguments must be positive, got {h_big} and {h_small}"
        )

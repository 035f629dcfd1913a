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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    AxisymMetric,
    InvalidParameterError,
    OneForm,
    _check_field,
    contract_with_gradient,
    divergence_from_x_component,
    gradient_norm_sq,
    hessian,
    integrate_surface,
    laplacian,
)
from .embedding import LorentzSurface, embed_lifted, extrinsic_data, mean_curvature
from .physdata import PhysicalData


@dataclass(frozen=True)
class EnergyBreakdown:
    """Reference and physical terms of the energy; total is their difference."""

    reference_term: float
    physical_term: float

    @property
    def total(self) -> float:
        return self.reference_term - self.physical_term


@dataclass(frozen=True)
class GaugeData:
    """A normal gauge on a surface: <H, e3> and the connection form of e3."""

    inner_h: np.ndarray
    alpha: OneForm


def _boost_angle(d: PhysicalData, tau: np.ndarray):
    """cosh of the boost angle and the angle itself.

    sinh(theta) = -Dtau / (|H| sqrt(1+|grad tau|^2)); cosh is computed
    from sinh directly rather than through the angle.
    """
    m = d.metric
    s1 = np.sqrt(1.0 + gradient_norm_sq(m, tau))
    lap = laplacian(m, tau)
    sh = -lap / (d.norm_H * s1)
    return np.sqrt(1.0 + sh * sh), np.arcsinh(sh)


def reference_mean_curvature_integral(m: AxisymMetric, tau: np.ndarray) -> float:
    """Total mean curvature of the projected surface of the lift of (m, tau)."""
    lift = embed_lifted(m, tau)
    return integrate_surface(lift.projected.metric, mean_curvature(lift.projected))


def qle(d: PhysicalData, tau: np.ndarray) -> EnergyBreakdown:
    """Quasi-local energy of the data at the time function tau.

    No 1/(8pi) normalization is applied; reports may rescale for display
    but every stored/compared value is the bare surface integral.
    """
    m = d.metric
    tau = _check_field(m.grid, tau, "tau")
    s1 = np.sqrt(1.0 + gradient_norm_sq(m, tau))
    lap = laplacian(m, tau)
    integrand = (
        np.sqrt(s1 * s1 * d.norm_H**2 + lap * lap)
        - lap * np.arcsinh(lap / (d.norm_H * s1))
        - contract_with_gradient(m, d.alpha_H, tau)
    )
    return EnergyBreakdown(
        reference_term=reference_mean_curvature_integral(m, tau),
        physical_term=integrate_surface(m, integrand),
    )


def qle_angle_form(d: PhysicalData, tau: np.ndarray) -> EnergyBreakdown:
    """Energy with the boost-angle gradient term kept explicit.

    Independent of qle up to one integration by parts; the pair is the
    standing cross-check that the discrete quadrature and differentiation
    are mutually consistent.
    """
    m = d.metric
    tau = _check_field(m.grid, tau, "tau")
    s1 = np.sqrt(1.0 + gradient_norm_sq(m, tau))
    ch, angle = _boost_angle(d, tau)
    angle_form = OneForm(theta=m.grid.dtheta(angle))
    integrand = (
        s1 * ch * d.norm_H
        - contract_with_gradient(m, angle_form, tau)
        - contract_with_gradient(m, d.alpha_H, tau)
    )
    return EnergyBreakdown(
        reference_term=reference_mean_curvature_integral(m, tau),
        physical_term=integrate_surface(m, integrand),
    )


def generalized_mean_curvature(g: GaugeData, m: AxisymMetric, f: np.ndarray) -> np.ndarray:
    """h = -sqrt(1+|grad f|^2) <H, e3> - alpha_{e3}(grad f)."""
    f = _check_field(m.grid, f, "f")
    s1 = np.sqrt(1.0 + gradient_norm_sq(m, f))
    return -s1 * g.inner_h - contract_with_gradient(m, g.alpha, f)


def breve_gauge(surf: LorentzSurface) -> GaugeData:
    """Gauge of the translated outward normal of the projected surface."""
    data = extrinsic_data(surf)
    return GaugeData(inner_h=data.breve_h, alpha=data.breve_alpha)


def canonical_gauge(d: PhysicalData, tau: np.ndarray) -> GaugeData:
    """Gauge aligned with the boost angle of tau.

    Boosting the H-aligned frame by minus the boost angle gives
    <H, e3> = -cosh(theta)|H| and shifts the connection form by the
    angle differential.  In this gauge the gauge energy of tau equals
    the quasi-local energy.
    """
    tau = _check_field(d.metric.grid, tau, "tau")
    ch, angle = _boost_angle(d, tau)
    return GaugeData(
        inner_h=-ch * d.norm_H,
        alpha=OneForm(theta=d.alpha_H.theta + d.metric.grid.dtheta(angle)),
    )


def tilde_energy(surface: LorentzSurface, g: GaugeData, f: np.ndarray) -> float:
    """Gauge energy: reference term of f minus the integral of h(g, f).

    The surface supplies the base metric; the gauge carries all frame
    dependence, so any frame on any lift of the same metric can be
    compared against the same family of time functions f.
    """
    m = surface.base_metric
    f = _check_field(m.grid, f, "f")
    reference = reference_mean_curvature_integral(m, f)
    return reference - integrate_surface(m, generalized_mean_curvature(g, m, f))


def residual(d: PhysicalData, tau: np.ndarray) -> np.ndarray:
    """Pointwise stationarity defect of the energy at tau.

    Assembles
        -(Hhat shat^{ab} - shat^{ac} shat^{bd} hhat_cd) Hess_ab(tau)
            / sqrt(1+|grad tau|^2)
        + div[ grad tau cosh(theta)|H| / sqrt(1+|grad tau|^2)
               - grad(theta) - alpha_H ]
    with shat the projected-surface metric and Hess the covariant Hessian
    of the base metric.  Critical time functions make this vanish.

    The azimuthal contractions are formed with the sin(theta) factors
    cancelled analytically: Hess_pp / (Q sin)^2 = -u' tau_x / (P^2 Q) and
    hhat_pp Hess_pp / (Q sin)^4 = -w u' tau_x / (P_hat P^2 Q^2) with
    w = v_tilde'/sin, so every field stays smooth through the poles.
    """
    m = d.metric
    grid = m.grid
    tau = _check_field(grid, tau, "tau")

    lift = embed_lifted(m, tau)
    data = extrinsic_data(lift)
    proj = lift.projected
    p_hat = proj.metric.P

    s1 = np.sqrt(1.0 + gradient_norm_sq(m, tau))
    tau_x = grid.dx(tau)
    hess_tt = hessian(m, tau).theta_theta
    u_prime = proj.u_prime
    w_tilde = proj.v_prime / grid.sin_theta

    hess_pp_scaled = -u_prime * tau_x / (m.P**2 * m.Q)
    cross_pp_scaled = -w_tilde * u_prime * tau_x / (p_hat * m.P**2 * m.Q**2)
    trace_term = (
        data.Hhat * (hess_tt / p_hat**2 + hess_pp_scaled)
        - data.hhat.theta_theta * hess_tt / p_hat**4
        - cross_pp_scaled
    )

    ch, angle = _boost_angle(d, tau)
    # one-form components with the sin(theta) factor divided out, as
    # divergence_from_x_component expects: grad(theta)/sin = -dx(angle)
    flux = (
        -tau_x * ch * d.norm_H / s1
        + grid.dx(angle)
        - d.alpha_H.theta / grid.sin_theta
    )
    return -trace_term / s1 + divergence_from_x_component(m, flux)


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

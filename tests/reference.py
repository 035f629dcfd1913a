"""Independent reference routes that tests compare the library against.

Nothing in the package, the command line or the benchmark runs them, and
they do not validate their arguments.
"""

from __future__ import annotations

import numpy as np

from quasilocal.embedding import Evaluation, RevolutionSurface
from quasilocal.energy import GaugeData, _boost_angle
from quasilocal.geometry import AxisymMetric
from quasilocal.physdata import PhysicalData


def isometry_residual(surf: RevolutionSurface) -> np.ndarray:
    """Pointwise defect u'^2 + v'^2 - P^2 with v re-differentiated.

    v is reconstructed by quadrature, so differentiating its node values
    is a genuine consistency check of the discretization, not a
    tautology.
    """
    g = surf.metric.grid
    v_theta = g.dtheta(surf.v)
    return surf.u_prime**2 + v_theta**2 - surf.metric.P**2


def minkowski_isometry_residual(surf: Evaluation) -> np.ndarray:
    """Pointwise defect -tau'^2 + u'^2 + v_tilde'^2 - P^2."""
    vt_theta = surf.metric.grid.dtheta(surf.projected.v)
    return -(surf.tau_theta**2) + surf.projected.u_prime**2 + vt_theta**2 - surf.metric.P**2


def gauss_curvature_from_shape(surf: RevolutionSurface) -> np.ndarray:
    """Gauss curvature as the determinant of the shape operator."""
    P = surf.metric.P
    return (surf.hhat_tt / P**2) * (surf.w / (surf.metric.Q * P))


def hessian_phi_phi(m: AxisymMetric, f: np.ndarray) -> np.ndarray:
    """Hess_pp = u u' f' / P^2 of f, u = Q sin(theta), primes theta derivatives.

    Formed with the pole factors in place, as the package never does.
    """
    u = m.Q * m.grid.sin_theta
    return u * m.u_prime * m.grid.dtheta(f) / m.P**2


def hhat_phi_phi(surf: RevolutionSurface) -> np.ndarray:
    """hhat_pp = u v' / P, the phi-phi second fundamental form, outward."""
    m = surf.metric
    return m.Q * m.grid.sin_theta * surf.v_prime / m.P


def trace(m: AxisymMetric, tt: np.ndarray, pp: np.ndarray) -> np.ndarray:
    """sigma^{ab} T_ab = T_tt / P^2 + T_pp / (Q sin(theta))^2 of a symmetric 2-tensor."""
    u = m.Q * m.grid.sin_theta
    return tt / m.P**2 + pp / u**2


def canonical_gauge(d: PhysicalData, tau: np.ndarray | Evaluation) -> GaugeData:
    """Gauge aligned with the boost angle of tau.

    Boosting the H-aligned frame by minus the boost angle gives
    <H, e3> = -cosh(theta)|H| and shifts the connection form by the
    angle differential.  In this gauge the gauge energy of tau equals
    the quasi-local energy.
    """
    ch, angle = _boost_angle(d.evaluate(tau), d)
    return GaugeData(
        inner_h=-ch * d.norm_H,
        alpha=d.alpha_H + d.metric.grid.dtheta(angle),
    )


def comparison_f(x, x0: float, h_big: float, h_small: float):
    """Scalar comparison function underlying the energy gap bound.

    f(x) = sqrt(h_big^2+x^2) - sqrt(h_small^2+x^2)
         - x [asinh(x/h_big) - asinh(x/h_small)
              - asinh(x0/h_big) + asinh(x0/h_small)].
    For h_big > h_small > 0 its global minimum over x sits at x0.
    """
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
    x = np.asarray(x, dtype=float)
    return (
        np.arcsinh(x / h_small)
        - np.arcsinh(x / h_big)
        + np.arcsinh(x0 / h_big)
        - np.arcsinh(x0 / h_small)
    )

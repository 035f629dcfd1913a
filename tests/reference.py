"""Independent reference routes that tests compare the library against.

Nothing in the package, the command line or the benchmark runs them, and
they do not validate their arguments.
"""

from __future__ import annotations

import numpy as np

from quasilocal.embedding import Evaluation
from quasilocal.energy import GaugeData
from quasilocal.geometry import AxisymMetric, Grid, _differentiation_matrix
from quasilocal.physdata import PhysicalData
from quasilocal.verify import chebyshev_s_grid


def height(m: AxisymMetric) -> np.ndarray:
    """The height v of the metric's surface of revolution, anchored to 0 at the north pole.

    w = v'/sin(theta) is smooth in x, so integrating it in x recovers the
    height with spectral accuracy.
    """
    return m.grid.integral_from_north(m.w)


def isometry_residual(m: AxisymMetric) -> np.ndarray:
    """Pointwise defect u'^2 + v'^2 - P^2 with v re-differentiated.

    v is reconstructed by quadrature, so differentiating its node values
    is a genuine consistency check of the discretization, not a
    tautology.
    """
    v_theta = m.grid.dtheta(height(m))
    return m.u_prime**2 + v_theta**2 - m.P**2


def minkowski_isometry_residual(surf: Evaluation) -> np.ndarray:
    """Pointwise defect -tau'^2 + u'^2 + v_tilde'^2 - P^2."""
    vt_theta = surf.metric.grid.dtheta(height(surf.projected))
    return -(surf.tau_theta**2) + surf.projected.u_prime**2 + vt_theta**2 - surf.metric.P**2


def gauss_curvature_from_shape(m: AxisymMetric) -> np.ndarray:
    """Gauss curvature as the determinant of the shape operator."""
    return (m.hhat_tt / m.P**2) * (m.w / (m.Q * m.P))


def hessian_phi_phi(m: AxisymMetric, f: np.ndarray) -> np.ndarray:
    """Hess_pp = u u' f' / P^2 of f, u = Q sin(theta), primes theta derivatives.

    Formed with the pole factors in place, as the package never does.
    """
    u = m.Q * m.grid.sin_theta
    return u * m.u_prime * m.grid.dtheta(f) / m.P**2


def hhat_phi_phi(m: AxisymMetric) -> np.ndarray:
    """hhat_pp = u v' / P, the phi-phi second fundamental form, outward."""
    return m.Q * m.grid.sin_theta * m.v_prime / m.P


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
    bound = d.evaluate(tau)
    return GaugeData(
        inner_h=-bound.cosh * d.norm_H,
        alpha=d.alpha_H + d.metric.grid.dtheta(bound.angle),
    )


def offcentre_sphere(grid: Grid, mass: float, centre: float, radius: float) -> PhysicalData:
    """The Euclidean sphere of radius rho about a point at distance R_c from the origin.

    The sphere lies in the isotropic time-symmetric slice of Schwarzschild
    mass m, whose metric is psi^4 times the flat one, psi = 1 + m/(2|x|).
    On it |x|^2 = R_c^2 + rho^2 + 2 R_c rho x, so P = Q = psi^2 rho,

        |H| = psi^-2 (2/rho + 4 d_nu psi / psi),
        d_nu psi = -m (R_c x + rho) / (2 |x|^3),

    and alpha_H = 0.  At R_c = 0 it is schwarzschild_sphere(m, psi^2 rho):
    P to the bit and |H| to rounding.  The sphere must stay clear of the
    horizon |x| = m/2.
    """
    x = grid.x
    dist = np.sqrt(centre * centre + radius * radius + 2.0 * centre * radius * x)
    psi = 1.0 + mass / (2.0 * dist)
    d_nu_psi = -mass * (centre * x + radius) / (2.0 * dist**3)
    norm_h = (2.0 / radius + 4.0 * d_nu_psi / psi) / (psi * psi)
    profile = psi * psi * radius
    return PhysicalData(AxisymMetric(grid, profile, profile), norm_h, np.zeros(grid.n_nodes))


def unscaled_differentiation_matrix(x: np.ndarray) -> np.ndarray:
    """geometry._differentiation_matrix with the product taken of the bare node differences.

    The package scales each difference by 2 before the product.  Without
    that, the product on n Gauss-Legendre nodes reaches the subnormal
    range from n = 775 on, which costs the matrix its accuracy, and
    underflows to zero past n = 861.
    """
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    b = 1.0 / diff.prod(axis=1)
    b = b / np.abs(b).max()
    d = (b[None, :] / b[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


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


def spectral_s_derivative(values: np.ndarray) -> np.ndarray:
    """Derivative of the polynomial interpolant through (chebyshev_s_grid(), values).

    values runs over s along its last axis.  The barycentric
    differentiation matrix that make_grid builds, applied on the s-nodes;
    well conditioned on Lobatto-type grids.
    """
    return values @ _differentiation_matrix(chebyshev_s_grid()).T

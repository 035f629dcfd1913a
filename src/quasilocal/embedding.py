"""Isometric embeddings of axisymmetric metrics and their extrinsic data.

An admissible metric sigma = P^2 dtheta^2 + Q^2 sin^2 dphi^2 embeds as a
surface of revolution in Euclidean 3-space,

    X = (u sin(phi), u cos(phi), v),   u = Q sin(theta),
    v' = sqrt(P^2 - u'^2) >= 0,        v(north pole) = 0,

whenever P^2 - u'^2 > 0.  Augmenting the metric with a time profile tau
lifts the picture to Minkowski space R^{3,1}: the graph

    X = (tau, u sin(phi), u cos(phi), v_tilde)

over the revolution surface of sigma + dtau x dtau is an isometric
embedding of sigma itself, since -tau'^2 + u'^2 + v_tilde'^2 = P^2.

Every function here takes one time function or a (k, n) stack of them,
whose lifts share the base metric; an error names the first failing row
of a stack and the worst node in it.

extrinsic_data collects everything downstream energy formulas need from
such a lift: the second fundamental form and mean curvature of the
spatial projection, the squared mean curvature vector of the lifted
surface, and the connection one-forms of two normal frames.  All
computations happen on the phi = 0 slice; axisymmetry supplies the rest.

Sign conventions.  The spatial unit normal points outward and the second
fundamental form is taken positive on round spheres (H_hat = 2/r).  The
mean curvature vector H = Delta_sigma X of the lift points inward, so
its pairing with the outward frame leg is negative: breve_h = -2 on the
unit sphere at tau = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    AxisymMetric,
    OneForm,
    SymTensorField,
    _at,
    _check_field,
    divergence_from_x_component,
    laplacian,
    sin_factored_theta_derivative,
)


def _first_nonpositive(values: np.ndarray) -> tuple | None:
    """Where a field or stack that must stay positive first fails, or None.

    (node,) of the least value of a field; (row, node) of the least value
    in the first row of a stack whose least value is <= 0.
    """
    if values.ndim == 1:
        j = int(np.argmin(values))
        return (j,) if values[j] <= 0.0 else None
    failing = np.flatnonzero(values.min(axis=1) <= 0.0)
    if failing.size == 0:
        return None
    i = int(failing[0])
    return i, int(np.argmin(values[i]))


class NonEmbeddableError(ValueError):
    """The profile admits no revolution-surface embedding at some node.

    row is the failing row of a stack of profiles, None for one profile.
    """

    def __init__(self, node_index: int, theta: float, margin: float, row: int | None = None):
        self.node_index = node_index
        self.theta = theta
        self.margin = margin
        self.row = row
        where = _at((node_index,) if row is None else (row, node_index))
        super().__init__(
            "metric is not embeddable as a surface of revolution: "
            f"P^2 - (Q sin)'^2 = {margin} at {where} (theta = {theta})"
        )


class NonSpacelikeMeanCurvatureError(ValueError):
    """<H, H> fails to be positive somewhere on the lifted surface.

    The offending squared-norm field (the failing row's, for a stack) is
    attached as mean_sq; row is None for one lift.
    """

    def __init__(self, mean_sq: np.ndarray, node_index: int, row: int | None = None):
        self.mean_sq = mean_sq
        self.node_index = node_index
        self.row = row
        where = _at((node_index,) if row is None else (row, node_index))
        super().__init__(
            "mean curvature vector is not spacelike: <H, H> = "
            f"{mean_sq[node_index]} at {where}"
        )


class GaugeOrientationError(ValueError):
    """The outward frame decomposition of H needs <H, e3_breve> < 0."""


@dataclass(frozen=True)
class RevolutionSurface:
    """Embedded surface of revolution (u sin phi, u cos phi, v).

    u_prime and v_prime cache the theta derivatives of the profile,
    computed analytically rather than by re-differentiating node values:
    both carry sin(theta) factors that spectral differentiation in x
    would mangle.  v_prime is the nonnegative root, which orients the
    unit normal outward.  The height v, anchored to 0 at the north pole,
    is computed when read: the curvature formulas need only u' and v'.
    w = v'/sin(theta), the second fundamental form hhat and the mean
    curvature are each computed once, when first read.
    """

    metric: AxisymMetric
    u: np.ndarray
    u_prime: np.ndarray
    v_prime: np.ndarray

    @property
    def v(self) -> np.ndarray:
        # w is smooth in x, so integrating it in x recovers the height
        # with spectral accuracy
        return self.metric.grid.integral_from_north(self.w)

    @cached_property
    def w(self) -> np.ndarray:
        """v'/sin(theta), smooth in x for pole-regular profiles."""
        return self.v_prime / self.metric.grid.sin_theta

    @cached_property
    def hhat(self) -> SymTensorField:
        return second_fundamental_form(self)

    @cached_property
    def mean_curvature(self) -> np.ndarray:
        """See mean_curvature."""
        P = self.metric.P
        # h_pp / u^2 = (v'/sin) / (Q P) with the sin cancelled analytically
        return self.hhat.theta_theta / P**2 + self.w / (self.metric.Q * P)


@dataclass(frozen=True)
class LorentzSurface:
    """Spacelike graph in R^{3,1} over a revolution surface.

    base_metric is the induced metric sigma of the graph itself; the
    projected surface embeds sigma + dtau x dtau.  tau_theta is dtau/dtheta.
    """

    base_metric: AxisymMetric
    tau: np.ndarray
    tau_theta: np.ndarray
    projected: RevolutionSurface


@dataclass(frozen=True)
class ExtrinsicData:
    """Extrinsic invariants of a lifted surface.

    hhat, Hhat: second fundamental form and mean curvature of the
    spatial projection.  mean_sq = <H, H> and norm_H its square root.
    alpha_H is the connection one-form of the frame aligned with H;
    breve_h = <H, e3_breve> and breve_alpha the connection one-form of
    the outward-translated frame.
    """

    hhat: SymTensorField
    Hhat: np.ndarray
    mean_sq: np.ndarray
    norm_H: np.ndarray
    alpha_H: OneForm
    breve_h: np.ndarray
    breve_alpha: OneForm


def embed_r3(m: AxisymMetric) -> RevolutionSurface:
    """Embed an axisymmetric metric as a surface of revolution.

    Raises NonEmbeddableError where P^2 - u'^2 <= 0, reporting the worst
    node and margin.
    """
    g = m.grid
    u = m.Q * g.sin_theta
    u_prime = m.u_prime
    margin = m.P**2 - u_prime**2
    bad = _first_nonpositive(margin)
    if bad is not None:
        row = bad[0] if len(bad) == 2 else None
        raise NonEmbeddableError(bad[-1], float(g.nodes[bad[-1]]), float(margin[bad]), row)
    return RevolutionSurface(metric=m, u=u, u_prime=u_prime, v_prime=np.sqrt(margin))


def isometry_residual(surf: RevolutionSurface) -> np.ndarray:
    """Pointwise defect u'^2 + v'^2 - P^2 with v re-differentiated.

    v is reconstructed by quadrature, so differentiating its node values
    is a genuine consistency check of the discretization, not a
    tautology.
    """
    g = surf.metric.grid
    v_theta = g.dtheta(surf.v)
    return surf.u_prime**2 + v_theta**2 - surf.metric.P**2


def second_fundamental_form(surf: RevolutionSurface) -> SymTensorField:
    """Second fundamental form w.r.t. the outward normal.

    Positive on convex surfaces: the round sphere of radius r gives
    h_ab = sigma_ab / r.
    """
    P = surf.metric.P
    u2 = surf.metric.u_second
    v2 = sin_factored_theta_derivative(surf.metric.grid, surf.w)
    tt = (surf.u_prime * v2 - u2 * surf.v_prime) / P
    pp = surf.u * surf.v_prime / P
    return SymTensorField(theta_theta=tt, phi_phi=pp)


def mean_curvature(surf: RevolutionSurface) -> np.ndarray:
    """Scalar mean curvature (sum of principal curvatures), outward.

    Computed once per surface and kept on it.
    """
    return surf.mean_curvature


def gauss_curvature_from_shape(surf: RevolutionSurface) -> np.ndarray:
    """Gauss curvature as the determinant of the shape operator."""
    P = surf.metric.P
    return (surf.hhat.theta_theta / P**2) * (surf.w / (surf.metric.Q * P))


def embed_lifted(m: AxisymMetric, tau: np.ndarray) -> LorentzSurface:
    """Lift (m, tau) to a spacelike graph in Minkowski space."""
    g = m.grid
    tau = _check_field(g, tau, "tau")
    tau_theta = g.dtheta(tau)
    p_hat = np.sqrt(m.P**2 + tau_theta**2)
    projected = embed_r3(m.with_P(p_hat))
    return LorentzSurface(base_metric=m, tau=tau, tau_theta=tau_theta, projected=projected)


def minkowski_isometry_residual(surf: LorentzSurface) -> np.ndarray:
    """Pointwise defect -tau'^2 + u'^2 + v_tilde'^2 - P^2."""
    vt_theta = surf.base_metric.grid.dtheta(surf.projected.v)
    return -(surf.tau_theta**2) + surf.projected.u_prime**2 + vt_theta**2 - surf.base_metric.P**2


def _lift_laplacians(surf: LorentzSurface):
    """Laplacians of the R^{3,1} coordinates of the lift, w.r.t. sigma.

    Returns (Lu, Delta v_tilde, Delta tau) where Lu is the common factor
    of the two horizontal components: Delta(u sin phi) = sin(phi) Lu.
    Lu = Delta u - u / (Q sin)^2 is assembled in factored form; the two
    diverging pieces cancel analytically and the remainder vanishes at
    the poles like sin(theta).
    """
    m = surf.base_metric
    g = m.grid
    proj = surf.projected
    b = m.Q * proj.u_prime / m.P
    lu = (sin_factored_theta_derivative(g, b) - m.P) / (m.P * m.Q * g.sin_theta)
    lap_vt = divergence_from_x_component(m, proj.w)
    lap_tau = laplacian(m, surf.tau)
    return lu, lap_vt, lap_tau


def extrinsic_data(surf: LorentzSurface) -> ExtrinsicData:
    """Extrinsic invariants of the lift, on the phi = 0 slice.

    In coordinates (t, y1, y2, z) with signature (-+++) the surface
    passes through (tau, 0, u, v_tilde) at phi = 0 and the mean
    curvature vector is H = (Delta tau, 0, Lu, Delta v_tilde).  The
    normal bundle is framed by the translated outward normal

        e3_breve = (0, 0, v_tilde', -u') / P_hat

    and the future timelike unit normal orthogonal to it,

        e4_breve = (P_hat / P, 0, tau' u' / (P P_hat), tau' v_tilde' / (P P_hat)).

    alpha_H is obtained by boosting: with sinh(beta) = <H, e4_breve>/|H|
    the frame aligned with H is the beta-boost of the breve frame, and
    connection one-forms shift by the differential of the boost angle,
    alpha_H = breve_alpha - d beta.

    Raises NonSpacelikeMeanCurvatureError if <H, H> <= 0 anywhere (the
    field is attached to the error) and GaugeOrientationError if
    breve_h >= 0 somewhere, which would put H outside the frame wedge.
    """
    m = surf.base_metric
    g = m.grid
    proj = surf.projected
    p_hat = proj.metric.P

    hhat = proj.hhat

    lu, lap_vt, lap_tau = _lift_laplacians(surf)
    mean_sq = lu**2 + lap_vt**2 - lap_tau**2
    bad = _first_nonpositive(mean_sq)
    if bad is not None:
        row = bad[0] if len(bad) == 2 else None
        raise NonSpacelikeMeanCurvatureError(mean_sq[bad[:-1]], bad[-1], row)
    norm_h = np.sqrt(mean_sq)

    tau_theta = surf.tau_theta
    breve_h = (lu * proj.v_prime - lap_vt * proj.u_prime) / p_hat
    bad = _first_nonpositive(-breve_h)
    if bad is not None:
        raise GaugeOrientationError(
            f"<H, e3_breve> = {breve_h[bad]} >= 0 at {_at(bad)}; "
            "the lifted surface is not convex enough to frame H"
        )
    breve_alpha = hhat.theta_theta * tau_theta / (m.P * p_hat)

    h4 = -lap_tau * p_hat / m.P + tau_theta * (lu * proj.u_prime + lap_vt * proj.v_prime) / (
        m.P * p_hat
    )
    beta = np.arcsinh(h4 / norm_h)
    alpha_h = breve_alpha - g.dtheta(beta)

    return ExtrinsicData(
        hhat=hhat,
        Hhat=mean_curvature(proj),
        mean_sq=mean_sq,
        norm_H=norm_h,
        alpha_H=OneForm(theta=alpha_h),
        breve_h=breve_h,
        breve_alpha=OneForm(theta=breve_alpha),
    )

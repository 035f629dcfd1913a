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

An Evaluation is that lift: one time function tau, or a (k, n) stack of
them, on one metric, whose derivatives, projected surface, reference
integral and extrinsic data are each computed at most once, when first
read.  embed_lifted builds one and checks that its projection embeds.
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
    InvalidParameterError,
    OneForm,
    SymTensorField,
    _at,
    _check_field,
    _hessian,
    _norm_sq,
    _pairing,
    divergence_from_x_component,
    integrate_surface,
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


# failures of a lift that reject a field rather than signal a bug
LIFT_ERRORS = (NonEmbeddableError, NonSpacelikeMeanCurvatureError, GaugeOrientationError)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


class Evaluation:
    """The lift of (metric, tau) to Minkowski space, each derived field computed once.

    tau is one field of node values or a (k, n) stack of fields; the
    metric is shared by every row.  The derivatives of tau, the projected
    revolution surface, which embeds sigma + dtau x dtau, its total mean
    curvature and the lift's extrinsic data are computed when first read
    and then kept.  Quantities that depend on physical data are formulas
    of the energy module and are not kept.
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
    def hess(self) -> SymTensorField:
        """Covariant Hessian of tau."""
        return _hessian(self.metric, self.tau_x)

    @cached_property
    def projected(self) -> RevolutionSurface:
        """The revolution surface of sigma + dtau x dtau, profile sqrt(P^2 + tau_theta^2)."""
        m = self.metric
        return embed_r3(m.with_P(np.sqrt(m.P**2 + self.tau_theta**2)))

    @cached_property
    def reference(self) -> float | np.ndarray:
        """Total mean curvature of the projected surface."""
        proj = self.projected
        return integrate_surface(proj.metric, mean_curvature(proj))

    @cached_property
    def extrinsic(self) -> ExtrinsicData:
        return extrinsic_data(self)

    def pairing(self, alpha: OneForm) -> np.ndarray:
        """alpha(grad tau)."""
        a = _check_field(self.metric.grid, alpha.theta, "alpha.theta")
        return _pairing(self.metric, a, self.tau_theta)


def evaluate(m: AxisymMetric, tau: np.ndarray | Evaluation) -> Evaluation:
    """The Evaluation of tau on m; tau itself when it already is one."""
    if not isinstance(tau, Evaluation):
        return Evaluation(m, tau)
    if tau.metric is not m:
        raise InvalidParameterError("the evaluation belongs to a different metric")
    return tau


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


def embed_lifted(m: AxisymMetric, tau: np.ndarray) -> Evaluation:
    """Lift (m, tau) to a spacelike graph in Minkowski space.

    Raises NonEmbeddableError at once when the projection does not embed.
    """
    lift = Evaluation(m, tau)
    lift.projected
    return lift


def _lift_laplacians(surf: Evaluation):
    """Laplacians of the R^{3,1} coordinates of the lift, w.r.t. sigma.

    Returns (Lu, Delta v_tilde, Delta tau) where Lu is the common factor
    of the two horizontal components: Delta(u sin phi) = sin(phi) Lu.
    Lu = Delta u - u / (Q sin)^2 is assembled in factored form; the two
    diverging pieces cancel analytically and the remainder vanishes at
    the poles like sin(theta).
    """
    m = surf.metric
    g = m.grid
    proj = surf.projected
    b = m.Q * proj.u_prime / m.P
    lu = (sin_factored_theta_derivative(g, b) - m.P) / (m.P * m.Q * g.sin_theta)
    lap_vt = divergence_from_x_component(m, proj.w)
    return lu, lap_vt, surf.lap


def extrinsic_data(surf: Evaluation) -> ExtrinsicData:
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
    m = surf.metric
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

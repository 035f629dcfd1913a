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

Scalar fields are plain float arrays of node values, or (k, n) stacks of
k fields; every operator acts on the last axis, so a stack costs one
matrix product per operator (np.dot; see Grid).  An axisymmetric
one-form has only a dtheta component and is that array; of a symmetric
2-tensor only the theta-theta component is formed (hessian), since every
formula that needs the phi-phi component uses it with its sin(theta)
factors cancelled analytically.

The Grid owns, as read-only arrays built once per size, the nodes,
weights, d/dx and Legendre Vandermonde matrices and the factors 1 - x^2
and -sin(theta) of the x-space operators; d/dtheta is -sin(theta) d/dx.
Grid.time_function is the one synthesis of a time function from its
Legendre coefficients, over the modes P_1..P_{n-2} the grid resolves.
An AxisymMetric likewise keeps, once per metric, the products of its
profiles that the operators use on every call (P^2, P Q, P^4 Q,
(1 - x^2) Q/P, the weights of the energy's weak pairing and others), its
area radius and its surface of revolution in Euclidean 3-space: v_prime,
w, hhat_tt and mean_curvature, which raise NonEmbeddableError if none.

Every field that reaches the numerics (P, Q, |H|, alpha_H, a time
function and its lifted profile) is admitted by _admit, the one rule:
the right shape, finite, and within the length range or LENGTH_MAX in
size, tested by one min and one max, naming the first bad node
otherwise.  The public operators laplacian, hessian and
hat_gauss_curvature admit their field as embedding.Evaluation admits a
time function and return the bits of its lap, hess_tt and k_hat.  They
and integrate_surface serve callers outside the package; its own code
calls the kernels (_divergence_from_x_component, _hessian,
_sin_factored_theta_derivative, _integrate) on arrays it admitted or
formed, as tests/test_source_hygiene.py holds.
Fields computed when first read use the lazy descriptor below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg


class InvalidParameterError(ValueError):
    """A scalar argument is outside its admissible range."""


class FieldShapeError(ValueError):
    """A node-value array does not match the grid it is used with."""


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


# The product form of the barycentric weights in _differentiation_matrix
# underflows past MAX_GRID_N: with numpy 2.4 the matrix is finite for
# n = 1098 and NaN from n = 1099 on.  make_grid also measures it on P_{n-1}
# and on e^x sin 3x and rejects a relative L2 error above DIFF_CHECK_TOL;
# with numpy 2.4 every n from 4 to 1098 passes, missing by 1.5e-14 and
# 8.8e-12 at most.  e^x sin 3x is resolved to rounding from
# SMOOTH_CHECK_FROM_N nodes on (its interpolant's derivative misses by
# 1.9e-9 at n = 16 and 2.6e-14 at n = 20); smaller grids are checked on
# P_{n-1} only.
MAX_GRID_N = 1098
DIFF_CHECK_TOL = 1e-9
SMOOTH_CHECK_FROM_N = 20

# Profiles, time functions and lifted profiles are lengths, and the
# operators form products of up to five of them or of their inverses (P^4 Q
# in the convexity guard), squared again in places.  Keeping every length
# within [1/LENGTH_MAX, LENGTH_MAX], about the eighth root of the float
# range, keeps those products finite and normal.
LENGTH_MAX = 1e38


def _differentiation_matrix(x: np.ndarray) -> np.ndarray:
    """Derivative of the polynomial interpolant through the nodes x.

    Barycentric form with the negative-sum trick on the diagonal, so the
    matrix annihilates constants exactly.
    """
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    # log-free product of row differences, each scaled by 2, the inverse of
    # the capacity of [-1, 1] (Berrut & Trefethen, SIAM Rev. 46, 2004): exact
    # powers of two, cancelled below, that keep it finite up to MAX_GRID_N
    b = 1.0 / (2.0 * diff).prod(axis=1)
    b = b / np.abs(b).max()
    d = (b[None, :] / b[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


@dataclass(frozen=True, eq=False)
class Grid:
    """Gauss-Legendre collocation grid in x = cos(theta).

    nodes are the colatitudes theta_j, strictly increasing and interior
    to (0, pi).  weights integrate against sin(theta) dtheta, so they sum
    to 2 and quadrature is exact for polynomials in x of degree
    2 n_nodes - 1.  diff_matrix_x maps node values to d/dx of the
    interpolant; it is exact on polynomials in x of degree n_nodes - 1.
    Column l of legendre_vandermonde holds P_l at the nodes, and column l
    of legendre_vandermonde_dx holds P_l' (diff_matrix_x applied to it).
    one_minus_x_sq and minus_sin_theta hold 1 - x^2 and -sin(theta),
    factors of the x-space operators built once per grid.

    The grid is the one owner of the time-function basis P_1..P_L, L at
    most highest_mode: time_function is the package's one Legendre
    synthesis, modes gives the basis columns and their derivatives, and
    both raise FieldShapeError for a count below 0 or above highest_mode.
    A time function has no constant mode (the energy is blind to tau + c);
    a caller that wants one adds it to the synthesis.

    make_grid shares one Grid per size, so its arrays are read-only and
    grids compare and hash by identity.  dx, quad_dx and time_function
    multiply through np.dot (by kept transposed views): the bits of @ at a
    cheaper call, and an evaluation at n <= 128 pays for calls, not arithmetic.
    """

    n_nodes: int
    nodes: np.ndarray
    x: np.ndarray
    sin_theta: np.ndarray
    weights: np.ndarray
    diff_matrix_x: np.ndarray
    legendre_vandermonde: np.ndarray = field(repr=False)
    legendre_vandermonde_dx: np.ndarray = field(repr=False)
    one_minus_x_sq: np.ndarray = field(repr=False)
    minus_sin_theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_diff_matrix_x_t", self.diff_matrix_x.T)
        object.__setattr__(self, "_vandermonde_t", self.legendre_vandermonde.T)

    def dx(self, f: np.ndarray) -> np.ndarray:
        """d/dx of the interpolant of f.  Accurate for f smooth in x."""
        return np.dot(f, self._diff_matrix_x_t)

    def dtheta(self, f: np.ndarray) -> np.ndarray:
        """d/dtheta of the interpolant of f, -sin(theta) times its d/dx.

        The result carries a sin(theta) factor, so it is generally *not*
        smooth in x; never feed it back into dx or dtheta.
        """
        return self.minus_sin_theta * self.dx(f)

    def quad_dx(self, f: np.ndarray) -> float | np.ndarray:
        """integral of f over x in (-1, 1), i.e. of f sin(theta) dtheta.

        A float for one field, one integral per row for a stack.
        """
        q = np.dot(f, self.weights)
        return float(q) if q.ndim == 0 else q

    def legendre_coeffs(self, f: np.ndarray) -> np.ndarray:
        """Legendre coefficients of the interpolant of f.

        Quadrature projection; exact (to rounding) because the products
        P_l * interpolant stay below the quadrature's exactness degree.
        """
        f = np.asarray(f, dtype=float)
        l = np.arange(self.n_nodes)
        return (2 * l + 1) / 2.0 * ((self.weights * f) @ self.legendre_vandermonde)

    @property
    def highest_mode(self) -> int:
        """n_nodes - 2, the highest Legendre degree a time function may carry.

        The Laplacian's flux (1 - x^2) P_l' has degree l + 1, which
        diff_matrix_x reproduces only up to degree n_nodes - 1, so the
        discrete Laplacian of P_{n_nodes - 1} is wrong by O(1).
        """
        return self.n_nodes - 2

    def time_function(self, coeffs) -> np.ndarray:
        """Node values of sum_l c_l P_l from c_1..c_L, the product of 0, c_1..c_L with P_0..P_L."""
        return np.dot(np.concatenate(([0.0], coeffs)), self._vandermonde_t[: self._columns(len(coeffs))])

    def modes(self, count: int) -> tuple:
        """P_1..P_count at the nodes, (n, count), and their x-derivatives: the directions of tau."""
        stop = self._columns(count)
        return self.legendre_vandermonde[:, 1:stop], self.legendre_vandermonde_dx[:, 1:stop]

    def _columns(self, count: int) -> int:
        """count + 1, the number of columns P_0..P_count; FieldShapeError below 0 or above highest_mode."""
        if not 0 <= count <= self.highest_mode:
            raise FieldShapeError(f"{count} modes requested, the grid resolves {self.highest_mode}")
        return count + 1

    def integral_from_north(self, f: np.ndarray) -> np.ndarray:
        """Node values of x -> integral of f dx' from x to 1.

        The north pole is theta = 0, x = 1.  Used to reconstruct height
        profiles from their derivatives with spectral accuracy; legint's
        coefficients are summed against legendre_vandermonde.
        """
        anti = npleg.legint(self.legendre_coeffs(f), lbnd=1.0, axis=-1)
        # the antiderivative has degree n_nodes, but P_{n_nodes} vanishes at
        # the n_nodes Gauss nodes, so its coefficient adds nothing there
        return -(anti[..., :-1] @ self._vandermonde_t)


def make_grid(n: int) -> Grid:
    """The shared n-node Gauss-Legendre grid on the sphere.

    n must be at least 4, and the differentiation matrix must pass its
    checks on P_{n-1} and, from SMOOTH_CHECK_FROM_N nodes on, on
    e^x sin 3x; accuracy of the curvature operators suggests n >= 16 for
    production work.

    Each size is built and checked once, and every later call returns
    the same read-only Grid.  The last 8 sizes used are kept; a grid holds
    three n x n matrices, about 24 n^2 bytes, so at most about 230 MB at
    n = 1098.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidParameterError(f"grid size must be an integer, got {n!r}")
    if n < 4:
        raise InvalidParameterError(f"grid size must be at least 4, got {n}")
    if n > MAX_GRID_N:
        raise InvalidParameterError(
            f"grid size must be at most {MAX_GRID_N} (the differentiation matrix underflows), got {n}"
        )
    # validated before the cache, where 16.0 would find the grid of 16: equal, same hash
    return _build_grid(int(n))


@lru_cache(maxsize=8)
def _build_grid(n: int) -> Grid:
    """make_grid for a validated size: build, check and freeze the grid."""
    x_asc, w_asc = npleg.leggauss(n)
    # ascending theta means descending x
    x = x_asc[::-1].copy()
    w = w_asc[::-1].copy()
    theta = np.arccos(x)
    one_minus_x_sq = 1.0 - x * x
    sin_theta = np.sqrt(one_minus_x_sq)
    dmat_x = _differentiation_matrix(x)
    vander = npleg.legvander(x, n - 1)
    # D is exact on P_k, k = n - 1, where (1 - x^2) P_k' = k (P_{k-1} - x P_k)
    k = n - 1
    exact = k * (vander[:, k - 1] - x * vander[:, k])
    checks = [(f"P_{k}'", one_minus_x_sq * (dmat_x @ vander[:, k]), exact)]
    if n >= SMOOTH_CHECK_FROM_N:
        smooth = np.exp(x) * np.sin(3.0 * x)
        derivative = np.exp(x) * (np.sin(3.0 * x) + 3.0 * np.cos(3.0 * x))
        checks.append(("the derivative of e^x sin 3x", dmat_x @ smooth, derivative))
    for name, got, want in checks:
        error = np.sqrt((w @ (got - want) ** 2) / (w @ want**2))
        if not error <= DIFF_CHECK_TOL:
            raise InvalidParameterError(
                f"grid size {n} is too large: the differentiation matrix misses {name} "
                f"by {error:.1e} (relative L2), above {DIFF_CHECK_TOL:g}"
            )
    return Grid(
        n_nodes=n,
        nodes=_read_only(theta),
        x=_read_only(x),
        sin_theta=_read_only(sin_theta),
        weights=_read_only(w),
        diff_matrix_x=_read_only(dmat_x),
        legendre_vandermonde=_read_only(vander),
        legendre_vandermonde_dx=_read_only(dmat_x @ vander),
        one_minus_x_sq=_read_only(one_minus_x_sq),
        minus_sin_theta=_read_only(-sin_theta),
    )


def _check_field(grid: Grid, name: str, f: np.ndarray, stack: bool = False) -> np.ndarray:
    """f as a float array of node values, or with stack also a (k, n) stack of them."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (grid.n_nodes,) or f.ndim > 1 + stack:
        expected = f"({grid.n_nodes},) or (k, {grid.n_nodes})" if stack else f"({grid.n_nodes},)"
        raise FieldShapeError(f"{name} has shape {f.shape}, expected {expected} for this grid")
    return f


def _admit(grid: Grid, name: str, values: np.ndarray, lengths: bool, stack: bool = False) -> np.ndarray:
    """values as _check_field returns them, finite and in range: the one admission rule.

    The range is [1/LENGTH_MAX, LENGTH_MAX] for lengths, [-LENGTH_MAX,
    LENGTH_MAX] otherwise.  One bound test on min and max, which a NaN
    fails; only a field that fails it is searched, for its first node that
    is not finite and then its first node out of range, which the error
    names.  An empty stack passes.
    """
    values = _check_field(grid, name, values, stack)
    low = 1.0 / LENGTH_MAX if lengths else -LENGTH_MAX
    if low <= values.min(initial=1.0) and values.max(initial=1.0) <= LENGTH_MAX:
        return values
    finite = np.isfinite(values)
    if not finite.all():
        i = _first(~finite)
        raise InvalidParameterError(
            f"{name} must be finite, got {values[i]} at {_at(i)} (theta = {grid.nodes[i[-1]]})"
        )
    i = _first((values < low) | (values > LENGTH_MAX))
    if lengths:
        rule = f"{name} must lie in [{low:g}, {LENGTH_MAX:g}]"
    else:
        rule = f"|{name}| must be at most {LENGTH_MAX:g}"
    raise InvalidParameterError(
        f"{rule}; {name}[{', '.join(map(str, i))}] = {values[i]} at theta = {grid.nodes[i[-1]]}"
    )


def _first(bad: np.ndarray) -> tuple:
    """Index of the first True entry of a field or stack: (node,) or (row, node)."""
    return tuple(int(i) for i in np.unravel_index(int(bad.argmax()), bad.shape))


def _first_nonpositive(values: np.ndarray) -> tuple:
    """Where a field or stack whose least value is not > 0 first fails.

    (node,) of the least value of a field; (row, node) of the least value
    in the first row of a stack whose least value is not > 0, so a NaN fails.
    """
    if values.ndim == 1:
        return (int(values.argmin()),)
    i = int(np.flatnonzero(~(values.min(axis=1) > 0.0))[0])
    return i, int(values[i].argmin())


def _at(index: tuple) -> str:
    """'node j', or 'row i, node j' in a stack."""
    return f"node {index[-1]}" if len(index) == 1 else f"row {index[0]}, node {index[-1]}"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _owned(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a: what a metric or data keep of an array they are given."""
    return _read_only(a.copy())


class lazy:
    """A field computed by func when first read, then kept in the instance __dict__.

    A field is lazy only where some reader skips it; one that every
    reader reads is formed by its owner's constructor (Evaluation's
    tau_x and tau_theta, DataEvaluation's sinh and angle).  Later reads
    find the value in __dict__ without calling the descriptor, as with
    functools.cached_property, which up to Python 3.11 takes a lock on
    every first read.  A trial's guard, energy and gradient make twenty
    first reads, fifteen on its Evaluation and DataEvaluation and five
    on its lifted metric, and at n = 32 an evaluation costs more in such
    fixed per-call work than in arithmetic.  Without the lock, two
    threads reading a field first at once would both compute it; the
    package starts no threads.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True, eq=False)
class AxisymMetric:
    """Axially symmetric metric P^2 dtheta^2 + Q^2 sin^2(theta) dphi^2.

    P and Q are node-value arrays on grid and must be finite and lie in
    [1/LENGTH_MAX, LENGTH_MAX].  Smoothness of the round metric at the
    poles corresponds to profiles smooth in x with P = Q at x = +-1; all
    constructors in this package produce such profiles.  P may be a
    (k, n) stack of profiles sharing Q.  The constructor is the only
    admission of a metric, and it keeps a read-only copy of each profile
    it admits: what an object keeps, it owns, so writing to the caller's
    arrays later leaves the metric and every field it cached as they were.

    The fields that depend on the metric alone (u' with u = Q sin(theta),
    the u'' term of the second fundamental form, the Gauss curvature K,
    Lu, (dP/dtheta)/P and the profile products the operators divide or
    weight by) are computed when first read and kept as read-only
    arrays, because some reader skips them: the lifted metric of an
    Evaluation, which shares Q, u' and u'' and forms its own P-dependent
    fields, reads only P^2 and its surface of revolution, and the metric
    of a Schwarzschild sphere that gen-data builds and stores reads none.
    The area radius, a float or one per row of a stack, is formed when
    first read and kept; only the suites and the minimizer read it.  Each
    product is formed as the inline expression it replaces was, so a
    kernel gives the same bits either way.

    The metric embeds as a surface of revolution in Euclidean 3-space,

        X = (u sin(phi), u cos(phi), v),   u = Q sin(theta),
        v' = sqrt(P^2 - u'^2) >= 0,        v(north pole) = 0,

    whenever P^2 - u'^2 > 0.  v_prime, w = v'/sin(theta), hhat_tt and
    mean_curvature are that surface's fields, formed from u' and u''
    analytically, never from the height v.  They are lazy too: the
    NonEmbeddableError of a metric that does not embed reaches only a
    reader that needs its surface, not one that reads its guard.
    """

    grid: Grid
    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _owned(_admit(self.grid, "P", self.P, lengths=True, stack=True)))
        object.__setattr__(self, "Q", _owned(_admit(self.grid, "Q", self.Q, lengths=True)))

    def _with_P(self, P: np.ndarray) -> "AxisymMetric":
        """The metric with profile P and this Q, sharing the Q-only fields.

        P is Evaluation.p_hat, admitted where it is formed, or the rows of
        this metric's P that Evaluation.rows keeps; nothing is tested again.
        """
        other = object.__new__(AxisymMetric)
        other.__dict__.update(
            grid=self.grid, P=P, Q=self.Q, u_prime=self.u_prime, u_second=self.u_second
        )
        return other

    @lazy
    def u_prime(self) -> np.ndarray:
        """d/dtheta of u = Q sin(theta), smooth in x."""
        return _read_only(_sin_factored_theta_derivative(self.grid, self.Q))

    @lazy
    def u_second(self) -> np.ndarray:
        """d^2u/dtheta^2, assembled from the x-derivative of u'."""
        return _read_only(self.grid.dtheta(self.u_prime))

    @lazy
    def area_radius(self) -> float | np.ndarray:
        """sqrt(area / 4 pi), the radius of the round sphere of the same area: a float, or one per row of P."""
        radius = np.sqrt(_integrate(self, np.ones(self.grid.n_nodes)) / (4.0 * np.pi))
        return float(radius) if radius.ndim == 0 else _read_only(radius)

    @lazy
    def lu(self) -> np.ndarray:
        """Lu = Delta u - u / (Q sin)^2, u = Q sin(theta), so that Delta(u sin phi) = sin(phi) Lu.

        In this factored form the two diverging pieces cancel analytically,
        and the remainder vanishes at the poles like sin(theta).
        """
        g = self.grid
        b = self.Q * self.u_prime / self.P
        lu = (_sin_factored_theta_derivative(g, b) - self.P) / (self.P * self.Q * g.sin_theta)
        return _read_only(lu)

    @lazy
    def K(self) -> np.ndarray:
        """Gauss curvature; see gauss_curvature."""
        return _read_only(self.grid.dx(self.u_prime / self.P) / self.PQ)

    @lazy
    def P_sq(self) -> np.ndarray:
        """P^2."""
        return _read_only(self.P**2)

    @lazy
    def Q_sq(self) -> np.ndarray:
        """Q^2."""
        return _read_only(self.Q**2)

    @lazy
    def PQ(self) -> np.ndarray:
        """P Q, the area element over sin(theta)."""
        return _read_only(self.P * self.Q)

    @lazy
    def P_sq_Q(self) -> np.ndarray:
        """P^2 Q."""
        return _read_only(self.P_sq * self.Q)

    @lazy
    def P4_Q(self) -> np.ndarray:
        """P^4 Q."""
        return _read_only(self.P**4 * self.Q)

    @lazy
    def P_theta_over_P(self) -> np.ndarray:
        """(dP/dtheta) / P."""
        return _read_only(self.grid.dtheta(self.P) / self.P)

    @lazy
    def flux_factor(self) -> np.ndarray:
        """(1 - x^2) Q / P, the factor of omega in _divergence_from_x_component."""
        return _read_only(self.grid.one_minus_x_sq * (self.Q / self.P))

    @lazy
    def weighted_PQ(self) -> np.ndarray:
        """w P Q with w the quadrature weights: the area weights of a weak pairing."""
        return _read_only(self.grid.weights * self.P * self.Q)

    @lazy
    def weighted_flux_factor(self) -> np.ndarray:
        """w (1 - x^2) Q / P with w the quadrature weights: the flux weights of a weak pairing."""
        return _read_only(self.grid.weights * self.grid.one_minus_x_sq * (self.Q / self.P))

    @lazy
    def v_prime(self) -> np.ndarray:
        """v' = sqrt(P^2 - u'^2) > 0, the root that orients the normal outward.

        NonEmbeddableError names the first row of a stack where P^2 - u'^2
        is not > 0, its worst node and margin; an empty stack passes.
        """
        margin = self.P_sq - self.u_prime**2
        if not margin.min(initial=np.inf) > 0.0:
            bad = _first_nonpositive(margin)
            row = bad[0] if len(bad) == 2 else None
            raise NonEmbeddableError(bad[-1], float(self.grid.nodes[bad[-1]]), float(margin[bad]), row)
        return _read_only(np.sqrt(margin))

    @lazy
    def w(self) -> np.ndarray:
        """v'/sin(theta), smooth in x for pole-regular profiles."""
        return _read_only(self.v_prime / self.grid.sin_theta)

    @lazy
    def hhat_tt(self) -> np.ndarray:
        """theta-theta component of the second fundamental form, outward.

        Positive on convex surfaces: r on the round sphere of radius r,
        where h_ab = sigma_ab / r.
        """
        v2 = _sin_factored_theta_derivative(self.grid, self.w)
        return _read_only((self.u_prime * v2 - self.u_second * self.v_prime) / self.P)

    @lazy
    def mean_curvature(self) -> np.ndarray:
        """Scalar mean curvature (sum of principal curvatures), outward."""
        # h_pp / u^2 = (v'/sin) / (Q P) with the sin cancelled analytically
        return _read_only(self.hhat_tt / self.P_sq + self.w / (self.Q * self.P))


def round_sphere(grid: Grid, radius: float = 1.0) -> AxisymMetric:
    """The round metric of the given radius: P = Q = radius."""
    if not 0.0 < radius < np.inf:
        raise InvalidParameterError(f"radius must be positive and finite, got {radius}")
    r = float(radius)
    return AxisymMetric(grid, np.full(grid.n_nodes, r), np.full(grid.n_nodes, r))


# ---------------------------------------------------------------------------
# integral and differential operators
# ---------------------------------------------------------------------------


def integrate_surface(m: AxisymMetric, f: np.ndarray) -> float | np.ndarray:
    """integral of f over the surface, area element P Q sin(theta) dtheta dphi.

    A float for one field, one integral per row for a stack of integrands
    or of metrics.
    """
    return _integrate(m, _check_field(m.grid, "integrand", f, stack=True))


def _integrate(m: AxisymMetric, f: np.ndarray) -> float | np.ndarray:
    """integrate_surface of an integrand the package formed on m's grid; f is not checked."""
    return 2.0 * np.pi * m.grid.quad_dx(f * m.P * m.Q)


def _divergence_from_x_component(m: AxisymMetric, omega: np.ndarray) -> np.ndarray:
    """Divergence of the one-form with dtheta component sin(theta) * omega.

    Regular axisymmetric one-forms always factor this way with omega
    smooth in x, which is what makes the formula below spectral:

        div W = -d/dx[ (1 - x^2) (Q/P) omega ] / (P Q)

    The sin(theta) factors cancel analytically, so no pole division ever
    happens.  omega is not checked.
    """
    return -m.grid.dx(m.flux_factor * omega) / m.PQ


def laplacian(m: AxisymMetric, f: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator of the metric applied to a smooth field; see hessian."""
    from .embedding import Evaluation

    return Evaluation(m, f).lap


def hessian(m: AxisymMetric, f: np.ndarray) -> np.ndarray:
    """theta-theta component of the covariant Hessian of a smooth axisymmetric field.

    Hess_tt = f'' - (P'/P) f', primes theta derivatives.  f'' is
    assembled from x-space derivatives (f'' = -x f_x + (1 - x^2) f_xx)
    because f' itself carries a sin(theta) factor and cannot be
    differentiated spectrally in x.  The other nonzero component,
    Hess_pp = u u' f' / P^2 with u = Q sin(theta), enters every formula
    as Hess_pp / u^2 = -u' f_x / (P^2 Q), with the sin(theta) cancelled.

    f, a field or (k, n) stack, is admitted as Evaluation admits a time
    function: an error names its first node that is not finite or
    exceeds LENGTH_MAX in size.
    """
    from .embedding import Evaluation

    return Evaluation(m, f).hess_tt


def _hessian(m: AxisymMetric, fx: np.ndarray, f_theta: np.ndarray) -> np.ndarray:
    """Hess_tt of the field whose x-derivative is fx and theta-derivative f_theta = -sin(theta) fx."""
    g = m.grid
    fxx = g.dx(fx)
    f2 = g.one_minus_x_sq * fxx - g.x * fx
    return f2 - m.P_theta_over_P * f_theta


def _sin_factored_theta_derivative(grid: Grid, q: np.ndarray) -> np.ndarray:
    """d/dtheta of sin(theta) * q for q smooth in x.

    Product rule applied analytically: the result is
    cos(theta) q - (1 - x^2) dq/dx, itself smooth in x.  Needed because
    sin(theta) * q is not a polynomial-friendly function of x.  q is not
    checked.
    """
    return grid.x * q - grid.one_minus_x_sq * grid.dx(q)


def gauss_curvature(m: AxisymMetric) -> np.ndarray:
    """Intrinsic Gauss curvature.

    For sigma = P^2 dtheta^2 + u^2 dphi^2 with u = Q sin(theta),

        K = -(1 / (P u)) d/dtheta (u'/P) = d/dx(u'/P) / (P Q)

    after the sin(theta) factors cancel.  Valid for any admissible
    metric, embeddable or not.  Package code reads m.K, computed once per
    metric; this function stays only because the benchmark's tracer
    lists it.
    """
    return m.K


def hat_gauss_curvature(m: AxisymMetric, tau: np.ndarray) -> np.ndarray:
    """Gauss curvature of sigma + dtau x dtau, Evaluation.k_hat; tau is admitted as in hessian."""
    from .embedding import Evaluation

    return Evaluation(m, tau).k_hat

"""Stacked evaluations: a (k, n) stack of time functions against its rows.

Every row of a stack must give what a one-field Evaluation gives, up to
the rounding of one matrix product against k.  Integrals are compared
against the size of the reference and physical terms.  Pointwise fields
pass through differentiation matrices, whose rounding the next
differentiation amplifies by up to the matrix norm ||D||, so they are
compared against their own size times ||D|| per such step: one for
<H, H> (the Laplacians of the lift) and the guard (the Hessian), two for
the residual (the divergence of the boost angle's gradient).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_time_profile, regular_random_metric
from quasilocal.embedding import Evaluation, NonEmbeddableError, embed_r3
from quasilocal.energy import evaluate, qle, residual
from quasilocal.geometry import AxisymMetric, FieldShapeError, lazy, make_grid, round_sphere
from quasilocal.optimize import convexity_guard
from quasilocal.physdata import minkowski_surface_data

GRID = make_grid(32)
EPS = np.finfo(float).eps
D_NORM = float(np.abs(GRID.diff_matrix_x).sum(axis=1).max())


@settings(deadline=None, derandomize=True, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 5]))
def test_each_row_matches_its_single_evaluation(seed, k):
    rng = np.random.default_rng(seed)
    m = regular_random_metric(GRID, rng)
    d = minkowski_surface_data(m, random_time_profile(GRID, rng))
    taus = np.array([random_time_profile(GRID, rng) for _ in range(k)])

    stack = evaluate(m, taus)
    energies = qle(d, stack)
    residuals = residual(d, stack)
    guards = convexity_guard(m, stack)
    mean_sq = stack.mean_sq
    assert energies.total.shape == guards.shape == (k,)
    assert residuals.shape == mean_sq.shape == (k, GRID.n_nodes)

    for i, tau in enumerate(taus):
        one = evaluate(m, tau)
        e = qle(d, one)
        terms = max(abs(e.reference_term), abs(e.physical_term))
        assert abs(energies.reference_term[i] - e.reference_term) <= 64 * EPS * terms
        assert abs(energies.physical_term[i] - e.physical_term) <= 64 * EPS * terms
        res = residual(d, one)
        assert np.max(np.abs(residuals[i] - res)) <= 64 * EPS * D_NORM**2 * np.max(np.abs(res))
        field = one.mean_sq
        assert np.max(np.abs(mean_sq[i] - field)) <= 64 * EPS * D_NORM * np.max(np.abs(field))
        assert abs(guards[i] - convexity_guard(m, one)) <= 64 * EPS * D_NORM * np.max(np.abs(m.K))


def test_every_array_field_of_a_stack_has_one_row_per_time_function():
    # rows masks every array an Evaluation keeps, so a field of the metric
    # alone, of shape (n,), would break it on a stack, or select nodes
    # when k = n: such fields belong to the metric
    rng = np.random.default_rng(3)
    m = regular_random_metric(GRID, rng)
    k = 3
    stack = evaluate(m, np.array([random_time_profile(GRID, rng) for _ in range(k)]))
    names = [name for name, field in vars(Evaluation).items() if isinstance(field, lazy)]
    for name in names:
        getattr(stack, name)
    arrays = {name: v for name, v in vars(stack).items() if isinstance(v, np.ndarray)}
    assert set(names) - {"projected"} <= set(arrays)
    assert {name: v.shape[0] for name, v in arrays.items()} == dict.fromkeys(arrays, k)
    keep = np.array([True, False, True])
    sub = stack.rows(keep)
    for name, v in arrays.items():
        assert np.array_equal(getattr(sub, name), v[keep])


def test_single_field_keeps_scalar_results():
    m = round_sphere(GRID, 2.0)
    one = evaluate(m, 0.1 * GRID.x)
    d = minkowski_surface_data(m, np.zeros(GRID.n_nodes))
    assert isinstance(qle(d, one).total, float)
    assert isinstance(convexity_guard(m, one), float)


@pytest.mark.parametrize("shape", [(2, 31), (2, 2, 32), (32, 2)])
def test_wrongly_shaped_stack_names_tau(shape):
    m = round_sphere(GRID)
    with pytest.raises(FieldShapeError, match=r"^tau has shape"):
        evaluate(m, np.zeros(shape))


def test_minkowski_data_rejects_a_stack_naming_tau0():
    m = round_sphere(make_grid(16))
    with pytest.raises(FieldShapeError, match=r"^tau0 has shape"):
        minkowski_surface_data(m, np.zeros((2, 16)))


@pytest.mark.parametrize("shape", [(2, 2, 16), (15,), (2, 16)])
def test_minkowski_data_names_tau0_and_expects_one_field(shape):
    m = round_sphere(make_grid(16))
    message = rf"^tau0 has shape \({', '.join(map(str, shape))},?\), expected \(16,\) for this grid$"
    with pytest.raises(FieldShapeError, match=message):
        minkowski_surface_data(m, np.zeros(shape))


def test_non_embeddable_row_is_named():
    # P^2 - u'^2 = 0.25 - cos^2(theta) turns negative towards the poles
    m = round_sphere(GRID)
    profiles = np.ones((3, GRID.n_nodes))
    profiles[1] = 0.5
    with pytest.raises(NonEmbeddableError, match=r"at row 1, node \d+ ") as exc:
        embed_r3(AxisymMetric(GRID, profiles, m.Q))
    assert exc.value.row == 1
    assert exc.value.margin == pytest.approx(0.25 - GRID.x[exc.value.node_index] ** 2)


def test_first_failing_row_is_named():
    m = round_sphere(GRID)
    profiles = np.full((4, GRID.n_nodes), 0.5)
    profiles[0] = 1.0
    with pytest.raises(NonEmbeddableError) as exc:
        embed_r3(AxisymMetric(GRID, profiles, m.Q))
    assert exc.value.row == 1


def two_row_metric():
    """Two profiles on one Q whose Gauss curvatures have different least values."""
    x = GRID.x
    Q = 1.0 + 0.02 * x
    return AxisymMetric(GRID, np.stack([Q * (1.0 + 0.3 * (1.0 - x * x)), Q * (1.0 - 0.2 * x * (1.0 - x * x))]), Q)


def test_guard_of_a_metric_stack_reads_each_row_alone():
    # each row's margin takes the least K of its own row, not of the stack
    m = two_row_metric()
    taus = np.stack([0.05 * GRID.x] * 2)
    guards = convexity_guard(m, taus)
    assert guards.shape == (2,)
    for P, tau, guard in zip(m.P, taus, guards):
        alone = AxisymMetric(GRID, P, m.Q)
        assert abs(guard - convexity_guard(alone, tau)) <= 64 * EPS * D_NORM * np.max(np.abs(alone.K))


def test_area_radius_of_a_metric_stack_is_one_per_row():
    m = two_row_metric()
    radii = m.area_radius
    assert radii.shape == (2,)
    for P, radius in zip(m.P, radii):
        alone = AxisymMetric(GRID, P, m.Q).area_radius
        assert isinstance(alone, float)
        assert abs(radius - alone) <= 64 * EPS * alone
    with pytest.raises(ValueError):
        radii[0] = 1.0

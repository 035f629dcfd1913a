"""Exact symmetries of the numerics, tested as metamorphic relations.

Scaling the metric and the time function by a power of two, lambda = 2^k,
scales every length by lambda exactly in floating point, so a quantity of
a fixed length dimension scales by its power of lambda to the bit.

Reflecting the sphere through its equator, x -> -x, maps the
Gauss-Legendre nodes onto themselves in reverse order (numpy symmetrizes
them, so x[::-1] == -x to the bit).  Data and time functions reflect by
reversing their node values, except that the dtheta component of a
one-form also changes sign, and P_l(-x) = (-1)^l P_l(x).  The
differentiation matrix is antisymmetric under the reflection only to
rounding, so these relations hold to rounding, not to the bit.

Translating in time, tau -> tau + c, moves the lift by a Minkowski
translation, so the energy, its gradient and the residual are unchanged.
Only dtau enters them, and rounding tau + c is differentiated, so the
error grows with |c|: each bound is a constant times
eps max(1, |c| / r) of the largest term, r the area radius.
"""

from functools import lru_cache

import numpy as np
import pytest

from quasilocal.geometry import AxisymMetric, make_grid
from quasilocal.optimize import TauCoefficients, convexity_guard, energy_gradient, tau_from_coefficients
from quasilocal.physdata import PhysicalData, minkowski_surface_data, schwarzschild_sphere
from quasilocal.verify import (
    _default_profiles,
    check_identities,
    check_lemma41,
    check_theorem1,
    check_theorem3,
    coefficient_box,
)
from test_pinned_reports import pole_regular_pair

SCALES = range(-30, 41)


def scaled_pair(k):
    """The pinned pole-regular pair with P, Q and tau scaled by 2^k."""
    m, tau = pole_regular_pair()
    lam = 2.0**k
    return AxisymMetric(m.grid, lam * m.P, lam * m.Q), lam * tau


# the length dimension of the quantity each check bounds
DIMENSION = {
    "mean-curvature-norm": -2,
    "projection": -1,
    "gauge-one-form": 0,
    "inverse-metric": 0,
    "graph-hessian": 1,
    "flux": -2,
    "variation-1": 0,
    "variation-2": 0,
    "variation-3": 0,
    "criticality": -1,
    "mean-curvature-gap": -1,
    "closed-form": 1,
    "gap": 1,
    "equality": 1,
    "alpha-rest": 0,
    "physical-mean-curvature": -1,
    "guard": -2,
    "zero-value": 1,
    "zero-derivative": 1,
    "ode": 1,
    "positivity": 1,
    "monotonicity": 1,
    "reference-derivative": 1,
}


def variation_margins(report):
    return {c.label: c.margin for c in report.checks if c.label.startswith("variation-")}


@pytest.mark.parametrize("k", SCALES)
def test_lemma41_variation_margins_are_scale_free(k):
    # the central difference's step scales with the radius, so the
    # difference quotient of energies of size 8 pi r is the same number
    want = variation_margins(check_lemma41(*pole_regular_pair()))
    assert variation_margins(check_lemma41(*scaled_pair(k))) == want


@pytest.mark.parametrize("k", SCALES)
def test_convexity_guard_scales_as_a_curvature(k):
    want = convexity_guard(*pole_regular_pair())
    assert convexity_guard(*scaled_pair(k)) * 2.0 ** (2 * k) == want


def assert_scaled(got, want, k):
    """Every margin and allowance of got is 2^(kp) times want's, so no flag moves."""
    assert [c.label for c in got.checks] == [c.label for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        factor = 2.0 ** (k * DIMENSION[w.label])
        assert (g.margin, g.allowance) == (w.margin * factor, w.allowance * factor), w.label
        assert g.ok == w.ok, w.label


@pytest.mark.parametrize("suite", [check_identities, check_lemma41])
@pytest.mark.parametrize("k", SCALES)
def test_metric_suites_are_scale_free(suite, k):
    # every margin and allowance scales by its power of lambda, so the
    # suite passes or fails alike at every scale
    want = suite(*pole_regular_pair())
    got = suite(*scaled_pair(k))
    assert got.passed and want.passed
    assert_scaled(got, want, k)


def non_round_data(k):
    """0.9 |H| of the scaled pole-regular lift, with its tau as tau0."""
    m, tau = scaled_pair(k)
    lift = minkowski_surface_data(m, tau)
    return PhysicalData(m, 0.9 * lift.norm_H, lift.alpha_H), tau


THEOREM_DATA = {
    "schwarzschild": lambda k: (schwarzschild_sphere(make_grid(32), 2.0**k, 4.0 * 2.0**k), np.zeros(32)),
    "flat": lambda k: (schwarzschild_sphere(make_grid(32), 0.0, 2.0**k), np.zeros(32)),
    "non-round": non_round_data,
}


@lru_cache(maxsize=None)
def theorem_report(suite, source, k):
    """The suite on the source's data scaled by 2^k, with its default samples scaled too."""
    d, tau0 = THEOREM_DATA[source](k)
    grid, lam = d.metric.grid, 2.0**k
    if suite == "theorem1":
        return check_theorem1(d, tau0, tau_samples=tau0 + lam * coefficient_box(grid.n_nodes))
    return check_theorem3(d, tau_samples=lam * _default_profiles(grid.n_nodes))


@pytest.mark.parametrize("suite", ["theorem1", "theorem3"])
@pytest.mark.parametrize("source", sorted(THEOREM_DATA))
@pytest.mark.parametrize("k", SCALES)
def test_theorem_suites_are_scale_free(suite, source, k):
    # the energy is homogeneous of degree one, and each allowance is c r^p
    # of the quantity it bounds, so the verdict is the same at every scale
    want = theorem_report(suite, source, 0)
    got = theorem_report(suite, source, k)
    assert_scaled(got, want, k)
    assert got.passed == want.passed


def reflected(d: PhysicalData) -> PhysicalData:
    """The data reflected through the equator: node values reversed, alpha_theta negated."""
    m = d.metric
    return PhysicalData(AxisymMetric(m.grid, m.P[::-1], m.Q[::-1]), d.norm_H[::-1], -d.alpha_H[::-1])


REFLECTED_DATA = {
    "schwarzschild": lambda: schwarzschild_sphere(make_grid(32), 1.0, 4.0),
    "minkowski": lambda: minkowski_surface_data(*pole_regular_pair()),
}
MODES = np.arange(1, 9)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("source", sorted(REFLECTED_DATA))
def test_reflection_through_the_equator(source, seed):
    # tau has 8 modes with |c_l| <= 0.1 / l^2.  Worst over the 20 draws of
    # either datum: energy 5.7e-16 of its largest term, gradient 3.3e-13
    # and residual 1.7e-11 of their largest entries (or of 1)
    d = REFLECTED_DATA[source]()
    grid = d.metric.grid
    c = 0.1 * np.random.default_rng(seed).uniform(-1.0, 1.0, 8) / MODES**2
    sign = (-1.0) ** MODES
    tau = tau_from_coefficients(grid, TauCoefficients(tuple(c)))
    assert np.array_equal(tau_from_coefficients(grid, TauCoefficients(tuple(sign * c))), tau[::-1])
    at, mirror = d.evaluate(tau), reflected(d).evaluate(tau[::-1].copy())

    e, e_mirror = at.energy, mirror.energy
    scale = max(1.0, abs(e.reference_term), abs(e.physical_term))
    assert abs(e_mirror.total - e.total) <= 16 * np.finfo(float).eps * scale

    grad = energy_gradient(d, TauCoefficients(tuple(c)))
    grad_mirror = energy_gradient(reflected(d), TauCoefficients(tuple(sign * c)))
    assert np.max(np.abs(grad_mirror - sign * grad)) <= 1e-12 * max(1.0, np.max(np.abs(grad)))

    res = at.residual
    assert np.max(np.abs(mirror.residual - res[::-1])) <= 1e-10 * max(1.0, np.max(np.abs(res)))


# c = a + b r for each (a, b): 2^-10, 1, 3r and 2^10 r
SHIFTS = {"2^-10": (2.0**-10, 0.0), "1": (1.0, 0.0), "3r": (0.0, 3.0), "2^10r": (0.0, 2.0**10)}


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("shift", sorted(SHIFTS))
@pytest.mark.parametrize("source", sorted(REFLECTED_DATA))
def test_time_translation(source, shift, seed):
    # tau is drawn as in the reflection test.  Worst over the 20 draws, in
    # units of eps max(1, |c| / r) of the largest term or entry (or of 1):
    # energy 1.3 (Schwarzschild) and 3.8 (lift), gradient along P1..P8
    # 2.4e4 and 1.8e3, residual 1.4e5 and 3.6e5, each at c = 1 or larger
    d = REFLECTED_DATA[source]()
    grid, r = d.metric.grid, d.metric.area_radius
    a, b = SHIFTS[shift]
    c = a + b * r
    coeffs = 0.1 * np.random.default_rng(seed).uniform(-1.0, 1.0, 8) / MODES**2
    tau = tau_from_coefficients(grid, TauCoefficients(tuple(coeffs)))
    at, shifted = d.evaluate(tau), d.evaluate(tau + c)
    unit = np.finfo(float).eps * max(1.0, abs(c) / r)

    e = at.energy
    scale = max(1.0, abs(e.reference_term), abs(e.physical_term))
    assert abs(shifted.energy.total - e.total) <= 16 * unit * scale

    grad = energy_gradient(d, TauCoefficients(tuple(coeffs)))
    grad_shifted = shifted.first_variation(*grid.modes(MODES.size))[0]
    assert np.max(np.abs(grad_shifted - grad)) <= 1e5 * unit * max(1.0, np.max(np.abs(grad)))

    res = at.residual
    assert np.max(np.abs(shifted.residual - res)) <= 1e6 * unit * max(1.0, np.max(np.abs(res)))

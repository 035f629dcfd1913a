"""Shared sample families for the test suite.

Property tests across modules draw from the same pool of smooth random
metrics and time profiles.  Mode l is weighted by 1/l^2: embedding
profiles involve sqrt(P^2 - u'^2), whose pole value is controlled by
derivatives of Q, so flat-spectrum draws push the embeddability margin
toward zero at the poles and park the square root's branch point next
to the collocation interval.  Weighted draws keep every sampled field
resolved to rounding on the n = 32 working grid.

count_formed records which instances form a lazy field, for the tests
that the fields of each lift, and of each lift bound to data, are formed
once and only where they are read.
"""

import numpy as np
from numpy.polynomial import legendre as npleg

from quasilocal.geometry import AxisymMetric

MODE_WEIGHTS = np.array([1.0, 4.0, 9.0])


def legendre_mode(grid, l, coeff=1.0):
    c = np.zeros(l + 1)
    c[l] = coeff
    return npleg.legval(grid.x, c)


def regular_random_metric(grid, rng, scale=0.05):
    """Smooth metric with P = Q at the poles (no conical defect)."""
    bq = scale * rng.uniform(-1.0, 1.0, 3) / MODE_WEIGHTS
    rho = scale * rng.uniform(-1.0, 1.0, 3) / MODE_WEIGHTS
    return regular_metric(grid, bq, rho)


def regular_metric(grid, bq, rho):
    """The pole-regular metric whose Q and P/Q carry these Legendre modes."""
    Q = 1.0 + npleg.legval(grid.x, np.concatenate([[0.0], bq]))
    P = Q * (1.0 + (1.0 - grid.x**2) * npleg.legval(grid.x, np.concatenate([[0.0], rho])))
    return AxisymMetric(grid, P, Q)


# the normal-bundle fields of an Evaluation
NORMAL_BUNDLE = ("lap_vt", "mean_sq", "breve_h", "breve_h4", "breve_alpha")
# the fields of a DataEvaluation
BOUND_FIELDS = (
    "sinh", "angle", "cosh", "physical_term", "energy", "angle_form", "stationarity", "residual",
    "residual_norm",
)


def count_formed(monkeypatch, owner, names):
    """name -> the instances whose lazy field owner.name is formed, the formulas unchanged."""
    formed = {name: [] for name in names}

    def counting(name, formula):
        def form(instance):
            formed[name].append(instance)
            return formula(instance)

        return form

    for name in names:
        field = owner.__dict__[name]
        monkeypatch.setattr(field, "func", counting(name, field.func))
    return formed


def weighted_modes(rng, count, scale):
    """Coefficients of P_1..P_count, scale u_l / l^2 with u_l uniform in [-1, 1]: MODE_WEIGHTS for count modes."""
    return scale * rng.uniform(-1.0, 1.0, count) / np.arange(1, count + 1, dtype=float) ** 2


def random_time_profile(grid, rng, scale=0.3):
    """Low-degree time function keeping unit-scale lifts spacelike."""
    c = scale * rng.uniform(-1.0, 1.0, 3) / MODE_WEIGHTS
    return npleg.legval(grid.x, np.concatenate([[0.0], c]))

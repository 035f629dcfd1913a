"""Exact symmetries of the numerics, tested as metamorphic relations.

Scaling the metric and the time function by a power of two, lambda = 2^k,
scales every length by lambda exactly in floating point, so a quantity of
a fixed length dimension scales by its power of lambda to the bit.
"""

import pytest

from quasilocal.geometry import AxisymMetric
from quasilocal.optimize import convexity_guard
from quasilocal.verify import check_identities, check_lemma41
from test_pinned_reports import pole_regular_pair

SCALES = range(-30, 41)


def scaled_pair(k):
    """The pinned pole-regular pair with P, Q and tau scaled by 2^k."""
    m, tau = pole_regular_pair()
    lam = 2.0**k
    return AxisymMetric(m.grid, lam * m.P, lam * m.Q), lam * tau


# the length dimension of the quantity each identities and lemma41 check bounds
DIMENSION = {
    "mean-curvature-norm": -2,
    "generalized-mean": -1,
    "projection": -1,
    "gauge-one-form": 0,
    "inverse-metric": 0,
    "graph-hessian": 1,
    "flux": -2,
    "variation-1": 0,
    "variation-2": 0,
    "variation-3": 0,
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


@pytest.mark.parametrize("suite", [check_identities, check_lemma41])
@pytest.mark.parametrize("k", SCALES)
def test_metric_suites_are_scale_free(suite, k):
    # every margin and allowance scales by its power of lambda, so the
    # suite passes or fails alike at every scale
    want = suite(*pole_regular_pair())
    got = suite(*scaled_pair(k))
    assert got.passed and want.passed
    assert [c.label for c in got.checks] == [c.label for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        factor = 2.0 ** (k * DIMENSION[w.label])
        assert (g.margin, g.allowance) == (w.margin * factor, w.allowance * factor), w.label

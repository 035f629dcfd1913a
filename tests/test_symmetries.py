"""Exact symmetries of the numerics, tested as metamorphic relations.

Scaling the metric and the time function by a power of two, lambda = 2^k,
scales every length by lambda exactly in floating point, so a quantity of
a fixed length dimension scales by its power of lambda to the bit.
"""

import pytest

from quasilocal.geometry import AxisymMetric
from quasilocal.optimize import convexity_guard
from quasilocal.verify import check_lemma41
from test_pinned_reports import pole_regular_pair

SCALES = range(-30, 41)


def scaled_pair(k):
    """The pinned pole-regular pair with P, Q and tau scaled by 2^k."""
    m, tau = pole_regular_pair()
    lam = 2.0**k
    return AxisymMetric(m.grid, lam * m.P, lam * m.Q), lam * tau


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

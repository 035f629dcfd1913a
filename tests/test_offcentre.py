"""Off-centre spheres in Schwarzschild: reference data anchored by their known limits.

tests/reference.py builds them from closed forms, with no embedding solve.
Centred, they are the round spheres of schwarzschild_sphere; large, their
energy approaches the centred closed form at the same area radius like
rho^-3.  They break the paper's hypothesis H0 > |H| on every probed
sphere, which the suites report and which is not a defect.
"""

import numpy as np
import pytest

from reference import offcentre_sphere
from quasilocal.energy import qle
from quasilocal.geometry import make_grid
from quasilocal.physdata import schwarzschild_sphere
from quasilocal.verify import check_theorem1, check_theorem3


def rest_energy(d):
    """E(0) of the data."""
    return qle(d, np.zeros(d.metric.grid.n_nodes)).total


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("mass, radius", [(0.5, 3.0), (1.0, 30.0), (1.0, 4.0), (2.0, 5.0)])
def test_the_centred_sphere_is_the_round_schwarzschild_sphere(mass, radius, n):
    grid = make_grid(n)
    psi = 1.0 + mass / (2.0 * radius)
    round_one = schwarzschild_sphere(grid, mass, psi * psi * radius)
    centred = offcentre_sphere(grid, mass, 0.0, radius)
    assert np.array_equal(centred.metric.P, round_one.metric.P)
    assert np.array_equal(centred.metric.Q, round_one.metric.Q)
    assert np.max(np.abs(centred.norm_H / round_one.norm_H - 1.0)) <= 1e-15
    assert not np.any(centred.alpha_H)
    assert rest_energy(centred) == pytest.approx(rest_energy(round_one), rel=2e-14, abs=0.0)


def test_a_large_sphere_approaches_the_centred_closed_form_like_rho_cubed():
    # rho^3 (E(0)/8 pi - r_A (1 - sqrt(1 - 2m/r_A))) reads 57.6, 50.6 and 50.0
    # at rho = 30, 100 and 1000 for m = 1, R_c = 10
    grid = make_grid(32)

    def excess(radius):
        d = offcentre_sphere(grid, 1.0, 10.0, radius)
        r_a = d.metric.area_radius
        return rest_energy(d) / (8.0 * np.pi) - r_a * (1.0 - np.sqrt(1.0 - 2.0 / r_a))

    assert excess(100.0) > excess(1000.0) > 0.0
    assert excess(100.0) / excess(1000.0) == pytest.approx(1e3, rel=0.02)


@pytest.mark.parametrize("radius", [4.0, 1.0, 0.25])
def test_the_suites_report_the_broken_hypothesis(radius):
    # mean-curvature-gap reads -4.43e-3, -8.38e-4 and -2.06e-4: the data
    # lie outside the paper's hypothesis, so both suites fail on it, while
    # theorem3's comparison of the s-family still holds
    d = offcentre_sphere(make_grid(32), 1.0, 10.0, radius)
    theorem1, theorem3 = check_theorem1(d, np.zeros(32)), check_theorem3(d)
    checks = {report.name: {c.label: c for c in report.checks} for report in (theorem1, theorem3)}
    for report in (theorem1, theorem3):
        assert checks[report.name]["mean-curvature-gap"].margin < 0.0
        assert not report.passed
    for label in ("ode", "positivity", "monotonicity"):
        assert checks["theorem3"][label].ok

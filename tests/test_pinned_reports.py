"""Suite reports pinned to the byte.

Each entry is the sha256 of the format_report text, the worst margin and
the pass flag of one suite on fixed inputs, captured before the suites'
tolerances and step sizes became module constants and before theorem3
shared each sample's evaluation with its scaled family.  The theorem1
and theorem3 Schwarzschild hashes and the theorem3 flat hash were
captured again when Legendre synthesis became a product with the grid's
Vandermonde matrix and theorem3's family derivative the barycentric
differentiation matrix; their worst margins and pass flags did not
move.  The theorem1, theorem3 and lemma41 hashes were captured again
when each sample family became one stacked evaluation, the allowances of
length-valued margins were scaled by the sphere's radius and the reports
gained the worst sample's index; no pass flag moved, and the
theorem3 Schwarzschild worst check became alpha-rest (margin -0) once
zero-value's allowance grew four-fold.  Both theorem3 hashes were
captured again when F'(s) and G'(s) became the energy's weak first
variation along each profile instead of a Chebyshev derivative in s:
only the zero-derivative, ode and reference-derivative margins moved,
each closer to 0.  The theorem3 flat hash was captured again when the
monotonicity energies were evaluated on the s = 1 rows alone: only its
monotonicity margin and strict-increase-min detail moved, at rounding
level.  The identities, lemma41, theorem1 Schwarzschild and both
theorem3 hashes, and the identities worst margin, were captured again
when every theta-derivative became -sin(theta) times the x-derivative
(one differentiation matrix instead of two), the default theorem3
profiles came from Legendre synthesis and the residual formed P_hat^2
once; margins moved at rounding level, and no pass flag or worst check
moved.  A change that moves any printed margin, allowance or
detail fails here; the worst margin is compared first so that a failure
says how far it moved.
"""

import hashlib

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from quasilocal.geometry import AxisymMetric, make_grid
from quasilocal.physdata import schwarzschild_sphere
from quasilocal.verify import (
    check_identities,
    check_lemma41,
    check_theorem1,
    check_theorem3,
    format_report,
)

PINNED = {
    "theorem1-schwarzschild": (
        "582c7dfbed6a4dc3434fb3bda3dcb9e8c03f2eaebe7814f544b11b65df2c71a6", -8.526512829121202e-14, True
    ),
    "theorem3-schwarzschild": (
        "42121293bbc645e66b9905eb97f651534f33845027b38850ce6b50386281298c", -0.0, True
    ),
    "theorem1-flat": (
        "ced48cc9f04f13622be234e3e5de124f77f0a188d4dc62309835659890e77a7d", -7.822631431508853e-13, False
    ),
    "theorem3-flat": (
        "6831e086cf5b0c249af3c6889cbeb4aec728a06141f0baba34770bd0edac9d0a", -7.822631431508853e-13, False
    ),
    "identities": (
        "66190328ec4d2119c356f4f760285356206b629779a6e0ccc996299bddceec4a", -2.688667066763628e-10, True
    ),
    "lemma41": (
        "09eed55ab72e00d32ef49cc6b015c3df102504ef6c3b3bd2c68cb12572d1b454", -5.551115123125783e-17, True
    ),
}


def pole_regular_pair():
    """A pole-regular metric with tau = 0.2 P1 + 0.1 P3, synthesized by numpy."""
    grid = make_grid(32)
    x = grid.x
    Q = 1.0 + npleg.legval(x, [0.0, 0.04, 0.01, -0.005])
    P = Q * (1.0 + (1.0 - x * x) * npleg.legval(x, [0.0, 0.03, -0.01, 0.002]))
    return AxisymMetric(grid, P, Q), npleg.legval(x, [0.0, 0.2, 0.0, 0.1])


def run_suite(name):
    grid = make_grid(32)
    if name in ("identities", "lemma41"):
        m, tau = pole_regular_pair()
        return (check_identities if name == "identities" else check_lemma41)(m, tau)
    suite, source = name.split("-")
    mass, radius = (1.0, 4.0) if source == "schwarzschild" else (0.0, 1.0)
    d = schwarzschild_sphere(grid, mass, radius)
    if suite == "theorem1":
        return check_theorem1(d, np.zeros(grid.n_nodes))
    return check_theorem3(d)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_is_pinned(name):
    digest, worst_margin, passed = PINNED[name]
    report = run_suite(name)
    assert report.worst_margin == worst_margin
    assert report.passed is passed
    assert hashlib.sha256(format_report(report).encode()).hexdigest() == digest

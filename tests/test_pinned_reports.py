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
moved.  The identities and lemma41 hashes were captured again when
their allowances became 1e-8 r^p, r the sphere's radius and p the
length dimension of each bounded quantity; only allowance lines moved.
The identities and the four theorem1 and theorem3 hashes were captured
again when identities lost its generalized-mean line (a restatement of
projection), the reports their equality.* lines (restatements of
theorem1's equality and theorem3's zero-value), every theorem1 and
theorem3 allowance became c r^p and theorem1's equality case moved from
tau0 + 3 to tau0 + 3r; no other margin, worst margin or pass flag moved.
A change that moves any printed margin, allowance or detail fails here; the worst margin is compared first so that a failure
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
        "e6c7537276d5d9cd1f4188ed0c7101392c6297d28286c026b87bca6f6664642d", -8.526512829121202e-14, True
    ),
    "theorem3-schwarzschild": (
        "78a29835ac2152b2998d2c04d212a9fba940d9fb1185ad734a198ea2760b277a", -0.0, True
    ),
    "theorem1-flat": (
        "c469070f648961101102e1418874f57b1a37f0cba2b27029e73dc7e7639c974c", -7.822631431508853e-13, False
    ),
    "theorem3-flat": (
        "f3c5cc213a63cdff8eea27ebd783aea88c4c5b86c39f12dd553b6c89c49d4589", -7.822631431508853e-13, False
    ),
    "identities": (
        "370e1ecbc05327706cf2b22db77d57b24dd39af175938d11e7c8752ff4b8591b", -2.688667066763628e-10, True
    ),
    "lemma41": (
        "3adfe00508ae621e37c104f42bc0f89eb6c0b9039234394ae8458e0b7a2fa082", -5.551115123125783e-17, True
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

"""Suite reports pinned to the byte.

Each entry is the sha256 of the format_report text, the worst margin and
the pass flag of one suite on fixed inputs, captured before the suites'
tolerances and step sizes became module constants and before theorem3
shared each sample's evaluation with its scaled family.  The theorem1
and theorem3 Schwarzschild hashes and the theorem3 flat hash were
captured again when Legendre synthesis became a product with the grid's
Vandermonde matrix and theorem3's family derivative the barycentric
differentiation matrix; their worst margins and pass flags did not
move.  A change that
moves any printed margin, allowance or detail fails here; the worst
margin is compared first so that a failure says how far it moved.
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
        "f5cdde6ce12574301b385dee4849e1213f529ca539868e400e5f63c3c084a0c9", -8.526512829121202e-14, True
    ),
    "theorem3-schwarzschild": (
        "83b4d6a3aab6b0d0a14d1358041989da3281b3301532952aa18a89f21cbfadc7", -8.526512829121202e-14, True
    ),
    "theorem1-flat": (
        "acb09d8e0b4aa2ad87bfff0f0768774ecc5e2e1df8779615797974e229a93bb5", -7.822631431508853e-13, False
    ),
    "theorem3-flat": (
        "f10cf9c5605ffd393a2de84f3f2981888f7ca28db51cc83a623a1ebc41649103", -7.822631431508853e-13, False
    ),
    "identities": (
        "5870cf2a58d8ec6e8da5013829da8d766d2521dbb3ccfb7cbd3ea496071a0e4d", -2.6860913493464977e-10, True
    ),
    "lemma41": (
        "7023918291140747422955ff99ffe8738bffd51a0f1d4624ae6fd982bbe0bc81", -5.551115123125783e-17, True
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

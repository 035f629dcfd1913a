"""Minimizer results pinned to the last digit.

The constants were captured when the minimizer took Newton steps on a
Hessian built from the weak-form gradient (central differences of the
gradient over one stacked evaluation), the gradient's divergence part
being summed by parts against the mode derivatives.  No other change may
move a single bit of them, since a change that moves these digits
changes which minimizations fail.  The three runs are a Schwarzschild
sphere, a converging Minkowski lift and a Minkowski lift that used to
stall: its energy reaches the rounding floor before its gradient reaches
the tolerance, and the Newton decrement ends it there.  They were
captured again when the start became row 0 of the stacked evaluation of
its Hessian, whose rows round differently from a lone evaluation; every
run kept its iterations and stop.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import quasilocal.embedding as embedding_module
from quasilocal.geometry import AxisymMetric, make_grid, round_sphere
from quasilocal.optimize import TauCoefficients, minimize_energy
from quasilocal.physdata import minkowski_surface_data, schwarzschild_sphere

MAX_ITERATIONS = 100


def lift_data(bq, rho, c0):
    """Lift data of the pole-regular metric and time function with these modes."""
    grid = make_grid(32)
    x = grid.x
    Q = 1.0 + npleg.legval(x, np.concatenate([[0.0], bq]))
    P = Q * (1.0 + (1.0 - x * x) * npleg.legval(x, np.concatenate([[0.0], rho])))
    tau0 = npleg.legval(x, np.concatenate([[0.0], c0]))
    return minkowski_surface_data(AxisymMetric(grid, P, Q), tau0)


INPUTS = {
    "schwarzschild": (
        lambda: schwarzschild_sphere(make_grid(32), 0.6173657700641427, 7.744889840342816),
        (-0.01771643142487651, -0.007691858636389257, -0.0008698229567062122,
         0.0024631736274178823, 0.0012512473380396716, -0.0011785710031529209,
         -0.0009839758001076108, 0.00011596619088201643),
    ),
    "converging-lift": (
        lambda: lift_data(
            [0.04486580947967701, 0.0019014495659868819, -0.005442473308943988],
            [0.03138688505909836, -0.012354868884736851, 0.0004285824345347584],
            [-0.10429236662229018, -0.05667130935150224, -0.00712322603671706],
        ),
        (-0.06405510714577045, -0.05990720748268515, -0.0029760559465176473,
         -0.0016193328667394446, -0.0012783829497576879, 0.00029128235214584994,
         0.00039513883599572085, -0.0005775760271676146),
    ),
    "stalled-lift": (
        lambda: lift_data(
            [-0.0266559394788613, 0.00041245237340034884, 0.0022306323629077748],
            [-0.047053504331979246, -0.009799061225507985, 0.0038741106286958216],
            [0.24402659019655457, -0.07391699707042125, -0.012519511503611858],
        ),
        (0.21494125895574873, -0.06492587085809057, -0.01600661018712573,
         0.0018882850677557157, -0.0010739178403622277, 0.0008333614814374999,
         -0.00023285112270266992, -0.00026700702869089757),
    ),
}


@dataclass(frozen=True)
class Pinned:
    iterations: int
    stop: str
    calibration_rel_error: float
    hessian_min_eigenvalue: float
    tau_star: tuple
    energy_trace: tuple


PINNED = {
    'converging-lift': Pinned(
        iterations=2,
        stop="gradient",
        calibration_rel_error=1.4569215811555303e-08,
        hessian_min_eigenvalue=2.0263514304220806e-05,
        tau_star=(
            -0.06432216199108348,
            -0.054970598999834495,
            -0.007076352838583226,
            -0.00010407694485326533,
            9.539270175206533e-07,
            3.9464887507529165e-07,
            3.175244299885907e-08,
            3.827134445687596e-09,
        ),
        energy_trace=(
            0.0025626191287386746,
            9.058087613311727e-09,
            4.263256414560601e-14,
        ),
    ),
    'schwarzschild': Pinned(
        iterations=1,
        stop="decrement",
        calibration_rel_error=2.0459426339260516e-08,
        hessian_min_eigenvalue=0.2780587300364043,
        tau_star=(
            1.386415825758297e-06,
            1.4816954511335384e-07,
            -5.243264965325116e-09,
            -4.248126669274127e-08,
            -1.6067522321102853e-08,
            1.5369228048003544e-08,
            1.83458477417877e-08,
            4.902760529872899e-09,
        ),
        energy_trace=(
            16.18986246119374,
            16.189339150877544,
        ),
    ),
    'stalled-lift': Pinned(
        iterations=2,
        stop="decrement",
        calibration_rel_error=1.4825209444211738e-08,
        hessian_min_eigenvalue=4.1498296817060085e-09,
        tau_star=(
            0.21143806472875476,
            -0.07243797739659615,
            -0.012466675205969469,
            -9.099296168495134e-05,
            -5.9801493902130385e-06,
            -3.0418361805294386e-07,
            4.895674208295954e-08,
            2.3996578894478417e-08,
        ),
        energy_trace=(
            0.0024077010119292197,
            1.3583916214088276e-07,
            7.460698725481052e-14,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_minimize_energy_is_bit_identical(name):
    build, start = INPUTS[name]
    report = minimize_energy(build(), TauCoefficients(start), max_iterations=MAX_ITERATIONS)
    pinned = PINNED[name]
    assert report.iterations == pinned.iterations
    assert report.stop == pinned.stop
    assert report.calibration_rel_error == pinned.calibration_rel_error
    assert report.hessian_min_eigenvalue == pinned.hessian_min_eigenvalue
    assert report.tau_star.coeffs == pinned.tau_star
    assert report.energy_trace == pinned.energy_trace
    assert report.energy_star == pinned.energy_trace[-1]


def test_stalled_lift_stops_on_the_decrement(monkeypatch):
    # the quasi-Newton minimizer accepted zero moves at this run's floor,
    # up to 253 lifted fields until the cap; Newton steps lift the stack
    # of the start and its perturbations and, per iteration, one accepted
    # trial and the stack at the new iterate, whose decrement ends the run
    build, start = INPUTS["stalled-lift"]
    d = build()
    lifted = []
    original = embedding_module.embed_r3

    def counting_embed_r3(m):
        lifted.append(None)
        return original(m)

    monkeypatch.setattr(embedding_module, "embed_r3", counting_embed_r3)
    report = minimize_energy(d, TauCoefficients(start), max_iterations=MAX_ITERATIONS)
    assert report.stop == "decrement"
    assert len(lifted) == 1 + 2 * report.iterations


@pytest.mark.parametrize("name", ["u_prime", "u_second", "P_theta", "K"])
def test_cached_metric_fields_are_read_only(name):
    m = round_sphere(make_grid(16), 2.0)
    with pytest.raises(ValueError):
        getattr(m, name)[0] = 0.0


@pytest.mark.parametrize(
    "name",
    [
        "nodes",
        "x",
        "sin_theta",
        "weights",
        "diff_matrix",
        "diff_matrix_x",
        "legendre_vandermonde",
        "legendre_vandermonde_dx",
        "one_minus_x_sq",
        "minus_sin_theta",
        "minus_x",
    ],
)
def test_shared_grid_arrays_are_read_only(name):
    grid = make_grid(16)
    assert grid is make_grid(16)
    with pytest.raises(ValueError):
        getattr(grid, name)[0] = 0.0

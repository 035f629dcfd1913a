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
run kept its iterations and stop.  They were captured again when every
theta-derivative became -sin(theta) times the x-derivative and the
residual formed P_hat^2 once; again every run kept its iterations and
stop.  They were captured again when the difference step became 1e-5
times the area radius and an unmodified model was kept near the minimum:
the lifts, whose models are modified and rebuilt at every iterate, kept
their iterations and stop, and the Schwarzschild run, which ended on the
decrement after one iteration with P1 = 1.386e-6, now takes a second
step on the model of its start and ends on the gradient with
P1 = -8.0e-11.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import quasilocal.embedding as embedding_module
from conftest import regular_metric, weighted_modes
from quasilocal.geometry import AxisymMetric, lazy, make_grid, round_sphere
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
        calibration_rel_error=1.4579983584120647e-08,
        hessian_min_eigenvalue=2.0263549758822798e-05,
        tau_star=(
            -0.0643221619924652,
            -0.05497059899989157,
            -0.007076352838584799,
            -0.00010407694484965031,
            9.539270174198399e-07,
            3.9464887504542653e-07,
            3.1752442956869636e-08,
            3.827134432049095e-09,
        ),
        energy_trace=(
            0.0025626191287386746,
            9.058084060598048e-09,
            3.907985046680551e-14,
        ),
    ),
    'schwarzschild': Pinned(
        iterations=2,
        stop="gradient",
        calibration_rel_error=3.877547794936402e-09,
        hessian_min_eigenvalue=0.278047620062403,
        tau_star=(
            -8.030051625886647e-11,
            -7.771547480379671e-12,
            4.132864784352679e-13,
            2.227495334622278e-12,
            8.499816140973464e-13,
            -8.163196769894333e-13,
            -1.0044762803685472e-12,
            -3.31427710824079e-13,
        ),
        energy_trace=(
            16.18986246119374,
            16.189339150877544,
            16.189339150877146,
        ),
    ),
    'stalled-lift': Pinned(
        iterations=2,
        stop="decrement",
        calibration_rel_error=1.5309677982592837e-08,
        hessian_min_eigenvalue=4.056422741885469e-09,
        tau_star=(
            0.21143806478783003,
            -0.07243797739922517,
            -0.012466675206053686,
            -9.099296151970056e-05,
            -5.980149379357366e-06,
            -3.0418361786931135e-07,
            4.895674189791376e-08,
            2.3996578447261114e-08,
        ),
        energy_trace=(
            0.0024077010119292197,
            1.3583916569359644e-07,
            6.039613253960852e-14,
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


def seeded_runs():
    """24 (data, start): 16 Schwarzschild spheres, then 8 lifts.

    Each start perturbs the exact minimizer by modes weighted by 1/l^2, at
    scales 0.05, 0.3 and 1.0 in turn, so the runs take from 2 to 5 steps,
    on kept and rebuilt models.
    """
    rng = np.random.default_rng(20241019)
    grid = make_grid(32)
    runs = []
    scales = (0.05, 0.3, 1.0)
    for i in range(16):
        mass = rng.uniform(0.1, 1.0)
        radius = rng.uniform(3.0 * mass + 0.5, 10.0)
        start = weighted_modes(rng, 8, scales[i % 3])
        runs.append((schwarzschild_sphere(grid, mass, radius), start))
    for i in range(8):
        bq, rho = weighted_modes(rng, 3, 0.05), weighted_modes(rng, 3, 0.05)
        c0 = weighted_modes(rng, 3, 0.3)
        d = minkowski_surface_data(regular_metric(grid, bq, rho), grid.time_function(c0))
        runs.append((d, np.concatenate([c0, np.zeros(5)]) + weighted_modes(rng, 8, scales[i % 3])))
    return runs


def report_digest(reports) -> str:
    """sha256 of the reports' numbers (float.hex), iteration counts and stops, in order."""
    h = hashlib.sha256()
    for r in reports:
        numbers = (
            *r.tau_star.coeffs,
            r.energy_star,
            r.calibration_rel_error,
            r.hessian_min_eigenvalue,
            r.residual_norm,
            *r.energy_trace,
        )
        h.update(f"{r.iterations} {r.stop} {len(r.energy_trace)} ".encode())
        h.update(" ".join(float(v).hex() for v in numbers).encode() + b"\n")
    return h.hexdigest()


# captured before the minimizer iterated on coefficient arrays and the
# evaluation chain formed its repeated factors once
SEEDED_RUNS_DIGEST = "1dd02fb36ab25f58518ece28ed23d3a421199d8dcdf8b564bdd9b90277000762"


def test_seeded_runs_are_bit_identical():
    reports = [
        minimize_energy(d, TauCoefficients(start), max_iterations=MAX_ITERATIONS)
        for d, start in seeded_runs()
    ]
    assert {r.stop for r in reports} <= {"gradient", "decrement", "rounding-floor"}
    assert report_digest(reports) == SEEDED_RUNS_DIGEST


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


# every array-valued field a metric keeps, found by introspection so a new one is covered
METRIC_ARRAY_FIELDS = [
    name for name, field in vars(AxisymMetric).items()
    if isinstance(field, lazy) and name != "area_radius"
]


@pytest.mark.parametrize("name", METRIC_ARRAY_FIELDS)
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
        "diff_matrix_x",
        "legendre_vandermonde",
        "legendre_vandermonde_dx",
        "one_minus_x_sq",
        "minus_sin_theta",
    ],
)
def test_shared_grid_arrays_are_read_only(name):
    grid = make_grid(16)
    assert grid is make_grid(16)
    with pytest.raises(ValueError):
        getattr(grid, name)[0] = 0.0

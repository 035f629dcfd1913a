"""Seeded inputs, jobs and correctness checks of the four workloads.

Every workload turns a seed into a fixed list of jobs (one pass).  A job
runs one unit of user-visible work and returns its raw result; its check
compares that result with an exact anchor and returns the relative
deviations it saw, or raises CheckFailed.  A job may also raise one of
its workload's known failures (the minimizer's LineSearchError, or the
benchmark's IterationLimit); those count as failed jobs, not as wrong
output.

Relative deviation is |value - exact| / max(|exact|, 1): anchors that
are exactly zero are measured on the unit scale of the data.

Why these workloads:

  minimize-sweep     the optimize loop (line search, guard, BFGS,
                     finite-difference calibration) over qle/residual
                     and the embedding; grid construction is negligible
  certify-sweep      the verify suites, which rebuild the same lifts many
                     times; optimize appears only through the guard
  resolution-ladder  one surface at n = 16 .. 128: operator build in
                     make_grid and the matrix products of large grids,
                     with no minimizer or suite loop
  cli-reports        fresh CLI processes: interpreter and numpy start-up,
                     argparse, report formatting, data-table writes and
                     reads
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import legendre as npleg

from quasilocal import energy, geometry, optimize, physdata, verify

GRID_N = 32
MODE_COUNT = 8
LADDER_SIZES = (16, 32, 64, 128)

# A stalled run on flat data can crawl to the default cap of 500
# iterations, about 10 s, which is half a run.  Every converged run seen
# while sizing took at most 56 iterations and every LineSearchError fired
# before iteration 100, so this cap changes no outcome except to end a
# stall sooner; reaching it counts as a failure (IterationLimit).
MAX_ITERATIONS = 100

# matches tests/conftest.py: mode l weighted by 1/l^2 keeps every drawn
# field resolved to rounding on the working grid
METRIC_WEIGHTS = np.array([1.0, 4.0, 9.0])
START_WEIGHTS = np.arange(1, MODE_COUNT + 1, dtype=float) ** 2
START_SCALE = 0.05

ENERGY_TOL = 1e-9  # relative, for E against the closed form or zero

# ladder tolerances on lift data at tau0 for (E, max |residual|, max
# |energy_gradient|).  The drawn surfaces are resolved from n = 32 on; at
# n = 16 truncation error dominates (worst seen while sizing over 450
# surfaces: 7e-8, 2e-4, 2e-5), so that rung is checked loosely and left
# out of the accuracy anchor.  At n = 128 the residual reaches 1e-7
# through the conditioning of the operators.
LADDER_TOLS = {16: (1e-6, 1e-2, 1e-3)}
RESOLVED_TOLS = (ENERGY_TOL, 1e-6, 1e-6)

# identity-type checks of the suites: exact value zero, no finite
# differences involved (lemma41's variation-k checks are central
# differences and stay out of the accuracy anchor)
IDENTITY_CHECKS = {
    "identities": (
        "mean-curvature-norm",
        "generalized-mean",
        "projection",
        "gauge-one-form",
        "inverse-metric",
        "graph-hessian",
    ),
    "lemma41": ("flux",),
    "theorem1": ("criticality", "closed-form", "equality"),
    "theorem3": ("zero-value", "zero-derivative", "reference-derivative"),
}


class CheckFailed(AssertionError):
    """A job's result disagrees with its anchor or expected outcome."""


class IterationLimit(RuntimeError):
    """The minimizer reached MAX_ITERATIONS without meeting its tolerance."""


@dataclass(frozen=True)
class Job:
    """One unit of work: run(mark) -> result, check(result) -> deviations.

    mark(label) names the stage the job is in (the ladder's grid size);
    jobs without stages ignore it.
    """

    kind: str
    run: Callable
    check: Callable
    inputs: str  # exact repr of the parameters the job was built from


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, workdir, runner) -> list[Job]
    known_failures: tuple  # exception class names that count as failed, not wrong
    pass_seconds: float  # wall seconds of one pass on the sizing machine at its usual load
    tail_percentile: int | None = None  # None: the highest with ten of a pass beyond it
    repeats: int = 1  # least passes of a timed run; the tail takes each job's least time


def rng_for(name: str, seed: int) -> np.random.Generator:
    salt = sum((i + 1) * ord(ch) for i, ch in enumerate(name))
    return np.random.default_rng([int(seed), salt])


def strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw in each of count equal slices of (0, 1), shuffled."""
    return (rng.permutation(count) + rng.uniform(0.0, 1.0, count)) / count


def closed_form_energy(mass: float, radius: float) -> float:
    """8 pi r (1 - sqrt(1 - 2m/r)): the energy of a Schwarzschild sphere at tau = 0."""
    return 8.0 * np.pi * radius * (1.0 - np.sqrt(1.0 - 2.0 * mass / radius))


def anchor(label: str, value: float, exact: float, tol: float, out: list) -> None:
    dev = abs(float(value) - exact) / max(abs(exact), 1.0)
    if not dev <= tol:
        raise CheckFailed(f"{label} = {value!r}, exact {exact!r}: deviation {dev:.3g} > {tol:g}")
    out.append(dev)


def sphere_params(rng: np.random.Generator, count: int) -> list:
    """(m, r) with m in [0.1, 1] and r in (3m + 0.5, 10), both stratified."""
    masses = 0.1 + 0.9 * strata(rng, count)
    u = strata(rng, count)
    return [(float(m), float(3.0 * m + 0.5 + v * (9.5 - 3.0 * m))) for m, v in zip(masses, u)]


def metric_coeffs(rng: np.random.Generator):
    bq = 0.05 * rng.uniform(-1.0, 1.0, 3) / METRIC_WEIGHTS
    rho = 0.05 * rng.uniform(-1.0, 1.0, 3) / METRIC_WEIGHTS
    return bq, rho


def tau_coeffs(rng: np.random.Generator) -> np.ndarray:
    return 0.3 * rng.uniform(-1.0, 1.0, 3) / METRIC_WEIGHTS


def start_perturbation(rng: np.random.Generator) -> np.ndarray:
    return START_SCALE * rng.uniform(-1.0, 1.0, MODE_COUNT) / START_WEIGHTS


def regular_metric(grid, bq, rho):
    """Pole-regular metric of tests/conftest.py from its Legendre coefficients."""
    x = grid.x
    Q = 1.0 + npleg.legval(x, np.concatenate([[0.0], bq]))
    P = Q * (1.0 + (1.0 - x * x) * npleg.legval(x, np.concatenate([[0.0], rho])))
    return geometry.AxisymMetric(grid, P, Q)


def tau_field(grid, coeffs) -> np.ndarray:
    # synthesized with numpy rather than the package, so that a change to
    # the package cannot change the benchmark's inputs
    return npleg.legval(grid.x, np.concatenate([[0.0], coeffs]))


def padded(coeffs) -> optimize.TauCoefficients:
    full = np.zeros(MODE_COUNT)
    full[: len(coeffs)] = coeffs
    return optimize.TauCoefficients(tuple(full))


# ---------------------------------------------------------------------------
# minimize-sweep
# ---------------------------------------------------------------------------

# Failed and stalled runs cost 5-50 typical jobs each and come at seed-
# dependent counts; a shorter pass leaves throughput spreading more than
# 20% between seeds.  One pass takes about 40 s, longer than a run.
MINIMIZE_JOBS = 480
MINIMIZE_LIFT_EVERY = 4  # every fourth datum is a Minkowski lift

# The tail rule (ten of the 480 jobs beyond it) gives p97, which lands on
# the failed runs: 13 to 28 per pass depending on the seed, each 5 to 50
# typical jobs long.  Whether p97 is a failed run or a converged one then
# depends on the seed: over seeds 1-10 it ranged from 47 to 268 ms, a
# quartile spread of 0.29 and 0.41 in two sets, beyond any allowed bound.
# p90 stays among the converged runs on every seed; the failed runs show
# in ok_fraction and throughput, and each run's detail line still gives
# p97 under "tail_at_rule".
MINIMIZE_TAIL = 90


def _minimize_job(kind, data, start, exact, inputs) -> Job:
    init = optimize.TauCoefficients(tuple(start))

    def run(mark):
        report = optimize.minimize_energy(data, init, max_iterations=MAX_ITERATIONS)
        if report.iterations >= MAX_ITERATIONS:
            raise IterationLimit(f"no convergence in {MAX_ITERATIONS} iterations")
        return report

    def check(report):
        out = []
        anchor("energy_star", report.energy_star, exact, ENERGY_TOL, out)
        return out

    return Job(kind, run, check, inputs)


def build_minimize(seed: int, workdir, runner) -> list:
    rng = rng_for("minimize-sweep", seed)
    grid = geometry.make_grid(GRID_N)
    lifts = MINIMIZE_JOBS // MINIMIZE_LIFT_EVERY
    spheres = iter(sphere_params(rng, MINIMIZE_JOBS - lifts))
    jobs = []
    for i in range(MINIMIZE_JOBS):
        if i % MINIMIZE_LIFT_EVERY == MINIMIZE_LIFT_EVERY - 1:
            bq, rho = metric_coeffs(rng)
            c0 = tau_coeffs(rng)
            data = physdata.minkowski_surface_data(regular_metric(grid, bq, rho), tau_field(grid, c0))
            start = np.asarray(padded(c0).coeffs) + start_perturbation(rng)
            inputs = repr((bq.tolist(), rho.tolist(), c0.tolist(), start.tolist()))
            jobs.append(_minimize_job("minimize-lift", data, start, 0.0, inputs))
        else:
            m, r = next(spheres)
            data = physdata.schwarzschild_sphere(grid, m, r)
            start = start_perturbation(rng)
            inputs = repr((m, r, start.tolist()))
            jobs.append(_minimize_job("minimize-schwarzschild", data, start, closed_form_energy(m, r), inputs))
    return jobs


# ---------------------------------------------------------------------------
# certify-sweep
# ---------------------------------------------------------------------------

# Two passes of 16 blocks fill a run: the tail takes each job's least
# time over its two runs (see run.py), which more blocks run once cannot.
CERTIFY_BLOCKS = 16
# per block: three spheres through theorem1 and theorem3, two (metric,
# tau) pairs through identities and lemma41, one flat sphere through
# theorem1 and theorem3


def _identity_deviations(report) -> list:
    return [max(-float(c.margin), 0.0) for c in report.checks if c.label in IDENTITY_CHECKS[report.name]]


def _expect_outcome(report, failing: set) -> None:
    bad = {c.label for c in report.checks if not c.ok}
    if bad != failing:
        raise CheckFailed(f"{report.name}: failing checks {sorted(bad)}, expected {sorted(failing)}")


def _theorem_job(kind, suite, data, exact, failing=frozenset()) -> Job:
    inputs = repr((float(data.metric.P[0]), float(data.norm_H[0])))
    tau0 = np.zeros(data.metric.grid.n_nodes)

    def run(mark):
        if suite == "theorem1":
            return verify.check_theorem1(data, tau0)
        return verify.check_theorem3(data)

    def check(report):
        _expect_outcome(report, set(failing))
        out = _identity_deviations(report)
        if suite == "theorem3":
            rest = dict(report.details)["rest-energy"]
            anchor("rest-energy", rest, exact, ENERGY_TOL, out)
        return out

    return Job(kind, run, check, inputs)


def _pair_job(suite, metric, tau) -> Job:
    inputs = repr((metric.P.tolist(), metric.Q.tolist(), tau.tolist()))

    def run(mark):
        if suite == "identities":
            return verify.check_identities(metric, tau)
        return verify.check_lemma41(metric, tau)

    def check(report):
        _expect_outcome(report, set())
        return _identity_deviations(report)

    return Job(suite, run, check, inputs)


def build_certify(seed: int, workdir, runner) -> list:
    rng = rng_for("certify-sweep", seed)
    grid = geometry.make_grid(GRID_N)
    spheres = iter(sphere_params(rng, 3 * CERTIFY_BLOCKS))
    flat_radii = 1.0 + 9.0 * strata(rng, CERTIFY_BLOCKS)
    jobs = []
    for block in range(CERTIFY_BLOCKS):
        for _ in range(3):
            m, r = next(spheres)
            data = physdata.schwarzschild_sphere(grid, m, r)
            exact = closed_form_energy(m, r)
            jobs.append(_theorem_job("theorem1", "theorem1", data, exact))
            jobs.append(_theorem_job("theorem3", "theorem3", data, exact))
        for _ in range(2):
            bq, rho = metric_coeffs(rng)
            metric = regular_metric(grid, bq, rho)
            tau = tau_field(grid, tau_coeffs(rng))
            jobs.append(_pair_job("identities", metric, tau))
            jobs.append(_pair_job("lemma41", metric, tau))
        flat = physdata.schwarzschild_sphere(grid, 0.0, float(flat_radii[block]))
        gap = frozenset({"mean-curvature-gap"})
        jobs.append(_theorem_job("theorem1-flat", "theorem1", flat, 0.0, gap))
        jobs.append(_theorem_job("theorem3-flat", "theorem3", flat, 0.0, gap))
    return jobs


# ---------------------------------------------------------------------------
# resolution-ladder
# ---------------------------------------------------------------------------

LADDER_JOBS = 450  # run twice, as certify-sweep is


def _ladder_job(bq, rho, c0) -> Job:
    coeffs = padded(c0)

    def run(mark):
        rows = []
        for n in LADDER_SIZES:
            mark(n)
            grid = geometry.make_grid(n)
            metric = regular_metric(grid, bq, rho)
            tau0 = optimize.tau_from_coefficients(grid, coeffs)
            data = physdata.minkowski_surface_data(metric, tau0)
            rows.append(
                (
                    n,
                    energy.qle(data, tau0).total,
                    float(np.max(np.abs(energy.residual(data, tau0)))),
                    float(np.max(np.abs(optimize.energy_gradient(data, coeffs)))),
                    optimize.convexity_guard(metric, tau0),
                )
            )
        mark(None)
        return rows

    def check(rows):
        out = []
        for n, e, res, grad, guard in rows:
            tol_e, tol_r, tol_g = LADDER_TOLS.get(n, RESOLVED_TOLS)
            sink = out if n not in LADDER_TOLS else []
            anchor(f"n={n} energy", e, 0.0, tol_e, sink)
            anchor(f"n={n} residual", res, 0.0, tol_r, sink)
            anchor(f"n={n} gradient", grad, 0.0, tol_g, sink)
            if not guard > 0.0:
                raise CheckFailed(f"n={n}: convexity guard {guard!r} is not positive")
        return out

    return Job("ladder", run, check, repr((bq.tolist(), rho.tolist(), c0.tolist())))


def build_ladder(seed: int, workdir, runner) -> list:
    rng = rng_for("resolution-ladder", seed)
    jobs = []
    for _ in range(LADDER_JOBS):
        bq, rho = metric_coeffs(rng)
        jobs.append(_ladder_job(bq, rho, tau_coeffs(rng)))
    return jobs


# ---------------------------------------------------------------------------
# cli-reports
# ---------------------------------------------------------------------------

CLI_GROUPS = 10  # seven CLI processes per group
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliRunner:
    """Starts one CLI process at a time and waits for it.

    peak_rss_mb is the largest peak resident size of the CLI children so
    far, read from each child's own resource usage, so that other child
    processes of the benchmark do not count.  With launcher set, children
    run under the benchmark's tracing launcher and on_trace receives the
    path of each child's aggregates.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"), OPENBLAS_NUM_THREADS="1")
        self.launcher = None
        self.on_trace = None
        self.peak_rss_mb = 0.0
        self._count = 0

    def __call__(self, argv: list) -> CliResult:
        if self.launcher is None:
            command = [sys.executable, "-m", "quasilocal.cli", *argv]
            trace_path = None
        else:
            self._count += 1
            trace_path = self.workdir / f"trace-{self._count}.json"
            command = [sys.executable, str(self.launcher), str(trace_path), *argv]
        out_path, err_path = self.workdir / "cli.out", self.workdir / "cli.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(command, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if trace_path is not None and trace_path.exists():
            self.on_trace(trace_path)
        return CliResult(proc.returncode, out_path.read_text(), err_path.read_text())


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def tau_spec(coeffs) -> str:
    terms = []
    for degree, c in enumerate(coeffs, start=1):
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign}{abs(float(c))!r}*P{degree}")
    return "".join(terms)


def _expect_exit(result: CliResult, code: int = 0) -> dict:
    if result.code != code:
        raise CheckFailed(f"exit {result.code}, expected {code}: {result.stderr.strip()[-300:]}")
    return parse_report(result.stdout)


def _cli_job(kind, runner, argv, check) -> Job:
    def run(mark):
        return runner(argv)

    return Job(kind, run, check, repr(argv))


def _cli_group(runner, path: Path, m: float, r: float, start) -> list:
    exact = closed_form_energy(m, r)
    data = ["--data", str(path)]
    first = {}

    def check_gen(result):
        _expect_exit(result)
        with open(path) as fh:
            if fh.readline().strip() != f"# n={GRID_N}":
                raise CheckFailed(f"{path}: missing grid declaration")
        return []

    def check_energy(result):
        report = _expect_exit(result)
        out = []
        anchor("total", float(report["total"]), exact, ENERGY_TOL, out)
        anchor("cross_check_total", float(report["cross_check_total"]), exact, ENERGY_TOL, out)
        first["energy"] = result.stdout
        return out

    def check_residual(result):
        report = _expect_exit(result)
        out = []
        anchor("residual_max", float(report["residual_max"]), 0.0, ENERGY_TOL, out)
        return out

    def run_minimize(mark):
        # the = form keeps argparse from reading a leading minus as an option
        result = runner(["minimize", *data, f"--tau={tau_spec(start)}", "--max-iterations", str(MAX_ITERATIONS)])
        if result.code == 2 and "no acceptable step" in result.stderr:
            raise optimize.LineSearchError(result.stderr.strip())
        report = _expect_exit(result)
        if int(report["iterations"]) >= MAX_ITERATIONS:
            raise IterationLimit(f"no convergence in {MAX_ITERATIONS} iterations")
        return result

    def check_minimize(result):
        report = _expect_exit(result)
        out = []
        anchor("energy", float(report["energy"]), exact, ENERGY_TOL, out)
        return out

    def check_suite(name):
        def check(result):
            report = _expect_exit(result)
            if report.get("pass") != "true":
                raise CheckFailed(f"{name}: pass = {report.get('pass')}, worst {report.get('worst_check')}")
            for key, value in report.items():
                label = key.partition("margin.")[2]
                if label and not float(value) >= -float(report[f"allowance.{label}"]):
                    raise CheckFailed(f"{name}: {key} = {value} below its allowance")
            out = []
            for label in IDENTITY_CHECKS[name]:
                out.append(max(-float(report[f"margin.{label}"]), 0.0))
            if name == "theorem3":
                anchor("rest-energy", float(report["detail.rest-energy"]), exact, ENERGY_TOL, out)
            return out

        return check

    def check_repeat(result):
        _expect_exit(result)
        if result.stdout != first.get("energy"):
            raise CheckFailed("repeated energy report differs from the first")
        return []

    return [
        _cli_job("gen-data", runner, ["gen-data", "--schwarzschild", f"m={m!r},r={r!r}", "--out", str(path)], check_gen),
        _cli_job("energy", runner, ["energy", *data], check_energy),
        _cli_job("residual", runner, ["residual", *data], check_residual),
        Job("minimize", run_minimize, check_minimize, repr((data, start.tolist()))),
        _cli_job("theorem1", runner, ["verify", "--suite", "theorem1", *data], check_suite("theorem1")),
        _cli_job("theorem3", runner, ["verify", "--suite", "theorem3", *data], check_suite("theorem3")),
        _cli_job("energy-repeat", runner, ["energy", *data], check_repeat),
    ]


def build_cli(seed: int, workdir, runner) -> list:
    rng = rng_for("cli-reports", seed)
    jobs = []
    for k, (m, r) in enumerate(sphere_params(rng, CLI_GROUPS)):
        path = Path(workdir) / f"data-{k}.txt"
        jobs.extend(_cli_group(runner, path, m, r, start_perturbation(rng)))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("minimize-sweep", build_minimize, ("LineSearchError", "IterationLimit"), 40.0, MINIMIZE_TAIL),
        Workload("certify-sweep", build_certify, (), 10.0, repeats=2),
        Workload("resolution-ladder", build_ladder, (), 10.0, repeats=2),
        Workload("cli-reports", build_cli, ("LineSearchError", "IterationLimit"), 20.0),
    )
}

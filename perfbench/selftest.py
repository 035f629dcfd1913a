"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

Checks, on a few jobs of every workload:
  - the same seed builds the same inputs, and another seed other inputs;
  - two traced runs of the same jobs give the same exact counts: calls
    per function, caller edges, distinct lifts, failures by type;
  - each workload's checker rejects a result off by 1e-6;
  - after a traced run every binding is the original function again.
It also reruns the known minimizer failure and prints its outcome.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import quasilocal  # noqa: E402
import quasilocal.cli  # noqa: E402,F401
import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

JOBS_PER_WORKLOAD = 8

# LineSearchError at the default tolerance; converges at tol 1e-6
KNOWN_FAILURE = {
    "mass": 0.5606394622302311,
    "radius": 9.612721135054489,
    "start": (-2.135e-2, 6.730e-3, -1.254e-3, -2.875e-4, 7.865e-4, -1.513e-4, 6.073e-5, -4.429e-4),
}


def known_failure_job():
    grid = quasilocal.geometry.make_grid(W.GRID_N)
    m, r = KNOWN_FAILURE["mass"], KNOWN_FAILURE["radius"]
    data = quasilocal.physdata.schwarzschild_sphere(grid, m, r)
    return W._minimize_job("known-failure", data, KNOWN_FAILURE["start"], W.closed_form_energy(m, r), repr((m, r)))


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)
    print(f"ok: {message}")


def bindings() -> dict:
    """Every attribute of the package's modules and of Grid, by identity."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if mod is not None and (key == "quasilocal" or key.startswith("quasilocal.")):
            for name, value in vars(mod).items():
                out[(key, name)] = id(value)
    for name, value in vars(quasilocal.geometry.Grid).items():
        out[("Grid", name)] = id(value)
    return out


def sample(jobs: list) -> list:
    """The first jobs of a pass, plus one of every kind further on."""
    picked = list(jobs[:JOBS_PER_WORKLOAD])
    kinds = {j.kind for j in picked}
    for job in jobs:
        if job.kind not in kinds:
            picked.append(job)
            kinds.add(job.kind)
    return picked


def traced_counts(workload, jobs: list, runner) -> tuple:
    before = bindings()
    stats, agg = run.traced_pass(workload, jobs, runner, speed.SpeedProbe())
    expect(bindings() == before, f"{workload.name}: every binding restored after the traced run")
    calls = {name: rec["calls"] for name, rec in agg["functions"].items()}
    counts = (calls, agg["edges"], agg["lift_calls"], agg["lift_distinct"], dict(stats.tally), stats.wrong)
    return counts, agg


def tampered(job, result):
    """The job's result with its first anchored value moved by 1e-6."""
    if isinstance(result, quasilocal.optimize.MinimizeReport):
        return dataclasses.replace(result, energy_star=result.energy_star + 1e-6)
    if isinstance(result, quasilocal.verify.TheoremReport):
        details = tuple((k, v + 1e-6 if k == "rest-energy" else v) for k, v in result.details)
        checks = tuple(
            dataclasses.replace(c, margin=c.margin - 1e-6) if c.label in W.IDENTITY_CHECKS[result.name] else c
            for c in result.checks
        )
        return dataclasses.replace(result, details=details, checks=checks)
    if isinstance(result, W.CliResult):
        lines = []
        for line in result.stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if key in ("total", "energy", "residual_max", "detail.rest-energy"):
                line = f"{key} = {float(value) + 1e-6!r}"
            elif key.partition("margin.")[2] in W.IDENTITY_CHECKS["theorem1"]:
                line = f"{key} = {float(value) - 1e-6!r}"
            lines.append(line)
        return dataclasses.replace(result, stdout="\n".join(lines) + "\n")
    rows = list(result)
    n, e, res, grad, guard = rows[1]
    rows[1] = (n, e + 1e-6, res, grad, guard)
    return rows


def check_tamper(workload, jobs: list) -> None:
    for job in jobs:
        try:
            result = job.run(lambda label: None)
        except Exception:  # a known failure leaves nothing to tamper with
            continue
        job.check(result)
        if job.kind == "gen-data":
            continue  # its result is a file, checked for its header only
        try:
            job.check(tampered(job, result))
        except W.CheckFailed:
            print(f"ok: {workload.name}: {job.kind} checker rejects a value off by 1e-6")
            continue
        expect(False, f"{workload.name}: {job.kind} checker rejects a value off by 1e-6")


def main() -> int:
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = W.CliRunner(ROOT, workdir)
        for workload in W.WORKLOADS.values():
            first = workload.build(7, workdir, runner)
            again = workload.build(7, workdir, runner)
            other = workload.build(8, workdir, runner)
            expect(
                [j.inputs for j in first] == [j.inputs for j in again],
                f"{workload.name}: seed 7 builds the same {len(first)} inputs twice",
            )
            expect(
                [j.inputs for j in first] != [j.inputs for j in other],
                f"{workload.name}: seed 8 builds other inputs",
            )
            jobs = sample(first)
            if workload.name == "minimize-sweep":
                jobs.append(known_failure_job())
            counts_a, agg = traced_counts(workload, jobs, runner)
            counts_b, _ = traced_counts(workload, jobs, runner)
            expect(counts_a == counts_b, f"{workload.name}: two traced runs give the same exact counts")
            expect(not counts_a[5], f"{workload.name}: no wrong result ({counts_a[5][:1]})")
            expect(not agg["missing"], f"{workload.name}: every traced function found")
            if workload.name == "minimize-sweep":
                expect(counts_a[4].get("LineSearchError", 0) >= 1, "minimize-sweep: the known failure is tallied")
            check_tamper(workload, jobs)

        grid = quasilocal.geometry.make_grid(W.GRID_N)
        data = quasilocal.physdata.schwarzschild_sphere(grid, KNOWN_FAILURE["mass"], KNOWN_FAILURE["radius"])
        init = quasilocal.optimize.TauCoefficients(KNOWN_FAILURE["start"])
        for tol in (1e-7, 1e-6):
            try:
                report = quasilocal.optimize.minimize_energy(data, init, tol=tol)
                outcome = f"converged in {report.iterations} iterations"
            except quasilocal.optimize.LineSearchError as exc:
                outcome = f"LineSearchError ({exc})"
            print(f"known failure repro at tol {tol:g}: {outcome}")
        print("selftest passed")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())

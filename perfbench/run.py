"""Benchmark of the quasilocal pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/
directory.  The load is a closed loop with one client: one process runs
one job at a time (cli-reports starts one CLI child at a time).  BLAS is
pinned to one thread here and in every child.

--trace 0 runs the workload's seeded job list in order, as many whole
passes as S seconds holds at the workload's nominal pass length (at
least the workload's repeats), and prints the end-to-end metrics.  The
number of jobs depends on S and not on the clock, so two runs of one
seed attempt the same jobs and their failure counts agree exactly.
Set-up time is the median of ten cold starts of a fresh interpreter that
imports the package and builds the same inputs, spread over the run.
Every time is divided by the host's slowdown measured next to it by a
reference that uses no package code (see speed.py); the raw wall-clock
figures go to the detail line.  Throughput is jobs per second of job
time, so the checks, the reference and the cold starts are not counted.
The tail is the highest whole percentile with at least ten of the
distinct jobs beyond it, unless the workload fixes a lower one
(minimize-sweep, see workloads.py), taken over each job's least time
when the list runs more than once (certify-sweep, resolution-ladder).

--trace 1 runs one untraced pass and one traced pass of the same jobs
and prints the per-layer metrics, the tracing overhead and, for the
resolution-ladder, the per-grid-size timing table and accuracy anchors.

The last line of standard output is the result object; the line before
it is a detail object with the environment, job counts, failure tally,
tail percentile and sample count.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 10
FLOOR_DEVIATION = 2.0**-53  # unit roundoff: deviations below it read as exact
LADDER_FUNCTIONS = (
    "geometry.make_grid",
    "embedding.embed_r3",
    "embedding.embed_lifted",
    "embedding.extrinsic_data",
    "energy.qle",
    "energy.residual",
    "optimize.energy_gradient",
    "optimize.convexity_guard",
)


class RunStats:
    """Durations, failures and accuracy of the jobs one loop ran."""

    def __init__(self, known_failures):
        self.known = set(known_failures)
        self.durations = []
        self.speed_samples = []
        self.failed = 0
        self.wrong = []
        self.tally = Counter()
        self.worst = 0.0
        self.elapsed = 0.0

    def record(self, job, result, error, seconds) -> None:
        self.durations.append(seconds)
        if error is None:
            try:
                deviations = job.check(result)
            except Exception as exc:  # any check error is a wrong result
                error = exc
                self.wrong.append(f"{job.kind}: {type(exc).__name__}: {exc}")
            else:
                self.worst = max([self.worst, *deviations])
                return
        elif type(error).__name__ not in self.known:
            self.wrong.append(f"{job.kind}: {type(error).__name__}: {error}")
        self.failed += 1
        self.tally[type(error).__name__] += 1

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def normalized(self) -> list:
        """Job durations divided by the host's slowdown sampled after each."""
        return list(np.asarray(self.durations) / np.asarray(self.speed_samples))

    def slowdown(self) -> float:
        return float(np.median(self.speed_samples))

    def job_times(self, count: int) -> np.ndarray:
        """The least time of each of the count distinct jobs, at reference speed.

        Each run of a job is divided by the larger of the host's slowdown
        sampled before and after it, and a job run in several passes
        keeps its least time (see speed.py).
        """
        samples = np.asarray(self.speed_samples)
        before = np.concatenate([samples[:1], samples[:-1]])
        times = np.asarray(self.durations) / np.maximum(samples, before)
        return times.reshape(-1, count).min(axis=0)

    def tail(self, q: int, count: int) -> float:
        """The q-th percentile of the count distinct jobs' least times."""
        return percentile(self.job_times(count), q)


def run_jobs(jobs, known_failures, probe, passes=1, mark=None, begin_job=None, after_job=None) -> RunStats:
    """Run the job list passes times in order, one job at a time.

    The speed probe is sampled after every job, then after_job(index)
    runs, untimed.
    """
    stats = RunStats(known_failures)
    mark = mark or (lambda label: None)
    clock = time.perf_counter
    start = clock()
    for i in range(passes * len(jobs)):
        job = jobs[i % len(jobs)]
        if begin_job is not None:
            begin_job()
        result = error = None
        t0 = clock()
        try:
            result = job.run(mark)
        except Exception as exc:  # a failed job is counted, not fatal
            error = exc
        dt = clock() - t0
        stats.record(job, result, error, dt)
        stats.speed_samples.append(probe.sample())
        if after_job is not None:
            after_job(i)
    stats.elapsed = clock() - start
    return stats


def traced_pass(workload, jobs, runner, probe) -> tuple:
    """One pass of the jobs under the tracer: (stats, aggregates).

    In-process workloads run with the wrappers installed here and
    restored afterwards; cli-reports starts its children through
    launcher.py and adds up the aggregates each child writes.
    """
    agg = {}
    if workload.name == "cli-reports":
        runner.launcher = HERE / "launcher.py"
        runner.on_trace = lambda path: tracer.merge(agg, json.loads(path.read_text()))
        try:
            stats = run_jobs(jobs, workload.known_failures, probe)
        finally:
            runner.launcher = None
        return stats, agg
    t = tracer.Tracer()

    def mark(label):
        t.stage = label

    t.install()
    try:
        stats = run_jobs(jobs, workload.known_failures, probe, mark=mark, begin_job=t.begin_job)
    finally:
        t.restore()
    return stats, t.snapshot()


def percentile(values, q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten of the samples beyond it."""
    return max(q for q in range(1, 100) if samples * (100 - q) >= 10 * 100)


class ColdStarts:
    """Cold starts of a fresh interpreter that imports the package and builds the inputs.

    sample() runs one and records the seconds until its inputs were
    ready and its import milliseconds, both divided by the host's
    slowdown for child processes, the mean of one sample right before and
    one right after it; the raw seconds are kept as well.  On the sizing
    machine, in two series of 60 cold starts between ladder jobs, the
    bracket kept medians of ten within 6% of each other, against 9% with
    the sample after alone and 25% raw.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.reference = speed.ProcessSpeedProbe()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        self.command = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)]
        self.setups, self.raw, self.imports = [], [], []

    def sample(self) -> None:
        before = self.reference.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"setup probe exited with {code}")
        slowdown = (before + self.reference.sample()) / 2.0
        self.setups.append(ready / slowdown)
        self.raw.append(ready)
        self.imports.append(json.loads(line)["import_ms"] / slowdown)


def environment(seed: int, jobs_per_pass: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "jobs_per_pass": jobs_per_pass,
    }


def end_to_end(stats: RunStats, tail: int, distinct: int, setups: list, peak_rss_mb: float) -> dict:
    d = stats.normalized()
    worst = max(stats.worst, FLOOR_DEVIATION)
    return {
        "throughput_jobs_per_s": (stats.attempted / sum(d), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(d), "ms"),
        "job_tail_ms": (1e3 * stats.tail(tail, distinct), "ms"),
        "ok_fraction": ((stats.attempted - stats.failed) / stats.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy_digits": (-math.log10(worst), "digits"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(agg: dict, jobs: int, slowdown: float, overhead: float, import_ms: float) -> dict:
    funcs = agg.get("functions", {})
    edges = {(a, b): n for a, b, n in agg.get("edges", [])}
    out = {}
    for module, qualname in tracer.PUBLIC:
        name = tracer.span_name(module, qualname)
        rec = funcs.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls_per_job"] = (rec["calls"] / jobs, "count")
        out[f"{name}.self_ms_per_job"] = (1e3 * rec["self_s"] / jobs / slowdown, "ms")
    lifts = agg.get("lift_calls", 0)
    out["embedding.embed_lifted.distinct_ratio"] = (
        agg.get("lift_distinct", 0) / lifts if lifts else 0.0,
        "ratio",
    )
    # every minimize call guards and evaluates its start once and takes
    # one gradient per accepted step plus one at the start; each further
    # guard call is a line-search trial, each further qle call a trial
    # that passed the guard
    runs = funcs.get("optimize.minimize_energy", {"calls": 0})["calls"]
    trials = edges.get(("optimize.minimize_energy", "optimize.convexity_guard"), 0) - runs
    evaluated = edges.get(("optimize.minimize_energy", "energy.qle"), 0) - runs
    accepted = edges.get(("optimize.minimize_energy", "optimize.energy_gradient"), 0) - runs
    out["optimize.line_search.accept_ratio"] = (accepted / trials if trials > 0 else 0.0, "ratio")
    out["optimize.line_search.guard_reject_ratio"] = (
        (trials - evaluated) / trials if trials > 0 else 0.0,
        "ratio",
    )
    out["optimize.minimize_energy.iterations_per_job"] = (accepted / jobs, "count")
    out["cli.import_ms"] = (import_ms, "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def ladder_report(agg: dict, slowdown: float, W) -> dict:
    """ms per call at each grid size, and the accuracy anchors."""
    table = {}
    for name, stage, calls, total in agg.get("stages", []):
        if name in LADDER_FUNCTIONS and stage is not None:
            table.setdefault(str(stage), {})[name] = 1e3 * total / calls / slowdown
    mass, radius = 1.0, 4.0
    exact = W.closed_form_energy(mass, radius)
    anchors = {}
    for n in W.LADDER_SIZES:
        grid = W.geometry.make_grid(n)
        data = W.physdata.schwarzschild_sphere(grid, mass, radius)
        anchors[f"n={n}.energy_at_zero_minus_closed_form"] = (
            W.energy.qle(data, np.zeros(n)).total - exact
        )
    grid = W.geometry.make_grid(W.GRID_N)
    data = W.physdata.schwarzschild_sphere(grid, mass, radius)
    for report in (W.verify.check_theorem1(data, np.zeros(W.GRID_N)), W.verify.check_theorem3(data)):
        anchors[f"n={W.GRID_N}.{report.name}.worst_margin"] = report.worst_margin
        anchors[f"n={W.GRID_N}.{report.name}.worst_check"] = report.worst.label
    return {"ms_per_call": table, "anchors": anchors, "data": f"schwarzschild m={mass} r={radius}"}


def print_ladder_report(report: dict) -> None:
    sizes = sorted(report["ms_per_call"], key=int)
    print("ms per call at reference speed (traced pass, inclusive)")
    print(f"{'function':28s}" + "".join(f"{'n=' + s:>10s}" for s in sizes))
    for name in LADDER_FUNCTIONS:
        cells = [report["ms_per_call"][s].get(name) for s in sizes]
        print(f"{name:28s}" + "".join(f"{c:10.4f}" if c is not None else f"{'-':>10s}" for c in cells))
    print(f"accuracy anchors ({report['data']})")
    for key, value in report["anchors"].items():
        print(f"  {key} = {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quasilocal" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quasilocal
    import workloads as W

    if Path(quasilocal.__file__).resolve().parent != (SRC / "quasilocal").resolve():
        print(f"error: quasilocal imported from {quasilocal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload]

    workroot = ROOT / ".bench_work"
    workdir = workroot / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = W.CliRunner(ROOT, workdir)
        jobs = workload.build(args.seed, workdir, runner)
        in_process = workload.name != "cli-reports"
        probe = speed.SpeedProbe() if in_process else speed.ProcessSpeedProbe()
        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": environment(args.seed, len(jobs)),
        }
        if args.trace == 0:
            # the cold starts are spread over the run, so that their
            # median does not hang on the host's speed in one stretch of
            # a few seconds
            passes = max(workload.repeats, round(args.seconds / workload.pass_seconds))
            cold = ColdStarts(workload.name, args.seed, workdir)
            every = passes * len(jobs) // SETUP_PROBES

            def cold_start(i):
                if i % every == 0 and len(cold.setups) < SETUP_PROBES:
                    cold.sample()

            stats = run_jobs(jobs, workload.known_failures, probe, passes=passes, after_job=cold_start)
            if in_process:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                peak_rss_mb = runner.peak_rss_mb
            tail = tail_percentile(len(jobs)) if workload.tail_percentile is None else workload.tail_percentile
            metrics = end_to_end(stats, tail, len(jobs), cold.setups, peak_rss_mb)
            detail.update(
                jobs_run=stats.attempted,
                passes=passes,
                tail_percentile=tail,
                samples=len(jobs),
                setup_probes_s=cold.setups,
                slowdown_median=stats.slowdown(),
                raw={
                    "elapsed_s": stats.elapsed,
                    "throughput_jobs_per_s": stats.attempted / sum(stats.durations),
                    "job_p50_ms": 1e3 * statistics.median(stats.durations),
                    "job_tail_ms": 1e3 * percentile(stats.durations, tail),
                    "setup_s": statistics.median(cold.raw),
                },
            )
            if tail != tail_percentile(len(jobs)):
                rule = tail_percentile(len(jobs))
                detail["tail_at_rule"] = {"percentile": rule, "ms": 1e3 * stats.tail(rule, len(jobs))}
            runs = [stats]
        else:
            plain = run_jobs(jobs, workload.known_failures, probe)
            traced, agg = traced_pass(workload, jobs, runner, probe)
            cold = ColdStarts(workload.name, args.seed, workdir)
            for _ in range(SETUP_PROBES):
                cold.sample()
            imports = cold.imports
            overhead = sum(traced.normalized()) / sum(plain.normalized())
            metrics = per_layer(agg, len(jobs), traced.slowdown(), overhead, statistics.median(imports))
            detail.update(
                jobs_run=plain.attempted + traced.attempted,
                untraced_s=plain.elapsed,
                traced_s=traced.elapsed,
                slowdown_median=traced.slowdown(),
                import_ms_probes=imports,
                spans=agg,
            )
            if workload.name == "resolution-ladder":
                report = ladder_report(agg, traced.slowdown(), W)
                print_ladder_report(report)
                detail["ladder"] = report
            runs = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = [msg for r in runs for msg in r.wrong]
    tally = sum((r.tally for r in runs), Counter())
    worst = max(r.worst for r in runs)
    detail.update(failures=dict(tally), wrong=wrong[:5], wrong_count=len(wrong), worst_deviation=worst)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

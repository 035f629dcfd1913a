"""Run the benchmark over several seeds and write one result file.

    python3 perfbench/collect.py --out .bench_results/NAME.json [--seeds 1-10]
        [--workloads a,b] [--trace 0|1]

Each (seed, workload) pair is one fresh run of run.py for BENCHMARK.json's
run_seconds, seed-major so that drift in the machine's speed lands on
every workload alike.  The result file holds BENCHMARK.json, every run's
result and detail lines, and per workload and metric the median and
quartiles of the runs.  The printed table gives each end-to-end
metric's spread, the distance between its first and third quartile as a
share of its median, against its bound.  compare.py reads two such
files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list) -> dict:
    """workload -> metric -> {median, q1, q3, spread, values, unit}."""
    table = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            cell = table.setdefault(run["workload"], {}).setdefault(name, {"values": [], "unit": m["unit"]})
            cell["values"].append(m["value"])
    for metrics in table.values():
        for cell in metrics.values():
            q1, q2, q3 = quartiles(cell["values"])
            cell.update(median=q2, q1=q1, q3=q3, spread=(q3 - q1) / abs(q2) if q2 else float("inf"))
    return table


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "result": json.loads(lines[-1]),
        "detail": json.loads(lines[-2])["detail"],
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            r = run["result"]
            print(f"seed {seed:3d} {workload:18s} correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)
            runs.append(run)

    summary = summarize(runs)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{'workload':18s} {'metric':24s} {'median':>12s} {'unit':7s} {'spread':>8s} {'bound':>6s}")
    for workload, metrics in summary.items():
        for name, cell in metrics.items():
            if name not in bounds:
                continue
            if cell["spread"] < bounds[name] / 3:
                flag = ""
            elif cell["spread"] <= bounds[name]:
                flag = "  (over a third of bound)"
            else:
                flag = "  (WIDER THAN BOUND)"
            print(
                f"{workload:18s} {name:24s} {cell['median']:12.6g} {cell['unit']:7s} "
                f"{cell['spread']:8.4f} {bounds[name]:6.2f}{flag}"
            )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in runs[0]["detail"]["env"].items() if k not in ("seed", "jobs_per_pass")}
    env["seeds"] = parse_seeds(args.seeds)
    env["jobs_per_pass"] = {run["workload"]: run["detail"]["env"]["jobs_per_pass"] for run in runs}
    doc = {"benchmark": bench, "env": env, "runs": runs, "summary": summary}
    out.write_text(json.dumps(doc, indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

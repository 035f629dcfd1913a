"""In-process A/B timing of two source trees of the quasilocal package.

    python tools/ab.py PARENT_SRC CHANGE_SRC [--rounds R] [--calls K]

PARENT_SRC and CHANGE_SRC are directories that hold a `quasilocal`
package, such as the `src` of two checkouts.  Each tree is loaded in this
one process under its own module name, and PARENT_SRC once more as a
control, so the three loads share the interpreter, the numpy build and
the host's load at every moment.  Each load builds the same seeded inputs
through its own API (numpy draws the parameters; the package builds the
grids, data and starts) and times four bodies:

  minimize   10 minimize_energy runs at n = 32: 8 Schwarzschild spheres
             and 2 Minkowski lifts, each from a perturbed start
  theorem1   check_theorem1 at tau0 = 0 on fresh Schwarzschild data
  theorem3   check_theorem3 on fresh Schwarzschild data
  ladder     one lift at n = 16, 32, 64 and 128 through qle, residual,
             energy_gradient and convexity_guard

A round times every body on every load, in an order that rotates from
round to round, and a body's time in a round is the least of K calls.
For each body the report gives the median over rounds of the change's
time over the parent's, the rounds each side was faster, and whether the
two trees returned the same bits.  The A/A lines time the second load of
PARENT_SRC against the first: their spread is what a difference must
exceed before it means anything.  The exit status is 1 when the two
loads of PARENT_SRC return different results, 0 otherwise.

OpenBLAS runs on one thread, as in the benchmark, unless
OPENBLAS_NUM_THREADS says otherwise.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre as npleg

SEED = 1
MODES = 8
LADDER_SIZES = (16, 32, 64, 128)
BODIES = ("minimize", "theorem1", "theorem3", "ladder")


def load(src: str, name: str):
    """The quasilocal package under src, imported as the module name with its submodules."""
    init = Path(src) / "quasilocal" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {src}: no quasilocal package here")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("geometry", "physdata", "energy", "optimize", "verify"):
        importlib.import_module(f"{name}.{module}")
    return package


def draws(seed: int) -> dict:
    """The bodies' parameters as plain numbers, the same for every tree."""
    rng = np.random.default_rng(seed)
    weights = np.array([1.0, 4.0, 9.0])

    def sphere():
        m = 0.1 + 0.9 * rng.uniform()
        return float(m), float(3.0 * m + 0.5 + rng.uniform() * (9.5 - 3.0 * m))

    def surface():
        bq, rho, c0 = (scale * rng.uniform(-1.0, 1.0, 3) / weights for scale in (0.05, 0.05, 0.3))
        return bq, rho, c0

    def start():
        return 0.05 * rng.uniform(-1.0, 1.0, MODES) / np.arange(1, MODES + 1) ** 2

    return {
        "spheres": [(*sphere(), start()) for _ in range(8)],
        "lifts": [(*surface(), start()) for _ in range(2)],
        "theorem": sphere(),
        "ladder": surface(),
    }


def lift(q, grid, bq, rho, c0):
    """Minkowski data of the pole-regular metric with coefficients bq, rho at the time function c0."""
    x = grid.x
    Q = 1.0 + npleg.legval(x, np.concatenate([[0.0], bq]))
    P = Q * (1.0 + (1.0 - x * x) * npleg.legval(x, np.concatenate([[0.0], rho])))
    tau0 = npleg.legval(x, np.concatenate([[0.0], c0]))
    return q.physdata.minkowski_surface_data(q.geometry.AxisymMetric(grid, P, Q), tau0)


def bodies(q, params: dict) -> dict:
    """name -> a call that runs the body on the package q and returns its result as plain numbers."""
    grid = q.geometry.make_grid(32)
    runs = [(q.physdata.schwarzschild_sphere(grid, m, r), start) for m, r, start in params["spheres"]]
    for bq, rho, c0, start in params["lifts"]:
        runs.append((lift(q, grid, bq, rho, c0), np.concatenate([c0, np.zeros(MODES - 3)]) + start))
    runs = [(d, q.optimize.TauCoefficients(tuple(start))) for d, start in runs]
    failures = (q.optimize.GuardViolationError, q.optimize.LineSearchError)
    m, r = params["theorem"]
    bq, rho, c0 = params["ladder"]
    padded = q.optimize.TauCoefficients(tuple(np.concatenate([c0, np.zeros(MODES - 3)])))

    def minimize():
        out = []
        for d, init in runs:
            try:
                report = q.optimize.minimize_energy(d, init, max_iterations=100)
            except failures as exc:
                out.append(type(exc).__name__)
            else:
                out.append((report.energy_star, report.iterations, report.stop, report.tau_star.coeffs))
        return out

    def theorem(check, *args):
        return lambda: q.verify.format_report(check(q.physdata.schwarzschild_sphere(grid, m, r), *args))

    def ladder():
        rows = []
        for n in LADDER_SIZES:
            d = lift(q, q.geometry.make_grid(n), bq, rho, c0)
            tau0 = d.lift.tau
            rows.append((
                q.energy.qle(d, tau0).total,
                np.abs(q.energy.residual(d, tau0)).max().item(),
                np.abs(q.optimize.energy_gradient(d, padded)).max().item(),
                float(q.optimize.convexity_guard(d.metric, tau0)),
            ))
        return rows

    return {
        "minimize": minimize,
        "theorem1": theorem(q.verify.check_theorem1, np.zeros(32)),
        "theorem3": theorem(q.verify.check_theorem3),
        "ladder": ladder,
    }


def least_time(body, calls: int) -> float:
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_SRC")
    parser.add_argument("change", metavar="CHANGE_SRC")
    parser.add_argument("--rounds", type=int, default=20, help="interleaved rounds (default 20)")
    parser.add_argument("--calls", type=int, default=15,
                        help="calls per body per round, the least kept (default 15)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be at least 1")

    params = draws(SEED)
    loads = {
        "parent": load(args.parent, "quasilocal_ab_parent"),
        "change": load(args.change, "quasilocal_ab_change"),
        "control": load(args.parent, "quasilocal_ab_control"),
    }
    runs = {side: bodies(q, params) for side, q in loads.items()}
    results = {side: {name: body() for name, body in run.items()} for side, run in runs.items()}

    times = {side: {name: [] for name in BODIES} for side in loads}
    order = list(loads)
    for round_ in range(args.rounds):
        gc.collect()
        for name in BODIES:
            for side in order[round_ % 3:] + order[: round_ % 3]:
                times[side][name].append(least_time(runs[side][name], args.calls))

    print(f"ab: parent {args.parent}, change {args.change}, seed {SEED}, "
          f"{args.rounds} rounds, least of {args.calls} calls")
    print(f"{'':4}{'body':10}{'ratio':>8}{'faster':>8}{'slower':>8}{'parent ms':>11}  same bits")
    for label, side in (("A/B", "change"), ("A/A", "control")):
        for name in BODIES:
            ours, base = times[side][name], times["parent"][name]
            ratio = statistics.median(a / b for a, b in zip(ours, base))
            won = sum(a < b for a, b in zip(ours, base))
            same = "yes" if results[side][name] == results["parent"][name] else "no"
            print(f"{label:4}{name:10}{ratio:8.3f}{won:8d}{args.rounds - won:8d}"
                  f"{1e3 * statistics.median(base):11.3f}  {same}")
    return 0 if results["control"] == results["parent"] else 1


if __name__ == "__main__":
    sys.exit(main())

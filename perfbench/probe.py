"""One cold start of a workload: import the package, build the inputs.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Prints one JSON line, {"import_ms": ...}, as soon as the inputs are
ready, then exits.  run.py times it from process start to that line.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
import quasilocal  # noqa: E402,F401

import_ms = 1e3 * (time.perf_counter() - start)

import workloads  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    runner = workloads.CliRunner(Path(__file__).resolve().parent.parent, workdir)
    workloads.WORKLOADS[name].build(seed, workdir, runner)
    print(f'{{"import_ms": {import_ms!r}}}', flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run the quasilocal CLI under the benchmark's tracer.

    python3 perfbench/launcher.py TRACE_OUT CLI_ARGS...

Wraps the traced functions, runs quasilocal.cli.main(CLI_ARGS), restores
every original and writes the tracer's aggregates to TRACE_OUT as JSON.
The exit status is the CLI's.
"""

import json
import sys

import quasilocal.cli

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_job()
    try:
        code = quasilocal.cli.main(argv)
    finally:
        tracer.restore()
        with open(out, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two result files written by collect.py.

    python3 perfbench/compare.py BASE.json NEW.json

Prints one row per workload and metric: both medians, the ratio new/base
and a verdict.  For end-to-end metrics the verdict follows the
benchmark's rules for a change against its parent:

  better        every run of NEW beats every run of BASE; or NEW wins at
                least nine tenths of the seed-matched pairs and the
                medians differ by more than BASE's quartile distance
  worse         NEW's median is worse than BASE's by more than the bound
  unresolved    the quartile distance of either side, as a share of its
                median, is wider than the bound
  within bound  none of the above: no regression beyond the bound, and
                no gain shown

Per-layer metrics have no bound; their rows give the ratio and say
"same" when both medians are equal, which counts repeated exactly.
"""

from __future__ import annotations

import json
import sys

from collect import summarize


def worse_share(base: float, new: float, better: str) -> float:
    """How much worse new is than base, as a share of base (negative: better)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(base_runs: dict, new_runs: dict, base: dict, new: dict, spec: dict) -> str:
    better, bound = spec["better"], spec["bound"]
    if all(beats(n, b, better) for n in new["values"] for b in base["values"]):
        return "better"
    if base["spread"] > bound or new["spread"] > bound:
        return "unresolved"
    if worse_share(base["median"], new["median"], better) > bound:
        return "worse"
    pairs = [(base_runs[s], new_runs[s]) for s in base_runs if s in new_runs]
    wins = sum(beats(n, b, better) for b, n in pairs)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and beats(new["median"], base["median"], better)
        and abs(new["median"] - base["median"]) > base["q3"] - base["q1"]
    ):
        return "better"
    return "within bound"


def by_seed(doc: dict, workload: str, metric: str) -> dict:
    return {
        run["seed"]: run["result"]["metrics"][metric]["value"]
        for run in doc["runs"]
        if run["workload"] == workload and metric in run["result"]["metrics"]
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_doc, new_doc = (json.loads(open(path).read()) for path in argv)
    specs = {m["name"]: m for m in base_doc["benchmark"]["end_to_end"]}
    base_sum, new_sum = summarize(base_doc["runs"]), summarize(new_doc["runs"])
    print(f"{'workload':18s} {'metric':50s} {'base':>12s} {'new':>12s} {'ratio':>8s}  verdict")
    for workload, metrics in base_sum.items():
        for name, base in metrics.items():
            new = new_sum.get(workload, {}).get(name)
            if new is None:
                continue
            ratio = new["median"] / base["median"] if base["median"] else float("nan")
            if name in specs:
                label = verdict(
                    by_seed(base_doc, workload, name), by_seed(new_doc, workload, name), base, new, specs[name]
                )
            else:
                label = "same" if new["median"] == base["median"] else ""
            print(f"{workload:18s} {name:50s} {base['median']:12.6g} {new['median']:12.6g} {ratio:8.4f}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

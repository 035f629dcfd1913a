"""Per-layer tracing of the quasilocal package from outside its source.

A Tracer replaces each listed public function by a timing wrapper at
every name that binds it: the defining module and every package module
that imported it with ``from .x import f``.  Methods are replaced on
their class.  The benchmark's job code calls the package through module
attributes, so it reaches the wrappers too.  The wrappers keep a call
stack in memory, so a function's self time is its own duration minus
the durations of the wrapped calls it made.  Nothing is written while
the program runs; ``snapshot`` returns the aggregates for the caller to
write out when the run ends.

Besides calls and times the tracer counts, per (caller, callee) edge,
how often one wrapped function called another, and for embed_lifted how
many of its calls within one job saw a (metric, tau) pair not seen
before in that job.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "quasilocal"

# (module, qualified name) of every function the benchmark reports on
PUBLIC = (
    ("geometry", "make_grid"),
    ("geometry", "Grid.integral_from_north"),
    ("geometry", "Grid.legendre_coeffs"),
    ("geometry", "integrate_surface"),
    ("geometry", "laplacian"),
    ("geometry", "hessian"),
    ("geometry", "gauss_curvature"),
    ("geometry", "hat_gauss_curvature"),
    ("embedding", "embed_r3"),
    ("embedding", "embed_lifted"),
    ("embedding", "extrinsic_data"),
    ("embedding", "mean_curvature"),
    ("physdata", "schwarzschild_sphere"),
    ("physdata", "minkowski_surface_data"),
    ("physdata", "store_physical_data"),
    ("physdata", "load_physical_data"),
    ("energy", "qle"),
    ("energy", "qle_angle_form"),
    ("energy", "residual"),
    ("energy", "reference_mean_curvature_integral"),
    ("optimize", "minimize_energy"),
    ("optimize", "energy_gradient"),
    ("optimize", "convexity_guard"),
    ("optimize", "tau_from_coefficients"),
    ("verify", "check_identities"),
    ("verify", "check_lemma41"),
    ("verify", "check_theorem1"),
    ("verify", "check_theorem3"),
    ("verify", "format_report"),
    ("cli", "main"),
)

# private boundaries wrapped only so that calls made inside them are not
# attributed to their caller: the finite-difference calibration calls qle
# sixteen times per minimize, and those calls are not line-search trials
INTERNAL = (("optimize", "_fd_gradient"),)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Stack-based timing wrappers with per-function and per-edge counts."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = Counter()  # (caller or None, callee) -> calls
        self.by_stage = {}  # (name, stage) -> [calls, total_s]
        self.stage = None
        self.lift_calls = 0
        self.lift_distinct = 0
        self.missing = []
        self._lift_keys = set()
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- bookkeeping hooks -------------------------------------------------

    def begin_job(self) -> None:
        """Start a new job: lifts seen by earlier jobs no longer count."""
        self._lift_keys = set()

    def _note_lift(self, args, kwargs) -> None:
        metric = args[0] if args else kwargs["m"]
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        key = (
            metric.P.tobytes(),
            metric.Q.tobytes(),
            np.asarray(tau, dtype=float).tobytes(),
        )
        self.lift_calls += 1
        if key not in self._lift_keys:
            self._lift_keys.add(key)
            self.lift_distinct += 1

    def _wrap(self, name, fn, before=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        by_stage = self.by_stage
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                edges[(caller, name)] += 1
                cell = by_stage.setdefault((name, self.stage), [0, 0.0])
                cell[0] += 1
                cell[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__bench_wrapped__ = True
        return wrapper

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding in the package.

        Targets the package no longer defines are skipped and listed in
        ``missing``; their metrics then read zero.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in {module for module, _ in PUBLIC + INTERNAL}
        }
        importlib.import_module(PACKAGE)
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module, qualname in PUBLIC + INTERNAL:
            name = span_name(module, qualname)
            before = self._note_lift if name == "embedding.embed_lifted" else None
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(modules[module], owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                self._patch(owner, attr, original, self._wrap(name, original, before))
                continue
            original = getattr(modules[module], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, before)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back; raise if any binding stays wrapped."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftover = self.wrapped_bindings()
        self._patched = []
        if leftover:
            raise RuntimeError(f"wrappers left in place: {leftover}")

    def wrapped_bindings(self) -> list:
        """Names in the package (or patched owners) still bound to a wrapper."""
        owners = {id(owner): owner for owner, _, _ in self._patched}
        for key, mod in list(sys.modules.items()):
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + ".")):
                owners[id(mod)] = mod
        found = []
        for owner in owners.values():
            for key, value in list(vars(owner).items()):
                if getattr(value, "__bench_wrapped__", False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{key}")
        return sorted(found)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain JSON-ready data."""
        return {
            "functions": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items(), key=str)],
            "stages": [[name, stage, c, t] for (name, stage), (c, t) in self.by_stage.items()],
            "lift_calls": self.lift_calls,
            "lift_distinct": self.lift_distinct,
            "missing": list(self.missing),
        }


def merge(total: dict, part: dict) -> dict:
    """Add the aggregates of one snapshot into another (both as dicts)."""
    funcs = total.setdefault("functions", {})
    for name, rec in part["functions"].items():
        acc = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += rec[key]
    edges = Counter({(a, b): n for a, b, n in total.get("edges", [])})
    for a, b, n in part["edges"]:
        edges[(a, b)] += n
    total["edges"] = [[a, b, n] for (a, b), n in sorted(edges.items(), key=str)]
    stages = {(name, stage): [c, t] for name, stage, c, t in total.get("stages", [])}
    for name, stage, c, t in part["stages"]:
        cell = stages.setdefault((name, stage), [0, 0.0])
        cell[0] += c
        cell[1] += t
    total["stages"] = [[name, stage, c, t] for (name, stage), (c, t) in stages.items()]
    total["lift_calls"] = total.get("lift_calls", 0) + part["lift_calls"]
    total["lift_distinct"] = total.get("lift_distinct", 0) + part["lift_distinct"]
    total["missing"] = sorted(set(total.get("missing", [])) | set(part["missing"]))
    return total

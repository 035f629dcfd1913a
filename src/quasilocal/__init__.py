"""Quasi-local energy of axially symmetric surfaces.

Spectral evaluation of the energy functional attached to a physical
surface and a choice of time function, minimization of that energy over
axisymmetric time functions, and numerical certification of the
comparison statements the construction satisfies.

Importing the package loads none of its modules.  A public name is
looked up in its module when it is read (PEP 562), every time, so
``quasilocal.qle is quasilocal.energy.qle`` holds even after the module
attribute is rebound, and ``import quasilocal`` costs no more than the
modules a program reads.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module
_EXPORTS = {
    "geometry": (
        "AxisymMetric",
        "Grid",
        "InvalidParameterError",
        "integrate_surface",
        "make_grid",
        "round_sphere",
    ),
    "embedding": (
        "NonEmbeddableError",
        "embed_lifted",
        "embed_r3",
        "extrinsic_data",
        "mean_curvature",
    ),
    "physdata": (
        "PhysicalData",
        "load_physical_data",
        "minkowski_surface_data",
        "schwarzschild_sphere",
        "store_physical_data",
    ),
    "energy": ("EnergyBreakdown", "qle", "residual"),
    "optimize": (
        "GuardViolationError",
        "MinimizeReport",
        "TauCoefficients",
        "convexity_guard",
        "energy_gradient",
        "minimize_energy",
        "tau_from_coefficients",
    ),
    "verify": (
        "TheoremReport",
        "check_identities",
        "check_lemma41",
        "check_theorem1",
        "check_theorem3",
        "format_report",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

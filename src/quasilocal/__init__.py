"""Quasi-local energy of axially symmetric surfaces.

Spectral evaluation of the energy functional attached to a physical
surface and a choice of time function, minimization of that energy over
axisymmetric time functions, and numerical certification of the
comparison statements the construction satisfies.
"""

__version__ = "0.1.0"

from .geometry import (
    AxisymMetric,
    Grid,
    InvalidParameterError,
    integrate_surface,
    make_grid,
    round_sphere,
)
from .embedding import (
    NonEmbeddableError,
    embed_lifted,
    embed_r3,
    extrinsic_data,
    mean_curvature,
)
from .physdata import (
    PhysicalData,
    load_physical_data,
    minkowski_surface_data,
    schwarzschild_sphere,
    store_physical_data,
)
from .energy import EnergyBreakdown, qle, residual
from .optimize import (
    GuardViolationError,
    MinimizeReport,
    TauCoefficients,
    convexity_guard,
    energy_gradient,
    minimize_energy,
    tau_from_coefficients,
)
from .verify import (
    TheoremReport,
    check_identities,
    check_lemma41,
    check_theorem1,
    check_theorem3,
    format_report,
)

__all__ = [
    "__version__",
    "AxisymMetric",
    "Grid",
    "InvalidParameterError",
    "integrate_surface",
    "make_grid",
    "round_sphere",
    "NonEmbeddableError",
    "embed_lifted",
    "embed_r3",
    "extrinsic_data",
    "mean_curvature",
    "PhysicalData",
    "load_physical_data",
    "minkowski_surface_data",
    "schwarzschild_sphere",
    "store_physical_data",
    "EnergyBreakdown",
    "qle",
    "residual",
    "GuardViolationError",
    "MinimizeReport",
    "TauCoefficients",
    "convexity_guard",
    "energy_gradient",
    "minimize_energy",
    "tau_from_coefficients",
    "TheoremReport",
    "check_identities",
    "check_lemma41",
    "check_theorem1",
    "check_theorem3",
    "format_report",
]

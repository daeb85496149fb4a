"""Cone spectral radii, positive eigenvectors, and eigenfunctionals of
homogeneous order-preserving maps on the nonnegative orthant, with a
discretized two-sex population model as the main application."""

__version__ = "0.1.0"

from .cone import (
    ConeSpace,
    ConeVector,
    NormKind,
    diamond_norm,
    leq,
    lower_ratio,
    meet,
    psi_hull,
    u_norm,
)
from .homog_map import (
    HomogeneousMap,
    from_callable,
    from_matrix,
    perturb,
    verify_properties,
)
from .spectral import (
    ResolventBlock,
    SpectralEstimate,
    radius_bracket,
    resolvent_series,
)
from .eigenproblem import (
    EigenMode,
    EigenResult,
    EigenfunctionalEstimate,
    estimate_eigenfunctional,
    solve_eigenvector_perturbation,
    solve_subeigenvector_min,
)
from .twosex import (
    MatingFunction,
    MatingKind,
    MigrationKernel,
    SpatialGrid,
    TwoSexModel,
    assess_persistence,
    build_model,
    simulate,
)
from .oracle import OracleReport, brute_force_bracket, linear_radius_exact
from . import errors

__all__ = [
    "ConeSpace", "ConeVector", "NormKind", "diamond_norm", "leq",
    "lower_ratio", "meet", "psi_hull", "u_norm",
    "HomogeneousMap", "from_callable", "from_matrix", "perturb",
    "verify_properties",
    "ResolventBlock", "SpectralEstimate", "radius_bracket",
    "resolvent_series",
    "EigenMode", "EigenResult", "EigenfunctionalEstimate",
    "estimate_eigenfunctional", "solve_eigenvector_perturbation",
    "solve_subeigenvector_min",
    "MatingFunction", "MatingKind", "MigrationKernel", "SpatialGrid",
    "TwoSexModel", "assess_persistence", "build_model",
    "simulate",
    "OracleReport", "brute_force_bracket", "linear_radius_exact",
    "errors",
]

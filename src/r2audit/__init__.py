"""Submodularity diagnostics for regression feature selection.

Quantifies how hard a feature-selection problem is by treating the
coefficient of determination as a set function: exact violation
certificates, approximate-submodularity constants, two-feature feasibility
grids, selection algorithms with guarantee checks, and spectral bounds.
"""

from .datasets import miller_table, random_gaussian, suppressor_population
from .errors import AuditError
from .gamma import PairDiagnostics, RatioQuery, RatioResult, gamma_pair, submodularity_ratio
from .geometry2d import (
    Grid,
    GridCell,
    TrianglePoint,
    grid_evaluate,
    joint_t_extremes,
    t_ratio_empirical,
    triangle_solve,
)
from .regress import (
    FitCache,
    StandardizedDesign,
    coef_decomposition,
    gram_factory,
    load_csv,
    ls_fit,
    partial_correlation,
    r_squared,
    residualize,
    standardize,
)
from .selection import (
    SelectionTrace,
    best_subset,
    forward_stepwise,
    isis,
    l0_path,
    nwf_check,
    sis_assumption_check,
    sis_screen,
)
from .setfun import (
    Certificates,
    GammaS2Result,
    GammaSResult,
    ViolationCertificate,
    chain_lower_bound,
    check_submodular,
    delta,
    empirical_gamma_s,
    empirical_gamma_s2,
    find_suppressors,
)
from .spectral import (
    ConeSpec,
    gamma_vs_spectral,
    restricted_eigenvalue,
    sparse_min_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "Certificates",
    "ConeSpec",
    "FitCache",
    "GammaS2Result",
    "GammaSResult",
    "Grid",
    "GridCell",
    "PairDiagnostics",
    "RatioQuery",
    "RatioResult",
    "SelectionTrace",
    "StandardizedDesign",
    "TrianglePoint",
    "ViolationCertificate",
    "best_subset",
    "chain_lower_bound",
    "check_submodular",
    "coef_decomposition",
    "delta",
    "empirical_gamma_s",
    "empirical_gamma_s2",
    "find_suppressors",
    "forward_stepwise",
    "gamma_pair",
    "gamma_vs_spectral",
    "gram_factory",
    "grid_evaluate",
    "isis",
    "joint_t_extremes",
    "l0_path",
    "load_csv",
    "ls_fit",
    "miller_table",
    "nwf_check",
    "partial_correlation",
    "r_squared",
    "random_gaussian",
    "residualize",
    "restricted_eigenvalue",
    "sis_assumption_check",
    "sis_screen",
    "sparse_min_eigenvalue",
    "standardize",
    "submodularity_ratio",
    "suppressor_population",
    "t_ratio_empirical",
    "triangle_solve",
]

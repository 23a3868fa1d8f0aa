"""Closed-form score matching for compositional data.

The package fits interaction models on the simplex by matching scores
on the positive orthant of the sphere after a square-root change of
variables. Estimation reduces to one linear solve, so there is no
iterative optimizer to tune and no normalizing constant to evaluate.

Entry points
------------
fit_hybrid, fit_truncated_gaussian, fit_dirichlet
    Closed-form fits from proportion data.
fit_from_counts
    The same linear system assembled from factorial moments of sparse
    count data, bypassing the zero-proportion problem.
run_study
    Replicated simulation studies over the bundled model registry.
sample_model
    Exact draws from any model: the one way into the samplers.
"""

__version__ = "0.1.0"

from .core import (
    ContinuousDataset,
    CountDataset,
    ModelSpec,
    ParameterIndexMap,
    counts_to_proportions,
    index_map,
    sqrt_transform,
)
from .diagnostics import DiagnosticReport, ks_compare, marginal_report, round_to_grid
from .errors import (
    CompscoreError,
    ConfigError,
    DataError,
    DimensionError,
    EnvelopeFailureError,
    FamilyError,
    InfeasibleTruncationError,
    InsufficientTotalsError,
    SamplerError,
    SingularSystemError,
    StudyFailureError,
    UnidentifiableCategoryError,
)
from .fitting import (
    EstimatorWorkspace,
    FitResult,
    build_workspace,
    fit_dirichlet,
    fit_dirichlet_moments,
    fit_hybrid,
    fit_truncated_gaussian,
    solve,
)
from .io import load_synthetic_counts, read_counts_csv, read_proportions_csv
from .moments import (
    EmpiricalMoments,
    FactorialMoments,
    build_workspace_from_moments,
    fit_from_counts,
)
from .registry import RegistryEntry, entries, get, names
from .samplers import (
    RejectionStats,
    RngConfig,
    sample_dirichlet,
    sample_model,
    sample_multinomial_counts,
)
from .study import CellSummary, StudyConfig, StudySummary, run_study
from .weights import WeightSpec, cap_from_quantile, weight_value

__all__ = [
    "__version__",
    "CompscoreError",
    "ConfigError",
    "ContinuousDataset",
    "CountDataset",
    "DataError",
    "DiagnosticReport",
    "DimensionError",
    "EmpiricalMoments",
    "EnvelopeFailureError",
    "EstimatorWorkspace",
    "FactorialMoments",
    "FamilyError",
    "FitResult",
    "InfeasibleTruncationError",
    "InsufficientTotalsError",
    "ModelSpec",
    "ParameterIndexMap",
    "RegistryEntry",
    "RejectionStats",
    "RngConfig",
    "SamplerError",
    "SingularSystemError",
    "StudyConfig",
    "StudyFailureError",
    "StudySummary",
    "CellSummary",
    "UnidentifiableCategoryError",
    "WeightSpec",
    "build_workspace",
    "build_workspace_from_moments",
    "cap_from_quantile",
    "counts_to_proportions",
    "entries",
    "fit_dirichlet",
    "fit_dirichlet_moments",
    "fit_from_counts",
    "fit_hybrid",
    "fit_truncated_gaussian",
    "get",
    "index_map",
    "ks_compare",
    "load_synthetic_counts",
    "marginal_report",
    "names",
    "read_counts_csv",
    "read_proportions_csv",
    "round_to_grid",
    "run_study",
    "sample_dirichlet",
    "sample_model",
    "sample_multinomial_counts",
    "solve",
    "sqrt_transform",
    "weight_value",
]

"""Continuous-time unobserved-component models for irregular isotope panels.

A small state-space toolkit: random-walk-plus-noise and order-m integrated
trends observed through up to four noisy measurements per series per time
stamp, with group-differentiated variances (by source, species bucket, or
climate regime), exact-diffuse Kalman filtering and smoothing, maximum
likelihood estimation, Butterworth-style frequency diagnostics, and
equidistant-grid imputation.
"""

from .core import (
    CLIMATE_STATE_AGES,
    CLIMATE_STATE_NAMES,
    MAX_SLOTS,
    MISSING,
    PanelDataset,
    SERIES_NAMES,
    assign_climate_state,
    collate_rows,
    flatten_records,
)
from .modelspec import (
    ModelSpec,
    ParameterLayout,
    build_layout,
)
from .kalman import (
    CompiledModel,
    ConditioningError,
    FilterRun,
    StatePaths,
    compile_model,
    smooth,
    state_component_names,
    write_state_paths_csv,
)
from .kalman import filter as kalman_filter
from .fitting import (
    FitOptions,
    FitResult,
    InitializationError,
    ParamTransform,
    bic,
    fit,
)
from .butterworth import (
    GainCurve,
    cutoff_frequency,
    gain,
    gain_curve,
    half_gain_frequency,
    mean_increment,
    signal_to_noise,
    write_gain_csv,
)
from .ingest import (
    ParseError,
    SchemaError,
    build_dataset,
    canonicalize_sources,
    ingest,
    parse_csv,
    write_ingest_csv,
)
from .imputation import (
    ImputationTable,
    impute,
    make_grid,
    write_impute_csv,
)
from .oracle import (
    diffuse_exact_gaussian,
    exact_gaussian,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "CLIMATE_STATE_AGES",
    "CLIMATE_STATE_NAMES",
    "MAX_SLOTS",
    "MISSING",
    "PanelDataset",
    "SERIES_NAMES",
    "assign_climate_state",
    "collate_rows",
    "flatten_records",
    # model spec
    "ModelSpec",
    "ParameterLayout",
    "build_layout",
    # kalman
    "CompiledModel",
    "ConditioningError",
    "FilterRun",
    "StatePaths",
    "compile_model",
    "kalman_filter",
    "smooth",
    "state_component_names",
    "write_state_paths_csv",
    # fitting
    "FitOptions",
    "FitResult",
    "InitializationError",
    "ParamTransform",
    "bic",
    "fit",
    # butterworth
    "GainCurve",
    "cutoff_frequency",
    "gain",
    "gain_curve",
    "half_gain_frequency",
    "mean_increment",
    "signal_to_noise",
    "write_gain_csv",
    # ingest
    "ParseError",
    "SchemaError",
    "build_dataset",
    "canonicalize_sources",
    "ingest",
    "parse_csv",
    "write_ingest_csv",
    # imputation
    "ImputationTable",
    "impute",
    "make_grid",
    "write_impute_csv",
    # oracle
    "diffuse_exact_gaussian",
    "exact_gaussian",
    "simulate",
]

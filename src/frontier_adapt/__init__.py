"""Adaptive estimation of a frontier function from one-sided noisy samples.

The estimator fits local polynomials lying above the data by linear
programming, picks the bandwidth with a Lepski-type comparison rule whose
critical values are plugged in from extreme-value estimates of the noise
tail, and ships with a simulation kit for Monte Carlo rate checks.
"""

from .adapt import (
    BandwidthGrid,
    CriticalValues,
    Diagnostics,
    EnvelopeRows,
    EstimatorConfig,
    adaptive_estimate,
    build_grid,
    critical_values_lq,
    critical_values_pointwise,
    iu_n,
    lepski_select,
)
from .errors import (
    DegenerateInput,
    DegenerateWindow,
    DomainError,
    FrontierAdaptError,
    InvalidConfig,
    NonEquidistantDesign,
    NumericalBreakdown,
    ParseError,
    PipelineError,
    UnknownName,
    WindowTooSmall,
)
from .local_poly import PolyFit, Sample, estimate_at, fit_local, window_indices
from .lp import LinearProgram, LpSolution, solve_lp
from .simkit import (
    ErrorModel,
    RiskReport,
    alpha_profile,
    builtin_f,
    draw_errors,
    gen_sample,
    mc_risk,
    rate_fit,
)
from .tail import (
    TailEstimate,
    TailFunction,
    a_hat,
    estimate_b,
    estimate_tail_at,
    neg_hill_inv_alpha,
    tail_m,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthGrid",
    "CriticalValues",
    "Diagnostics",
    "EstimatorConfig",
    "adaptive_estimate",
    "build_grid",
    "critical_values_lq",
    "critical_values_pointwise",
    "iu_n",
    "lepski_select",
    "FrontierAdaptError",
    "InvalidConfig",
    "WindowTooSmall",
    "NumericalBreakdown",
    "DegenerateWindow",
    "DomainError",
    "DegenerateInput",
    "NonEquidistantDesign",
    "ParseError",
    "UnknownName",
    "PipelineError",
    "PolyFit",
    "Sample",
    "estimate_at",
    "EnvelopeRows",
    "fit_local",
    "window_indices",
    "LinearProgram",
    "LpSolution",
    "solve_lp",
    "ErrorModel",
    "RiskReport",
    "alpha_profile",
    "builtin_f",
    "draw_errors",
    "gen_sample",
    "mc_risk",
    "rate_fit",
    "TailEstimate",
    "TailFunction",
    "a_hat",
    "estimate_b",
    "estimate_tail_at",
    "neg_hill_inv_alpha",
    "tail_m",
    "__version__",
]

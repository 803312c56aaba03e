"""Analysis layer: metrics aggregation, statistics, complexity fits,
regret curves, and paper-style table formatting."""

from repro.analysis.complexity import FitResult, fit_linear, fit_power_law, fit_quadratic
from repro.analysis.metrics import (
    GovernorSummary,
    RunSummary,
    SweepTable,
    summarize_run,
)
from repro.analysis.regret_curves import RegretCurve, RegretPoint, run_regret_curve
from repro.analysis.reporting import format_sweep, format_table
from repro.analysis.stats import (
    ChiSquaredResult,
    bootstrap_ci,
    chi_squared_uniformity,
    empirical_tail,
    loglog_slope,
)

__all__ = [
    "ChiSquaredResult",
    "FitResult",
    "GovernorSummary",
    "RegretCurve",
    "RegretPoint",
    "RunSummary",
    "SweepTable",
    "bootstrap_ci",
    "chi_squared_uniformity",
    "empirical_tail",
    "fit_linear",
    "fit_power_law",
    "fit_quadratic",
    "format_sweep",
    "format_table",
    "loglog_slope",
    "run_regret_curve",
    "summarize_run",
]

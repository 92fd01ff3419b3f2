"""Experiment harness: baseline controller, runner, metrics, reports, audit replay."""

from .baseline import (
    DEFAULT_HEADROOM,
    BaselineConfig,
    derive_baseline_allocations,
)
from .metrics import (
    COMPARED_METRICS,
    AggregateComparison,
    ComparisonReport,
    MetricsReport,
    ScenarioMismatch,
    aggregate_comparisons,
    compare,
    compute_metrics,
    percentile_nearest_rank,
)
from .replay import replay_audit
from .report import (
    IoFailure,
    emit_aggregate_report,
    emit_report,
    write_run_artifacts,
)
from .runner import CONTROLLER_MODES, RunResult, reseed, run_experiment

__all__ = [
    "AggregateComparison",
    "BaselineConfig",
    "COMPARED_METRICS",
    "CONTROLLER_MODES",
    "ComparisonReport",
    "DEFAULT_HEADROOM",
    "IoFailure",
    "MetricsReport",
    "RunResult",
    "ScenarioMismatch",
    "aggregate_comparisons",
    "compare",
    "compute_metrics",
    "derive_baseline_allocations",
    "emit_aggregate_report",
    "emit_report",
    "percentile_nearest_rank",
    "replay_audit",
    "reseed",
    "run_experiment",
    "write_run_artifacts",
]

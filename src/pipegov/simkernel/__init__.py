"""Deterministic tick-based simulation of pipelines on shared capacity."""

from pipegov.simkernel.kernel import (
    ActionOutcome,
    ApprovedAction,
    IllegalTransition,
    InconsistentWorld,
    InvalidTarget,
    apply_action,
    check_accounting,
    step,
)
from pipegov.simkernel.world import (
    Cohort,
    Health,
    PendingDrift,
    PipelineSample,
    PipelineState,
    SimConstants,
    SimWorld,
    StageState,
    TelemetrySnapshot,
    TickReport,
    build_world,
)

__all__ = [
    "ActionOutcome",
    "ApprovedAction",
    "Cohort",
    "Health",
    "IllegalTransition",
    "InconsistentWorld",
    "InvalidTarget",
    "PendingDrift",
    "PipelineSample",
    "PipelineState",
    "SimConstants",
    "SimWorld",
    "StageState",
    "TelemetrySnapshot",
    "TickReport",
    "apply_action",
    "check_accounting",
    "build_world",
    "step",
]

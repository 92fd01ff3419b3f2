"""Static-orchestration baseline: fixed allocations plus retry/escalate.

The baseline controller is the shared control chassis with every
reasoning agent disabled — identical incident detection, identical
retry-then-operator fallback, identical policy gate and audit trail.
What makes it "static" is captured here: allocations are frozen at the
start of the run, sized from a fault-free calibration pass so each stage
holds peak demand times a headroom factor, and never change afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.pipeline import ResourceModel
from ..scenario.arrivals import arrival_trace, generate_arrivals
from ..scenario.model import ScenarioSpec
from ..simkernel.kernel import check_accounting, step
from ..simkernel.world import build_world

DEFAULT_HEADROOM = 1.5


@dataclass(frozen=True)
class BaselineConfig:
    """Fixed allocations and the operator model for the baseline run."""

    allocations: dict[str, dict[str, int]]
    max_retries: int = 3
    retry_backoff: int = 5
    operator_delay: int = 120

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 1:
            raise ValueError("retry_backoff must be >= 1")
        if self.operator_delay < 0:
            raise ValueError("operator_delay must be >= 0")

    def validate_against(self, spec: ScenarioSpec) -> None:
        """Check every allocation is within its stage's [min, max] bounds."""

        for pipeline in spec.pipelines:
            stage_allocs = self.allocations.get(pipeline.id)
            if stage_allocs is None:
                raise ValueError(f"no allocations for pipeline {pipeline.id!r}")
            for stage in pipeline.stages:
                units = stage_allocs.get(stage.id)
                if units is None:
                    raise ValueError(
                        f"no allocation for stage {pipeline.id}/{stage.id}"
                    )
                if not stage.min_alloc <= units <= stage.max_alloc:
                    raise ValueError(
                        f"allocation {units} for {pipeline.id}/{stage.id} outside "
                        f"[{stage.min_alloc}, {stage.max_alloc}]"
                    )


def derive_baseline_allocations(
    spec: ScenarioSpec, headroom: float = DEFAULT_HEADROOM
) -> dict[str, dict[str, int]]:
    """Size fixed allocations from a fault-free calibration run.

    The calibration world runs the scenario's arrival process with no
    faults, every stage at max allocation, and enough cluster capacity
    that nothing contends. Peak per-stage demand (processed records over
    base rate, in units) times ``headroom`` — clamped to stage bounds —
    becomes the static allocation.
    """

    max_allocs = {
        p.id: {s.id: s.max_alloc for s in p.stages} for p in spec.pipelines
    }
    total_units = sum(sum(stages.values()) for stages in max_allocs.values())
    calibration_model = ResourceModel(
        capacity=max(spec.resource_model.capacity, total_units),
        unit_price=spec.resource_model.unit_price,
        storage_price=spec.resource_model.storage_price,
    )
    world = build_world(spec.pipelines, calibration_model, max_allocs, spec.sim_constants)

    base_rates = {
        p.id: {s.id: s.base_rate for s in p.stages} for p in spec.pipelines
    }
    peak_units: dict[str, dict[str, int]] = {
        p.id: {s.id: 1 for s in p.stages} for p in spec.pipelines
    }
    # Draws go through this module's name, which perfbench's tracer wraps.
    trace = arrival_trace(spec, generate_arrivals)
    for t in range(spec.horizon):
        report = step(world, trace.at(t))
        for pid, stages in report.stage_processed.items():
            for sid, processed in stages.items():
                if processed <= 0:
                    continue
                units = math.ceil(processed / base_rates[pid][sid])
                if units > peak_units[pid][sid]:
                    peak_units[pid][sid] = units
    check_accounting(world)

    allocations: dict[str, dict[str, int]] = {}
    for pipeline in spec.pipelines:
        stage_allocs: dict[str, int] = {}
        for stage in pipeline.stages:
            want = math.ceil(headroom * peak_units[pipeline.id][stage.id])
            stage_allocs[stage.id] = max(stage.min_alloc, min(stage.max_alloc, want))
        allocations[pipeline.id] = stage_allocs
    return allocations

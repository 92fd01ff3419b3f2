"""Applies scheduled faults to the live world.

Fault application mutates world state before the tick's processing runs;
events are consumed by schedule index, so injecting the same tick twice
is a no-op. Detection and response belong to the control layer — this
module only makes the world misbehave.
"""

from __future__ import annotations

from pipegov.core.pipeline import PipelineKind
from pipegov.core.schema import SchemaError, apply_delta, classify_delta
from pipegov.scenario.model import FaultEvent, FaultKind, ScenarioSpec
from pipegov.simkernel.world import NOT_RUNNING, Health, PendingDrift, SimWorld


class UnknownPipeline(KeyError):
    pass


def _drift_window_end(world: SimWorld, pipeline_id: str, tick: int) -> int:
    """Tagged-arrival window: until the next batch boundary, or a fixed
    span for streaming input."""

    spec = world.pipelines[pipeline_id].spec
    if spec.kind is PipelineKind.BATCH and spec.schedule_period:
        period = spec.schedule_period
        return (tick // period + 1) * period
    return tick + world.constants.drift_span


def _apply_schema_drift(world: SimWorld, event: FaultEvent, tick: int) -> None:
    """A compatible delta moves the live schema on and leaves any pending
    drift alone. An incompatible one, or one that no longer fits the live
    schema (an earlier drift changed it), replaces the pending drift and
    fails the pipeline, so a pending drift is never compatible."""

    p = world.pipelines[event.pipeline]
    try:
        new_schema = apply_delta(p.schema, event.delta)
    except SchemaError:
        new_schema = None
    if new_schema is None or classify_delta(event.delta).incompatible:
        p.pending_drift = PendingDrift(
            partition=event.partition,
            delta=event.delta,
            window_end=_drift_window_end(world, event.pipeline, tick),
        )
        if p.health is Health.HEALTHY:
            p.health = Health.FAILING
        p.failing_cause = "schema_drift"
        p.failing_stage = p.topo[0]
        world.pending_failures.append((event.pipeline, "schema_drift"))
    else:
        p.schema = new_schema


def _apply_upstream_delay(world: SimWorld, event: FaultEvent, tick: int) -> None:
    p = world.pipelines[event.pipeline]
    p.suppress_until = tick + event.delay_ticks
    p.missing_fraction = event.missing_fraction


def _apply_contention(world: SimWorld, event: FaultEvent, tick: int) -> None:
    world.capacity_reductions.append((tick + event.duration_ticks, event.capacity_reduction))


def _apply_task_failure(world: SimWorld, event: FaultEvent) -> None:
    p = world.pipelines[event.pipeline]
    if p.health in NOT_RUNNING:
        return  # nothing is running, so no task can fail
    if p.health is Health.HEALTHY:
        p.health = Health.FAILING
        p.failing_cause = "task_failure"
        p.failing_stage = event.stage
    world.pending_failures.append((event.pipeline, "task_failure"))


def inject_faults(spec: ScenarioSpec, world: SimWorld, tick: int) -> list[FaultEvent]:
    """Apply every not-yet-consumed fault scheduled for this tick.

    Returns the events applied (in schedule order). Consumption is by
    schedule index, so a second call at the same tick applies nothing.
    """

    applied: list[FaultEvent] = []
    for idx, event in enumerate(spec.fault_schedule):
        if event.tick != tick or idx in world.consumed_faults:
            continue
        if event.pipeline is not None and event.pipeline not in world.pipelines:
            raise UnknownPipeline(event.pipeline)
        world.consumed_faults.add(idx)
        if event.kind is FaultKind.SCHEMA_DRIFT:
            _apply_schema_drift(world, event, tick)
        elif event.kind is FaultKind.UPSTREAM_DELAY:
            _apply_upstream_delay(world, event, tick)
        elif event.kind is FaultKind.RESOURCE_CONTENTION:
            _apply_contention(world, event, tick)
        elif event.kind is FaultKind.TRANSIENT_TASK_FAILURE:
            _apply_task_failure(world, event)
        applied.append(event)
    return applied

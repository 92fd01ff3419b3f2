"""State transition function and action application.

One ``step`` call advances the world by one tick. It walks orders stored
once, not sorted or looked up each tick: the world's pipelines in id
order, and each pipeline's stages in topological order, as its ``chain``.

1. per pipeline, in one pass: mature pending health recoveries; enqueue
   arrivals; under an upstream delay or its release plan only, withhold
   and release records and fire batch triggers (a suppressed dataset
   fails the scheduled run); divert quarantined partitions and resolve
   completed drift windows; add busy stages, those with records queued,
   to the contention
2. per pipeline, one walk over its stages in topological order: process
   and route each busy stage's queue (an idle stage is skipped), clear
   due checkpoints, and total queued records and allocation; then verify
   record accounting from that total (fail loudly, not silently). A step
   moves records only in ways that keep the identity, so a break made
   since the last step raises here; ``check_accounting`` adds a full
   recount of every queue and runs at the end of each experiment
3. price the tick, and emit a telemetry snapshot: the capacity headroom
   and one ``PipelineSample`` per pipeline; the snapshot and the
   ``TickReport`` around it are NamedTuples, like the samples, so a
   holder can reassign none of their fields

Controllers mutate the world only through ``apply_action``, and only with
an ``ApprovedAction`` carrying the audit reference of its Allow/approval
decision; the runner enforces that pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from pipegov.core.actions import ActionKind, ProposedAction
from pipegov.core.pipeline import PipelineKind
from pipegov.core.schema import SchemaError, apply_delta
from pipegov.simkernel.world import (
    Cohort,
    Health,
    PipelineSample,
    PipelineState,
    SimWorld,
    StageState,
    TelemetrySnapshot,
    TickReport,
    NOT_RUNNING,
    UNPAID,
)


# Reading a member through its Enum class costs about ten times a global
# read, and the step reads this one for every pipeline on every tick.
_HEALTHY = Health.HEALTHY


class InconsistentWorld(RuntimeError):
    pass


class InvalidTarget(ValueError):
    pass


class IllegalTransition(ValueError):
    pass


@dataclass(frozen=True)
class ApprovedAction:
    action: ProposedAction
    decision_ref: int  # audit seq of the Allow or approval record


@dataclass(frozen=True)
class ActionOutcome:
    action_id: str
    kind: ActionKind
    pipeline: str
    status: str  # "applied" | "failed" | "rejected" (the controller's, when apply_action raises)
    detail: str
    effects: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "action_id": self.action_id,
            "kind": self.kind.value,
            "pipeline": self.pipeline,
            "status": self.status,
            "detail": self.detail,
            "effects": self.effects,
        }

    @property
    def applied(self) -> bool:
        return self.status == "applied"


def _contended_rate(base_rate: int, alloc: int, capacity: int, busy_alloc: int) -> int:
    """Rate under fair-share contention, in exact integer arithmetic.

    The rate is floor(base_rate * alloc * capacity / busy_alloc) once busy
    allocation exceeds capacity, computed without a float factor so an
    exact product never rounds down.
    """

    if busy_alloc <= capacity:
        return base_rate * alloc
    return (base_rate * alloc * capacity) // busy_alloc


def _unbalanced(pid: str, p: PipelineState, queued: int) -> InconsistentWorld:
    return InconsistentWorld(
        f"pipeline {pid}: ingress {p.ingress} != materialized {p.materialized} "
        f"+ queued {queued} + quarantined {p.quarantined} + dropped {p.dropped}"
    )


def check_accounting(world: SimWorld) -> None:
    """Recount every queue against its running total, then check conservation."""

    for pid, p in world.pipelines.items():
        for sid, stage in p.stages.items():
            recount = stage.queue.recount()
            if recount != stage.queue.records:
                raise InconsistentWorld(
                    f"pipeline {pid} stage {sid}: queue total {stage.queue.records} "
                    f"!= recount {recount}"
                )
    for pid, p in world.pipelines.items():
        queued = p.queued()
        if p.ingress != p.materialized + queued + p.quarantined + p.dropped:
            raise _unbalanced(pid, p, queued)


def _enqueue(p: PipelineState, tick: int, count: int) -> int:
    """Add arrivals to the entry stage; returns how many were enqueued."""

    if count <= 0:
        return 0
    partition = None
    drift = p.pending_drift
    if drift is not None and tick <= drift.window_end:
        partition = drift.partition
    p.chain[0].queue.append(Cohort(tick, count, partition))
    p.ingress += count
    return count


def _divert_quarantined(p: PipelineState) -> int:
    drift = p.pending_drift
    if drift is None or not drift.quarantine_mode:
        return 0
    moved = sum(stage.queue.remove_partition(drift.partition) for stage in p.chain)
    p.quarantined += moved
    return moved


def step(world: SimWorld, arrivals: dict[str, int]) -> TickReport:
    """Advance the world one tick. Fault state must already be injected.

    The report's ``snapshot.pipelines`` holds every pipeline, in
    ``world.pipeline_ids()`` order, whatever order the world was built in;
    the runner records each tick as one row laid out in that order.
    """

    t = world.tick
    failures = world.pending_failures
    world.pending_failures = []
    capacity_now = max(1, world.resource_model.capacity)  # effective_capacity, unreduced
    if world.capacity_reductions:
        world.capacity_reductions = [(u, n) for u, n in world.capacity_reductions if t < u]
        capacity_now = world.effective_capacity(t)

    # 1. one pass in id order, as each part touches only its own pipeline.
    # Health and pauses are then settled for the tick, so the processing gate
    # is read once, and busy stages (records queued) add to the contention.
    ingress_now: dict[str, int] = {}
    allowed: set[str] = set()
    busy_alloc = 0
    for pid, p in world.pipelines.items():
        if p.recover_at is not None and t >= p.recover_at:
            p.health = _HEALTHY
            p.recover_at = None
            p.failing_cause = None
            p.failing_stage = None

        raw = arrivals.get(pid, 0)
        if p.suppress_until is None:
            ingress_now[pid] = _enqueue(p, t, raw) if raw > 0 else 0
        else:  # under an upstream delay or its release plan
            active_suppression = t < p.suppress_until
            enq = 0
            if active_suppression:
                p.withheld += raw
            else:
                enq += _enqueue(p, t, raw)

            # Delay expired: declare the missing fraction dropped and spread the
            # rest uniformly over the next release_span ticks.
            if t >= p.suppress_until and p.withheld > 0:
                missing = math.floor(p.withheld * p.missing_fraction)
                if missing:
                    p.ingress += missing
                    p.dropped += missing
                remaining = p.withheld - missing
                p.withheld = 0
                span = max(1, world.constants.release_span)
                base, extra = divmod(remaining, span)
                for i in range(span):
                    share = base + (1 if i < extra else 0)
                    if share:
                        p.release_plan.append((t + i, share))
            while p.release_plan and p.release_plan[0][0] <= t:
                _, count = p.release_plan.popleft()
                enq += _enqueue(p, t, count)
            if t >= p.suppress_until and not p.release_plan:
                p.suppress_until = None
                p.missing_fraction = 0.0

            if (
                active_suppression
                and p.spec.kind is PipelineKind.BATCH
                and p.spec.schedule_period
                and t > 0
                and t % p.spec.schedule_period == 0
                and p.health in (Health.HEALTHY, Health.FAILING)
            ):
                if p.health is Health.HEALTHY:
                    p.health = Health.FAILING
                p.failing_cause = "missing_input"
                failures.append((pid, "missing_input"))
            ingress_now[pid] = enq

        drift = p.pending_drift
        if drift is not None and drift.quarantine_mode:
            _divert_quarantined(p)
            # diversion left nothing tagged queued, so a closed window resolves it
            if t > drift.window_end:
                p.pending_drift = None

        if p.health is _HEALTHY and t >= p.paused_until:
            allowed.add(pid)
            for stage in p.chain:
                if stage.queue.records:
                    busy_alloc += stage.alloc

    # 2. per pipeline, one walk in topological order. A stage's queue is
    # final once it is walked, as only upstream stages feed it, so the walk
    # also totals the queues that the conservation check reads.
    contended = busy_alloc > capacity_now
    failure_counts: dict[str, int] = {}
    for failed_pid, _ in failures:
        failure_counts[failed_pid] = failure_counts.get(failed_pid, 0) + 1
    materialized_now = 0
    compute_units = 0  # allocation of pipelines that are neither halted nor deferred
    samples: dict[str, PipelineSample] = {}
    for pid, p in world.pipelines.items():
        stages = p.stages
        runs = pid in allowed
        processed_total = 0
        capacity_total = 0  # rate on offer at stages that had work
        queued = 0
        allocation = 0
        for stage in p.chain:
            queue = stage.queue
            allocation += stage.alloc
            if runs and queue.records:  # an idle stage has nothing to take or route
                rate = (
                    _contended_rate(stage.spec.base_rate, stage.alloc, capacity_now, busy_alloc)
                    if contended
                    else stage.spec.base_rate * stage.alloc
                )
                if rate > 0:
                    before = queue.records
                    processed_cohorts = queue.take(rate)
                    capacity_total += rate
                    done = before - queue.records
                    processed_total += done
                    downstream = stage.downstream
                    forwarded = stage.forwarded_since_checkpoint
                    if len(downstream) == 1:
                        target_id = downstream[0]
                        target = stages[target_id].queue
                        for cohort in processed_cohorts:
                            target.append(cohort)
                        forwarded[target_id] = forwarded.get(target_id, 0) + done
                    elif downstream:
                        # Route each processed cohort to the least-loaded
                        # downstream queue (ties by id order).
                        for cohort in processed_cohorts:
                            target_id = min(downstream, key=lambda d: (stages[d].queue.records, d))
                            stages[target_id].queue.append(cohort)
                            forwarded[target_id] = forwarded.get(target_id, 0) + cohort.count
                    else:
                        p.materialized += done
                        materialized_now += done
                        newest = p.newest_materialized_arrival
                        for cohort in processed_cohorts:
                            if cohort.arrival_tick > newest:
                                newest = cohort.arrival_tick
                        p.newest_materialized_arrival = newest
                        p.materialized_since_checkpoint.extend(processed_cohorts)
            queued += queue.records
            if stage.forwarded_since_checkpoint and t and t % stage.spec.checkpoint_interval == 0:
                stage.forwarded_since_checkpoint.clear()
        # the walk ended on the sink stage, whose checkpoint bounds a rollback
        if p.materialized_since_checkpoint and t and t % stage.spec.checkpoint_interval == 0:
            p.materialized_since_checkpoint.clear()
        if p.ingress != p.materialized + queued + p.quarantined + p.dropped:
            raise _unbalanced(pid, p, queued)
        if p.health not in UNPAID:  # failing pipelines keep paying for reserved units
            compute_units += allocation

        # PipelineSample's own __new__ does just this, in one more Python frame
        samples[pid] = tuple.__new__(PipelineSample, (
            queued,
            t - p.newest_materialized_arrival,
            failure_counts.get(pid, 0),
            min(1.0, processed_total / capacity_total) if processed_total else 0.0,
            ingress_now[pid],
        ))

    # 3. price (allocation plus storage for records materialized this tick) and snapshot
    cost = (
        compute_units * world.resource_model.unit_price
        + materialized_now * world.resource_model.storage_price
    )
    world.tick = t + 1
    snapshot = TelemetrySnapshot(samples, capacity_now - busy_alloc)
    return TickReport(t, snapshot, tuple(failures), materialized_now, cost)


def _get_pipeline(world: SimWorld, pipeline_id: str) -> PipelineState:
    p = world.pipelines.get(pipeline_id)
    if p is None:
        raise InvalidTarget(f"unknown pipeline {pipeline_id!r}")
    return p


def _target_stages(p: PipelineState, stage_id: str | None) -> tuple[StageState, ...]:
    if stage_id is None:
        return p.chain
    if stage_id not in p.stages:
        raise InvalidTarget(f"pipeline {p.spec.id!r} has no stage {stage_id!r}")
    return (p.stages[stage_id],)


def _pull_back_forwarded(p: PipelineState, stage: StageState) -> int:
    """Undo post-checkpoint forwards that are still queued downstream.

    Reprocessing after a failure must not duplicate records: whatever the
    failed stage forwarded since its checkpoint and is still waiting
    downstream is moved back; anything already materialized stays (sinks
    are idempotent).
    """

    pulled = 0
    for target_id, count in sorted(stage.forwarded_since_checkpoint.items()):
        for cohort in reversed(p.stages[target_id].queue.take(count, -1)):
            stage.queue.append(cohort)
            pulled += cohort.count
    stage.forwarded_since_checkpoint.clear()
    return pulled


def apply_action(world: SimWorld, approved: ApprovedAction) -> ActionOutcome:
    """Apply a policy-approved action to the world.

    Raises InvalidTarget for unknown pipelines/stages and IllegalTransition
    for requests that make no sense in the current health state. A legal
    attempt that cannot succeed yet (for example a replay while input data
    is still missing) returns a failed outcome instead of raising, so
    retry layers can count it.
    """

    action = approved.action
    t = world.tick
    p = _get_pipeline(world, action.pipeline)
    kind = action.kind

    def outcome(status: str, detail: str, **effects) -> ActionOutcome:
        return ActionOutcome(action.id, kind, action.pipeline, status, detail, dict(effects))

    if kind in (ActionKind.SCALE_UP, ActionKind.SCALE_DOWN):
        magnitude = abs(action.delta_units)
        if magnitude == 0:
            raise IllegalTransition("scaling action requires a non-zero delta_units")
        stages = _target_stages(p, action.stage)
        changes: dict[str, int] = {}
        clamped = False
        for stage in stages:
            want = stage.alloc + magnitude if kind is ActionKind.SCALE_UP else stage.alloc - magnitude
            new = max(stage.spec.min_alloc, min(stage.spec.max_alloc, want))
            if new != want:
                clamped = True
            changes[stage.spec.id] = new
            stage.alloc = new
        return outcome("applied", "allocation updated", allocations=changes, clamped=clamped)

    if kind is ActionKind.REPLAY:
        if p.health is not Health.FAILING:
            raise IllegalTransition(f"Replay on {p.health.value} pipeline {action.pipeline!r}")
        if p.recover_at is not None:
            return outcome("failed", "recovery already in progress")
        if p.failing_cause == "schema_drift":
            return outcome("failed", "schema change unresolved; replay cannot clear it")
        if p.failing_cause == "missing_input":
            if p.suppress_until is not None:
                return outcome("failed", "input data still unavailable")
            p.recover_at = t + world.constants.replay_latency
            return outcome("applied", "input complete; rerun scheduled", healthy_at=p.recover_at)
        stage = p.stages.get(p.failing_stage or "", None) or p.entry_stage()
        pulled = _pull_back_forwarded(p, stage)
        p.recover_at = t + world.constants.replay_latency
        return outcome("applied", "replaying from checkpoint", requeued=pulled, healthy_at=p.recover_at)

    if kind is ActionKind.ROLLBACK:
        if p.health in NOT_RUNNING:
            raise IllegalTransition(f"Rollback on {p.health.value} pipeline {action.pipeline!r}")
        cohorts = p.materialized_since_checkpoint
        requeued = sum(c.count for c in cohorts)
        entry = p.entry_stage()
        for cohort in cohorts:
            entry.queue.append(Cohort(t, cohort.count, cohort.partition))
        p.materialized -= requeued
        p.materialized_since_checkpoint = []
        p.paused_until = max(p.paused_until, t + world.constants.rollback_latency)
        return outcome("applied", "output since checkpoint invalidated", requeued=requeued)

    if kind is ActionKind.PARTIAL_RECOMPUTE:
        if action.partition is None:
            raise IllegalTransition("PartialRecompute requires a partition")
        if p.health in NOT_RUNNING:
            raise IllegalTransition(f"PartialRecompute on {p.health.value} pipeline")
        kept: list[Cohort] = []
        requeued = 0
        entry = p.entry_stage()
        for cohort in p.materialized_since_checkpoint:
            if cohort.partition == action.partition:
                entry.queue.append(Cohort(t, cohort.count, cohort.partition))
                requeued += cohort.count
            else:
                kept.append(cohort)
        p.materialized_since_checkpoint = kept
        p.materialized -= requeued
        p.paused_until = max(
            p.paused_until, t + world.constants.recompute_latency_per_partition
        )
        return outcome("applied", f"partition {action.partition!r} recompute", requeued=requeued)

    if kind is ActionKind.QUARANTINE_PARTITION:
        drift = p.pending_drift
        if drift is None:
            raise IllegalTransition(f"no drifted partition pending on {action.pipeline!r}")
        if action.partition is not None and action.partition != drift.partition:
            raise InvalidTarget(
                f"pending drifted partition is {drift.partition!r}, not {action.partition!r}"
            )
        drift.quarantine_mode = True
        moved = _divert_quarantined(p)
        if p.health is Health.FAILING and p.failing_cause == "schema_drift":
            p.recover_at = t + world.constants.quarantine_latency
        if world.tick > drift.window_end:  # nothing tagged is left queued
            p.pending_drift = None
        return outcome("applied", "partition isolated", quarantined=moved, partition=drift.partition)

    if kind is ActionKind.DEFER:
        if p.health is Health.DEFERRED:
            raise IllegalTransition(f"Defer on already deferred pipeline {action.pipeline!r}")
        if p.health is Health.HALTED:
            raise IllegalTransition(f"Defer on halted pipeline {action.pipeline!r}")
        p.health = Health.DEFERRED
        p.failing_cause = None
        p.failing_stage = None
        p.recover_at = None
        return outcome("applied", f"deferred until {action.condition or 'resumed'}")

    if kind is ActionKind.RESUME:
        if p.health is Health.HEALTHY:
            raise IllegalTransition(f"Resume on healthy pipeline {action.pipeline!r}")
        drift = p.pending_drift
        accepted = 0
        if drift is not None and not drift.quarantine_mode:
            # Resuming past a drift accepts the new schema: tagged records
            # become ordinary work (auto-mapped at read time).
            for stage in p.stages.values():
                for cohort in stage.queue:
                    if cohort.partition == drift.partition:
                        accepted += cohort.count
                        cohort.partition = None
            try:
                p.schema = apply_delta(p.schema, drift.delta)
            except SchemaError:
                pass  # schema moved on since the drift; keep the current one
            p.pending_drift = None
        p.failing_cause = None
        p.failing_stage = None
        p.recover_at = t + world.constants.resume_latency
        return outcome("applied", "resume scheduled", accepted_records=accepted, healthy_at=p.recover_at)

    if kind is ActionKind.HALT:
        if p.health is Health.HALTED:
            raise IllegalTransition(f"Halt on already halted pipeline {action.pipeline!r}")
        p.health = Health.HALTED
        p.recover_at = None
        return outcome("applied", "pipeline halted")

    raise InvalidTarget(f"unknown action kind {kind!r}")

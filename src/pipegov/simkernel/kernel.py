"""State transition function and action application.

One ``step`` call advances the world by one tick:

1. verify record accounting over the running queue totals (fail loudly,
   not silently); ``check_accounting`` adds a full recount of every queue
   and runs at the end of each experiment and calibration
2. mature pending health recoveries
3. enqueue arrivals, honouring upstream-delay suppression and release
4. fire batch triggers (a suppressed dataset fails the scheduled run)
5. divert quarantined partitions and resolve completed drift windows
6. compute contention and process queues in topological stage order
7. take checkpoints, price the tick, and emit a telemetry snapshot

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
)


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
    status: str  # "applied" | "failed"
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


def _check_conservation(world: SimWorld, pids: list[str]) -> None:
    for pid in pids:
        p = world.pipelines[pid]
        queued = 0
        for stage in p.stages.values():
            queued += stage.queue.records
        if p.ingress != p.materialized + queued + p.quarantined + p.dropped:
            raise InconsistentWorld(
                f"pipeline {pid}: ingress {p.ingress} != materialized {p.materialized} "
                f"+ queued {queued} + quarantined {p.quarantined} + dropped {p.dropped}"
            )


def check_accounting(world: SimWorld) -> None:
    """Recount every queue against its running total, then check conservation."""

    pids = world.pipeline_ids()
    for pid in pids:
        for sid, stage in world.pipelines[pid].stages.items():
            recount = stage.queue.recount()
            if recount != stage.queue.records:
                raise InconsistentWorld(
                    f"pipeline {pid} stage {sid}: queue total {stage.queue.records} "
                    f"!= recount {recount}"
                )
    _check_conservation(world, pids)


def _enqueue(p: PipelineState, tick: int, count: int) -> int:
    """Add arrivals to the entry stage; returns how many were enqueued."""

    if count <= 0:
        return 0
    partition = None
    drift = p.pending_drift
    if drift is not None and tick <= drift.window_end:
        partition = drift.partition
    p.entry_stage().queue.append(Cohort(tick, count, partition))
    p.ingress += count
    return count


def _divert_quarantined(p: PipelineState) -> int:
    drift = p.pending_drift
    if drift is None or not drift.quarantine_mode:
        return 0
    moved = sum(p.stages[sid].queue.remove_partition(drift.partition) for sid in p.topo)
    p.quarantined += moved
    return moved


def step(world: SimWorld, arrivals: dict[str, int]) -> TickReport:
    """Advance the world one tick. Fault state must already be injected."""

    pids = world.pipeline_ids()
    _check_conservation(world, pids)
    t = world.tick
    failures: list[dict] = list(world.pending_failures)
    transitions: list[dict] = list(world.pending_transitions)
    world.pending_failures = []
    world.pending_transitions = []

    world.capacity_reductions = [(until, u) for until, u in world.capacity_reductions if t < until]
    capacity_now = world.effective_capacity(t)

    # 1. recoveries mature
    for pid in pids:
        p = world.pipelines[pid]
        if p.recover_at is not None and t >= p.recover_at:
            old = p.health
            p.health = Health.HEALTHY
            p.recover_at = None
            p.failing_cause = None
            p.failing_stage = None
            transitions.append(
                {"tick": t, "pipeline": pid, "event": "health", "from": old.value, "to": p.health.value}
            )

    # 2. arrivals, suppression, release, batch triggers
    ingress_now: dict[str, int] = {}
    suppressed_now: dict[str, bool] = {}
    for pid in pids:
        p = world.pipelines[pid]
        raw = arrivals.get(pid, 0)
        active_suppression = p.suppress_until is not None and t < p.suppress_until
        suppressed_now[pid] = active_suppression
        enq = 0
        if active_suppression:
            p.withheld += raw
        else:
            enq += _enqueue(p, t, raw)

        # Delay expired: declare the missing fraction dropped and spread the
        # rest uniformly over the next release_span ticks.
        if p.suppress_until is not None and t >= p.suppress_until and p.withheld > 0:
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
        if p.suppress_until is not None and t >= p.suppress_until and not p.release_plan:
            p.suppress_until = None
            p.missing_fraction = 0.0
        ingress_now[pid] = enq

        if (
            p.spec.kind is PipelineKind.BATCH
            and p.spec.schedule_period
            and t > 0
            and t % p.spec.schedule_period == 0
            and active_suppression
            and p.health in (Health.HEALTHY, Health.FAILING)
        ):
            if p.health is Health.HEALTHY:
                p.health = Health.FAILING
                transitions.append(
                    {"tick": t, "pipeline": pid, "event": "health", "from": "Healthy", "to": "Failing"}
                )
            p.failing_cause = "missing_input"
            failures.append({"tick": t, "pipeline": pid, "kind": "missing_input", "stage": p.topo[0]})

    # 3. quarantine diversion and drift-window resolution
    for pid in pids:
        p = world.pipelines[pid]
        drift = p.pending_drift
        if drift is None:
            continue
        if drift.quarantine_mode:
            moved = _divert_quarantined(p)
            if moved:
                transitions.append(
                    {"tick": t, "pipeline": pid, "event": "quarantined", "records": moved, "partition": drift.partition}
                )
            # diversion left nothing tagged queued, so a closed window resolves it
            if t > drift.window_end:
                p.pending_drift = None
                transitions.append(
                    {"tick": t, "pipeline": pid, "event": "drift_resolved", "partition": drift.partition}
                )

    # 4. contention from busy allocation; health and pauses are settled for
    # the rest of the tick, so each pipeline's processing gate is read once.
    allowed = {pid for pid in pids if world.pipelines[pid].processing_allowed(t)}
    busy_alloc = sum(
        s.alloc for pid in allowed for s in world.pipelines[pid].stages.values() if s.queue
    )
    factor = capacity_now / busy_alloc if busy_alloc > capacity_now else 1.0

    # 5. per pipeline: process queues, take checkpoints, and sample
    failure_counts: dict[str, int] = {}
    for f in failures:
        failure_counts[f["pipeline"]] = failure_counts.get(f["pipeline"], 0) + 1
    materialized_now = 0
    compute_units = 0  # allocation of pipelines that are neither halted nor deferred
    samples: dict[str, PipelineSample] = {}
    stage_processed: dict[str, dict[str, int]] = {}
    for pid in pids:
        p = world.pipelines[pid]
        pipeline_rates: list[int] = []
        processed_total = 0
        capacity_total = 0
        stage_processed[pid] = {}
        for sid in p.topo:
            stage = p.stages[sid]
            rate = (
                _contended_rate(stage.spec.base_rate, stage.alloc, capacity_now, busy_alloc)
                if pid in allowed
                else 0
            )
            pipeline_rates.append(rate)
            if rate <= 0:
                continue
            before = stage.queue.records
            processed_cohorts = stage.queue.take_head(rate)
            if processed_cohorts:  # the stage had work, so its whole rate was on offer
                capacity_total += rate
            done = before - stage.queue.records
            if done == 0:
                continue
            stage_processed[pid][sid] = done
            processed_total += done
            if stage.downstream:
                # Route each processed cohort to the least-loaded downstream
                # queue (ties by id order): conservation-preserving routing.
                for cohort in processed_cohorts:
                    target_id = min(stage.downstream, key=lambda d: (p.stages[d].queue.records, d))
                    p.stages[target_id].queue.append(cohort)
                    stage.forwarded_since_checkpoint[target_id] = (
                        stage.forwarded_since_checkpoint.get(target_id, 0) + cohort.count
                    )
            else:
                for cohort in processed_cohorts:
                    p.materialized += cohort.count
                    materialized_now += cohort.count
                    if cohort.arrival_tick > p.newest_materialized_arrival:
                        p.newest_materialized_arrival = cohort.arrival_tick
                    p.materialized_since_checkpoint.append(cohort)

        if t > 0:
            for stage in p.stages.values():
                if t % stage.spec.checkpoint_interval == 0:
                    stage.forwarded_since_checkpoint.clear()
            if t % p.sink_stage().spec.checkpoint_interval == 0:
                p.materialized_since_checkpoint.clear()

        queued = 0
        allocation = 0
        for stage in p.stages.values():
            queued += stage.queue.records
            allocation += stage.alloc
        # Halted and deferred pipelines release their allocation and accrue
        # no compute cost; failing pipelines keep paying for reserved units.
        if p.health not in (Health.HALTED, Health.DEFERRED):
            compute_units += allocation

        util = 0.0
        if capacity_total > 0:
            util = min(1.0, processed_total / capacity_total)
        samples[pid] = PipelineSample(
            queue_depth=queued,
            effective_rate=min(pipeline_rates) if pipeline_rates else 0,
            freshness_lag=t - p.newest_materialized_arrival,
            failure_count=failure_counts.get(pid, 0),
            utilization=util,
            allocation=allocation,
            ingress=ingress_now[pid],
            health=p.health.value,
            suppressed=suppressed_now[pid],
        )

    # 6. price (allocation plus storage for records materialized this tick) and snapshot
    cost = (
        compute_units * world.resource_model.unit_price
        + materialized_now * world.resource_model.storage_price
    )
    snapshot = TelemetrySnapshot(
        tick=t,
        pipelines=samples,
        total_cost=cost,
        capacity=capacity_now,
        capacity_headroom=capacity_now - busy_alloc,
        contention_factor=factor,
    )
    world.tick = t + 1
    return TickReport(
        tick=t,
        snapshot=snapshot,
        failures=tuple(failures),
        transitions=tuple(transitions),
        materialized=materialized_now,
        cost=cost,
        stage_processed=stage_processed,
    )


def _get_pipeline(world: SimWorld, pipeline_id: str) -> PipelineState:
    p = world.pipelines.get(pipeline_id)
    if p is None:
        raise InvalidTarget(f"unknown pipeline {pipeline_id!r}")
    return p


def _target_stages(p: PipelineState, stage_id: str | None) -> list[StageState]:
    if stage_id is None:
        return [p.stages[sid] for sid in p.topo]
    if stage_id not in p.stages:
        raise InvalidTarget(f"pipeline {p.spec.id!r} has no stage {stage_id!r}")
    return [p.stages[stage_id]]


def _pull_back_forwarded(p: PipelineState, stage: StageState) -> int:
    """Undo post-checkpoint forwards that are still queued downstream.

    Reprocessing after a failure must not duplicate records: whatever the
    failed stage forwarded since its checkpoint and is still waiting
    downstream is moved back; anything already materialized stays (sinks
    are idempotent).
    """

    pulled = 0
    for target_id, count in sorted(stage.forwarded_since_checkpoint.items()):
        for cohort in p.stages[target_id].queue.take_tail(count):
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
        world.pending_transitions.append(
            {"tick": t, "pipeline": action.pipeline, "event": "allocation", "stages": changes}
        )
        return outcome("applied", "allocation updated", allocations=changes, clamped=clamped)

    if kind is ActionKind.REPLAY:
        if p.health is not Health.FAILING:
            raise IllegalTransition(f"Replay on {p.health.value} pipeline {action.pipeline!r}")
        if p.recover_at is not None:
            return outcome("failed", "recovery already in progress")
        if p.failing_cause == "schema_drift":
            return outcome("failed", "schema change unresolved; replay cannot clear it")
        if p.failing_cause == "missing_input":
            if p.suppress_until is not None or p.withheld > 0 or p.release_plan:
                return outcome("failed", "input data still unavailable")
            p.recover_at = t + world.constants.replay_latency
            return outcome("applied", "input complete; rerun scheduled", healthy_at=p.recover_at)
        stage = p.stages.get(p.failing_stage or "", None) or p.entry_stage()
        pulled = _pull_back_forwarded(p, stage)
        p.recover_at = t + world.constants.replay_latency
        return outcome("applied", "replaying from checkpoint", requeued=pulled, healthy_at=p.recover_at)

    if kind is ActionKind.ROLLBACK:
        if p.health in (Health.HALTED, Health.DEFERRED):
            raise IllegalTransition(f"Rollback on {p.health.value} pipeline {action.pipeline!r}")
        cohorts = p.materialized_since_checkpoint
        requeued = sum(c.count for c in cohorts)
        entry = p.entry_stage()
        for cohort in cohorts:
            entry.queue.append(Cohort(t, cohort.count, cohort.partition))
        p.materialized -= requeued
        p.materialized_since_checkpoint = []
        p.paused_until = max(p.paused_until, t + world.constants.rollback_latency)
        world.pending_transitions.append(
            {"tick": t, "pipeline": action.pipeline, "event": "rollback", "records": requeued}
        )
        return outcome("applied", "output since checkpoint invalidated", requeued=requeued)

    if kind is ActionKind.PARTIAL_RECOMPUTE:
        if action.partition is None:
            raise IllegalTransition("PartialRecompute requires a partition")
        if p.health in (Health.HALTED, Health.DEFERRED):
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
        world.pending_transitions.append(
            {"tick": t, "pipeline": action.pipeline, "event": "quarantine", "records": moved, "partition": drift.partition}
        )
        return outcome("applied", "partition isolated", quarantined=moved, partition=drift.partition)

    if kind is ActionKind.DEFER:
        if p.health is Health.DEFERRED:
            raise IllegalTransition(f"Defer on already deferred pipeline {action.pipeline!r}")
        if p.health is Health.HALTED:
            raise IllegalTransition(f"Defer on halted pipeline {action.pipeline!r}")
        old = p.health
        p.health = Health.DEFERRED
        p.failing_cause = None
        p.failing_stage = None
        p.recover_at = None
        world.pending_transitions.append(
            {"tick": t, "pipeline": action.pipeline, "event": "health", "from": old.value, "to": "Deferred"}
        )
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
        old = p.health
        p.failing_cause = None
        p.failing_stage = None
        p.recover_at = t + world.constants.resume_latency
        world.pending_transitions.append(
            {"tick": t, "pipeline": action.pipeline, "event": "resume", "from": old.value}
        )
        return outcome("applied", "resume scheduled", accepted_records=accepted, healthy_at=p.recover_at)

    if kind is ActionKind.HALT:
        if p.health is Health.HALTED:
            raise IllegalTransition(f"Halt on already halted pipeline {action.pipeline!r}")
        old = p.health
        p.health = Health.HALTED
        p.recover_at = None
        world.pending_transitions.append(
            {"tick": t, "pipeline": action.pipeline, "event": "health", "from": old.value, "to": "Halted"}
        )
        return outcome("applied", "pipeline halted")

    raise InvalidTarget(f"unknown action kind {kind!r}")

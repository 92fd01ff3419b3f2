"""Simulation kernel: rates, contention, cost, actions, accounting."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from pipegov.core import (
    ActionKind,
    Actor,
    Column,
    Dtype,
    PipelineKind,
    PipelineSpec,
    ProposedAction,
    ResourceModel,
    Schema,
    StageSpec,
)
from pipegov.simkernel import (
    ApprovedAction,
    Cohort,
    Health,
    IllegalTransition,
    InconsistentWorld,
    InvalidTarget,
    PendingDrift,
    SimConstants,
    SimWorld,
    TickReport,
    apply_action,
    build_world,
    check_accounting,
    step,
)
from pipegov.core.schema import DropColumn, SchemaDelta, schema_delta
from pipegov.scenario import (
    ArrivalModel,
    BatchModel,
    FaultEvent,
    FaultKind,
    ScenarioSpec,
    inject_faults,
    mutate_schema,
)
from pipegov.simkernel.kernel import _contended_rate

from conftest import make_batch_pipeline, make_stream_pipeline


def _pipeline(pid: str = "p", base_rate: int = 10, max_alloc: int = 8, stages: int = 1) -> PipelineSpec:
    schema = Schema(columns=(Column("a", Dtype.INT64),))
    specs = []
    for i in range(stages):
        upstream = (f"s{i - 1}",) if i else ()
        specs.append(StageSpec(id=f"s{i}", upstream=upstream, base_rate=base_rate, min_alloc=1, max_alloc=max_alloc))
    return PipelineSpec(
        id=pid, kind=PipelineKind.STREAMING, stages=tuple(specs), schema=schema, freshness_target=10
    )


def _world(base_rate=10, alloc=4, capacity=64, max_alloc=8, price=0.5, storage=0.01, stages=1):
    spec = _pipeline(base_rate=base_rate, max_alloc=max_alloc, stages=stages)
    return build_world(
        [spec],
        ResourceModel(capacity=capacity, unit_price=price, storage_price=storage),
        allocations={"p": {f"s{i}": alloc for i in range(stages)}},
    )


def _op(kind: ActionKind, pipeline: str = "p", **kw) -> ApprovedAction:
    action = ProposedAction(
        id="ACT-1", tick=0, agent=Actor.OPERATOR, kind=kind, pipeline=pipeline, **kw
    )
    return ApprovedAction(action=action, decision_ref=1)


def test_report_types_are_read_only():
    world = _world()
    report = step(world, {"p": 30})
    for held in (report, report.snapshot, report.snapshot.pipelines["p"]):
        for name in type(held).__annotations__:
            with pytest.raises(AttributeError):
                setattr(held, name, getattr(held, name))


def test_snapshot_pipelines_are_in_pipeline_id_order():
    specs = [_pipeline(pid) for pid in ("zeta", "alpha", "mid")]
    world = build_world(specs, ResourceModel(capacity=64, unit_price=0.5, storage_price=0.01))
    assert list(world.pipelines) == world.pipeline_ids()
    for arrivals in ({"zeta": 5, "mid": 3}, {}):
        report = step(world, arrivals)
        assert list(report.snapshot.pipelines) == world.pipeline_ids() == ["alpha", "mid", "zeta"]


class TestContendedRate:
    def test_uncontended(self):
        assert _contended_rate(10, 4, 64, 64) == 40

    def test_contention_factor_floors(self):
        # 64 units of capacity against 80 busy: factor 0.8.
        assert _contended_rate(10, 4, 64, 80) == 32
        # 2560 * 64 / 96 = 26.67 rounds down.
        assert _contended_rate(10, 4, 64, 96) == 26

    def test_zero_alloc_means_zero_rate(self):
        assert _contended_rate(10, 0, 64, 0) == 0
        assert _contended_rate(10, 0, 64, 80) == 0


class TestStepProcessing:
    def test_queue_drains_at_effective_rate(self):
        world = _world(base_rate=10, alloc=4, capacity=64)
        report = step(world, {"p": 100})
        p = world.pipelines["p"]
        assert report.materialized == 40
        assert p.queued() == 60
        assert p.materialized == 40

    def test_halted_pipeline_accumulates_queue(self):
        world = _world()
        world.pipelines["p"].health = Health.HALTED
        report = step(world, {"p": 100})
        p = world.pipelines["p"]
        assert report.materialized == 0
        assert p.queued() == 100
        assert report.cost == 0.0

    def test_proportional_contention(self):
        # Two busy single-stage pipelines demanding 48 + 32 = 80 units on a
        # 64-unit cluster: both rates scale by 64/80 = 0.8.
        a = _pipeline("a", base_rate=1, max_alloc=48)
        b = _pipeline("b", base_rate=10, max_alloc=32)
        world = build_world(
            [a, b],
            ResourceModel(capacity=64, unit_price=0.5, storage_price=0.0),
            allocations={"a": {"s0": 48}, "b": {"s0": 32}},
        )
        step(world, {"a": 10_000, "b": 10_000})
        # 1 * 48 * 0.8 = 38.4 -> 38 ; 10 * 32 * 0.8 = 256, each a single-stage
        # pipeline's whole output
        assert world.pipelines["a"].materialized == 38
        assert world.pipelines["b"].materialized == 256

    def test_no_contention_under_capacity(self):
        world = _world(base_rate=10, alloc=4, capacity=64)
        report = step(world, {"p": 100})
        assert world.pipelines["p"].materialized == 40
        assert report.snapshot.capacity_headroom == 60

    def test_idle_stages_add_no_busy_allocation(self):
        # "a" reserves 8 units with nothing queued, and b's second stage is
        # empty when contention is computed: only b's entry stage is busy.
        a = _pipeline("a", max_alloc=8)
        b = _pipeline("b", max_alloc=8, stages=2)
        world = build_world(
            [a, b],
            ResourceModel(capacity=64, unit_price=0.5, storage_price=0.0),
            allocations={"a": {"s0": 8}, "b": {"s0": 4, "s1": 6}},
        )
        report = step(world, {"b": 100})
        assert report.snapshot.capacity_headroom == 64 - 4
        assert report.snapshot.pipelines["a"].utilization == 0.0
        assert world.pipelines["a"].materialized == 0
        assert report.cost == (8 + 4 + 6) * 0.5  # idle reserved units still pay

    def test_multi_stage_flow_conserves_records(self):
        world = _world(base_rate=10, alloc=4, capacity=64, stages=3)
        total_in = 0
        for t in range(50):
            arrivals = 30 if t < 10 else 0
            total_in += arrivals
            step(world, {"p": arrivals})
        p = world.pipelines["p"]
        check_accounting(world)
        assert p.ingress == total_in
        assert p.materialized == total_in  # fully drained
        assert p.queued() == 0


class TestCost:
    def test_allocation_cost_only(self):
        world = _world(alloc=4, price=0.5)
        assert step(world, {}).cost == pytest.approx(2.0)

    def test_storage_cost_added(self):
        # 25 x 4 = 100 records/tick: all 100 arrivals materialize this tick
        world = _world(base_rate=25, alloc=4, price=0.5, storage=0.01)
        report = step(world, {"p": 100})
        assert report.materialized == 100
        assert report.cost == pytest.approx(3.0)

    def test_halted_pipelines_cost_nothing(self):
        world = _world(alloc=4)
        world.pipelines["p"].health = Health.HALTED
        assert step(world, {}).cost == 0.0

    def test_deferred_pipelines_cost_nothing(self):
        world = _world(alloc=4)
        world.pipelines["p"].health = Health.DEFERRED
        assert step(world, {}).cost == 0.0

    def test_failing_pipelines_keep_paying(self):
        world = _world(alloc=4, price=0.5)
        world.pipelines["p"].health = Health.FAILING
        assert step(world, {}).cost == pytest.approx(2.0)

    def test_cost_monotone_in_allocation(self):
        random.seed(5)
        trace = [random.randint(0, 60) for _ in range(100)]
        totals = []
        for alloc in (2, 4):
            world = _world(base_rate=10, alloc=alloc, capacity=64)
            totals.append(sum(step(world, {"p": n}).cost for n in trace))
        assert totals[1] >= totals[0]


def _faulted_world(
    faults=(), stream: PipelineSpec | None = None, allocations=None
) -> tuple[ScenarioSpec, SimWorld]:
    """A streaming pipeline and a batch pipeline triggered every 10 ticks."""

    stream = stream or make_stream_pipeline()
    spec = ScenarioSpec(
        horizon=100,
        seed=7,
        resource_model=ResourceModel(capacity=16, unit_price=0.5, storage_price=0.01),
        pipelines=(stream, make_batch_pipeline(schedule_period=10)),
        arrival_models={stream.id: ArrivalModel(base_rate=15.0)},
        batch_models={"batch-a": BatchModel(dataset_size=300, schedule_period=10)},
        fault_schedule=tuple(faults),
    )
    return spec, build_world(list(spec.pipelines), spec.resource_model, allocations)


def _faulted_run(faults, ticks: int) -> tuple[SimWorld, list[TickReport]]:
    spec, world = _faulted_world(faults)
    reports = []
    for t in range(ticks):
        inject_faults(spec, world, t)
        reports.append(step(world, {"stream-a": 10}))
    return world, reports


class TestFailureEvents:
    def test_task_failure_is_one_pair(self):
        fault = FaultEvent(tick=2, kind=FaultKind.TRANSIENT_TASK_FAILURE, pipeline="stream-a", stage="sink")
        _, reports = _faulted_run([fault], 4)
        assert [r.failures for r in reports] == [(), (), (("stream-a", "task_failure"),), ()]
        samples = reports[2].snapshot.pipelines
        assert samples["stream-a"].failure_count == 1
        assert samples["batch-a"].failure_count == 0

    def test_incompatible_drift_is_a_schema_drift_pair(self):
        base = make_stream_pipeline().schema
        delta = schema_delta(base, mutate_schema(base, "incompatible", seed=4))
        fault = FaultEvent(
            tick=1, kind=FaultKind.SCHEMA_DRIFT, pipeline="stream-a", delta=delta, partition="pt-1"
        )
        _, reports = _faulted_run([fault], 2)
        assert reports[1].failures == (("stream-a", "schema_drift"),)
        assert reports[1].snapshot.pipelines["stream-a"].failure_count == 1

    def test_suppressed_batch_trigger_is_a_missing_input_pair(self):
        fault = FaultEvent(
            tick=5, kind=FaultKind.UPSTREAM_DELAY, pipeline="batch-a", delay_ticks=10, missing_fraction=0.0
        )
        world, reports = _faulted_run([fault], 11)
        assert [(r.tick, r.failures) for r in reports if r.failures] == [
            (10, (("batch-a", "missing_input"),))
        ]
        assert reports[10].snapshot.pipelines["batch-a"].failure_count == 1
        assert world.pipelines["batch-a"].failing_cause == "missing_input"

    def test_task_failure_on_deferred_pipeline_is_silent(self):
        fault = FaultEvent(tick=1, kind=FaultKind.TRANSIENT_TASK_FAILURE, pipeline="stream-a", stage="ingest")
        spec, world = _faulted_world([fault])
        step(world, {})
        apply_action(world, _op(ActionKind.DEFER, pipeline="stream-a"))
        inject_faults(spec, world, 1)
        report = step(world, {})
        assert report.failures == ()
        assert report.snapshot.pipelines["stream-a"].failure_count == 0


@pytest.mark.parametrize("health", [Health.HALTED, Health.DEFERRED])
class TestNothingRunsWhenHaltedOrDeferred:
    def _world(self, health):
        fault = FaultEvent(tick=1, kind=FaultKind.TRANSIENT_TASK_FAILURE, pipeline="stream-a", stage="ingest")
        spec, world = _faulted_world([fault])
        step(world, {"stream-a": 40})
        p = world.pipelines["stream-a"]
        p.health = health
        return spec, world, p

    def test_task_failure_is_a_no_op(self, health):
        spec, world, p = self._world(health)
        assert inject_faults(spec, world, 1) == list(spec.fault_schedule)
        assert (p.health, p.failing_cause, p.failing_stage) == (health, None, None)
        assert world.pending_failures == []

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            (ActionKind.ROLLBACK, {}, "Rollback on {} pipeline 'stream-a'"),
            (ActionKind.PARTIAL_RECOMPUTE, {"partition": "pt-a"}, "PartialRecompute on {} pipeline"),
        ],
    )
    def test_rework_is_illegal(self, health, kind, fields, message):
        _, world, p = self._world(health)
        p.materialized_since_checkpoint = [Cohort(0, p.materialized, "pt-a")]
        before = (p.materialized, p.queued(), p.paused_until)
        with pytest.raises(IllegalTransition, match=f"^{message.format(health.value)}$"):
            apply_action(world, _op(kind, pipeline="stream-a", **fields))
        assert (p.materialized, p.queued(), p.paused_until) == before
        assert p.materialized > 0
        check_accounting(world)


class TestScaling:
    def test_scale_up_within_bounds(self):
        world = _world(alloc=4, max_alloc=8)
        result = apply_action(world, _op(ActionKind.SCALE_UP, delta_units=2))
        assert result.applied
        assert world.pipelines["p"].stages["s0"].alloc == 6
        assert result.effects["clamped"] is False

    def test_scale_up_clamps_to_max(self):
        world = _world(alloc=4, max_alloc=8)
        result = apply_action(world, _op(ActionKind.SCALE_UP, delta_units=6))
        assert result.applied
        assert world.pipelines["p"].stages["s0"].alloc == 8
        assert result.effects["clamped"] is True

    def test_scale_down_clamps_to_min(self):
        world = _world(alloc=2)
        result = apply_action(world, _op(ActionKind.SCALE_DOWN, delta_units=5))
        assert world.pipelines["p"].stages["s0"].alloc == 1
        assert result.effects["clamped"] is True

    def test_zero_delta_rejected(self):
        world = _world()
        with pytest.raises(IllegalTransition):
            apply_action(world, _op(ActionKind.SCALE_UP, delta_units=0))

    def test_unknown_pipeline_rejected(self):
        world = _world()
        with pytest.raises(InvalidTarget):
            apply_action(world, _op(ActionKind.SCALE_UP, pipeline="ghost", delta_units=1))

    def test_unknown_stage_rejected(self):
        world = _world()
        with pytest.raises(InvalidTarget):
            apply_action(world, _op(ActionKind.SCALE_UP, stage="ghost", delta_units=1))


class TestRecoveryActions:
    def test_replay_requires_failing_health(self):
        world = _world()
        with pytest.raises(IllegalTransition):
            apply_action(world, _op(ActionKind.REPLAY))

    def test_replay_schedules_recovery(self):
        world = _world()
        p = world.pipelines["p"]
        p.health = Health.FAILING
        p.failing_cause = "task_failure"
        p.failing_stage = "s0"
        result = apply_action(world, _op(ActionKind.REPLAY))
        assert result.applied
        assert p.recover_at == world.tick + world.constants.replay_latency
        step(world, {})  # not yet matured
        for _ in range(world.constants.replay_latency):
            step(world, {})
        assert p.health is Health.HEALTHY

    def test_replay_pulls_back_downstream_tail_in_order(self):
        world = _world(stages=2)
        p = world.pipelines["p"]
        for tick in range(3):
            p.stages["s1"].queue.append(Cohort(tick, 10))
            p.ingress += 10
        p.stages["s0"].forwarded_since_checkpoint["s1"] = 25
        p.health = Health.FAILING
        p.failing_cause = "task_failure"
        p.failing_stage = "s0"
        result = apply_action(world, _op(ActionKind.REPLAY))
        assert result.effects["requeued"] == 25
        cohorts = {sid: [(c.arrival_tick, c.count) for c in s.queue] for sid, s in p.stages.items()}
        assert cohorts == {"s0": [(0, 5), (1, 10), (2, 10)], "s1": [(0, 5)]}
        assert (p.stages["s0"].depth(), p.stages["s1"].depth()) == (25, 5)
        assert p.stages["s0"].forwarded_since_checkpoint == {}
        check_accounting(world)

    def test_replay_fails_while_input_missing(self):
        world = _world()
        p = world.pipelines["p"]
        p.health = Health.FAILING
        p.failing_cause = "missing_input"
        p.suppress_until = 100
        result = apply_action(world, _op(ActionKind.REPLAY))
        assert result.status == "failed"
        assert p.recover_at is None

    def test_rollback_requeues_output_since_checkpoint(self):
        world = _world(base_rate=10, alloc=4)
        step(world, {"p": 100})  # materializes 40
        p = world.pipelines["p"]
        assert p.materialized == 40
        result = apply_action(world, _op(ActionKind.ROLLBACK))
        assert result.applied
        assert result.effects["requeued"] == 40
        assert p.materialized == 0
        assert p.queued() == 100
        check_accounting(world)

    def test_partial_recompute_requeues_one_partition(self):
        world = _world()
        p = world.pipelines["p"]
        p.ingress += 300
        p.materialized += 300
        p.materialized_since_checkpoint = [
            Cohort(0, 100, "pt-a"),
            Cohort(0, 150, "pt-b"),
            Cohort(0, 50, "pt-a"),
        ]
        result = apply_action(world, _op(ActionKind.PARTIAL_RECOMPUTE, partition="pt-a"))
        assert result.effects["requeued"] == 150
        assert p.materialized == 150
        assert p.queued() == 150
        check_accounting(world)

    def test_defer_and_resume_cycle(self):
        world = _world()
        p = world.pipelines["p"]
        result = apply_action(world, _op(ActionKind.DEFER, condition="ingress stable"))
        assert result.applied
        assert p.health is Health.DEFERRED
        step(world, {"p": 25})
        assert p.queued() == 25  # deferred: queue grows, nothing processed
        assert p.materialized == 0
        result = apply_action(world, _op(ActionKind.RESUME))
        assert result.applied
        for _ in range(world.constants.resume_latency + 1):
            step(world, {})
        assert p.health is Health.HEALTHY

    def test_resume_on_healthy_is_illegal(self):
        world = _world()
        with pytest.raises(IllegalTransition):
            apply_action(world, _op(ActionKind.RESUME))

    def test_defer_on_deferred_is_illegal(self):
        world = _world()
        apply_action(world, _op(ActionKind.DEFER))
        with pytest.raises(IllegalTransition):
            apply_action(world, _op(ActionKind.DEFER))


class TestQuarantine:
    def _drifted_world(self, records: int = 1000):
        world = _world()
        p = world.pipelines["p"]
        p.ingress += records
        p.stages["s0"].queue.append(Cohort(0, records, "pt-x"))
        p.pending_drift = PendingDrift(
            partition="pt-x",
            delta=SchemaDelta((DropColumn("a"),)),
            window_end=0,
            quarantine_mode=False,
        )
        p.health = Health.FAILING
        p.failing_cause = "schema_drift"
        return world

    def test_quarantine_moves_partition_and_recovers(self):
        world = self._drifted_world(1000)
        p = world.pipelines["p"]
        result = apply_action(world, _op(ActionKind.QUARANTINE_PARTITION, partition="pt-x"))
        assert result.applied
        assert result.effects["quarantined"] == 1000
        assert p.quarantined == 1000
        assert p.queued() == 0
        check_accounting(world)
        for _ in range(world.constants.quarantine_latency + 1):
            step(world, {})
        assert p.health is Health.HEALTHY

    def test_quarantine_without_drift_is_illegal(self):
        world = _world()
        with pytest.raises(IllegalTransition):
            apply_action(world, _op(ActionKind.QUARANTINE_PARTITION, partition="pt-x"))

    def test_quarantine_wrong_partition_rejected(self):
        world = self._drifted_world()
        with pytest.raises(InvalidTarget):
            apply_action(world, _op(ActionKind.QUARANTINE_PARTITION, partition="pt-other"))

    def test_resume_accepts_drift_and_applies_schema(self):
        world = self._drifted_world(200)
        p = world.pipelines["p"]
        old_version = p.schema.version
        result = apply_action(world, _op(ActionKind.RESUME))
        assert result.applied
        assert p.pending_drift is None
        assert p.schema.version == old_version + 1
        assert p.quarantined == 0  # accepted, not quarantined
        check_accounting(world)


class TestHalt:
    def test_halt_then_resume(self):
        world = _world()
        p = world.pipelines["p"]
        result = apply_action(world, _op(ActionKind.HALT))
        assert result.applied
        assert p.health is Health.HALTED
        result = apply_action(world, _op(ActionKind.RESUME))
        assert result.applied
        for _ in range(world.constants.resume_latency + 1):
            step(world, {})
        assert p.health is Health.HEALTHY


class TestDeterminismAndAccounting:
    def _run(self, seed: int) -> list[TickReport]:
        rng = random.Random(seed)
        world = _world(base_rate=10, alloc=4, capacity=16, stages=2)
        reports = []
        for t in range(150):
            arrivals = {"p": rng.randint(0, 90)}
            if t == 40:
                apply_action(world, _op(ActionKind.SCALE_DOWN, delta_units=2))
            if t == 80:
                apply_action(world, _op(ActionKind.SCALE_UP, delta_units=2))
            reports.append(step(world, arrivals))
        check_accounting(world)
        return reports

    def test_identical_inputs_identical_reports(self):
        assert self._run(11) == self._run(11)

    def test_accounting_holds_under_churn(self):
        rng = random.Random(3)
        world = _world(base_rate=10, alloc=2, capacity=8, stages=3)
        p = world.pipelines["p"]
        for t in range(400):
            step(world, {"p": rng.randint(0, 50)})
            assert p.ingress == p.materialized + p.queued() + p.quarantined + p.dropped

    def test_constants_round_trip(self):
        constants = SimConstants(replay_latency=7, release_span=4)
        assert SimConstants.from_dict(constants.to_dict()) == constants


_DIAMOND = {"s0": (), "s1": ("s0",), "s2": ("s0",), "s3": ("s1", "s2")}


def _diamond_spec(pid: str = "p", checkpoint_interval: int = 40) -> PipelineSpec:
    """s0 fans out to s1 and s2, which both feed the sink s3."""

    schema = Schema(columns=(Column("a", Dtype.INT64),))
    stages = tuple(
        StageSpec(
            id=sid,
            upstream=up,
            base_rate=10,
            min_alloc=1,
            max_alloc=4,
            checkpoint_interval=checkpoint_interval,
        )
        for sid, up in _DIAMOND.items()
    )
    return PipelineSpec(
        id=pid, kind=PipelineKind.STREAMING, stages=stages, schema=schema, freshness_target=10
    )


def _diamond_world() -> SimWorld:
    return build_world(
        [_diamond_spec()],
        ResourceModel(capacity=8, unit_price=0.5, storage_price=0.01),
        allocations={"p": {sid: 2 for sid in _DIAMOND}},
    )


def _assert_queue_totals(world) -> None:
    for p in world.pipelines.values():
        for sid, stage in p.stages.items():
            assert stage.depth() == sum(c.count for c in stage.queue), sid


class TestFanOutRouting:
    def test_each_cohort_goes_to_the_least_loaded_downstream(self):
        world = _diamond_world()
        p = world.pipelines["p"]
        p.stages["s1"].queue.append(Cohort(0, 5))
        for count in (6, 1, 9):
            p.stages["s0"].queue.append(Cohort(0, count))
        p.ingress += 5 + 6 + 1 + 9
        step(world, {"p": 0})
        # 6 -> s2 (0 < 5); 1 -> s1 (5 < 6); 9 -> s1 (6 == 6, tie by id)
        assert p.stages["s0"].forwarded_since_checkpoint == {"s1": 10, "s2": 6}
        check_accounting(world)


class TestQueueTotals:
    # action kind -> draw weight; Halt and Defer are rare so that the
    # pipeline spends most ticks processing or failing.
    KINDS = {
        ActionKind.SCALE_UP: 2,
        ActionKind.SCALE_DOWN: 2,
        ActionKind.REPLAY: 4,
        ActionKind.ROLLBACK: 2,
        ActionKind.PARTIAL_RECOMPUTE: 2,
        ActionKind.QUARANTINE_PARTITION: 3,
        ActionKind.RESUME: 3,
        ActionKind.DEFER: 1,
        ActionKind.HALT: 1,
    }

    def test_totals_match_recount_under_every_action(self):
        rng = random.Random(17)
        world = _diamond_world()
        p = world.pipelines["p"]
        applied: dict[ActionKind, int] = {}
        pulled_back = 0
        partitions: list[str] = []
        for t in range(800):
            if t % 45 == 3 and p.pending_drift is None:
                partitions.append(f"pt-{t}")
                p.pending_drift = PendingDrift(
                    partition=partitions[-1],
                    delta=SchemaDelta((DropColumn("a"),)),
                    window_end=t + 15,
                )
            if t % 23 == 7 and p.health is Health.HEALTHY:
                p.health = Health.FAILING
                p.failing_cause = "task_failure"
                p.failing_stage = rng.choice(p.topo[:3])
            for _ in range(rng.randint(0, 2)):
                kind = rng.choices(list(self.KINDS), weights=list(self.KINDS.values()))[0]
                kw: dict = {}
                if kind in (ActionKind.SCALE_UP, ActionKind.SCALE_DOWN):
                    kw = {"delta_units": rng.randint(1, 2), "stage": rng.choice([None, *p.topo])}
                elif kind is ActionKind.PARTIAL_RECOMPUTE:
                    kw = {"partition": rng.choice(partitions or ["pt-none"])}
                try:
                    outcome = apply_action(world, _op(kind, **kw))
                except (IllegalTransition, InvalidTarget):
                    pass
                else:
                    if outcome.applied:
                        applied[kind] = applied.get(kind, 0) + 1
                        if kind is ActionKind.REPLAY:
                            pulled_back += outcome.effects.get("requeued", 0)
                _assert_queue_totals(world)
            step(world, {"p": rng.randint(0, 60)})
            _assert_queue_totals(world)
        check_accounting(world)
        assert set(applied) == set(self.KINDS)
        assert pulled_back > 0
        assert p.quarantined > 0

    def test_desynced_total_is_named(self):
        world = _world(stages=2)
        step(world, {"p": 100})
        world.pipelines["p"].stages["s1"].queue.records += 1
        with pytest.raises(InconsistentWorld, match="pipeline p stage s1"):
            check_accounting(world)

    def test_quarantine_diverts_per_stage(self):
        world = _world(stages=2)
        p = world.pipelines["p"]
        layout = {
            "s0": [(0, 30, "pt-x"), (1, 20, None), (2, 10, "pt-x"), (3, 5, None)],
            "s1": [(0, 7, None), (1, 40, "pt-x"), (2, 9, None)],
        }
        for sid, cohorts in layout.items():
            for tick, count, partition in cohorts:
                p.stages[sid].queue.append(Cohort(tick, count, partition))
                p.ingress += count
        p.pending_drift = PendingDrift(
            partition="pt-x",
            delta=SchemaDelta((DropColumn("a"),)),
            window_end=5,
        )
        result = apply_action(world, _op(ActionKind.QUARANTINE_PARTITION, partition="pt-x"))
        assert result.effects["quarantined"] == 80
        assert p.quarantined == 80
        remaining = {
            sid: [(c.arrival_tick, c.count, c.partition) for c in stage.queue]
            for sid, stage in p.stages.items()
        }
        assert remaining == {
            "s0": [(1, 20, None), (3, 5, None)],
            "s1": [(0, 7, None), (2, 9, None)],
        }
        assert p.stages["s0"].depth() == 25
        assert p.stages["s1"].depth() == 16
        check_accounting(world)


class TestStepChecksConservation:
    """``step`` refuses a world whose records stopped balancing between steps,
    naming the pipeline, whether or not that pipeline runs in the tick."""

    @pytest.mark.parametrize("health", [Health.HEALTHY, Health.HALTED])
    @pytest.mark.parametrize("broken", ["queue total", "ingress"])
    @pytest.mark.parametrize("pid", ["a", "b"])
    def test_break_between_steps_raises(self, pid, broken, health):
        world = build_world(
            [_pipeline("a", stages=2), _pipeline("b", stages=2)],
            ResourceModel(capacity=64, unit_price=0.5, storage_price=0.01),
            allocations={"a": {"s0": 4, "s1": 4}, "b": {"s0": 4, "s1": 4}},
        )
        for _ in range(3):
            step(world, {"a": 100, "b": 100})
        p = world.pipelines[pid]
        p.health = health
        if broken == "queue total":
            p.stages["s1"].queue.records += 1
        else:
            p.ingress -= 1
        with pytest.raises(InconsistentWorld, match=rf"^pipeline {pid}: ingress \d+ != "):
            step(world, {"a": 100, "b": 100})


_FAN_OUT =_diamond_spec("fan-out", checkpoint_interval=12)
_MACHINE_PIPELINES = (_FAN_OUT, make_batch_pipeline(schedule_period=10))
_MACHINE_PARTITIONS = [f"pt-{k}" for k in range(8)] + ["pt-ghost"]
_MACHINE_ALLOCATIONS = st.fixed_dictionaries(
    {
        p.id: st.fixed_dictionaries({s.id: st.integers(s.min_alloc, s.max_alloc) for s in p.stages})
        for p in _MACHINE_PIPELINES
    }
)


@st.composite
def _fault_schedules(draw) -> list[FaultEvent]:
    """Up to eight faults of any kind in ticks 0..12. A drift's delta is taken
    against the declared schema, so a later drift on the same pipeline may no
    longer fit the live schema."""

    events: list[FaultEvent] = []
    for k in range(draw(st.integers(0, 8))):
        tick = draw(st.integers(0, 12))
        kind = draw(st.sampled_from(FaultKind))
        target = draw(st.sampled_from(_MACHINE_PIPELINES))
        if kind is FaultKind.TRANSIENT_TASK_FAILURE:
            stage = draw(st.sampled_from(target.stages)).id
            events.append(FaultEvent(tick, kind, target.id, stage=stage))
        elif kind is FaultKind.UPSTREAM_DELAY:
            events.append(
                FaultEvent(
                    tick,
                    kind,
                    target.id,
                    delay_ticks=draw(st.integers(1, 12)),
                    missing_fraction=draw(st.floats(0.0, 1.0)),
                )
            )
        elif kind is FaultKind.RESOURCE_CONTENTION:
            events.append(
                FaultEvent(
                    tick,
                    kind,
                    capacity_reduction=draw(st.integers(1, 20)),
                    duration_ticks=draw(st.integers(1, 12)),
                )
            )
        else:
            mode = draw(st.sampled_from(["compatible", "incompatible"]))
            changed = mutate_schema(target.schema, mode, seed=draw(st.integers(0, 99)))
            delta = schema_delta(target.schema, changed)
            events.append(FaultEvent(tick, kind, target.id, delta=delta, partition=f"pt-{k}"))
    return events


def _troubled(p) -> bool:
    return p.health is not Health.HEALTHY or p.pending_drift is not None


class KernelMachine(RuleBasedStateMachine):
    """Faults, arrivals and actions, legal or not, in any interleaving."""

    @initialize(faults=_fault_schedules(), allocations=_MACHINE_ALLOCATIONS)
    def build(self, faults, allocations):
        self.spec, self.world = _faulted_world(faults, _FAN_OUT, allocations)

    @rule(stream=st.integers(0, 120), batch=st.integers(0, 400))
    def advance(self, stream, batch):
        inject_faults(self.spec, self.world, self.world.tick)
        step(self.world, {"fan-out": stream, "batch-a": batch})

    @rule(
        kind=st.sampled_from(ActionKind),
        pipeline=st.sampled_from(["fan-out", "batch-a", "ghost"]),
        stage=st.sampled_from([None, *_DIAMOND, "extract", "load", "ghost"]),
        partition=st.none() | st.sampled_from(_MACHINE_PARTITIONS),
        delta_units=st.integers(-3, 3),
    )
    def act(self, kind, pipeline, stage, partition, delta_units):
        action = ProposedAction(
            id="ACT-1",
            tick=self.world.tick,
            agent=Actor.OPERATOR,
            kind=kind,
            pipeline=pipeline,
            stage=stage,
            partition=partition,
            delta_units=delta_units,
        )
        try:  # any other exception fails the test
            apply_action(self.world, ApprovedAction(action=action, decision_ref=1))
        except (InvalidTarget, IllegalTransition):
            pass

    # Random draws rarely hit a failing or drifted pipeline with a matching
    # partition, so this rule aims any action kind at one.
    @precondition(lambda self: any(map(_troubled, self.world.pipelines.values())))
    @rule(kind=st.sampled_from(ActionKind), data=st.data())
    def act_on_trouble(self, kind, data):
        troubled = [p for _, p in sorted(self.world.pipelines.items()) if _troubled(p)]
        p = data.draw(st.sampled_from(troubled))
        drift = p.pending_drift
        partition = data.draw(st.sampled_from([None, drift.partition] if drift else [None]))
        self.act(kind, p.spec.id, None, partition, 1)

    @invariant()
    def records_are_accounted(self):
        check_accounting(self.world)

    @invariant()
    def delay_state_ends_with_the_delay(self):
        # The controller's closure and the Replay gate read suppress_until alone.
        for p in self.world.pipelines.values():
            if p.suppress_until is None:
                assert p.withheld == 0 and not p.release_plan

    @invariant()
    def allocations_stay_in_bounds(self):
        for p in self.world.pipelines.values():
            for stage in p.stages.values():
                assert stage.spec.min_alloc <= stage.alloc <= stage.spec.max_alloc


TestKernelMachine = KernelMachine.TestCase
TestKernelMachine.settings = settings(
    derandomize=True, max_examples=100, stateful_step_count=80, deadline=None
)


class TestPinnedTrace:
    """A seeded drive through every kernel path, pinned byte for byte.

    The canonical and fuzz digests see only two-stage chains and the state
    machine checks invariants only, so this is what pins fan-out routing,
    fan-in and multi-stage checkpoints. A world with the diamond fan-out
    pipeline and a batch pipeline meets contention, upstream delays with
    their release plans, drifts (quarantined or accepted), task failures
    and every action kind, legal or not. Any change to what the kernel
    reports or where it leaves a record changes a digest.
    """

    TICKS = 600
    REPORTS_SHA256 = "12ddf68d45b5ec9533620c167f6097ee31e56a6904c719c1fda843db6817efe6"
    LAYOUTS_SHA256 = "a14eaa95a50c69ecf13d030a876048d8ac76272aaf94f99c0c1b39d79c69ae68"

    def _faults(self, rng: random.Random) -> list[FaultEvent]:
        """One fault every 15 ticks, the four kinds in turn."""

        events: list[FaultEvent] = []
        for k, tick in enumerate(range(4, self.TICKS - 40, 15)):
            kind = list(FaultKind)[k % 4]
            target = rng.choice(_MACHINE_PIPELINES)
            if kind is FaultKind.TRANSIENT_TASK_FAILURE:
                stage = rng.choice(target.stages).id
                events.append(FaultEvent(tick, kind, target.id, stage=stage))
            elif kind is FaultKind.UPSTREAM_DELAY:
                events.append(
                    FaultEvent(
                        tick,
                        kind,
                        target.id,
                        delay_ticks=rng.randint(3, 14),
                        missing_fraction=rng.choice([0.0, 0.25, 0.6]),
                    )
                )
            elif kind is FaultKind.RESOURCE_CONTENTION:
                events.append(
                    FaultEvent(
                        tick,
                        kind,
                        capacity_reduction=rng.randint(4, 12),
                        duration_ticks=rng.randint(5, 20),
                    )
                )
            else:
                mode = rng.choice(["compatible", "incompatible", "incompatible"])
                changed = mutate_schema(target.schema, mode, seed=rng.randint(0, 99))
                delta = schema_delta(target.schema, changed)
                events.append(FaultEvent(tick, kind, target.id, delta=delta, partition=f"pt-{k}"))
        return events

    def _action(self, rng: random.Random, world: SimWorld) -> ApprovedAction:
        pid = rng.choice(["fan-out", "fan-out", "batch-a", "batch-a", "ghost"])
        drift = world.pipelines[pid].pending_drift if pid in world.pipelines else None
        action = ProposedAction(
            id="ACT-1",
            tick=world.tick,
            agent=Actor.OPERATOR,
            kind=rng.choice(list(ActionKind)),
            pipeline=pid,
            stage=rng.choice([None, None, None, *_DIAMOND, "extract", "load", "ghost"]),
            partition=rng.choice([None, drift.partition if drift else None, "pt-ghost"]),
            delta_units=rng.randint(-2, 2),
        )
        return ApprovedAction(action=action, decision_ref=1)

    def test_trace_matches_recorded_digests(self):
        rng = random.Random(2025)
        allocations = {p.id: {s.id: 2 for s in p.stages} for p in _MACHINE_PIPELINES}
        spec, world = _faulted_world(self._faults(rng), _FAN_OUT, allocations)
        reports, layouts = hashlib.sha256(), hashlib.sha256()
        applied: set[ActionKind] = set()
        refused: set[ActionKind] = set()
        failures: set[str] = set()
        contended = released = False
        for _ in range(self.TICKS):
            inject_faults(spec, world, world.tick)
            for _ in range(rng.randint(0, 2)):
                approved = self._action(rng, world)
                try:
                    outcome = apply_action(world, approved)
                except (InvalidTarget, IllegalTransition):
                    refused.add(approved.action.kind)
                else:
                    if outcome.applied:
                        applied.add(outcome.kind)
            batch = rng.choice([0, 0, 0, 120, 300]) if world.tick % 10 == 0 else 0
            report = step(world, {"fan-out": rng.randint(0, 90), "batch-a": batch})
            reports.update(repr(report).encode())
            for pid, p in world.pipelines.items():
                for sid, stage in p.stages.items():
                    layout = [(c.arrival_tick, c.count, c.partition) for c in stage.queue]
                    layouts.update(f"{pid}/{sid}:{layout!r}\n".encode())
            contended = contended or report.snapshot.capacity_headroom < 0
            released = released or any(p.release_plan for p in world.pipelines.values())
            failures.update(kind for _, kind in report.failures)
        check_accounting(world)
        # the drive reached every path the digests are meant to pin
        assert applied == refused == set(ActionKind)
        assert failures == {"task_failure", "schema_drift", "missing_input"}
        assert contended and released
        assert world.pipelines["fan-out"].quarantined > 0
        assert (reports.hexdigest(), layouts.hexdigest()) == (self.REPORTS_SHA256, self.LAYOUTS_SHA256)

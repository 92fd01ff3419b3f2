"""Control-loop behavior: detection, fallback, agent screening, approvals, budget."""

from __future__ import annotations

import ast
import copy
import json
import math
from itertools import takewhile
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipegov.agents
from pipegov.agents import (
    LOW_UTIL_THRESHOLD,
    LOW_UTIL_TICKS,
    STABLE_TICKS,
    BackendError,
    BuiltinBackend,
    CandidateAction,
    Controller,
    NullBackend,
    OperatorModel,
    StubBackend,
    make_backend,
    optimize_propose,
)
from pipegov.agents.controller import AGENT_PHASES
from pipegov.core import (
    ActionKind,
    Actor,
    PipelineKind,
    ProposedAction,
    ResourceModel,
    schema_delta,
)
from pipegov.core.actions import SCALING_KINDS
from pipegov.harness import run_experiment
from pipegov.policy import parse_policy
from pipegov.scenario import (
    FaultEvent,
    FaultKind,
    ScenarioSpec,
    default_policy_dict,
    generate_arrivals,
    inject_faults,
    mutate_schema,
)
from pipegov.scenario.model import ArrivalModel, BatchModel
from pipegov.simkernel import (
    Health,
    PipelineSample,
    TelemetrySnapshot,
    TickReport,
    build_world,
    step,
)
from pipegov.telemetry import AuditLog

from conftest import make_batch_pipeline, make_mini_scenario, make_stream_pipeline
from test_acceptance import _fuzz_case


def _policy(**overrides):
    doc = default_policy_dict()
    for path, value in overrides.items():
        node = doc
        parts = path.split(".")
        for key in parts[:-1]:
            node = node[key]
        node[parts[-1]] = value
    return parse_policy(doc)


def _make(spec, policy, *, agents=False, backend=None, operator=None):
    world = build_world(list(spec.pipelines), spec.resource_model, None, spec.sim_constants)
    loop = Controller(
        policy=policy,
        audit=AuditLog(),
        backend=(backend or BuiltinBackend()) if agents else None,
        operator=operator or OperatorModel(max_retries=3, retry_backoff=5, operator_delay=10),
    )
    return world, loop


def _drive(spec, world, loop, ticks, arrivals_fn=None):
    prev = None
    controls = []
    for t in range(ticks):
        applied = inject_faults(spec, world, t)
        control = loop.tick(world, t, applied, prev)
        arrivals = arrivals_fn(t) if arrivals_fn else generate_arrivals(spec, t)
        report = step(world, arrivals)
        prev = report
        controls.append(control)
    return controls


def _drift_fault(tick: int, pid: str = "stream-a", partition: str = "pt-2") -> FaultEvent:
    base = make_stream_pipeline(pid=pid).schema
    delta = schema_delta(base, mutate_schema(base, "incompatible", seed=4))
    return FaultEvent(
        tick=tick, kind=FaultKind.SCHEMA_DRIFT, pipeline=pid, delta=delta, partition=partition
    )


def _task_failure(tick: int, pid: str = "stream-a") -> FaultEvent:
    return FaultEvent(
        tick=tick, kind=FaultKind.TRANSIENT_TASK_FAILURE, pipeline=pid, stage="ingest"
    )


def _events(loop, name: str) -> list:
    return [r for r in loop.audit.records if r.payload.get("event") == name]


def _decisions(loop, verdict: str | None = None) -> list:
    out = [
        r
        for r in loop.audit.records
        if r.payload.get("kind") == "decision" and r.payload.get("phase") == "initial"
    ]
    if verdict is not None:
        out = [r for r in out if r.payload["verdict"] == verdict]
    return out


def _proposals(controls, kind: ActionKind | None = None):
    out = []
    for control in controls:
        for action in control.proposals:
            if kind is None or action.kind is kind:
                out.append(action)
    return out


def _incidents(loop, incident_class: str) -> list:
    return [i for i in loop.incidents.values() if i.incident_class.value == incident_class]


class TestStaticFallback:
    def test_transient_failure_heals_through_retries(self):
        spec = make_mini_scenario(
            faults=[
                FaultEvent(
                    tick=1,
                    kind=FaultKind.TRANSIENT_TASK_FAILURE,
                    pipeline="stream-a",
                    stage="ingest",
                )
            ]
        )
        world, loop = _make(spec, _policy(), operator=OperatorModel(3, 5, 100))
        controls = _drive(spec, world, loop, 12)

        retries = _proposals(controls, ActionKind.REPLAY)
        assert [(a.tick, a.agent) for a in retries] == [(1, Actor.BASELINE), (6, Actor.BASELINE)]
        assert "retry 1/3" in retries[0].justification

        outcomes = [e.payload["result"] for e in _events(loop, "action_outcome")]
        assert [o["status"] for o in outcomes] == ["applied", "failed"]
        assert outcomes[1]["detail"] == "recovery already in progress"

        incident = _incidents(loop, "TransientTaskFailure")[0]
        assert not incident.open
        assert incident.resumed_tick == 7
        assert incident.resolution == "Replay"
        assert loop.interventions == 0
        cell = loop.memory.extract()["TransientTaskFailure:Replay"]
        assert (cell["attempts"], cell["success_rate"]) == (1, 1.0)
        assert world.pipelines["stream-a"].health is Health.HEALTHY

    def test_exhausted_retries_page_the_operator(self):
        # A dataset is withheld across four scheduled batch runs, so every
        # automatic replay fails on missing input until the operator's fix
        # lands after the release has drained.
        batch = make_batch_pipeline(pid="batch-b", schedule_period=10)
        spec = ScenarioSpec(
            horizon=80,
            seed=3,
            resource_model=ResourceModel(capacity=32, unit_price=0.5, storage_price=0.0),
            pipelines=(batch,),
            arrival_models={},
            batch_models={"batch-b": BatchModel(dataset_size=100, schedule_period=10)},
            fault_schedule=(
                FaultEvent(
                    tick=5,
                    kind=FaultKind.UPSTREAM_DELAY,
                    pipeline="batch-b",
                    delay_ticks=40,
                    missing_fraction=0.0,
                ),
            ),
        )
        world, loop = _make(spec, _policy(), operator=OperatorModel(3, 5, 34))
        controls = _drive(spec, world, loop, 70)

        retries = _proposals(controls, ActionKind.REPLAY)
        assert [a.tick for a in retries] == [11, 16, 21]
        failed = [
            e.payload["result"]
            for e in _events(loop, "action_outcome")
            if e.payload["result"]["status"] == "failed"
        ]
        assert len(failed) == 3
        assert all(f["detail"] == "input data still unavailable" for f in failed)

        pages = _events(loop, "operator_task_enqueued")
        assert [(p.tick, p.payload["due_tick"], p.payload["fix"]) for p in pages] == [(26, 60, "Replay")]
        assert loop.interventions == 1

        operator_actions = [
            r.payload["action"]
            for r in loop.audit.records
            if r.payload.get("kind") == "proposal" and r.payload["action"]["agent"] == "Operator"
        ]
        assert [(a["tick"], a["kind"]) for a in operator_actions] == [(60, "Replay")]

        incident = _incidents(loop, "UpstreamDelay")[0]
        assert incident.resolution == "Replay"
        assert incident.resumed_tick == 66
        assert incident.detected_tick == 5
        assert world.pipelines["batch-b"].health is Health.HEALTHY

    def test_incompatible_drift_pages_operator_immediately(self):
        spec = make_mini_scenario(faults=[_drift_fault(2)])
        world, loop = _make(spec, _policy(), operator=OperatorModel(3, 5, 10))
        _drive(spec, world, loop, 16)

        pages = _events(loop, "operator_task_enqueued")
        assert [(p.tick, p.payload["due_tick"], p.payload["fix"]) for p in pages] == [(2, 12, "Resume")]
        assert loop.interventions == 1

        incident = _incidents(loop, "SchemaIncompatible")[0]
        assert incident.resolution == "Resume"
        assert incident.resumed_tick == 14

        p = world.pipelines["stream-a"]
        assert p.pending_drift is None
        assert p.schema.version == 2  # operator resume accepted the new schema
        assert p.health is Health.HEALTHY

    def test_static_mode_never_runs_agents(self):
        spec = make_mini_scenario()
        world, loop = _make(spec, _policy())
        controls = _drive(spec, world, loop, 30)
        assert all(c.flags == () for c in controls)
        assert _events(loop, "anomaly_flag") == []
        assert _proposals(controls) == []

    def test_pure_suppression_delay_resolves_unaided(self):
        spec = make_mini_scenario(
            faults=[
                FaultEvent(
                    tick=3,
                    kind=FaultKind.UPSTREAM_DELAY,
                    pipeline="stream-a",
                    delay_ticks=15,
                    missing_fraction=0.0,
                )
            ]
        )
        world, loop = _make(spec, _policy())
        controls = _drive(spec, world, loop, 40, arrivals_fn=lambda t: {"stream-a": 15})
        assert _proposals(controls) == []
        incident = _incidents(loop, "UpstreamDelay")[0]
        assert incident.resolution is None  # nobody acted; the delay just passed
        assert incident.resumed_tick == 28
        assert loop.interventions == 0


class TestAgenticDrift:
    def test_quarantine_applied_at_detection_tick(self):
        spec = make_mini_scenario(faults=[_drift_fault(2, partition="pt-2")])
        world, loop = _make(spec, _policy(), agents=True)
        controls = _drive(spec, world, loop, 8)

        quarantines = _proposals(controls, ActionKind.QUARANTINE_PARTITION)
        assert [(a.tick, a.agent, a.partition) for a in quarantines] == [
            (2, Actor.SCHEMA_AGENT, "pt-2")
        ]
        decision = _decisions(loop, "Allow")[0]
        assert "schema.quarantine_allowed" in decision.payload["citations"]

        p = world.pipelines["stream-a"]
        assert p.pending_drift is not None and p.pending_drift.quarantine_mode
        assert p.health is Health.HEALTHY
        incident = _incidents(loop, "SchemaIncompatible")[0]
        assert incident.resolution == "QuarantinePartition"
        assert incident.resumed_tick == 4
        assert loop.interventions == 0
        assert _events(loop, "operator_task_enqueued") == []
        cell = loop.memory.extract()["SchemaIncompatible:QuarantinePartition"]
        assert (cell["attempts"], cell["success_rate"]) == (1, 1.0)

    def test_regulated_pipeline_waits_for_approval(self):
        spec = make_mini_scenario(
            faults=[_drift_fault(2, partition="pt-2")], stream_tags=("regulated",)
        )
        world, loop = _make(spec, _policy(), agents=True, operator=OperatorModel(3, 5, 6))
        _drive(spec, world, loop, 3)
        assert loop.interventions == 1  # counted at the request (tick 2), not the grant

        world, loop = _make(spec, _policy(), agents=True, operator=OperatorModel(3, 5, 6))
        controls = _drive(spec, world, loop, 12)

        # exactly one quarantine proposal; repeats are held off while pending
        assert len(_proposals(controls, ActionKind.QUARANTINE_PARTITION)) == 1
        requests = _decisions(loop, "RequireApproval")
        assert len(requests) == 1
        assert requests[0].payload["citations"] == ["actions.approval_required"]

        grants = [
            r
            for r in loop.audit.records
            if r.payload.get("kind") == "decision"
            and r.payload.get("phase") == "approval_grant"
        ]
        assert len(grants) == 1
        grant = grants[0]
        assert grant.tick == 8  # request tick 2 + operator delay 6
        assert grant.payload["approved_ref"] == requests[0].seq
        assert grant.payload["citations"] == ["actions.approval_required"]

        applied = [
            e
            for e in _events(loop, "action_outcome")
            if e.payload["result"]["kind"] == "QuarantinePartition"
        ]
        assert len(applied) == 1
        assert applied[0].payload["decision_ref"] == grant.seq
        assert applied[0].payload["result"]["status"] == "applied"

        p = world.pipelines["stream-a"]
        assert p.pending_drift is not None and p.pending_drift.quarantine_mode
        incident = _incidents(loop, "SchemaIncompatible")[0]
        assert incident.resolution == "QuarantinePartition"
        assert loop.interventions == 1
        assert _events(loop, "operator_task_enqueued") == []

    def test_denied_remedy_escalates_to_operator(self):
        policy = _policy(**{"actions.allow_list": {
            "OptimizationAgent": ["ScaleUp", "ScaleDown"],
            "SchemaAgent": ["Resume", "Halt"],  # quarantine stripped
            "RecoveryAgent": ["Replay", "Rollback", "PartialRecompute", "Defer", "Resume"],
            "Operator": ["Replay", "Rollback", "QuarantinePartition", "Resume", "Halt"],
            "Baseline": ["Replay", "Resume"],
        }})
        spec = make_mini_scenario(faults=[_drift_fault(2)])
        world, loop = _make(spec, policy, agents=True, operator=OperatorModel(3, 5, 10))
        controls = _drive(spec, world, loop, 18)

        denies = _decisions(loop, "Deny")
        assert len(denies) == 1
        assert denies[0].payload["citations"] == ["actions.allow_list"]
        assert denies[0].payload["action"]["kind"] == "QuarantinePartition"

        # the denied remedy is remembered, not re-proposed; the sweep escalates
        assert len(_proposals(controls, ActionKind.QUARANTINE_PARTITION)) == 1
        pages = _events(loop, "operator_task_enqueued")
        assert [(p.tick, p.payload["due_tick"]) for p in pages] == [(3, 13)]
        assert loop.interventions == 1

        incident = _incidents(loop, "SchemaIncompatible")[0]
        assert incident.resolution == "Resume"
        applied_kinds = [
            e.payload["result"]["kind"]
            for e in _events(loop, "action_outcome")
            if e.payload["result"]["status"] == "applied"
        ]
        assert "QuarantinePartition" not in applied_kinds

    def test_strict_mode_halts_a_pipeline_once(self):
        policy = _policy(**{"schema.mode": "strict", "schema.quarantine_allowed": False})
        spec = make_mini_scenario(faults=[_drift_fault(2)])
        world, loop = _make(spec, policy, agents=True)
        controls = _drive(spec, world, loop, 40)

        # The drift stays pending on the halted pipeline; Halt is not re-proposed.
        assert len(_proposals(controls, ActionKind.HALT)) == 1
        statuses = [e.payload["result"]["status"] for e in _events(loop, "action_outcome")]
        assert statuses == ["applied"]
        p = world.pipelines["stream-a"]
        assert p.health is Health.HALTED and p.pending_drift is not None


    def test_drift_the_live_schema_takes_opens_no_incident(self):
        # A batch pipeline keeps a quarantined drift pending until its next
        # schedule boundary (tick 200). A compatible drift that lands before
        # then fails nothing, so it must open no incident and page no one.
        base = make_batch_pipeline().schema

        def drift(tick: int, kind: str, seed: int) -> FaultEvent:
            delta = schema_delta(base, mutate_schema(base, kind, seed=seed))
            return FaultEvent(
                tick=tick, kind=FaultKind.SCHEMA_DRIFT, pipeline="batch-a", delta=delta,
                partition=f"pt-{tick}",
            )

        faults = [drift(5, "incompatible", 4), drift(60, "compatible", 1)]
        spec = make_mini_scenario(horizon=150, faults=faults)
        runs = {c: run_experiment(spec, _policy(), controller=c) for c in ("static", "agentic")}
        shown = {
            c: ([(i.id, i.detected_tick, i.resolution) for i in r.incidents], r.interventions)
            for c, r in runs.items()
        }
        assert shown == {
            "static": ([("INC-0001", 5, "Resume")], 1),
            "agentic": ([("INC-0001", 5, "QuarantinePartition")], 0),
        }
        batch = runs["agentic"].world.pipelines["batch-a"]
        assert batch.pending_drift is not None and batch.pending_drift.quarantine_mode
        assert batch.schema != base  # the compatible drift was taken


class TestAgenticRecovery:
    def test_failure_recovered_without_operator(self):
        spec = make_mini_scenario(
            faults=[
                FaultEvent(
                    tick=1,
                    kind=FaultKind.TRANSIENT_TASK_FAILURE,
                    pipeline="stream-a",
                    stage="ingest",
                )
            ]
        )
        world, loop = _make(spec, _policy(), agents=True, operator=OperatorModel(3, 5, 100))
        controls = _drive(spec, world, loop, 10)

        replays = _proposals(controls, ActionKind.REPLAY)
        assert [(a.tick, a.agent) for a in replays] == [(1, Actor.RECOVERY_AGENT)]
        incident = _incidents(loop, "TransientTaskFailure")[0]
        assert incident.resolution == "Replay"
        assert incident.resumed_tick == 7
        assert loop.interventions == 0
        assert _events(loop, "operator_task_enqueued") == []
        assert not any(a.agent is Actor.BASELINE for a in _proposals(controls))

    def test_upstream_delay_deferred_then_resumed(self):
        spec = make_mini_scenario(
            faults=[
                FaultEvent(
                    tick=3,
                    kind=FaultKind.UPSTREAM_DELAY,
                    pipeline="stream-a",
                    delay_ticks=15,
                    missing_fraction=0.0,
                )
            ]
        )
        world, loop = _make(spec, _policy(), agents=True)
        controls = _drive(spec, world, loop, 60, arrivals_fn=lambda t: {"stream-a": 15})

        defers = _proposals(controls, ActionKind.DEFER)
        assert [(a.tick, a.agent) for a in defers] == [(3, Actor.RECOVERY_AGENT)]

        resumes = _proposals(controls, ActionKind.RESUME)
        assert len(resumes) == 1
        # suppression ends at 18, the release runs ten ticks, then ingress
        # must hold at the pre-incident level for ten consecutive ticks
        assert resumes[0].tick == 38

        incident = _incidents(loop, "UpstreamDelay")[0]
        assert incident.resolution == "Resume"
        assert incident.resumed_tick == 40
        assert loop.interventions == 0
        assert world.pipelines["stream-a"].health is Health.HEALTHY


class TestBudgetGate:
    def _stub(self, tmp_path, entries):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(entries))
        return StubBackend(str(path))

    def test_scale_up_denied_when_window_is_committed(self, tmp_path):
        # 4 reserved units x 0.5/unit x 100-tick window == the whole budget
        policy = _policy(**{"cost.budget_per_window": 200.0, "cost.window": 100})
        backend = self._stub(
            tmp_path,
            {"5:OptimizationAgent": [{"kind": "ScaleUp", "pipeline": "stream-a", "delta_units": 1}]},
        )
        spec = make_mini_scenario()
        world, loop = _make(spec, policy, agents=True, backend=backend)
        _drive(spec, world, loop, 7)

        denies = _decisions(loop, "Deny")
        assert len(denies) == 1
        assert denies[0].payload["citations"] == ["cost.budget_per_window"]
        assert denies[0].payload["action"]["kind"] == "ScaleUp"
        for stage in world.pipelines["stream-a"].stages.values():
            assert stage.alloc == 1

    def test_scale_up_allowed_with_headroom(self, tmp_path):
        backend = self._stub(
            tmp_path,
            {"5:OptimizationAgent": [{"kind": "ScaleUp", "pipeline": "stream-a", "delta_units": 1}]},
        )
        spec = make_mini_scenario()
        world, loop = _make(spec, _policy(), agents=True, backend=backend)
        _drive(spec, world, loop, 7)

        allows = [
            d for d in _decisions(loop, "Allow") if d.payload["action"]["kind"] == "ScaleUp"
        ]
        assert len(allows) == 1
        assert allows[0].payload["citations"] == [
            "actions.allow_list",
            "cost.max_scale_step",
            "cost.budget_per_window",
        ]
        for stage in world.pipelines["stream-a"].stages.values():
            assert stage.alloc == 2


class TestBackendScreening:
    def test_invalid_candidates_logged_never_executed(self, tmp_path):
        script = {
            "1:OptimizationAgent": [
                {"kind": "Teleport", "pipeline": "stream-a"},
                {"kind": "QuarantinePartition", "pipeline": "stream-a", "partition": "x"},
                {"kind": "ScaleUp", "pipeline": "ghost", "delta_units": 1},
                {"kind": "ScaleUp", "pipeline": "stream-a"},
                {
                    "kind": "ScaleUp",
                    "pipeline": "stream-a",
                    "delta_units": 1,
                    "incident_id": "INC-9999",
                },
            ]
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        spec = make_mini_scenario()
        world, loop = _make(spec, _policy(), agents=True, backend=StubBackend(str(path)))
        controls = _drive(spec, world, loop, 3)

        violations = [e.payload["error"] for e in _events(loop, "backend_violation")]
        assert len(violations) == 5
        assert any("Teleport" in v for v in violations)
        assert any("may not emit QuarantinePartition" in v for v in violations)
        assert any("unknown pipeline 'ghost'" in v for v in violations)
        assert any("positive delta_units" in v for v in violations)
        assert any("no open incident 'INC-9999'" in v for v in violations)
        assert _proposals(controls) == []
        for stage in world.pipelines["stream-a"].stages.values():
            assert stage.alloc == 1

    @pytest.mark.parametrize("error", [BackendError, TypeError, KeyError], ids=lambda e: e.__name__)
    def test_crashing_backend_falls_back_to_builtin_rules(self, error):
        class ExplodingBackend:
            name = "exploding"

            def decide(self, bundle):
                raise error("boom")

        spec = make_mini_scenario(
            faults=[
                FaultEvent(
                    tick=1,
                    kind=FaultKind.TRANSIENT_TASK_FAILURE,
                    pipeline="stream-a",
                    stage="ingest",
                )
            ]
        )
        world, loop = _make(spec, _policy(), agents=True, backend=ExplodingBackend())
        controls = _drive(spec, world, loop, 10)

        boom = [e for e in _events(loop, "backend_violation") if e.payload["error"] == str(error("boom"))]
        assert len(boom) >= 3  # schema, recovery, and optimization phases all failed
        replays = _proposals(controls, ActionKind.REPLAY)
        assert [(a.tick, a.agent) for a in replays] == [(1, Actor.RECOVERY_AGENT)]
        incident = _incidents(loop, "TransientTaskFailure")[0]
        assert incident.resolution == "Replay"

    def test_violation_payloads(self):
        # A failed call's violation names no candidate; a refused
        # candidate's carries the candidate as the backend sent it.
        refused = CandidateAction(kind="Teleport", pipeline="stream-a", rationale="why not")

        class HalfBackend:
            name = "half"

            def decide(self, bundle):
                if bundle.agent == Actor.OPTIMIZATION_AGENT.value:
                    return [refused]
                raise BackendError("boom")

        spec = make_mini_scenario()
        world, loop = _make(spec, _policy(), agents=True, backend=HalfBackend())
        _drive(spec, world, loop, 1)

        payloads = {e.payload["agent"]: e.payload for e in _events(loop, "backend_violation")}
        base = {"kind": "outcome", "event": "backend_violation"}
        assert payloads.pop(Actor.OPTIMIZATION_AGENT.value) == {
            **base,
            "agent": Actor.OPTIMIZATION_AGENT.value,
            "candidate": refused.to_dict(),
            "error": "unknown action kind 'Teleport'",
        }
        assert payloads
        for agent, payload in payloads.items():
            assert payload == {**base, "agent": agent, "error": "boom"}

    def test_non_list_backend_response_is_a_violation(self):
        class BadBackend:
            name = "bad"

            def decide(self, bundle):
                return {"not": "a list"}

        spec = make_mini_scenario()
        world, loop = _make(spec, _policy(), agents=True, backend=BadBackend())
        _drive(spec, world, loop, 2)
        violations = [e.payload["error"] for e in _events(loop, "backend_violation")]
        assert violations
        assert all("not a list" in v for v in violations)


class TestIncidentState:
    def test_second_incident_on_a_pipeline_starts_clean(self, tmp_path):
        # Defer is stripped from the recovery agent, so each scripted Defer
        # is denied and the incident is left to the retry fallback.
        policy = _policy(**{"actions.allow_list.RecoveryAgent": [
            "Replay", "Rollback", "PartialRecompute", "Resume",
        ]})
        script = {
            f"{tick}:RecoveryAgent": [
                {"kind": "Defer", "pipeline": "stream-a", "incident_id": incident_id}
            ]
            for tick, incident_id in ((1, "INC-0001"), (20, "INC-0002"))
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        spec = make_mini_scenario(
            faults=[
                FaultEvent(
                    tick=tick,
                    kind=FaultKind.TRANSIENT_TASK_FAILURE,
                    pipeline="stream-a",
                    stage="ingest",
                )
                for tick in (1, 20)
            ]
        )
        world, loop = _make(
            spec,
            policy,
            agents=True,
            backend=StubBackend(str(path)),
            operator=OperatorModel(3, 5, 100),
        )
        controls = _drive(spec, world, loop, 24)

        first, second = _incidents(loop, "TransientTaskFailure")
        assert (first.id, second.id) == ("INC-0001", "INC-0002")
        assert first.resumed_tick == 8
        assert first.resolution == "Replay"
        assert second.open

        # The second Defer reaches the policy gate, so INC-0002 was neither
        # claimed by the first incident's retrier nor carrying its denial.
        # Each denial releases the agent's claim only after that tick's
        # sweep, so retries start one tick after detection.
        denies = _decisions(loop, "Deny")
        assert [(d.tick, d.payload["action"]["incident_id"]) for d in denies] == [
            (1, "INC-0001"),
            (20, "INC-0002"),
        ]
        retries = [
            (a.tick, a.incident_id, a.justification)
            for a in _proposals(controls, ActionKind.REPLAY)
        ]
        assert retries == [
            (2, "INC-0001", "automatic retry 1/3"),
            (7, "INC-0001", "automatic retry 2/3"),
            (21, "INC-0002", "automatic retry 1/3"),
        ]
        record = loop.ledger.open["INC-0002"]
        assert record.denied == {"Defer"}
        assert record.retries_used == 1
        assert loop.ledger.open.keys() == {i.id for i in loop.incidents.values() if i.open}

    def test_approval_granted_after_close_counts_without_a_record(self, tmp_path):
        policy = _policy(
            **{"actions.approval_required": [{"kind": "ScaleUp", "tag": "regulated"}]}
        )
        script = {
            "4:OptimizationAgent": [
                {
                    "kind": "ScaleUp",
                    "pipeline": "stream-a",
                    "delta_units": 1,
                    "incident_id": "INC-0001",
                }
            ]
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        spec = make_mini_scenario(
            faults=[
                FaultEvent(
                    tick=3,
                    kind=FaultKind.UPSTREAM_DELAY,
                    pipeline="stream-a",
                    delay_ticks=15,
                    missing_fraction=0.0,
                )
            ],
            stream_tags=("regulated",),
        )
        world, loop = _make(
            spec,
            policy,
            agents=True,
            backend=StubBackend(str(path)),
            operator=OperatorModel(3, 5, 40),
        )
        _drive(spec, world, loop, 46, arrivals_fn=lambda t: {"stream-a": 15})

        incident = _incidents(loop, "UpstreamDelay")[0]
        assert incident.resumed_tick == 28
        assert incident.resolution is None
        applied = [
            e.tick
            for e in _events(loop, "action_outcome")
            if e.payload["result"]["status"] == "applied"
        ]
        assert applied == [44]  # request tick 4 + operator delay 40
        cell = loop.memory.extract()["UpstreamDelay:ScaleUp"]
        assert (cell["attempts"], cell["success_rate"]) == (1, 0.0)
        assert loop.ledger.open == {}

    def test_duplicate_open_coalesces(self):
        # The second failure fires while INC-0001 is still open (it closes at 7).
        spec = make_mini_scenario(faults=[_task_failure(1), _task_failure(3)])
        world, loop = _make(spec, _policy(), operator=OperatorModel(3, 5, 100))
        _drive(spec, world, loop, 12)

        (incident,) = loop.incidents.values()
        assert (incident.id, incident.detected_tick, incident.resumed_tick) == ("INC-0001", 1, 7)
        opened = [(e.tick, e.payload["incident"]["id"]) for e in _events(loop, "incident_opened")]
        assert opened == [(1, "INC-0001")]

    def test_same_class_reopens_after_close(self):
        spec = make_mini_scenario(faults=[_task_failure(1), _task_failure(20)])
        world, loop = _make(spec, _policy(), operator=OperatorModel(3, 5, 100))
        _drive(spec, world, loop, 30)

        assert [
            (i.id, i.pipeline, i.incident_class.value, i.detected_tick, i.resumed_tick)
            for i in loop.incidents.values()
        ] == [
            ("INC-0001", "stream-a", "TransientTaskFailure", 1, 7),
            ("INC-0002", "stream-a", "TransientTaskFailure", 20, 26),
        ]
        assert loop.ledger.open == {}


class TestOperatorQueues:
    def test_tasks_paged_on_one_tick_run_in_incident_order(self):
        # stream-b's drift is scheduled first, so it opens INC-0001.
        spec = ScenarioSpec(
            horizon=40,
            seed=7,
            resource_model=ResourceModel(capacity=32, unit_price=0.5, storage_price=0.01),
            pipelines=(make_stream_pipeline(pid="stream-a"), make_stream_pipeline(pid="stream-b")),
            arrival_models={
                "stream-a": ArrivalModel(base_rate=15.0),
                "stream-b": ArrivalModel(base_rate=15.0),
            },
            batch_models={},
            fault_schedule=(_drift_fault(2, pid="stream-b"), _drift_fault(2, pid="stream-a")),
        )
        world, loop = _make(spec, _policy(), operator=OperatorModel(3, 5, 10))
        _drive(spec, world, loop, 16)

        pages = _events(loop, "operator_task_enqueued")
        assert [(p.tick, p.payload["incident_id"], p.payload["due_tick"]) for p in pages] == [
            (2, "INC-0001", 12),
            (2, "INC-0002", 12),
        ]
        operator_actions = [
            r.payload["action"]
            for r in loop.audit.records
            if r.payload.get("kind") == "proposal" and r.payload["action"]["agent"] == "Operator"
        ]
        assert [(a["tick"], a["incident_id"], a["pipeline"]) for a in operator_actions] == [
            (12, "INC-0001", "stream-b"),
            (12, "INC-0002", "stream-a"),
        ]
        assert [(i.id, i.resolution) for i in loop.incidents.values()] == [
            ("INC-0001", "Resume"),
            ("INC-0002", "Resume"),
        ]

    def test_zero_delay_approval_is_granted_on_the_next_tick(self):
        spec = make_mini_scenario(
            faults=[_drift_fault(2, partition="pt-2")], stream_tags=("regulated",)
        )
        world, loop = _make(spec, _policy(), agents=True, operator=OperatorModel(3, 5, 0))
        _drive(spec, world, loop, 8)

        (request,) = _decisions(loop, "RequireApproval")
        assert request.tick == 2
        grants = [
            r
            for r in loop.audit.records
            if r.payload.get("kind") == "decision"
            and r.payload.get("phase") == "approval_grant"
        ]
        assert [(g.tick, g.payload["approved_ref"]) for g in grants] == [(3, request.seq)]
        outcomes = [
            (e.tick, e.payload["decision_ref"], e.payload["result"]["status"])
            for e in _events(loop, "action_outcome")
        ]
        assert outcomes == [(3, grants[0].seq, "applied")]
        assert loop.interventions == 1

    def test_zero_delay_task_due_tick_is_when_the_operator_acts(self):
        spec = make_mini_scenario(faults=[_task_failure(2)])
        world, loop = _make(spec, _policy(), operator=OperatorModel(0, 5, 0))
        _drive(spec, world, loop, 6)

        (page,) = _events(loop, "operator_task_enqueued")
        assert page.tick == 2
        operator_actions = [
            r.payload["action"]
            for r in loop.audit.records
            if r.payload.get("kind") == "proposal" and r.payload["action"]["agent"] == "Operator"
        ]
        assert [(a["tick"], a["kind"]) for a in operator_actions] == [(3, "Replay")]
        assert page.payload["due_tick"] == operator_actions[0]["tick"]


class TestMonitoring:
    def test_ingress_spike_is_flagged_and_audited(self):
        spec = make_mini_scenario()
        world, loop = _make(spec, _policy(), agents=True)
        controls = _drive(
            spec, world, loop, 9, arrivals_fn=lambda t: {"stream-a": 500 if t == 6 else 10}
        )
        flags = controls[7].flags
        assert flags
        assert all(f.pipeline == "stream-a" for f in flags)
        assert "ingress" in {f.metric for f in flags}
        audited = _events(loop, "anomaly_flag")
        assert audited
        assert audited[0].actor == Actor.MONITORING_AGENT.value
        assert all(c.flags == () for c in controls[:7])


class TestWindowAccounting:
    def test_compute_spend_resets_each_window(self):
        spec = make_mini_scenario()
        world, loop = _make(spec, _policy(**{"cost.window": 10}))
        _drive(spec, world, loop, 26)  # tick 25 folds tick 24's report
        # ticks 20-24 at 4 allocated units x 0.5/unit
        assert loop._window_spend == pytest.approx(5 * 4 * 0.5)


def _short_canonical(spec: ScenarioSpec, horizon: int = 300) -> ScenarioSpec:
    """Canonical pipelines with its first eight faults moved inside ``horizon``.

    That covers every fault kind (drift, delay, contention, task failure),
    so bundles carry open incidents, drift views and delay baselines.
    """

    raw = spec.to_dict()
    raw["horizon"] = horizon
    raw["fault_schedule"] = [
        dict(event, tick=20 + 30 * i) for i, event in enumerate(raw["fault_schedule"][:8])
    ]
    return ScenarioSpec.from_dict(raw)


class RecordingBackend(BuiltinBackend):
    """The builtin rules, keeping a deep copy of every bundle they are shown."""

    def __init__(self) -> None:
        self.seen: list[dict] = []

    def decide(self, bundle):
        self.seen.append(copy.deepcopy(bundle.to_dict()))
        return super().decide(bundle)


def _read_only_containers(node) -> int:
    """Count the containers reachable from ``node``, asserting that each is a
    ``MappingProxyType`` or a tuple that refuses item assignment, and that
    every leaf is plain JSON data."""

    if isinstance(node, (MappingProxyType, tuple)):
        with pytest.raises(TypeError):
            node["scrambled" if isinstance(node, MappingProxyType) else 0] = True
        values = node.values() if isinstance(node, MappingProxyType) else node
        return 1 + sum(_read_only_containers(value) for value in values)
    assert node is None or isinstance(node, (bool, int, float, str)), type(node)
    return 0


class KeepingBackend(RecordingBackend):
    """The builtin rules, keeping every bundle object and its copy at hand-out."""

    def __init__(self) -> None:
        super().__init__()
        self.kept: list = []
        self.containers = 0

    def decide(self, bundle):
        self.containers += _read_only_containers(bundle)
        self.kept.append(bundle)
        return super().decide(bundle)


class ViewCheckingBackend(BuiltinBackend):
    """The builtin rules, checking every pipeline view against the world it
    was built from and the applied scalings in the audit, and the first
    agent's incident views against the ledger (later agents see the claims
    from before the tick's screening). Set ``world`` and ``loop`` before
    the first tick."""

    def __init__(self) -> None:
        self.world = self.loop = None
        self.claims: set = set()
        self.seen_fields: set[str] = set()

    def decide(self, bundle):
        scaled_at: dict[str, int] = {}
        for record in _events(self.loop, "action_outcome"):
            result = record.payload["result"]
            if result["status"] == "applied" and result["kind"] in ("ScaleUp", "ScaleDown"):
                scaled_at[result["pipeline"]] = record.tick
        if bundle.agent == Actor.SCHEMA_AGENT.value:
            assert bundle.to_dict()["open_incidents"] == [
                {
                    "id": i.id,
                    "pipeline": i.pipeline,
                    "incident_class": i.incident_class.value,
                    "claimed_by": i.claim,
                    "approval_pending": i.approval_pending,
                    "last_action_tick": i.last_action_tick,
                    "delay_baseline": i.delay_baseline,
                }
                for i in self.loop.ledger.open.values()
            ], bundle.tick
            self.claims |= {(i.claim, i.approval_pending) for i in self.loop.ledger.open.values()}
            if any(i.delay_baseline is not None for i in self.loop.ledger.open.values()):
                self.seen_fields.add("delay_baseline")
        assert list(bundle.pipelines) == list(self.world.pipelines)
        for pid, p in self.world.pipelines.items():
            drift = p.pending_drift
            expected = {
                "criticality": p.spec.criticality,
                "freshness_target": p.spec.freshness_target,
                "health": p.health.value,
                "failing_stage": p.failing_stage,
                "recovering": p.recover_at is not None,
                "suppressed": p.suppress_until is not None,
                "alloc_changed_at": scaled_at.get(pid, 0),
                "stages": {
                    sid: {
                        "alloc": st.alloc,
                        "min_alloc": st.spec.min_alloc,
                        "max_alloc": st.spec.max_alloc,
                    }
                    for sid, st in p.stages.items()
                },
                "drift": None
                if drift is None
                else {
                    "partition": drift.partition,
                    "quarantine_mode": drift.quarantine_mode,
                },
            }
            view = bundle.to_dict()["pipelines"][pid]
            assert view == expected, (bundle.tick, pid)
            self.seen_fields |= {key for key, value in expected.items() if value}
        return super().decide(bundle)


# Agent modules whose reads define the bundle: the monitoring agent reads
# the kernel snapshot through the anomaly detector.
_AGENT_MODULES = ("recovery", "optimization", "schema_agent", "monitoring")

# Dict paths whose keys are data (pipeline, stage and memory-cell ids),
# not names an agent looks up; "*" stands for any such key.
_DATA_KEYED = {
    ("pipelines",),
    ("pipelines", "*", "stages"),
    ("memory",),
    ("observed", "pipelines"),
}


def _read_by_agents() -> tuple[set[str], set[str]]:
    """String subscripts and ``.get`` arguments, and ``bundle.<name>`` reads,
    in the agent modules."""

    keys: set[str] = set()
    fields: set[str] = set()
    package = Path(pipegov.agents.__file__).parent
    for name in _AGENT_MODULES:
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            key = None
            if isinstance(node, ast.Subscript):
                key = node.slice
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
            ):
                key = node.args[0]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "bundle"
            ):
                fields.add(node.attr)
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
    return keys, fields


def _bundle_keys(node, path: tuple[str, ...]) -> set[str]:
    """Every dict key under ``node``, except the keys of ``_DATA_KEYED`` paths."""

    found: set[str] = set()
    if isinstance(node, dict):
        data = path in _DATA_KEYED
        for key, value in node.items():
            if not data:
                found.add(key)
            found |= _bundle_keys(value, path + ("*" if data else key,))
    elif isinstance(node, (list, tuple)):
        for value in node:
            found |= _bundle_keys(value, path)
    return found


class TestObservationBundles:
    def test_series_windows_equal_the_recorded_store(self, canonical_spec, policy):
        spec = _short_canonical(canonical_spec)
        backend = RecordingBackend()
        result = run_experiment(spec, policy, controller="agentic", backend=backend)
        assert result.incidents, "the scenario must raise incidents"
        recorded = {
            (pid, name): dict(result.store.series(pid, name))
            for pid in result.world.pipelines
            for name in ("utilization", "ingress")
        }
        assert len(backend.seen) == 3 * spec.horizon
        runs = set()
        for bundle in backend.seen:
            t = bundle["tick"]
            observed = bundle["observed"]["pipelines"]
            assert list(observed) == sorted(result.world.pipelines)
            for pid, seen in observed.items():
                ticks = range(max(0, t - 10), t)  # the last 10 ticks before t
                expected = [recorded[(pid, "ingress")][tick] for tick in ticks]
                assert seen["ingress"] == expected, (t, pid)
                run = 0  # samples in a row below 0.30, ending at tick t - 1
                while run < t and recorded[(pid, "utilization")][t - 1 - run] < 0.30:
                    run += 1
                assert seen["low_util_run"] == run, (t, pid)
                runs.add(run)
        assert {0, 29, 30} <= runs
        unsampled = {"freshness_lag": 0, "queue_depth": 0, "ingress": [], "low_util_run": 0}
        assert all(
            seen == unsampled
            for bundle in backend.seen
            if bundle["tick"] == 0
            for seen in bundle["observed"]["pipelines"].values()
        )

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(
                        [
                            0.0,
                            math.nextafter(LOW_UTIL_THRESHOLD, 0.0),
                            LOW_UTIL_THRESHOLD,
                            math.nextafter(LOW_UTIL_THRESHOLD, 1.0),
                            1.0,
                        ]
                    ),
                    st.floats(0.0, 1.0),
                ),
                st.integers(1, 40),
            ),
            max_size=8,
        ),
        scaled=st.sets(st.integers(1, 320), max_size=3),
    )
    def test_idle_rule_gates_on_the_last_utilization_samples(self, runs, scaled):
        # The fold keeps a run length, not a window. The idle scale-down must
        # still fire exactly when at least LOW_UTIL_TICKS samples exist, the
        # last LOW_UTIL_TICKS are all below LOW_UTIL_THRESHOLD, and no scaling
        # action applied in that long.
        spec = make_mini_scenario()
        world, loop = _make(spec, _policy(), agents=True, backend=NullBackend())
        for stage in world.pipelines["stream-a"].stages.values():
            stage.alloc = stage.spec.max_alloc  # a scale-up is clamped and a scale-down allowed
        utilization = [u for u, repeat in runs for _ in range(repeat)]
        busy = PipelineSample(0, 0, 0, 1.0, 0)
        changed_at = 0
        for t, u in enumerate(utilization, start=1):
            samples = {"stream-a": PipelineSample(0, 0, 0, u, 0), "batch-a": busy}
            report = TickReport(t - 1, TelemetrySnapshot(samples, 0), (), 0, 0.0)
            loop._fold_statistics(world, t, report)
            if t in scaled:
                action = ProposedAction(
                    f"ACT-{t}", t, Actor.OPTIMIZATION_AGENT, ActionKind.SCALE_UP, "stream-a",
                    delta_units=1,
                )
                loop._apply(world, t, action, 0)
                changed_at = t
            *_, (actor, bundle) = loop._bundles(world, t, report.snapshot)
            assert actor is Actor.OPTIMIZATION_AGENT
            window = utilization[:t][-LOW_UTIL_TICKS:]
            expected = (
                len(window) == LOW_UTIL_TICKS
                and all(v < LOW_UTIL_THRESHOLD for v in window)
                and t - changed_at >= LOW_UTIL_TICKS
            )
            proposed = [c.pipeline for c in optimize_propose(bundle) if c.kind == "ScaleDown"]
            assert proposed == (["stream-a"] if expected else []), t

    def test_delay_baseline_is_the_ingress_ewma_before_detection(self, canonical_spec, policy):
        # The batch pipelines see no ingress within 300 ticks, so their
        # baselines are 0.0. An early delay on a stream gives a baseline
        # that still depends on the first sample seeding the EWMA.
        raw = _short_canonical(canonical_spec).to_dict()
        raw["fault_schedule"].insert(
            0,
            {
                "tick": 6,
                "kind": "UpstreamDelay",
                "delay_ticks": 30,
                "missing_fraction": 0.1,
                "pipeline": "events-stream",
            },
        )
        spec = ScenarioSpec.from_dict(raw)
        backend = RecordingBackend()
        result = run_experiment(spec, policy, controller="agentic", backend=backend)
        ingress = {
            pid: [value for _, value in result.store.series(pid, "ingress")]
            for pid in result.world.pipelines
        }
        detected_at = {i.id: i.detected_tick for i in result.incidents}
        shown = set()
        for bundle in backend.seen:
            for view in bundle["open_incidents"]:
                if view["incident_class"] != "UpstreamDelay":
                    assert view["delay_baseline"] is None, (bundle["tick"], view["id"])
                    continue
                detected = detected_at[view["id"]]
                mean = 0.0  # no sample before the first tick
                for tick, value in enumerate(ingress[view["pipeline"]][:detected]):
                    mean = value if tick == 0 else mean + 0.2 * (value - mean)
                assert view["delay_baseline"] == mean, (bundle["tick"], view["id"])
                shown.add(view["pipeline"])
        assert "events-stream" in shown

    def test_open_records_follow_the_incident_table_every_tick(self, canonical_spec, policy):
        spec = _short_canonical(canonical_spec)
        world, loop = _make(spec, policy, agents=True, operator=OperatorModel())
        prev = None
        most_open = 0
        for t in range(spec.horizon):
            loop.tick(world, t, inject_faults(spec, world, t), prev)
            prev = step(world, generate_arrivals(spec, t))
            open_ids = [i.id for i in loop.incidents.values() if i.open]
            assert list(loop.ledger.open) == open_ids, t
            most_open = max(most_open, len(open_ids))
        assert most_open >= 2, "the order check needs overlapping incidents"

    def test_bundles_are_read_only_and_stay_valid(self, canonical_spec, policy):
        spec = _short_canonical(canonical_spec)
        clean = run_experiment(spec, policy, controller="agentic", backend=RecordingBackend())
        backend = KeepingBackend()
        kept = run_experiment(spec, policy, controller="agentic", backend=backend)
        assert kept.audit.to_jsonl() == clean.audit.to_jsonl()
        assert len(backend.kept) == len(backend.seen) == 3 * spec.horizon
        assert backend.containers > 20 * len(backend.kept)
        for bundle, copied in zip(backend.kept, backend.seen):
            assert bundle.to_dict() == copied, (bundle.tick, bundle.agent)
        pipelines = [b["pipelines"] for b in backend.seen]
        assert any(meta["drift"] for p in pipelines for meta in p.values())
        assert any(
            i["delay_baseline"] is not None for b in backend.seen for i in b["open_incidents"]
        )
        assert any(b["memory"] for b in backend.seen)
        assert any(b["open_incidents"] for b in backend.seen)

    def test_bundle_and_validation_see_one_committed_spend(self, canonical_spec, policy):
        # Nothing applies between a tick's bundles and the validation of its
        # first agent proposal, so both must read the same committed spend.
        backend = RecordingBackend()
        result = run_experiment(
            _short_canonical(canonical_spec), policy, controller="agentic", backend=backend
        )
        shown = {bundle["tick"]: bundle["policy"]["committed_spend"] for bundle in backend.seen}
        agents = {actor.value for actor in AGENT_PHASES[1:]}
        validated = {}
        for record in result.audit.records:
            payload = record.payload
            if (
                payload["kind"] == "decision"
                and payload["phase"] == "initial"
                and payload["action"]["agent"] in agents
            ):
                validated.setdefault(record.tick, payload["context"]["committed_spend"])
        assert len(validated) >= 5 and len(set(validated.values())) > 1, validated
        assert {t: shown[t] for t in validated} == validated

    def test_views_follow_the_world_every_tick(self, canonical_spec):
        # A policy that denies the schema agent's quarantine makes the sweep
        # escalate, and a replay of the regulated stream waits for approval.
        denying = default_policy_dict()
        denying["actions"]["allow_list"]["SchemaAgent"] = ["Resume", "Halt"]
        denying["actions"]["approval_required"].append({"kind": "Replay", "tag": "regulated"})
        spec = _short_canonical(canonical_spec)
        claims = set()
        for policy in (parse_policy(default_policy_dict()), parse_policy(denying)):
            backend = ViewCheckingBackend()
            world, loop = _make(spec, policy, agents=True, backend=backend, operator=OperatorModel())
            backend.world, backend.loop = world, loop
            _drive(spec, world, loop, spec.horizon)
            fields = {"drift", "delay_baseline", "recovering", "suppressed", "failing_stage"}
            assert fields | {"alloc_changed_at"} <= backend.seen_fields
            claims |= backend.claims
        assert {
            (None, False),
            ("SchemaAgent", False),
            ("RecoveryAgent", True),
            ("operator", False),
        } <= claims, claims

    def test_incident_view_follows_each_field_it_shows(self):
        spec = make_mini_scenario(faults=[_task_failure(2)])
        world, loop = _make(spec, _policy(), agents=True, backend=NullBackend())
        _drive(spec, world, loop, 3)
        (incident,) = loop.ledger.open.values()
        agent = Actor.RECOVERY_AGENT.value
        changes = (
            lambda: None,
            lambda: loop.ledger.proposed(incident.id, agent, 3),  # the claim
            lambda: loop.ledger.approval_requested(incident.id, agent),  # approval_pending
            lambda: loop.ledger.granted(incident.id),
            lambda: loop.ledger.acted(incident.id, agent, "Replay", 3, True),  # last_action_tick
        )
        shown = []
        for change in changes:
            change()
            _, bundle = loop._bundles(world, 3, TelemetrySnapshot({}, 0))[0]
            (view,) = bundle.open_incidents
            shown.append((view["claimed_by"], view["approval_pending"], view["last_action_tick"]))
            assert shown[-1] == (incident.claim, incident.approval_pending, incident.last_action_tick)
        assert all(before != after for before, after in zip(shown, shown[1:])), shown

    def test_woken_bundles_show_the_previous_kernel_snapshot(
        self, canonical_spec, policy, monkeypatch
    ):
        spec = _short_canonical(canonical_spec)
        keeping = KeepingBackend()  # asked every tick, so also before the first step
        world, loop = _make(spec, policy, agents=True, backend=keeping)
        loop.tick(world, 0, [], None)
        unsampled = {"freshness_lag": 0, "queue_depth": 0, "ingress": (), "low_util_run": 0}
        before_the_first_step = {
            "capacity_headroom": 0,
            "pipelines": {pid: unsampled for pid in sorted(world.pipelines)},
        }
        assert [b.observed for b in keeping.kept] == [before_the_first_step] * 3
        for bundle in keeping.kept:
            assert list(bundle.observed["pipelines"]) == sorted(world.pipelines)
            assert _read_only_containers(bundle.observed) == 2 + 2 * len(world.pipelines)

        # Later, the observed view is built only on a tick that builds
        # bundles, from the previous tick's kernel snapshot and the samples
        # folded through it, whatever ticks were skipped in between.
        seen = []
        decide = BuiltinBackend.decide

        def keep(backend, bundle):
            seen.append(bundle)
            return decide(backend, bundle)

        monkeypatch.setattr(BuiltinBackend, "decide", keep)
        world, loop = _make(spec, policy, agents=True, operator=OperatorModel())
        observed = {}
        prev = None
        for t in range(spec.horizon):
            loop.tick(world, t, inject_faults(spec, world, t), prev)
            prev = step(world, generate_arrivals(spec, t))
            observed[t] = prev.snapshot
        built = sorted({bundle.tick for bundle in seen})
        assert 1 < len(built) < spec.horizon // 2
        assert any(later - earlier > 1 for earlier, later in zip(built, built[1:]))
        for bundle in seen:
            kernel = observed[bundle.tick - 1]
            history = [observed[t].pipelines for t in range(bundle.tick)]
            expected = {
                "capacity_headroom": kernel.capacity_headroom,
                "pipelines": {
                    pid: {
                        "freshness_lag": sample.freshness_lag,
                        "queue_depth": sample.queue_depth,
                        "ingress": [float(h[pid].ingress) for h in history[-STABLE_TICKS:]],
                        "low_util_run": len(
                            list(takewhile(lambda h: h[pid].utilization < 0.30, history[::-1]))
                        ),
                    }
                    for pid, sample in sorted(kernel.pipelines.items())
                },
            }
            # Keys, their order and the values' types and values, read-only.
            assert json.dumps(bundle.to_dict()["observed"]) == json.dumps(expected), bundle.tick
            assert _read_only_containers(bundle.observed) == 2 + 2 * len(world.pipelines)

    def test_bundles_carry_only_keys_the_agents_read(self, canonical_spec, policy):
        backend = RecordingBackend()
        run_experiment(
            _short_canonical(canonical_spec), policy, controller="agentic", backend=backend
        )
        keys, fields = _read_by_agents()
        top: set[str] = set()
        nested: set[str] = set()
        for bundle in backend.seen:
            for key, value in bundle.items():
                top.add(key)
                nested |= _bundle_keys(value, (key,))
        assert {"drift", "partition", "delay_baseline", "attempts", "window"} <= nested
        assert (top - fields, nested - keys) == (set(), set())


class AskedEveryTickBackend(BuiltinBackend):
    """The builtin rules behind an overridden ``decide``, which the
    controller asks for every agent on every tick."""

    def decide(self, bundle):
        return super().decide(bundle)


@pytest.fixture
def builtin_calls(monkeypatch) -> list[str]:
    """The agent of each ``BuiltinBackend.decide`` call. It is patched on
    the class, as a tracer patches it, so the controller still sees the
    builtin dispatch."""

    calls: list[str] = []
    decide = BuiltinBackend.decide

    def counted(backend, bundle):
        calls.append(bundle.agent)
        return decide(backend, bundle)

    monkeypatch.setattr(BuiltinBackend, "decide", counted)
    return calls


def _proposers(result) -> set[str]:
    return {r.actor.value for r in result.audit.records if r.payload.get("kind") == "proposal"}


def _applied_by(result, actor: Actor, pipelines: set[str]) -> list[str]:
    """The kinds of ``actor``'s applied actions on ``pipelines``, in audit order."""

    return [
        r.payload["result"]["kind"]
        for r in result.audit.records
        if r.payload.get("event") == "action_outcome"
        and r.actor is actor
        and r.payload["result"]["status"] == "applied"
        and r.payload["result"]["pipeline"] in pipelines
    ]


class TestQuietTicks:
    @pytest.mark.parametrize(
        "case",
        [
            {},
            {"schema.mode": "strict", "schema.quarantine_allowed": False},
            {
                "actions.approval_required": [
                    {"kind": kind.value, "tag": "regulated"}
                    for kind in ActionKind
                    if kind not in SCALING_KINDS
                ]
            },
            {"cost.budget_per_window": default_policy_dict()["cost"]["budget_per_window"] / 2},
            # Criterion 2's fuzz cases in which a stream is Deferred and then
            # Resumed: the recovery trigger gates a Resume on the ingress window.
            3,
            12,
            43,
        ],
        ids=[
            "default",
            "strict schema, no quarantine",
            "approval on every remedy",
            "half budget",
            "fuzz case 3",
            "fuzz case 12",
            "fuzz case 43",
        ],
    )
    def test_skipped_calls_change_no_audit_byte(self, canonical_spec, case, builtin_calls):
        if isinstance(case, dict):  # policy overrides on the short canonical scenario
            spec, policy, config = _short_canonical(canonical_spec), _policy(**case), None
        else:
            spec, policy, config, _ = _fuzz_case(case)
        woken = run_experiment(
            spec, policy, controller="agentic", backend=BuiltinBackend(), config=config
        )
        woken_calls = len(builtin_calls)
        every = run_experiment(
            spec, policy, controller="agentic", backend=AskedEveryTickBackend(), config=config
        )
        assert len(builtin_calls) - woken_calls == 3 * spec.horizon
        assert 0 < woken_calls < 3 * spec.horizon
        assert woken.audit.to_jsonl() == every.audit.to_jsonl()
        if isinstance(case, dict):
            assert _proposers(woken) >= {"SchemaAgent", "RecoveryAgent", "OptimizationAgent"}
        else:
            streams = {p.id for p in spec.pipelines if p.kind is PipelineKind.STREAMING}
            kinds = _applied_by(woken, Actor.RECOVERY_AGENT, streams)
            assert "Resume" in kinds[kinds.index("Defer"):], kinds

    def test_left_out_agent_is_never_asked(self, canonical_spec, policy, builtin_calls):
        backend = make_backend("builtin:RecoveryAgent,SchemaAgent")
        result = run_experiment(
            _short_canonical(canonical_spec), policy, controller="agentic", backend=backend
        )
        assert set(builtin_calls) == {"RecoveryAgent", "SchemaAgent"}
        assert "OptimizationAgent" not in _proposers(result)

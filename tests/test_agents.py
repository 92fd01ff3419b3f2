"""Agent heuristics: anomaly detection, tuning, drift handling, recovery ranking."""

from __future__ import annotations

import json
import math
import random
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipegov.agents import (
    AnomalyDetector,
    BackendError,
    BuiltinBackend,
    CandidateAction,
    EwmaState,
    LOW_UTIL_TICKS,
    NotASchemaIncident,
    NullBackend,
    ObservationBundle,
    OutcomeMemory,
    STABLE_TICKS,
    StubBackend,
    UnknownIncidentClass,
    WATCHED_METRICS,
    make_backend,
    optimize_propose,
    recovery_candidates,
    recovery_propose,
    schema_candidates,
    schema_propose,
)
from pipegov.agents.bundle import ControlState
from pipegov.agents.controller import PipelineObservation
from pipegov.agents.optimization import optimization_wakes
from pipegov.agents.recovery import (
    REPROPOSE_AFTER,
    STABILITY_BAND,
    STABILITY_FLOOR,
    recovery_wakes,
)
from pipegov.agents.schema_agent import schema_wakes
from pipegov.core import Actor
from pipegov.simkernel import Health, PipelineSample, TelemetrySnapshot
from pipegov.telemetry import Incident, IncidentClass


def _stages(alloc=2, min_alloc=1, max_alloc=6, n=2) -> dict:
    return {
        f"s{i}": {"alloc": alloc, "min_alloc": min_alloc, "max_alloc": max_alloc}
        for i in range(n)
    }


def _meta(**kw) -> dict:
    meta = {
        "criticality": 2,
        "freshness_target": None,
        "health": "Healthy",
        "failing_stage": None,
        "recovering": False,
        "suppressed": False,
        "alloc_changed_at": 100,
        "stages": _stages(),
        "drift": None,
    }
    meta.update(kw)
    return meta


def _incident(**kw) -> dict:
    incident = {
        "id": "INC-1",
        "pipeline": "p",
        "incident_class": "TransientTaskFailure",
        "claimed_by": None,
        "approval_pending": False,
        "last_action_tick": None,
        "delay_baseline": None,
    }
    incident.update(kw)
    return incident


def _bundle(
    agent: str = Actor.OPTIMIZATION_AGENT.value,
    tick: int = 100,
    pipelines: dict | None = None,
    observed: dict | None = None,
    headroom: int = 10,
    incidents: tuple = (),
    policy: dict | None = None,
    memory: dict | None = None,
) -> ObservationBundle:
    """A complete bundle, as the controller builds it: every pipeline has
    every observed key, zeros and an empty ingress window unless
    ``observed`` gives them."""

    pipelines = pipelines or {}
    observed = observed or {}
    base_policy = {
        "max_scale_step": 2,
        "budget_per_window": 10_000.0,
        "committed_spend": 0.0,
        "unit_price": 0.5,
        "window": 100,
        "allowed_strategies": ("Replay", "Rollback", "PartialRecompute", "Defer", "Resume"),
        "quarantine_allowed": True,
        "schema_mode": "permissive",
    }
    if policy:
        base_policy.update(policy)
    return ObservationBundle(
        tick=tick,
        agent=agent,
        observed={
            "pipelines": {
                pid: {
                    "freshness_lag": 0,
                    "queue_depth": 0,
                    "ingress": (),
                    "low_util_run": 0,
                    **observed.get(pid, {}),
                }
                for pid in pipelines
            },
            "capacity_headroom": headroom,
        },
        open_incidents=incidents,
        pipelines=pipelines,
        policy=base_policy,
        memory=memory or {},
    )


class TestAnomalyDetector:
    def test_step_after_flat_history_flags_on_fifth_sample(self):
        state = EwmaState()
        assert [state.update(v) for v in [10, 10, 10, 10]] == [False] * 4
        assert state.update(50) is True

    def test_flag_carries_prefold_statistics(self):
        detector = AnomalyDetector()
        for _ in range(4):
            assert detector.observe_sample(0, "p", "ingress", 10.0) is None
        flag = detector.observe_sample(4, "p", "ingress", 50.0)
        assert flag is not None
        assert flag.mean == pytest.approx(10.0)
        assert flag.deviation == pytest.approx(0.0)
        assert flag.value == 50.0
        assert flag.metric == "ingress"

    def test_constant_series_never_flags(self):
        state = EwmaState()
        assert not any(state.update(7.0) for _ in range(100))

    def test_small_jitter_inside_floor_never_flags(self):
        state = EwmaState()
        values = [5.0, 5.5, 4.5, 5.0] * 25
        assert not any(state.update(v) for v in values)

    def test_step_just_over_floor_threshold_flags(self):
        state = EwmaState()
        for _ in range(4):
            state.update(5.0)
        assert state.update(5.0 + 3.01) is True

    def test_step_at_threshold_does_not_flag(self):
        state = EwmaState()
        for _ in range(4):
            state.update(5.0)
        assert state.update(8.0) is False  # |8-5| == k*floor exactly

    def test_ewma_fold_arithmetic(self):
        state = EwmaState()
        state.update(10.0)
        assert (state.mean, state.deviation) == (10.0, 0.0)
        state.update(20.0)
        assert state.mean == pytest.approx(12.0)  # 10 + 0.2*(20-10)
        assert state.deviation == pytest.approx(2.0)  # 0 + 0.2*(|20-10|-0)

    def test_no_flags_before_min_samples(self):
        state = EwmaState()
        assert state.update(0.0) is False
        assert state.update(1000.0) is False
        assert state.update(0.0) is False
        assert state.update(1000.0) is False

    def test_observe_snapshot_scans_watched_metrics(self):
        detector = AnomalyDetector()
        quiet = PipelineSample(
            queue_depth=5, freshness_lag=1, failure_count=0, utilization=0.5, ingress=50
        )
        for tick in range(6):
            assert detector.observe_snapshot(tick, TelemetrySnapshot({"orders": quiet}, 0)) == []
        spiked = quiet._replace(queue_depth=500)
        flags = detector.observe_snapshot(6, TelemetrySnapshot({"orders": spiked}, 0))
        assert [(f.pipeline, f.metric, f.tick) for f in flags] == [("orders", "queue_depth", 6)]

    def test_observe_snapshot_equals_observe_sample_per_series(self):
        rng = random.Random(11)
        pids = ("stream-b", "batch-a", "stream-a")  # not in sorted order
        by_snapshot, by_sample = AnomalyDetector(), AnomalyDetector()
        raised = set()
        for tick in range(400):
            pipelines = {}
            for pid in pids:
                pipelines[pid] = PipelineSample(
                    queue_depth=rng.randrange(0, 40),
                    freshness_lag=rng.choice((0, 0, 0, 1, 2, 25)),
                    failure_count=rng.randrange(0, 2),
                    utilization=rng.random(),
                    ingress=rng.gauss(50.0, 4.0) * (6 if rng.random() < 0.03 else 1),
                )
            flags = by_snapshot.observe_snapshot(tick, TelemetrySnapshot(pipelines, 0))
            expected = []
            for pid in sorted(pids):
                for metric in WATCHED_METRICS:
                    value = float(getattr(pipelines[pid], metric))
                    flag = by_sample.observe_sample(tick, pid, metric, value)
                    if flag is not None:
                        expected.append(flag)
            assert flags == expected, tick
            raised.update((f.pipeline, f.metric) for f in flags)
        assert {metric for _, metric in raised} == set(WATCHED_METRICS)
        assert {pid for pid, _ in raised} == set(pids)
        assert by_snapshot._states == by_sample._states

    def test_states_are_independent_per_pipeline_and_metric(self):
        detector = AnomalyDetector()
        for _ in range(10):
            detector.observe_sample(0, "a", "ingress", 10.0)
        # "b" has no history; its fifth sample is judged against its own stats
        for _ in range(5):
            assert detector.observe_sample(0, "b", "ingress", 500.0) is None


class TestOptimizePropose:
    def test_idle_quiet_cluster_proposes_nothing(self):
        bundle = _bundle(pipelines={"p": _meta()}, observed={"p": {"queue_depth": 0}})
        assert optimize_propose(bundle) == []

    def test_contention_sheds_least_critical_first(self):
        pipelines = {
            "alpha": _meta(criticality=1),
            "beta": _meta(criticality=3),
        }
        snap = {
            "alpha": {"queue_depth": 40, "freshness_lag": 0},
            "beta": {"queue_depth": 40, "freshness_lag": 0},
        }
        bundle = _bundle(pipelines=pipelines, observed=snap, headroom=-4)
        candidates = optimize_propose(bundle)
        sheds = [c for c in candidates if c.kind == "ScaleDown"]
        assert [c.pipeline for c in sheds] == ["beta", "alpha"]
        assert all(c.delta_units == 2 for c in sheds)

    def test_contention_ties_break_by_pipeline_id(self):
        pipelines = {
            "zeta": _meta(criticality=2),
            "acme": _meta(criticality=2),
        }
        snap = {pid: {"queue_depth": 9} for pid in pipelines}
        bundle = _bundle(pipelines=pipelines, observed=snap, headroom=-1)
        assert [c.pipeline for c in optimize_propose(bundle)] == ["acme", "zeta"]

    def test_contention_skips_drained_and_floored_pipelines(self):
        pipelines = {
            "drained": _meta(),
            "floored": _meta(stages=_stages(alloc=1, min_alloc=1)),
        }
        snap = {
            "drained": {"queue_depth": 0},
            "floored": {"queue_depth": 50},
        }
        bundle = _bundle(pipelines=pipelines, observed=snap, headroom=-2)
        assert optimize_propose(bundle) == []

    def test_sustained_low_utilization_scales_down(self):
        pipelines = {"p": _meta(alloc_changed_at=100 - LOW_UTIL_TICKS)}
        observed = {"p": {"queue_depth": 1, "low_util_run": LOW_UTIL_TICKS}}
        bundle = _bundle(pipelines=pipelines, observed=observed)
        candidates = optimize_propose(bundle)
        assert [(c.kind, c.pipeline, c.delta_units) for c in candidates] == [("ScaleDown", "p", 2)]

    def test_recent_alloc_change_blocks_scale_down(self):
        pipelines = {"p": _meta(alloc_changed_at=100 - (LOW_UTIL_TICKS - 1))}
        observed = {"p": {"low_util_run": LOW_UTIL_TICKS}}
        bundle = _bundle(pipelines=pipelines, observed=observed)
        assert optimize_propose(bundle) == []

    def test_single_busy_tick_blocks_scale_down(self):
        # the newest sample was busy, so the run restarted at 0
        pipelines = {"p": _meta(alloc_changed_at=100 - LOW_UTIL_TICKS)}
        bundle = _bundle(pipelines=pipelines, observed={"p": {"low_util_run": 0}})
        assert optimize_propose(bundle) == []

    def test_short_history_blocks_scale_down(self):
        pipelines = {"p": _meta(alloc_changed_at=100 - LOW_UTIL_TICKS)}
        bundle = _bundle(pipelines=pipelines, observed={"p": {"low_util_run": LOW_UTIL_TICKS - 1}})
        assert optimize_propose(bundle) == []

    def test_unhealthy_pipeline_never_tuned(self):
        pipelines = {
            "p": _meta(
                health="Failing",
                alloc_changed_at=100 - LOW_UTIL_TICKS,
                freshness_target=10,
            )
        }
        observed = {"p": {"queue_depth": 0, "freshness_lag": 99, "low_util_run": LOW_UTIL_TICKS}}
        bundle = _bundle(pipelines=pipelines, observed=observed)
        assert optimize_propose(bundle) == []

    def test_freshness_breach_scales_up_most_critical_first(self):
        pipelines = {
            "low": _meta(criticality=3, freshness_target=10),
            "high": _meta(criticality=1, freshness_target=10),
        }
        snap = {pid: {"queue_depth": 0, "freshness_lag": 25} for pid in pipelines}
        bundle = _bundle(pipelines=pipelines, observed=snap)
        candidates = optimize_propose(bundle)
        assert [(c.kind, c.pipeline) for c in candidates] == [
            ("ScaleUp", "high"),
            ("ScaleUp", "low"),
        ]

    def test_lag_at_target_is_not_a_breach(self):
        pipelines = {"p": _meta(freshness_target=10)}
        snap = {"p": {"queue_depth": 0, "freshness_lag": 10}}
        assert optimize_propose(_bundle(pipelines=pipelines, observed=snap)) == []

    def test_maxed_out_pipeline_cannot_scale_up(self):
        pipelines = {"p": _meta(freshness_target=10, stages=_stages(alloc=6, max_alloc=6))}
        snap = {"p": {"queue_depth": 0, "freshness_lag": 99}}
        assert optimize_propose(_bundle(pipelines=pipelines, observed=snap)) == []

    def test_suppressed_pipeline_not_scaled_up(self):
        pipelines = {"p": _meta(freshness_target=10, suppressed=True)}
        snap = {"p": {"queue_depth": 0, "freshness_lag": 99}}
        assert optimize_propose(_bundle(pipelines=pipelines, observed=snap)) == []

    def test_budget_headroom_limits_scale_ups_cumulatively(self):
        # each proposal adds step(2) x 2 stages = 4 units at 0.5/unit over 10 ticks = 20
        pipelines = {
            "high": _meta(criticality=1, freshness_target=10),
            "low": _meta(criticality=3, freshness_target=10),
        }
        snap = {pid: {"queue_depth": 0, "freshness_lag": 25} for pid in pipelines}
        policy = {
            "budget_per_window": 100.0,
            "committed_spend": 65.0,
            "unit_price": 0.5,
            "window": 10,
        }
        bundle = _bundle(pipelines=pipelines, observed=snap, policy=policy)
        candidates = optimize_propose(bundle)
        assert [(c.kind, c.pipeline) for c in candidates] == [("ScaleUp", "high")]


class TestSchemaPropose:
    _policy = {"quarantine_allowed": True, "schema_mode": "permissive"}
    _drift = {"partition": "pt-3", "quarantine_mode": False}

    def _incident(self, **kw) -> dict:
        base = {"id": "INC-7", "incident_class": "SchemaIncompatible", "pipeline": "orders"}
        return _incident(**{**base, **kw})

    def test_incompatible_drift_quarantines_when_allowed(self):
        candidate = schema_propose(self._incident(), self._drift, self._policy)
        assert (candidate.kind, candidate.pipeline) == ("QuarantinePartition", "orders")
        assert candidate.partition == "pt-3"
        assert candidate.incident_id == "INC-7"

    def test_incompatible_drift_halts_under_strict_mode(self):
        policy = {"quarantine_allowed": False, "schema_mode": "strict"}
        candidate = schema_propose(self._incident(), self._drift, policy)
        assert candidate.kind == "Halt"

    def test_incompatible_drift_resumes_under_permissive_mode(self):
        policy = {"quarantine_allowed": False, "schema_mode": "permissive"}
        candidate = schema_propose(self._incident(), self._drift, policy)
        assert candidate.kind == "Resume"

    def test_rejects_other_incident_classes(self):
        with pytest.raises(NotASchemaIncident):
            schema_propose(self._incident(incident_class="UpstreamDelay"), {}, self._policy)


class TestSchemaCandidates:
    def _drifted(self, **kw) -> dict:
        meta = _meta(
            health="Failing",
            drift={"partition": "pt-1", "quarantine_mode": False},
        )
        meta.update(kw)
        return meta

    def _incident(self, **kw) -> dict:
        return _incident(**{"incident_class": "SchemaIncompatible", **kw})

    def test_open_drift_yields_quarantine(self):
        bundle = _bundle(
            agent=Actor.SCHEMA_AGENT.value,
            pipelines={"p": self._drifted()},
            incidents=(self._incident(),),
        )
        candidates = schema_candidates(bundle)
        assert [(c.kind, c.pipeline, c.partition) for c in candidates] == [
            ("QuarantinePartition", "p", "pt-1")
        ]
        assert candidates[0].incident_id == "INC-1"

    def test_claim_by_another_agent_skips(self):
        bundle = _bundle(
            agent=Actor.SCHEMA_AGENT.value,
            pipelines={"p": self._drifted()},
            incidents=(self._incident(claimed_by="RecoveryAgent"),),
        )
        assert schema_candidates(bundle) == []

    def test_own_claim_still_handled(self):
        bundle = _bundle(
            agent=Actor.SCHEMA_AGENT.value,
            pipelines={"p": self._drifted()},
            incidents=(self._incident(claimed_by=Actor.SCHEMA_AGENT.value),),
        )
        assert len(schema_candidates(bundle)) == 1

    def test_pending_approval_skips(self):
        bundle = _bundle(
            agent=Actor.SCHEMA_AGENT.value,
            pipelines={"p": self._drifted()},
            incidents=(self._incident(approval_pending=True),),
        )
        assert schema_candidates(bundle) == []

    def test_quarantine_already_underway_skips(self):
        meta = self._drifted(drift={"partition": "pt-1", "quarantine_mode": True})
        bundle = _bundle(
            agent=Actor.SCHEMA_AGENT.value,
            pipelines={"p": meta},
            incidents=(self._incident(),),
        )
        assert schema_candidates(bundle) == []

    def test_recovering_pipeline_skips(self):
        bundle = _bundle(
            agent=Actor.SCHEMA_AGENT.value,
            pipelines={"p": self._drifted(recovering=True)},
            incidents=(self._incident(),),
        )
        assert schema_candidates(bundle) == []

    def test_non_schema_incidents_ignored(self):
        bundle = _bundle(
            agent=Actor.SCHEMA_AGENT.value,
            pipelines={"p": self._drifted()},
            incidents=(self._incident(incident_class="UpstreamDelay"),),
        )
        assert schema_candidates(bundle) == []


class TestRecoveryPropose:
    def _incident(self, incident_class="TransientTaskFailure") -> dict:
        return _incident(id="INC-2", incident_class=incident_class)

    _allowed = ("Replay", "Rollback", "PartialRecompute", "Defer", "Resume")

    def test_empty_memory_uses_fixed_order(self):
        assert recovery_propose(self._incident(), {}, self._allowed) == "Replay"

    def test_higher_success_rate_wins(self):
        memory = {
            "TransientTaskFailure:Replay": {
                "attempts": 3, "success_rate": 1 / 3, "mean_resolution": 4.0,
            },
            "TransientTaskFailure:Rollback": {
                "attempts": 3, "success_rate": 1.0, "mean_resolution": 9.0,
            },
        }
        assert recovery_propose(self._incident(), memory, self._allowed) == "Rollback"

    def test_faster_resolution_breaks_rate_ties(self):
        memory = {
            "TransientTaskFailure:Replay": {
                "attempts": 2, "success_rate": 1.0, "mean_resolution": 8.0,
            },
            "TransientTaskFailure:Rollback": {
                "attempts": 2, "success_rate": 1.0, "mean_resolution": 5.0,
            },
        }
        assert recovery_propose(self._incident(), memory, self._allowed) == "Rollback"

    def test_identical_stats_keep_fixed_order(self):
        cell = {"attempts": 2, "success_rate": 0.5, "mean_resolution": 6.0}
        memory = {
            "TransientTaskFailure:Replay": dict(cell),
            "TransientTaskFailure:Rollback": dict(cell),
        }
        assert recovery_propose(self._incident(), memory, self._allowed) == "Replay"

    def test_policy_filter_narrows_candidates(self):
        assert recovery_propose(self._incident(), {}, ("Rollback",)) == "Rollback"

    def test_nothing_allowed_falls_back_to_preference(self):
        assert recovery_propose(self._incident(), {}, ("Defer",)) == "Replay"

    def test_unknown_incident_class_raises(self):
        with pytest.raises(UnknownIncidentClass):
            recovery_propose(self._incident(incident_class="SchemaIncompatible"), {}, self._allowed)

    def test_outcome_memory_statistics(self):
        memory = OutcomeMemory()
        memory.record_attempt("TransientTaskFailure", "Replay")
        memory.record_attempt("TransientTaskFailure", "Replay")
        memory.record_success("TransientTaskFailure", "Replay", resolution_ticks=8)
        extracted = memory.extract()
        cell = extracted["TransientTaskFailure:Replay"]
        assert cell["success_rate"] == pytest.approx(0.5)
        assert cell["mean_resolution"] == pytest.approx(8.0)
        assert cell["attempts"] == 2
        assert set(cell) == {"attempts", "success_rate", "mean_resolution"}  # no success count
        assert "Nope:Replay" not in extracted

        # view() is extract() made read-only at both levels, built on each
        # call: a view already handed out never changes, a later one shows
        # every record since.
        view = memory.view()
        assert view == extracted
        with pytest.raises(TypeError):
            view["Nope:Replay"] = {}
        with pytest.raises(TypeError):
            view["TransientTaskFailure:Replay"]["attempts"] = 0
        for record in (
            lambda: memory.record_attempt("TransientTaskFailure", "Rollback"),
            lambda: memory.record_success("TransientTaskFailure", "Replay", resolution_ticks=4),
        ):
            before = memory.view()
            shown = {key: dict(cell) for key, cell in before.items()}
            record()
            assert before == shown
            assert memory.view() == memory.extract() != shown
        assert memory.view()["TransientTaskFailure:Rollback"]["attempts"] == 1
        assert memory.view()["TransientTaskFailure:Replay"]["mean_resolution"] == pytest.approx(6.0)

    def test_memory_rejects_excess_successes(self):
        memory = OutcomeMemory()
        memory.record_attempt("TransientTaskFailure", "Replay")
        memory.record_success("TransientTaskFailure", "Replay", 1)
        with pytest.raises(ValueError):
            memory.record_success("TransientTaskFailure", "Replay", 1)


class TestRecoveryCandidates:
    def _incident(self, **kw) -> dict:
        return _incident(**{"id": "INC-3", **kw})

    def _delay(self, baseline: float = 20.0) -> dict:
        return self._incident(incident_class="UpstreamDelay", delay_baseline=baseline)

    def test_failing_pipeline_gets_best_strategy_on_its_stage(self):
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Failing", failing_stage="s1")},
            incidents=(self._incident(),),
        )
        candidates = recovery_candidates(bundle)
        assert [(c.kind, c.pipeline, c.stage) for c in candidates] == [("Replay", "p", "s1")]
        assert candidates[0].incident_id == "INC-3"

    def test_recent_attempt_waits_before_reproposing(self):
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            tick=100,
            pipelines={"p": _meta(health="Failing", failing_stage="s1")},
            incidents=(self._incident(last_action_tick=95),),
        )
        assert recovery_candidates(bundle) == []

    def test_stale_attempt_is_reproposed(self):
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            tick=100,
            pipelines={"p": _meta(health="Failing", failing_stage="s1")},
            incidents=(self._incident(last_action_tick=90),),
        )
        assert len(recovery_candidates(bundle)) == 1

    def test_healthy_pipeline_with_open_task_incident_waits(self):
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Healthy")},
            incidents=(self._incident(),),
        )
        assert recovery_candidates(bundle) == []

    def test_recovering_pipeline_not_touched(self):
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Failing", recovering=True)},
            incidents=(self._incident(),),
        )
        assert recovery_candidates(bundle) == []

    def test_upstream_delay_defers_running_pipeline(self):
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Healthy")},
            incidents=(self._delay(),),
        )
        candidates = recovery_candidates(bundle)
        assert [(c.kind, c.pipeline) for c in candidates] == [("Defer", "p")]

    def test_deferred_pipeline_resumes_after_stable_ingress(self):
        observed = {"p": {"ingress": [20.0] * STABLE_TICKS}}
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Deferred")},
            observed=observed,
            incidents=(self._delay(),),
        )
        candidates = recovery_candidates(bundle)
        assert [c.kind for c in candidates] == ["Resume"]

    def test_resume_waits_for_full_stability_window(self):
        observed = {"p": {"ingress": [20.0] * (STABLE_TICKS - 1)}}
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Deferred")},
            observed=observed,
            incidents=(self._delay(),),
        )
        assert recovery_candidates(bundle) == []

    def test_one_sample_outside_band_blocks_resume(self):
        window = [20.0] * (STABLE_TICKS - 1) + [15.9]  # band is 0.2 x 20 = 4
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Deferred")},
            observed={"p": {"ingress": window}},
            incidents=(self._delay(),),
        )
        assert recovery_candidates(bundle) == []

    def test_band_floor_lets_quiet_sources_settle(self):
        # baseline 0: the relative band collapses, the absolute floor (1.0) holds
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Deferred")},
            observed={"p": {"ingress": [0.5] * STABLE_TICKS}},
            incidents=(self._delay(0.0),),
        )
        assert [c.kind for c in recovery_candidates(bundle)] == ["Resume"]

    def test_suppressed_pipeline_stays_deferred(self):
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Deferred", suppressed=True)},
            observed={"p": {"ingress": [20.0] * STABLE_TICKS}},
            incidents=(self._delay(),),
        )
        assert recovery_candidates(bundle) == []

    def test_unknown_incident_classes_passed_over(self):
        bundle = _bundle(
            agent=Actor.RECOVERY_AGENT.value,
            pipelines={"p": _meta(health="Failing")},
            incidents=(self._incident(incident_class="SchemaIncompatible"),),
        )
        assert recovery_candidates(bundle) == []


class TestCandidateAction:
    def test_round_trip(self):
        candidate = CandidateAction(
            kind="QuarantinePartition",
            pipeline="p",
            partition="pt-1",
            rationale="why",
            incident_id="INC-1",
        )
        assert CandidateAction.from_dict(candidate.to_dict()) == candidate

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            CandidateAction.from_dict({"kind": "Halt", "pipeline": "p", "force": True})

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            CandidateAction.from_dict({"pipeline": "p"})

    def test_non_integer_delta_rejected(self):
        with pytest.raises(ValueError, match="delta_units"):
            CandidateAction.from_dict({"kind": "ScaleUp", "pipeline": "p", "delta_units": "2"})

    def test_boolean_delta_rejected(self):
        with pytest.raises(ValueError, match="delta_units"):
            CandidateAction.from_dict({"kind": "ScaleUp", "pipeline": "p", "delta_units": True})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            CandidateAction.from_dict(["Halt"])


class TestBackends:
    def test_builtin_dispatches_by_agent(self):
        drifted = _meta(
            health="Failing",
            drift={"partition": "pt-1", "compatible": False, "quarantine_mode": False},
        )
        incident = {
            "id": "INC-1",
            "incident_class": "SchemaIncompatible",
            "pipeline": "p",
            "claimed_by": None,
            "approval_pending": False,
        }
        bundle = _bundle(
            agent=Actor.SCHEMA_AGENT.value, pipelines={"p": drifted}, incidents=(incident,)
        )
        assert BuiltinBackend().decide(bundle) == schema_candidates(bundle)
        assert BuiltinBackend().decide(bundle)[0].kind == "QuarantinePartition"

    def test_builtin_returns_nothing_for_unrouted_agents(self):
        bundle = _bundle(agent=Actor.MONITORING_AGENT.value)
        assert BuiltinBackend().decide(bundle) == []

    def test_null_backend_never_proposes(self):
        bundle = _bundle()
        assert NullBackend().decide(bundle) == []

    def test_stub_replays_scripted_candidates(self, tmp_path):
        script = {
            "100:OptimizationAgent": [
                {"kind": "ScaleUp", "pipeline": "p", "delta_units": 2, "rationale": "scripted"}
            ]
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        backend = StubBackend(str(path))
        candidates = backend.decide(_bundle(tick=100))
        assert [(c.kind, c.pipeline, c.delta_units) for c in candidates] == [("ScaleUp", "p", 2)]

    def test_stub_missing_key_means_no_candidates(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("{}")
        assert StubBackend(str(path)).decide(_bundle(tick=100)) == []

    def test_stub_non_list_entry_raises(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"100:OptimizationAgent": {"kind": "Halt"}}))
        with pytest.raises(BackendError):
            StubBackend(str(path)).decide(_bundle(tick=100))

    def test_stub_malformed_candidate_raises(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"100:OptimizationAgent": [{"kind": "Halt"}]}))
        with pytest.raises(BackendError, match="100:OptimizationAgent"):
            StubBackend(str(path)).decide(_bundle(tick=100))

    def test_stub_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("[1, 2]")
        with pytest.raises(BackendError):
            StubBackend(str(path))

    def test_make_backend_selectors(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("{}")
        assert isinstance(make_backend("builtin"), BuiltinBackend)
        assert isinstance(make_backend("null"), NullBackend)
        stub = make_backend(f"stub:{path}")
        assert isinstance(stub, StubBackend)
        assert stub.path == str(path)
        with pytest.raises(BackendError):
            make_backend("stub:")
        for selector in (
            "magic",
            "builtin:",
            "builtin:Magic",
            "builtin:SchemaAgent,SchemaAgent",
            "builtin:MonitoringAgent",
        ):
            with pytest.raises(BackendError, match="unknown backend selector"):
                make_backend(selector)

    def test_builtin_agent_list_selects_rules(self):
        every = make_backend("builtin:SchemaAgent,OptimizationAgent,RecoveryAgent")
        assert every.rules == BuiltinBackend().rules
        backend = make_backend("builtin:RecoveryAgent,SchemaAgent")
        assert list(backend.rules) == ["RecoveryAgent", "SchemaAgent"]
        bundle = _one_stream(alloc=2, idle=LOW_UTIL_TICKS)
        assert optimize_propose(bundle) and backend.decide(bundle) == []


_BASELINE = 10.0  # the drawn UpstreamDelay baselines: this, and 0.0 for a quiet source
_BAND = max(STABILITY_BAND * _BASELINE, STABILITY_FLOOR)
_FLOOR_BAND = max(STABILITY_BAND * 0.0, STABILITY_FLOOR)
# Ingress windows on and just past the band's edges around either baseline.
_AT_EDGE = (_BASELINE + _BAND,) * STABLE_TICKS
_ONE_PAST_EDGE = (_BASELINE,) * (STABLE_TICKS - 1) + (math.nextafter(_BASELINE + _BAND, math.inf),)
_AT_FLOOR_EDGE = (_FLOOR_BAND,) * STABLE_TICKS
_WINDOWS = (
    (),
    (_BASELINE,) * (STABLE_TICKS - 1),  # one sample short
    (_BASELINE,) * STABLE_TICKS,
    _AT_EDGE,
    (_BASELINE - _BAND,) * STABLE_TICKS,
    _ONE_PAST_EDGE,
    (math.nextafter(_BASELINE - _BAND, 0.0),) * STABLE_TICKS,
    _AT_FLOOR_EDGE,
    (0.0,) * (STABLE_TICKS - 1) + (math.nextafter(_FLOOR_BAND, math.inf),),
)


_ALL_CLASSES = tuple(c.value for c in IncidentClass)


@st.composite
def _drawn_bundles(draw, agent: str, classes: tuple[str, ...] = _ALL_CLASSES) -> ObservationBundle:
    """A complete bundle at tick 100 over up to three pipelines: stages at,
    between and at the bounds of their floor and ceiling, alloc gates and
    low-utilization runs on either side of LOW_UTIL_TICKS, every health,
    lags on either side of a target, drift in and out of quarantine,
    suppression, fixes maturing, ingress windows at the stability band's
    edges, and open incidents of ``classes``, claimed by nobody, the agent
    or someone else, with approvals pending and last actions on either side
    of REPROPOSE_AFTER."""

    tick = 100
    around = st.sampled_from([0, LOW_UTIL_TICKS - 1, LOW_UTIL_TICKS, LOW_UTIL_TICKS + 1])
    seldom = st.sampled_from([False, False, True])  # so that more draws reach a rule's end
    pids = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    pipelines, observed = {}, {}
    for pid in pids:
        n = draw(st.integers(1, 2))
        stages = {
            f"s{i}": {"alloc": draw(st.sampled_from([1, 2, 4])), "min_alloc": 1, "max_alloc": 4}
            for i in range(n)
        }
        drift = None
        if not draw(seldom):
            drift = {"partition": "pt-1", "quarantine_mode": draw(seldom)}
        pipelines[pid] = _meta(
            criticality=draw(st.integers(1, 3)),
            freshness_target=draw(st.sampled_from([None, 10])),
            health=draw(st.sampled_from([h.value for h in Health])),
            failing_stage=draw(st.sampled_from([None, "s0"])),
            recovering=draw(seldom),
            suppressed=draw(seldom),
            alloc_changed_at=tick - draw(around),
            stages=stages,
            drift=drift,
        )
        observed[pid] = {
            "freshness_lag": draw(st.sampled_from([0, 10, 11, 40])),
            "queue_depth": draw(st.sampled_from([0, 5])),
            "low_util_run": draw(around),
            "ingress": draw(st.sampled_from(_WINDOWS)),
        }
    incidents = []
    for n in range(draw(st.integers(1, 3))):
        cls = draw(st.sampled_from(classes))
        incidents.append(
            _incident(
                id=f"INC-{n}",
                pipeline=draw(st.sampled_from(pids)),
                incident_class=cls,
                claimed_by=draw(st.sampled_from([None, None, agent, "operator"])),
                approval_pending=draw(seldom),
                last_action_tick=draw(
                    st.sampled_from(
                        [
                            None,
                            tick - 1,
                            tick - REPROPOSE_AFTER + 1,
                            tick - REPROPOSE_AFTER,
                            tick - REPROPOSE_AFTER - 1,
                        ]
                    )
                ),
                delay_baseline=draw(st.sampled_from([_BASELINE, 0.0]))
                if cls == "UpstreamDelay"
                else None,
            )
        )
    policy = {
        "budget_per_window": draw(st.sampled_from([0.0, 10_000.0])),
        "quarantine_allowed": draw(st.booleans()),
        "schema_mode": draw(st.sampled_from(["strict", "permissive"])),
    }
    return _bundle(
        agent=agent,
        tick=tick,
        pipelines=pipelines,
        observed=observed,
        headroom=draw(st.sampled_from([-1, 0, 5])),
        incidents=tuple(incidents),
        policy=policy,
    )


def _state(bundle: ObservationBundle) -> ControlState:
    """The controller state ``bundle`` is built from: the ledger's incidents,
    pipelines with the attributes the real ones have, the kernel snapshot,
    and the records and scaling ticks the bundle's views show."""

    def stage(view):
        bounds = SimpleNamespace(min_alloc=view["min_alloc"], max_alloc=view["max_alloc"])
        return SimpleNamespace(alloc=view["alloc"], spec=bounds)

    pipelines = {
        pid: SimpleNamespace(
            health=Health(meta["health"]),
            recover_at=bundle.tick + 1 if meta["recovering"] else None,
            suppress_until=bundle.tick + 1 if meta["suppressed"] else None,
            pending_drift=None
            if meta["drift"] is None
            else SimpleNamespace(quarantine_mode=meta["drift"]["quarantine_mode"]),
            spec=SimpleNamespace(freshness_target=meta["freshness_target"]),
            stages={sid: stage(view) for sid, view in meta["stages"].items()},
        )
        for pid, meta in bundle.pipelines.items()
    }
    incidents = [
        Incident(
            i["id"],
            i["pipeline"],
            IncidentClass(i["incident_class"]),
            detected_tick=0,
            claim=i["claimed_by"],
            last_action_tick=i["last_action_tick"],
            approval_pending=i["approval_pending"],
            delay_baseline=i["delay_baseline"],
        )
        for i in bundle.open_incidents
    ]
    observed = bundle.observed["pipelines"]
    snapshot = TelemetrySnapshot(
        {
            pid: PipelineSample(s["queue_depth"], s["freshness_lag"], 0, 0.0, 0)
            for pid, s in observed.items()
        },
        bundle.observed["capacity_headroom"],
    )
    return ControlState(
        bundle.tick,
        incidents,
        snapshot,
        pipelines,
        {
            pid: PipelineObservation(deque(s["ingress"], maxlen=STABLE_TICKS), s["low_util_run"])
            for pid, s in observed.items()
        },
        {pid: meta["alloc_changed_at"] for pid, meta in bundle.pipelines.items()},
    )


def _one_stream(alloc: int, idle: int = 0, lag: int = 0) -> ObservationBundle:
    """One healthy stream with a target of 10 and stages of 1 to 4 units at
    ``alloc``: ``idle`` ticks idle and as long since its last scaling, and
    ``lag`` behind."""

    meta = _meta(
        freshness_target=10,
        alloc_changed_at=100 - idle,
        stages=_stages(alloc=alloc, max_alloc=4),
    )
    return _bundle(
        pipelines={"p": meta},
        observed={"p": {"freshness_lag": lag, "low_util_run": idle}},
    )


def _optimizer_should_wake(bundle: ObservationBundle) -> bool:
    """The optimizer's trigger as its module docstring states it."""

    if bundle.observed["capacity_headroom"] < 0:
        return True
    for pid, meta in bundle.pipelines.items():
        if meta["health"] != "Healthy" or meta["recovering"]:
            continue
        stages = meta["stages"].values()
        idle = (
            bundle.observed["pipelines"][pid]["low_util_run"] >= LOW_UTIL_TICKS
            and bundle.tick - meta["alloc_changed_at"] >= LOW_UTIL_TICKS
        )
        if idle and any(s["alloc"] > s["min_alloc"] for s in stages):
            return True
        target = meta["freshness_target"]
        lag = bundle.observed["pipelines"][pid]["freshness_lag"]
        if (
            target is not None
            and not meta["suppressed"]
            and lag > target
            and any(s["alloc"] < s["max_alloc"] for s in stages)
        ):
            return True
    return False


def _free(bundle: ObservationBundle, incident) -> bool:
    """Unclaimed or the agent's own, no approval pending, no fix maturing."""

    return (
        incident["claimed_by"] in (None, bundle.agent)
        and not incident["approval_pending"]
        and not bundle.pipelines[incident["pipeline"]]["recovering"]
    )


def _recovery_should_wake(bundle: ObservationBundle) -> bool:
    """The recovery agent's trigger as its module docstring states it."""

    for incident in bundle.open_incidents:
        if not _free(bundle, incident):
            continue
        meta = bundle.pipelines[incident["pipeline"]]
        health = meta["health"]
        if incident["incident_class"] == "UpstreamDelay":
            baseline = incident["delay_baseline"]
            band = max(STABILITY_BAND * baseline, STABILITY_FLOOR)
            window = bundle.observed["pipelines"][incident["pipeline"]]["ingress"]
            stable = len(window) == STABLE_TICKS and all(abs(x - baseline) <= band for x in window)
            if health in ("Healthy", "Failing") or (
                health == "Deferred" and not meta["suppressed"] and stable
            ):
                return True
        elif incident["incident_class"] == "TransientTaskFailure":
            last = incident["last_action_tick"]
            if health == "Failing" and (last is None or bundle.tick - last >= REPROPOSE_AFTER):
                return True
    return False


def _schema_should_wake(bundle: ObservationBundle) -> bool:
    """The schema agent's trigger as its module docstring states it."""

    for incident in bundle.open_incidents:
        meta = bundle.pipelines[incident["pipeline"]]
        drift = meta["drift"]
        if (
            incident["incident_class"] == "SchemaIncompatible"
            and _free(bundle, incident)
            and meta["health"] != "Halted"
            and drift is not None
            and not drift["quarantine_mode"]
        ):
            return True
    return False


def _one_incident(agent: str, incident: dict, ingress: tuple = (), **meta) -> ObservationBundle:
    """Pipeline ``p``, with ``meta`` and ``ingress``, and one open incident on it."""

    return _bundle(
        agent=agent,
        pipelines={"p": _meta(**meta)},
        observed={"p": {"ingress": ingress}},
        incidents=(_incident(**incident),),
        policy={"quarantine_allowed": False, "schema_mode": "strict"},
    )


_RECOVERY, _SCHEMA = Actor.RECOVERY_AGENT.value, Actor.SCHEMA_AGENT.value
_DEFERRED = dict(  # an UpstreamDelay after the agent's applied Defer
    incident_class="UpstreamDelay",
    claimed_by=_RECOVERY,
    last_action_tick=50,
    delay_baseline=_BASELINE,
)
_DRIFTED = dict(incident_class="SchemaIncompatible", claimed_by=_SCHEMA)


def _retried(ago: int) -> dict:
    """A TransientTaskFailure whose last action was ``ago`` ticks before tick 100."""

    return dict(claimed_by=_RECOVERY, last_action_tick=100 - ago)


def _drift(quarantine_mode: bool) -> dict:
    return {"partition": "pt-1", "quarantine_mode": quarantine_mode}


class TestTriggers:
    """Each builtin agent's trigger holds exactly when its module docstring
    says, and a rule whose trigger does not hold returns nothing, so the
    controller may skip the call. The recovery and schema triggers are
    exact: a woken agent proposes."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(bundle=_drawn_bundles(Actor.OPTIMIZATION_AGENT.value))
    @example(bundle=_one_stream(alloc=2, idle=LOW_UTIL_TICKS))  # both clocks at the threshold
    @example(bundle=_one_stream(alloc=1, idle=LOW_UTIL_TICKS))  # idle, every stage at its floor
    @example(bundle=_one_stream(alloc=4, lag=11))  # lagging, every stage at its ceiling
    def test_optimizer_trigger(self, bundle):
        woken = optimization_wakes(_state(bundle))
        assert woken == _optimizer_should_wake(bundle)
        assert woken or optimize_propose(bundle) == []

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(
        bundle=_drawn_bundles(
            Actor.RECOVERY_AGENT.value, ("UpstreamDelay", "TransientTaskFailure", "FreshnessBreach")
        )
    )
    # Two stalls that kept the agent awake while its rule returned nothing: a
    # Deferred stream's window one sample past the band, and an incident
    # that someone else holds.
    @example(bundle=_one_incident(_RECOVERY, _DEFERRED, _ONE_PAST_EDGE, health="Deferred"))
    @example(bundle=_one_incident(_RECOVERY, dict(claimed_by="operator"), health="Failing"))
    # Resume at the band's edge, around a busy and a quiet source.
    @example(bundle=_one_incident(_RECOVERY, _DEFERRED, _AT_EDGE, health="Deferred"))
    @example(
        bundle=_one_incident(
            _RECOVERY, dict(_DEFERRED, delay_baseline=0.0), _AT_FLOOR_EDGE, health="Deferred"
        )
    )
    # Retry REPROPOSE_AFTER ticks after the last action, and not a tick sooner.
    @example(bundle=_one_incident(_RECOVERY, _retried(REPROPOSE_AFTER), health="Failing"))
    @example(bundle=_one_incident(_RECOVERY, _retried(REPROPOSE_AFTER - 1), health="Failing"))
    def test_recovery_trigger(self, bundle):
        woken = recovery_wakes(_state(bundle))
        assert woken == _recovery_should_wake(bundle)
        assert woken or recovery_candidates(bundle) == []
        assert not woken or recovery_candidates(bundle)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(bundle=_drawn_bundles(Actor.SCHEMA_AGENT.value, ("SchemaIncompatible", "UpstreamDelay")))
    # A stall: the agent's own Halt applied, the drift still pending.
    @example(bundle=_one_incident(_SCHEMA, _DRIFTED, health="Halted", drift=_drift(False)))
    @example(bundle=_one_incident(_SCHEMA, _DRIFTED, health="Failing", drift=_drift(False)))
    @example(bundle=_one_incident(_SCHEMA, _DRIFTED, health="Failing", drift=_drift(True)))
    def test_schema_trigger(self, bundle):
        woken = schema_wakes(_state(bundle))
        assert woken == _schema_should_wake(bundle)
        assert woken or schema_candidates(bundle) == []
        assert not woken or schema_candidates(bundle)

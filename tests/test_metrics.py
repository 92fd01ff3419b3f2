"""Run metrics: MTTR, freshness percentiles, cross-controller comparisons."""

from __future__ import annotations

import random

import pytest

from pipegov.agents import OutcomeMemory
from pipegov.core import ResourceModel
from pipegov.harness import (
    MetricsReport,
    RunResult,
    ScenarioMismatch,
    aggregate_comparisons,
    compare,
    compute_metrics,
    percentile_nearest_rank,
)
from pipegov.simkernel import build_world
from pipegov.telemetry import AuditLog, Incident, IncidentClass, MetricStore

import oracles
from conftest import make_batch_pipeline, make_stream_pipeline


class TestPercentile:
    def test_one_to_hundred(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile_nearest_rank(values, 95) == 95.0

    def test_input_order_is_irrelevant(self):
        values = [float(v) for v in range(1, 101)]
        random.Random(3).shuffle(values)
        assert percentile_nearest_rank(values, 95) == 95.0

    def test_single_sample(self):
        assert percentile_nearest_rank([7.0], 95) == 7.0

    def test_full_percentile_is_the_max(self):
        assert percentile_nearest_rank([3.0, 9.0, 1.0], 100) == 9.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile_nearest_rank([], 95)

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile_nearest_rank([1.0], 0)
        with pytest.raises(ValueError):
            percentile_nearest_rank([1.0], 101)

    def test_matches_reference_on_random_series(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 40)
            values = [round(rng.uniform(-50, 50), 3) for _ in range(n)]
            pct = rng.choice([1, 5, 25, 50, 75, 90, 95, 99, 100])
            assert percentile_nearest_rank(values, pct) == oracles.oracle_nearest_rank(
                values, pct
            )


def _world(extra_stream=False):
    pipelines = [make_stream_pipeline(), make_batch_pipeline()]
    if extra_stream:
        pipelines.append(make_stream_pipeline(pid="stream-b"))
    return build_world(pipelines, ResourceModel(capacity=64, unit_price=0.5, storage_price=0.01))


def _run(incidents, store=None, world=None, controller="static", cost=321.5, interventions=4):
    return RunResult(
        controller=controller,
        scenario_hash="h" * 12,
        seed=7,
        policy_version=1,
        horizon=100,
        allocations={},
        audit=AuditLog(),
        store=store or MetricStore(),
        incidents=list(incidents),
        interventions=interventions,
        memory=OutcomeMemory(),
        anomaly_flags=0,
        total_cost=cost,
        counters={},
        world=world or _world(),
    )


class TestComputeMetrics:
    def test_mttr_is_the_mean_of_closed_durations(self):
        incidents = [
            Incident("INC-0001", "stream-a", IncidentClass.TRANSIENT_TASK_FAILURE, 10, 70, "Replay"),
            Incident("INC-0002", "stream-a", IncidentClass.UPSTREAM_DELAY, 100, 140, "Defer"),
        ]
        report = compute_metrics(_run(incidents))
        assert report.mttr_mean == pytest.approx(50.0)
        assert len(report.mttr_per_incident) == 2
        assert report.unresolved_incidents == ()

    def test_no_incidents_means_no_mttr(self):
        report = compute_metrics(_run([]))
        assert report.mttr_mean is None
        assert report.mttr_per_incident == ()

    def test_unresolved_incidents_reported_but_excluded(self):
        incidents = [
            Incident("INC-0001", "stream-a", IncidentClass.TRANSIENT_TASK_FAILURE, 10, 40, "Replay"),
            Incident("INC-0002", "batch-a", IncidentClass.SCHEMA_INCOMPATIBLE, 50),
        ]
        report = compute_metrics(_run(incidents))
        assert report.mttr_mean == pytest.approx(30.0)
        assert len(report.unresolved_incidents) == 1
        assert report.unresolved_incidents[0]["incident_class"] == "SchemaIncompatible"

    def test_freshness_p95_per_streaming_pipeline_only(self):
        store = MetricStore()
        for t in range(100):
            store.record_sample("stream-a", "freshness_lag", t, float(t + 1))
            store.record_sample("batch-a", "freshness_lag", t, 999.0)
        report = compute_metrics(_run([], store=store))
        assert report.freshness_p95 == {"stream-a": 95.0}

    def test_streams_without_samples_are_skipped(self):
        store = MetricStore()
        store.record_sample("stream-a", "freshness_lag", 0, 2.0)
        report = compute_metrics(_run([], store=store, world=_world(extra_stream=True)))
        assert report.freshness_p95 == {"stream-a": 2.0}

    def test_passthrough_fields(self):
        report = compute_metrics(_run([], controller="agentic", cost=55.25, interventions=9))
        assert report.controller == "agentic"
        assert report.scenario_hash == "h" * 12
        assert report.seed == 7
        assert report.policy_version == 1
        assert report.total_cost == 55.25
        assert report.manual_interventions == 9


def _metrics(
    controller="static",
    scenario_hash="abc",
    seed=1,
    version=1,
    mttr=None,
    cost=100.0,
    interventions=0,
    freshness=None,
):
    return MetricsReport(
        controller=controller,
        scenario_hash=scenario_hash,
        seed=seed,
        policy_version=version,
        mttr_mean=mttr,
        mttr_per_incident=(),
        unresolved_incidents=(),
        freshness_p95=dict(freshness or {}),
        total_cost=cost,
        manual_interventions=interventions,
    )


class TestCompare:
    def test_relative_improvements(self):
        baseline = _metrics(
            mttr=100.0, cost=1000.0, interventions=20, freshness={"s1": 40.0, "s2": 10.0}
        )
        agentic = _metrics(
            controller="agentic",
            mttr=55.0,
            cost=750.0,
            interventions=5,
            freshness={"s1": 30.0, "s2": 12.0},
        )
        report = compare(baseline, agentic)
        assert report.deltas_percent["mttr_mean"] == pytest.approx(45.0)
        assert report.deltas_percent["total_cost"] == pytest.approx(25.0)
        assert report.deltas_percent["manual_interventions"] == pytest.approx(75.0)
        assert report.deltas_percent["freshness_p95.s1"] == pytest.approx(25.0)
        assert report.deltas_percent["freshness_p95.s2"] == pytest.approx(-20.0)

    def test_missing_or_zero_baselines_are_omitted(self):
        baseline = _metrics(mttr=None, cost=100.0, interventions=0, freshness={"s1": 0.0})
        agentic = _metrics(controller="agentic", mttr=10.0, cost=80.0, interventions=3,
                           freshness={"s1": 5.0, "s2": 1.0})
        report = compare(baseline, agentic)
        assert set(report.deltas_percent) == {"total_cost"}

    def test_regressions_are_negative(self):
        report = compare(
            _metrics(cost=100.0, interventions=2),
            _metrics(controller="agentic", cost=140.0, interventions=2),
        )
        assert report.deltas_percent["total_cost"] == pytest.approx(-40.0)
        assert report.deltas_percent["manual_interventions"] == pytest.approx(0.0)

    def test_mismatched_runs_are_rejected(self):
        base = _metrics()
        with pytest.raises(ScenarioMismatch, match="scenario hash"):
            compare(base, _metrics(controller="agentic", scenario_hash="zzz"))
        with pytest.raises(ScenarioMismatch, match="seed"):
            compare(base, _metrics(controller="agentic", seed=2))
        with pytest.raises(ScenarioMismatch, match="policy version"):
            compare(base, _metrics(controller="agentic", version=3))

    def test_serialized_shape(self):
        report = compare(_metrics(cost=10.0), _metrics(controller="agentic", cost=5.0))
        raw = report.to_dict()
        assert set(raw) == {
            "scenario_hash",
            "seed",
            "policy_version",
            "baseline",
            "agentic",
            "deltas_percent",
        }
        assert raw["baseline"]["controller"] == "static"
        assert raw["agentic"]["controller"] == "agentic"


class TestAggregate:
    def _comparison(self, seed, mttr_delta, cost_delta, with_mttr=True):
        baseline = _metrics(
            seed=seed,
            mttr=100.0 if with_mttr else None,
            cost=100.0,
            interventions=10,
        )
        agentic = _metrics(
            controller="agentic",
            seed=seed,
            mttr=(100.0 - mttr_delta) if with_mttr else 50.0,
            cost=100.0 - cost_delta,
            interventions=5,
        )
        return compare(baseline, agentic)

    def test_mean_and_stddev(self):
        agg = aggregate_comparisons(
            [self._comparison(1, 40.0, 20.0), self._comparison(2, 50.0, 30.0)]
        )
        assert agg.seeds == (1, 2)
        assert agg.mean_deltas["mttr_mean"] == pytest.approx(45.0)
        assert agg.stddev_deltas["mttr_mean"] == pytest.approx(5.0)
        assert agg.mean_deltas["total_cost"] == pytest.approx(25.0)
        assert agg.stddev_deltas["total_cost"] == pytest.approx(5.0)
        assert agg.mean_deltas["manual_interventions"] == pytest.approx(50.0)

    def test_metric_missing_for_one_seed_is_dropped(self):
        agg = aggregate_comparisons(
            [self._comparison(1, 40.0, 20.0), self._comparison(2, 0.0, 30.0, with_mttr=False)]
        )
        assert "mttr_mean" not in agg.mean_deltas
        assert "total_cost" in agg.mean_deltas

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="nothing to aggregate"):
            aggregate_comparisons([])

    def test_serialized_shape(self):
        agg = aggregate_comparisons([self._comparison(1, 40.0, 20.0)])
        raw = agg.to_dict()
        assert set(raw) == {
            "scenario_hash",
            "seeds",
            "policy_version",
            "mean_deltas_percent",
            "stddev_deltas_percent",
            "per_seed",
        }
        assert raw["seeds"] == [1]

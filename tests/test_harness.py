"""Experiment harness: calibration, runner determinism, mode equivalence."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os

import pytest

from pipegov.agents import NullBackend
from pipegov.harness import (
    BaselineConfig,
    derive_baseline_allocations,
    reseed,
    run_experiment,
)
from pipegov.harness.report import IoFailure, write_run_artifacts
from pipegov.policy import parse_policy
from pipegov.scenario import (
    FaultEvent,
    FaultKind,
    ScenarioSpec,
    default_policy_dict,
    scenario_hash,
)
from pipegov.telemetry.metrics import CLUSTER_SCOPE, MetricStore

from conftest import make_mini_scenario, make_stream_pipeline


@pytest.fixture(scope="module")
def mini_policy():
    return parse_policy(default_policy_dict())


def _faulted_mini():
    return make_mini_scenario(
        faults=[
            FaultEvent(
                tick=50,
                kind=FaultKind.TRANSIENT_TASK_FAILURE,
                pipeline="stream-a",
                stage="ingest",
            ),
            FaultEvent(
                tick=200,
                kind=FaultKind.UPSTREAM_DELAY,
                pipeline="stream-a",
                delay_ticks=30,
                missing_fraction=0.0,
            ),
        ]
    )


def _store_dump(store):
    return {key: store.series(*key) for key in store.series_keys()}


class TestCalibration:
    def test_mini_scenario_sizing(self):
        # Streams see ~Poisson(15) arrivals against a base rate of 20, so
        # peak demand is 2 units and 1.5x headroom gives 3. The batch
        # calibration drains its backlog at full width (4 units), and the
        # headroom target of 6 clamps back to max_alloc.
        spec = make_mini_scenario()
        allocations = derive_baseline_allocations(spec)
        assert allocations == {
            "stream-a": {"ingest": 3, "sink": 3},
            "batch-a": {"extract": 4, "load": 4},
        }

    def test_allocations_respect_stage_bounds(self, canonical_spec):
        allocations = derive_baseline_allocations(canonical_spec)
        by_stage = {
            (p.id, s.id): s for p in canonical_spec.pipelines for s in p.stages
        }
        assert set(allocations) == {p.id for p in canonical_spec.pipelines}
        for pid, stages in allocations.items():
            for sid, units in stages.items():
                stage = by_stage[(pid, sid)]
                assert stage.min_alloc <= units <= stage.max_alloc

    def test_canonical_fits_cluster_capacity(self, canonical_spec):
        allocations = derive_baseline_allocations(canonical_spec)
        total = sum(sum(stages.values()) for stages in allocations.values())
        assert total <= canonical_spec.resource_model.capacity

    def test_headroom_is_monotone(self):
        spec = make_mini_scenario()
        lean = derive_baseline_allocations(spec, headroom=1.0)
        fat = derive_baseline_allocations(spec, headroom=1.5)
        for pid, stages in lean.items():
            for sid, units in stages.items():
                assert units <= fat[pid][sid]

    def test_calibration_is_repeatable(self):
        spec = make_mini_scenario()
        assert derive_baseline_allocations(spec) == derive_baseline_allocations(spec)


class TestBaselineConfig:
    def _allocs(self, spec):
        return derive_baseline_allocations(spec)

    def test_field_validation(self):
        allocs = {"p": {"s": 1}}
        with pytest.raises(ValueError, match="max_retries"):
            BaselineConfig(allocations=allocs, max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            BaselineConfig(allocations=allocs, retry_backoff=0)
        with pytest.raises(ValueError, match="operator_delay"):
            BaselineConfig(allocations=allocs, operator_delay=-1)

    def test_validate_against_missing_pipeline(self):
        spec = make_mini_scenario()
        config = BaselineConfig(allocations={"stream-a": {"ingest": 1, "sink": 1}})
        with pytest.raises(ValueError, match="no allocations for pipeline 'batch-a'"):
            config.validate_against(spec)

    def test_validate_against_missing_stage(self):
        spec = make_mini_scenario()
        allocs = self._allocs(spec)
        del allocs["stream-a"]["sink"]
        with pytest.raises(ValueError, match="stream-a/sink"):
            BaselineConfig(allocations=allocs).validate_against(spec)

    def test_validate_against_out_of_bounds(self):
        spec = make_mini_scenario()
        allocs = self._allocs(spec)
        allocs["stream-a"]["ingest"] = 99
        with pytest.raises(ValueError, match="outside"):
            BaselineConfig(allocations=allocs).validate_against(spec)


class TestRunExperiment:
    def test_rejects_unknown_mode(self, mini_policy):
        with pytest.raises(ValueError, match="controller must be one of"):
            run_experiment(make_mini_scenario(), mini_policy, controller="manual")

    def test_rejects_invalid_scenario(self, mini_policy):
        raw = make_mini_scenario().to_dict()
        raw["arrival_models"] = {}
        broken = ScenarioSpec.from_dict(raw)
        with pytest.raises(ValueError, match="missing_arrival_model"):
            run_experiment(broken, mini_policy)

    def test_rejects_bad_config(self, mini_policy):
        config = BaselineConfig(allocations={"stream-a": {"ingest": 1, "sink": 1}})
        with pytest.raises(ValueError, match="no allocations"):
            run_experiment(make_mini_scenario(), mini_policy, config=config)

    def test_result_shape(self, mini_policy):
        spec = make_mini_scenario()
        result = run_experiment(spec, mini_policy, controller="static")
        assert result.controller == "static"
        assert result.seed == spec.seed
        assert result.horizon == spec.horizon
        assert result.policy_version == mini_policy.version
        assert result.scenario_hash == scenario_hash(spec)
        assert result.allocations == derive_baseline_allocations(spec)
        assert result.counters == result.world.counters()

        start = result.audit.records[0].payload
        assert start["kind"] == "policy_change"
        assert start["event"] == "run_start"
        assert start["controller"] == "static"
        assert start["scenario_hash"] == result.scenario_hash
        assert start["seed"] == spec.seed

        cost_series = result.store.series(CLUSTER_SCOPE, "cost")
        assert len(cost_series) == spec.horizon
        assert result.total_cost == pytest.approx(sum(v for _, v in cost_series))

    def test_static_run_is_deterministic(self, mini_policy):
        spec = _faulted_mini()
        a = run_experiment(spec, mini_policy, controller="static")
        b = run_experiment(spec, mini_policy, controller="static")
        assert a.audit.to_jsonl() == b.audit.to_jsonl()
        assert _store_dump(a.store) == _store_dump(b.store)
        assert [i.to_dict() for i in a.incidents] == [i.to_dict() for i in b.incidents]
        assert a.total_cost == b.total_cost

    def test_agentic_run_is_deterministic(self, mini_policy):
        spec = _faulted_mini()
        a = run_experiment(spec, mini_policy, controller="agentic")
        b = run_experiment(spec, mini_policy, controller="agentic")
        assert a.audit.to_jsonl() == b.audit.to_jsonl()
        assert _store_dump(a.store) == _store_dump(b.store)
        assert [i.to_dict() for i in a.incidents] == [i.to_dict() for i in b.incidents]

    def test_seed_override_changes_the_run(self, mini_policy):
        spec = make_mini_scenario()
        base = run_experiment(spec, mini_policy)
        other = run_experiment(spec, mini_policy, seed=9)
        assert other.seed == 9
        assert base.scenario_hash != other.scenario_hash
        assert _store_dump(base.store) != _store_dump(other.store)

    def test_explicit_allocations_stay_fixed_in_static_mode(self, mini_policy):
        spec = make_mini_scenario()
        allocs = {
            "stream-a": {"ingest": 2, "sink": 2},
            "batch-a": {"extract": 2, "load": 2},
        }
        config = BaselineConfig(allocations=allocs)
        result = run_experiment(spec, mini_policy, controller="static", config=config)
        assert result.allocations == allocs
        for pid, stages in allocs.items():
            for sid, units in stages.items():
                assert result.world.pipelines[pid].stages[sid].alloc == units


class TestReseed:
    def test_same_seed_is_identity(self):
        spec = make_mini_scenario()
        assert reseed(spec, spec.seed) is spec

    def test_new_seed_preserves_everything_else(self):
        spec = make_mini_scenario()
        other = reseed(spec, 99)
        assert other.seed == 99
        raw_a, raw_b = spec.to_dict(), other.to_dict()
        raw_a.pop("seed"), raw_b.pop("seed")
        assert raw_a == raw_b


class TestModeEquivalence:
    """With no reasoning backend the agentic chassis must reproduce the
    static controller's telemetry exactly; only monitoring flags differ."""

    def _comparable_audit(self, result):
        rows = []
        for record in result.audit.records:
            payload = dict(record.payload)
            if payload.get("event") == "anomaly_flag":
                continue
            payload.pop("decision_ref", None)
            payload.pop("controller", None)
            rows.append((record.tick, record.actor, json.dumps(payload, sort_keys=True)))
        return rows

    def test_null_backend_matches_static_run(self, mini_policy):
        spec = _faulted_mini()
        static = run_experiment(spec, mini_policy, controller="static")
        nul = run_experiment(
            spec, mini_policy, controller="agentic", backend=NullBackend()
        )
        assert _store_dump(static.store) == _store_dump(nul.store)
        assert [i.to_dict() for i in static.incidents] == [i.to_dict() for i in nul.incidents]
        assert static.interventions == nul.interventions
        assert static.total_cost == nul.total_cost
        assert static.counters == nul.counters
        assert self._comparable_audit(static) == self._comparable_audit(nul)
        assert static.anomaly_flags == 0


class TestTelemetryCsv:
    """telemetry.csv is streamed, not built with csv.writer; the bytes must
    be what csv.writer would have written for the same rows."""

    SERIES = {
        ("cluster", "cost"): [(0, 3), (1, 2.0), (2, -0.5), (3, 1e-7), (4, -1234.5678)],
        ('we,ird "scope"', "queue_depth"): [(0, math.nan), (5, math.inf), (9, -math.inf)],
        ("p", "ingress"): [(0, 0.0), (1, -0.0), (2, 12345678901234567890), (3, 0.1 + 0.2)],
    }

    @pytest.fixture(scope="class")
    def result(self):
        spec = make_mini_scenario(horizon=20)
        run = run_experiment(spec, parse_policy(default_policy_dict()), controller="static")
        store = MetricStore()
        for (scope, name), samples in self.SERIES.items():
            for tick, value in samples:
                store.record_sample(scope, name, tick, value)
        return dataclasses.replace(run, store=store)

    def test_bytes_match_csv_writer(self, result, tmp_path):
        write_run_artifacts(result, str(tmp_path))
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["scope", "metric", "tick", "value"])
        for scope, name in sorted(self.SERIES):
            for tick, value in self.SERIES[(scope, name)]:
                writer.writerow([scope, name, tick, value])
        written = (tmp_path / "telemetry.csv").read_bytes()
        assert written == reference.getvalue().encode("utf-8")
        assert b'"we,ird ""scope""",queue_depth,0,nan\n' in written

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="root ignores directory permissions",
    )
    def test_read_only_directory_raises_io_failure(self, result, tmp_path):
        tmp_path.chmod(0o500)
        try:
            with pytest.raises(IoFailure):
                write_run_artifacts(result, str(tmp_path))
        finally:
            tmp_path.chmod(0o700)

    def test_unopenable_file_raises_io_failure(self, result, tmp_path):
        (tmp_path / "telemetry.csv").mkdir()
        with pytest.raises(IoFailure, match="telemetry.csv"):
            write_run_artifacts(result, str(tmp_path))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_raises_io_failure(self, result, tmp_path):
        os.symlink("/dev/full", tmp_path / "telemetry.csv")
        with pytest.raises(IoFailure, match="telemetry.csv"):
            write_run_artifacts(result, str(tmp_path))

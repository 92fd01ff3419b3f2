"""Experiment harness: calibration, runner determinism, mode equivalence."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipegov.agents import NullBackend, OperatorModel
from pipegov.core import (
    ActionKind,
    PipelineKind,
    PipelineSpec,
    ResourceModel,
    StageSpec,
    schema_delta,
    validate_pipeline_spec,
)
from pipegov.harness import (
    BaselineConfig,
    derive_baseline_allocations,
    replay_audit,
    reseed,
    run_experiment,
)
from pipegov.harness import runner
from pipegov.harness.baseline import stage_peaks
from pipegov.harness.report import IoFailure, write_run_artifacts
from pipegov.policy import parse_policy
from pipegov.scenario import (
    FaultEvent,
    FaultKind,
    ScenarioSpec,
    arrival_trace,
    default_policy_dict,
    mutate_schema,
    scenario_hash,
)
from pipegov.simkernel import build_world, check_accounting, step
from pipegov.simkernel.world import CohortQueue
from pipegov.telemetry import verify_chain
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

    @pytest.mark.parametrize("name", ["mini", "canonical"])
    def test_allocation_is_one_and_a_half_times_peak_units(self, name, canonical_spec):
        # Every caller gets one rule: ceil(1.5 x peak units), clamped to the
        # stage's bounds, where peak units are ceil(peak / base_rate), at
        # least 1, and the peak comes from stage_peaks over the arrivals.
        spec = make_mini_scenario() if name == "mini" else canonical_spec
        allocations = derive_baseline_allocations(spec)
        trace, ticks = arrival_trace(spec), range(spec.horizon)
        for pipeline in spec.pipelines:
            peaks = stage_peaks(pipeline, [trace.at(t).get(pipeline.id, 0) for t in ticks])
            for stage in pipeline.stages:
                units = max(1, math.ceil(peaks[stage.id] / stage.base_rate))
                want = min(stage.max_alloc, max(stage.min_alloc, math.ceil(1.5 * units)))
                assert allocations[pipeline.id][stage.id] == want, (pipeline.id, stage.id)

    def test_calibration_is_repeatable(self):
        spec = make_mini_scenario()
        assert derive_baseline_allocations(spec) == derive_baseline_allocations(spec)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                PipelineSpec(
                    id="two-sinks",
                    kind=PipelineKind.STREAMING,
                    stages=(StageSpec(id="a"), StageSpec(id="b")),
                    schema=make_stream_pipeline().schema,
                    freshness_target=10,
                ),
                r"^invalid pipeline 'two-sinks': sink_count\(two-sinks\)$",
            ),
            (make_stream_pipeline(), r"^duplicate pipeline id 'stream-a'$"),
        ],
    )
    def test_invalid_pipelines_are_rejected(self, extra, message):
        spec = make_mini_scenario()
        spec = dataclasses.replace(spec, pipelines=spec.pipelines + (extra,))
        with pytest.raises(ValueError, match=message):
            derive_baseline_allocations(spec)


@st.composite
def _random_pipeline(draw) -> PipelineSpec:
    """A DAG with fan-out and fan-in, maybe several sources, and one sink.

    Stage ids are shuffled so that id order and topological order differ.
    """

    n = draw(st.integers(1, 6))
    ids = draw(st.permutations([f"s{i}" for i in range(n)]))
    upstream: list[list[str]] = [[] for _ in range(n)]
    for i in range(1, n):
        upstream[i] = draw(st.lists(st.sampled_from(ids[:i]), unique=True, max_size=i))
    fed = {u for ups in upstream for u in ups}
    upstream[-1] += [ids[i] for i in range(n - 1) if ids[i] not in fed and ids[i] not in upstream[-1]]
    stages = tuple(
        StageSpec(
            id=ids[i],
            upstream=tuple(upstream[i]),
            base_rate=draw(st.integers(1, 12)),
            max_alloc=draw(st.integers(1, 4)),
        )
        for i in range(n)
    )
    pipeline = PipelineSpec(
        id="p",
        kind=PipelineKind.STREAMING,
        stages=stages,
        schema=make_stream_pipeline().schema,
        freshness_target=10,
    )
    assert validate_pipeline_spec(pipeline) == []
    return pipeline


# Per-tick arrivals: quiet ticks, ordinary ones and bursts above every rate.
_ARRIVALS = st.lists(
    st.one_of(st.just(0), st.integers(0, 40), st.integers(100, 400)), min_size=1, max_size=60
)


class TestStagePeaks:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pipeline=_random_pipeline(), arrivals=_ARRIVALS)
    def test_peaks_equal_the_kernels(self, pipeline, arrivals):
        # The calibration regime: every stage at max allocation on a cluster
        # exactly as large as their sum, so nothing contends.
        max_allocs = {s.id: s.max_alloc for s in pipeline.stages}
        world = build_world(
            [pipeline],
            ResourceModel(capacity=sum(max_allocs.values()), unit_price=1.0, storage_price=0.0),
            {"p": max_allocs},
        )
        # What each stage's queue gives up during one step, counted at take.
        stages = world.pipelines["p"].stages
        sid_of = {stages[sid].queue: sid for sid in stages}
        given_up: dict[str, int] = {}
        take = CohortQueue.take

        def counting_take(queue, limit, end=0):
            cohorts = take(queue, limit, end)
            sid = sid_of[queue]
            given_up[sid] = given_up.get(sid, 0) + sum(c.count for c in cohorts)
            return cohorts

        want = dict.fromkeys(max_allocs, 0)
        with mock.patch.object(CohortQueue, "take", counting_take):
            for count in arrivals:
                given_up.clear()
                step(world, {"p": count})
                for sid, processed in given_up.items():
                    want[sid] = max(want[sid], processed)
        check_accounting(world)
        assert stage_peaks(pipeline, arrivals) == want


class TestBaselineConfig:
    def _allocs(self, spec):
        return derive_baseline_allocations(spec)

    def test_field_validation(self):
        allocs = {"p": {"s": 1}}
        with pytest.raises(ValueError, match="max_retries"):
            BaselineConfig(allocations=allocs, operator=OperatorModel(max_retries=-1))
        with pytest.raises(ValueError, match="retry_backoff"):
            BaselineConfig(allocations=allocs, operator=OperatorModel(retry_backoff=0))
        with pytest.raises(ValueError, match="operator_delay"):
            BaselineConfig(allocations=allocs, operator=OperatorModel(operator_delay=-1))

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

    def test_mutating_the_result_leaves_its_audit_intact(self, mini_policy):
        # The run_start record embeds the allocations the result also holds.
        result = run_experiment(make_mini_scenario(), mini_policy, controller="static")
        text = result.audit.to_jsonl()
        for stages in result.allocations.values():
            for stage in stages:
                stages[stage] += 1
        assert verify_chain(result.audit.records) is None
        assert result.audit.to_jsonl() == text
        assert result.audit.records[0].payload["allocations"] != result.allocations

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
        other = run_experiment(reseed(spec, 9), mini_policy)
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


class TestRecordedTelemetry:
    """The runner records each tick's kernel report into the store as it is."""

    # series name -> PipelineSample field
    FIELDS = {
        "freshness_lag": "freshness_lag",
        "queue_depth": "queue_depth",
        "failure_rate": "failure_count",
        "utilization": "utilization",
        "ingress": "ingress",
    }

    @pytest.mark.parametrize("controller", runner.CONTROLLER_MODES)
    def test_store_holds_every_report(self, canonical_spec, mini_policy, controller, monkeypatch):
        # 300 canonical ticks with the first eight faults moved inside them.
        raw = canonical_spec.to_dict()
        raw["horizon"] = 300
        raw["fault_schedule"] = [
            dict(event, tick=20 + 30 * i) for i, event in enumerate(raw["fault_schedule"][:8])
        ]
        spec = ScenarioSpec.from_dict(raw)
        reports = []

        def recording_step(world, arrivals):
            reports.append(step(world, arrivals))
            return reports[-1]

        monkeypatch.setattr(runner, "step", recording_step)
        store = run_experiment(spec, mini_policy, controller=controller).store
        assert len(reports) == spec.horizon
        pids = [p.id for p in spec.pipelines]
        assert store.series_keys() == sorted(
            [(pid, name) for pid in pids for name in self.FIELDS] + [(CLUSTER_SCOPE, "cost")]
        )
        for pid in pids:
            for name, attr in self.FIELDS.items():
                expected = [
                    (t, float(getattr(r.snapshot.pipelines[pid], attr))) for t, r in enumerate(reports)
                ]
                assert store.series(pid, name) == expected, (pid, name)
        assert store.series(CLUSTER_SCOPE, "cost") == [(t, r.cost) for t, r in enumerate(reports)]
        assert all(type(v) is float for key in store.series_keys() for _, v in store.series(*key))


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
                writer.writerow([scope, name, tick, float(value)])  # the store holds doubles
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


_FOLD_HORIZON = 320
_FOLD_PIPELINES = {p.id: p for p in make_mini_scenario().pipelines}
_FOLD_ALLOCATIONS = derive_baseline_allocations(make_mini_scenario(horizon=_FOLD_HORIZON))
_RECOVERY_KINDS = ["Replay", "Rollback", "PartialRecompute", "Defer", "Resume"]


@st.composite
def _fault(draw, k: int) -> FaultEvent:
    tick = draw(st.integers(0, _FOLD_HORIZON - 20))
    kind = draw(st.sampled_from(FaultKind))
    target = _FOLD_PIPELINES[draw(st.sampled_from(sorted(_FOLD_PIPELINES)))]
    if kind is FaultKind.TRANSIENT_TASK_FAILURE:
        stage = draw(st.sampled_from(target.stages)).id
        return FaultEvent(tick, kind, target.id, stage=stage)
    if kind is FaultKind.UPSTREAM_DELAY:
        return FaultEvent(
            tick,
            kind,
            target.id,
            delay_ticks=draw(st.integers(1, 60)),
            missing_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        )
    if kind is FaultKind.RESOURCE_CONTENTION:
        return FaultEvent(
            tick,
            kind,
            capacity_reduction=draw(st.integers(1, 30)),
            duration_ticks=draw(st.integers(1, 40)),
        )
    mode = draw(st.sampled_from(["compatible", "incompatible"]))
    changed = mutate_schema(target.schema, mode, seed=draw(st.integers(0, 99)))
    delta = schema_delta(target.schema, changed)
    return FaultEvent(tick, kind, target.id, delta=delta, partition=f"pt-{k}")


@st.composite
def _governed_run(draw):
    """A mini scenario with random faults, governed by a random policy."""

    count = draw(st.integers(1, 8))
    faults = sorted((draw(_fault(k)) for k in range(count)), key=lambda event: event.tick)
    spec = make_mini_scenario(
        horizon=_FOLD_HORIZON,
        faults=faults,
        stream_tags=draw(st.sampled_from([(), ("regulated",)])),
    )
    doc = default_policy_dict()
    doc["recovery"]["allowed_strategies"] = draw(
        st.lists(st.sampled_from(_RECOVERY_KINDS), min_size=1, unique=True)
    )
    doc["actions"]["approval_required"] = [
        {"kind": kind.value, "tag": "regulated"}
        for kind in draw(st.lists(st.sampled_from(ActionKind), min_size=1, max_size=5, unique=True))
    ]
    doc["schema"]["quarantine_allowed"] = draw(st.booleans())
    doc["cost"]["budget_per_window"] = draw(st.sampled_from([50.0, 5000.0, 52000.0]))
    operator = OperatorModel(
        max_retries=draw(st.integers(0, 3)),
        retry_backoff=draw(st.integers(1, 6)),
        operator_delay=draw(st.integers(0, 15)),
    )
    controller = draw(st.sampled_from(["static", "agentic"]))
    return spec, parse_policy(doc), operator, controller


class TestReplayFold:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(run=_governed_run())
    def test_every_governed_run_replays_clean(self, run):
        # Replay folds the controller's incident ledger over the log, so a
        # transition the controller makes but replay rejects fails here.
        spec, policy, operator, controller = run
        config = BaselineConfig(allocations=_FOLD_ALLOCATIONS, operator=operator)
        result = run_experiment(spec, policy, controller=controller, config=config)
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "audit.jsonl")
            result.audit.write_jsonl(path)
            assert replay_audit(path).problem is None

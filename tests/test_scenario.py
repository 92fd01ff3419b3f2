"""Workload generation, fault injection, and seeded schema mutation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipegov.core import (
    Column,
    DriftKind,
    Dtype,
    ResourceModel,
    Schema,
    classify_delta,
    schema_delta,
)
from pipegov.harness import reseed, run_experiment
from pipegov.scenario import (
    FaultEvent,
    FaultKind,
    ScenarioSpec,
    UnknownPipeline,
    arrival_trace,
    canonical_scenario,
    generate_arrivals,
    inject_faults,
    mutate_schema,
    tick_rng,
    validate_scenario,
)
from pipegov.scenario.arrivals import _seeded_generators
from pipegov.scenario.model import ArrivalModel, BatchModel
from pipegov.simkernel import Health, build_world, check_accounting, step
from pipegov.telemetry import IncidentClass

import oracles
from conftest import make_batch_pipeline, make_mini_scenario, make_stream_pipeline


def _stream_world(fault_schedule=(), base_rate: int = 100):
    pipeline = make_stream_pipeline(pid="s", base_rate=60, max_alloc=4)
    spec = ScenarioSpec(
        horizon=200,
        seed=1,
        resource_model=ResourceModel(capacity=32, unit_price=0.5, storage_price=0.0),
        pipelines=(pipeline,),
        arrival_models={"s": ArrivalModel(base_rate=float(base_rate))},
        fault_schedule=tuple(fault_schedule),
    )
    world = build_world(list(spec.pipelines), spec.resource_model)
    return spec, world


class TestArrivals:
    def test_same_seed_tick_is_deterministic(self, canonical_spec):
        assert generate_arrivals(canonical_spec, 17) == generate_arrivals(canonical_spec, 17)

    def test_draws_match_reference_generator(self, canonical_spec):
        for t in (0, 1, 2, 99, 2100):
            rng = oracles.oracle_rng(canonical_spec.seed, t)
            expected = {
                pid: int(rng.poisson(canonical_spec.arrival_models[pid].mean_at(t)))
                for pid in sorted(canonical_spec.arrival_models)
            }
            got = generate_arrivals(canonical_spec, t)
            for pid, want in expected.items():
                assert got[pid] == want

    def test_golden_values(self, canonical_spec):
        golden = {
            0: {"events-stream": 55, "metrics-stream": 35},
            1: {"events-stream": 57, "metrics-stream": 51},
            2: {"events-stream": 45, "metrics-stream": 50},
            2100: {"events-stream": 94, "metrics-stream": 60},
        }
        for t, expected in golden.items():
            got = generate_arrivals(canonical_spec, t)
            for pid, want in expected.items():
                assert got[pid] == want, (t, pid)

    def test_burst_multiplies_mean(self):
        model = ArrivalModel(base_rate=100.0, bursts=((10, 20, 5.0),))
        assert model.mean_at(5) == 100.0
        assert model.mean_at(10) == 500.0
        assert model.mean_at(19) == 500.0
        assert model.mean_at(20) == 100.0

    def test_batch_dataset_lands_on_boundary(self):
        spec, _ = _stream_world()
        spec.batch_models["b"] = BatchModel(dataset_size=5000, schedule_period=100)
        assert generate_arrivals(spec, 0).get("b", 0) == 0
        assert generate_arrivals(spec, 100)["b"] == 5000
        assert generate_arrivals(spec, 101)["b"] == 0

    def test_tick_rng_streams_are_independent(self):
        a = tick_rng(42, 0).poisson(100, size=5)
        b = tick_rng(42, 1).poisson(100, size=5)
        assert list(a) != list(b)
        again = tick_rng(42, 0).poisson(100, size=5)
        assert list(a) == list(again)


def _burst_and_batch_spec():
    return ScenarioSpec(
        horizon=450,
        seed=5,
        resource_model=ResourceModel(capacity=32, unit_price=0.5, storage_price=0.0),
        pipelines=(make_stream_pipeline(pid="s"), make_batch_pipeline(pid="b", schedule_period=100)),
        arrival_models={"s": ArrivalModel(base_rate=40.0, bursts=((120, 180, 4.0),))},
        batch_models={"b": BatchModel(dataset_size=2500, schedule_period=100)},
    )


def _batch_only_spec():
    return ScenarioSpec(
        horizon=450,
        seed=5,
        resource_model=ResourceModel(capacity=32, unit_price=0.5, storage_price=0.0),
        pipelines=(make_batch_pipeline(pid="b", schedule_period=70),),
        batch_models={"b": BatchModel(dataset_size=900, schedule_period=70)},
    )


class TestArrivalTrace:
    @pytest.mark.parametrize(
        "make_spec",
        [
            pytest.param(lambda: reseed(canonical_scenario(), 1), id="canonical-seed-1"),
            pytest.param(lambda: reseed(canonical_scenario(), 2), id="canonical-seed-2"),
            pytest.param(_burst_and_batch_spec, id="burst-and-batch"),
            pytest.param(_batch_only_spec, id="batch-only"),
        ],
    )
    def test_every_tick_equals_a_fresh_draw(self, make_spec):
        spec = make_spec()
        trace = arrival_trace(spec)
        for t in range(spec.horizon):
            got, want = trace.at(t), generate_arrivals(spec, t)
            assert got == want, t
            assert list(got) == list(want), t

    def test_ticks_outside_the_horizon_are_rejected(self):
        trace = arrival_trace(_burst_and_batch_spec())
        for t in (-1, 450):
            with pytest.raises(IndexError):
                trace.at(t)

    def test_reseeding_misses_the_memo(self):
        spec = make_mini_scenario(horizon=50, seed=7)
        other = reseed(spec, 8)
        seeds_drawn = []

        def counting(s, t, rng=None):
            seeds_drawn.append(s.seed)
            return generate_arrivals(s, t, rng)

        arrival_trace(other, counting)
        seeds_drawn.clear()
        trace = arrival_trace(spec, counting)
        assert seeds_drawn == [7] * 50
        assert arrival_trace(spec, counting) is trace
        assert seeds_drawn == [7] * 50

        reseeded = arrival_trace(other, counting)
        assert seeds_drawn == [7] * 50 + [8] * 50
        assert reseeded is not trace
        for t in range(other.horizon):
            assert reseeded.at(t) == generate_arrivals(other, t)

    def test_mutating_a_returned_dict_leaves_the_trace_intact(self):
        spec = _burst_and_batch_spec()
        trace = arrival_trace(spec)
        counts = trace.at(100)
        counts["s"] += 1_000
        counts["b"] = -1
        counts["extra"] = 3
        assert trace.at(100) == generate_arrivals(spec, 100)
        arrival_trace(spec).at(100).clear()
        assert arrival_trace(spec).at(100) == generate_arrivals(spec, 100)


    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(canonical_scenario(), id="canonical"),
            pytest.param(make_mini_scenario(), id="mini"),
        ],
    )
    def test_each_column_holds_one_pipelines_counts(self, spec):
        trace = arrival_trace(spec)
        pids = sorted(spec.arrival_models) + sorted(spec.batch_models)
        assert {p.id for p in spec.pipelines} == set(pids)
        for pid in pids:
            column = trace.column(pid)
            assert len(column) == spec.horizon
            assert list(column) == [trace.at(t)[pid] for t in range(spec.horizon)], pid
        with pytest.raises(KeyError):
            trace.column("no-such-pipeline")

    def test_mutating_a_column_leaves_the_trace_intact(self):
        spec = _burst_and_batch_spec()
        trace = arrival_trace(spec)
        column = trace.column("s")
        column[100] += 1_000
        column.append(5)
        assert trace.at(100) == generate_arrivals(spec, 100)
        assert trace.column("s") is not column
        assert len(trace.column("s")) == spec.horizon


class TestBlockSeeding:
    """The trace seeds ticks a block at a time; each must equal ``tick_rng``."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
    @example([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_words_seed_pcg64_as_numpy_does(self, seeds):
        block = _seeded_generators([np.array(seeds, dtype=np.uint64)])
        for n, rng in zip(seeds, block, strict=True):
            assert rng.bit_generator.state == np.random.default_rng(n).bit_generator.state, n

    def test_words_answer_only_pcg64s_request(self):
        (rng,) = _seeded_generators([np.array([7], dtype=np.uint64)])
        words = rng.bit_generator.seed_seq
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
            with pytest.raises(ValueError):
                words.generate_state(n_words, dtype)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_every_tick_of_a_random_spec_equals_a_fresh_draw(self, data):
        # Half the horizons cross the 1,024-tick seeding block.
        horizon = data.draw(st.integers(1, 1_024) | st.integers(1_025, 2_600), label="horizon")
        streams = data.draw(st.lists(st.sampled_from("zyxw"), max_size=3, unique=True), label="streams")
        batches = data.draw(st.lists(st.sampled_from("qp"), max_size=2, unique=True), label="batches")
        arrival_models = {}
        for pid in streams:
            bursts = data.draw(
                st.lists(
                    st.tuples(st.integers(0, horizon), st.integers(1, 400), st.floats(0.25, 6.0)),
                    max_size=3,
                ),
                label=f"{pid} bursts",
            )
            arrival_models[f"s-{pid}"] = ArrivalModel(
                base_rate=data.draw(st.floats(0.5, 80.0), label=f"{pid} rate"),
                bursts=tuple((start, start + length, mult) for start, length, mult in bursts),
            )
        batch_models = {
            f"b-{pid}": BatchModel(
                dataset_size=data.draw(st.integers(1, 5_000)),
                schedule_period=data.draw(st.integers(1, 700)),
            )
            for pid in batches
        }
        spec = ScenarioSpec(
            horizon=horizon,
            seed=data.draw(st.integers(0, 2**63), label="seed"),
            resource_model=ResourceModel(capacity=32, unit_price=0.5, storage_price=0.0),
            pipelines=tuple(
                [make_stream_pipeline(pid=pid) for pid in arrival_models]
                + [make_batch_pipeline(pid=pid, schedule_period=m.schedule_period) for pid, m in batch_models.items()]
            ),
            arrival_models=arrival_models,
            batch_models=batch_models,
        )
        trace = arrival_trace(spec)
        for t in range(horizon):
            got, want = trace.at(t), generate_arrivals(spec, t)
            assert got == want, t
            assert list(got) == list(want), t


class TestUpstreamDelay:
    def test_release_trace(self):
        # Delay of 30 ticks on a 100-records/tick stream, 10% missing:
        # 3000 records withheld, 300 dropped, 2700 released 270/tick.
        fault = FaultEvent(
            tick=5, kind=FaultKind.UPSTREAM_DELAY, pipeline="s", delay_ticks=30, missing_fraction=0.1
        )
        spec, world = _stream_world([fault])
        p = world.pipelines["s"]
        per_tick_ingress = []
        for t in range(60):
            inject_faults(spec, world, t)
            before = p.ingress
            step(world, {"s": 100})
            per_tick_ingress.append(p.ingress - before)
        assert p.dropped == 300
        # no ingress during suppression
        assert per_tick_ingress[5:35] == [0] * 30
        # release tick carries the 300 dropped + 270 released + 100 live
        assert per_tick_ingress[35] == 300 + 270 + 100
        assert per_tick_ingress[36:45] == [370] * 9
        assert per_tick_ingress[45] == 100
        assert p.suppress_until is None
        assert p.ingress == 100 * 60
        check_accounting(world)

    def test_suppression_flag_visible_in_snapshot(self):
        fault = FaultEvent(
            tick=2, kind=FaultKind.UPSTREAM_DELAY, pipeline="s", delay_ticks=10, missing_fraction=0.0
        )
        spec, world = _stream_world([fault])
        p = world.pipelines["s"]
        inject_faults(spec, world, 0)
        step(world, {"s": 10})
        assert p.suppress_until is None
        for t in (1, 2):
            inject_faults(spec, world, t)
            step(world, {"s": 10})
        assert p.suppress_until == 12


class TestContentionFault:
    def test_capacity_reduced_for_duration(self):
        fault = FaultEvent(
            tick=3,
            kind=FaultKind.RESOURCE_CONTENTION,
            pipeline=None,
            capacity_reduction=16,
            duration_ticks=50,
        )
        spec, world = _stream_world([fault])
        capacities = []
        for t in range(60):
            inject_faults(spec, world, t)
            # nothing is queued, so the headroom is the whole effective capacity
            capacities.append(step(world, {"s": 0}).snapshot.capacity_headroom)
        assert capacities[2] == 32
        assert capacities[3] == 32 - 16
        assert capacities[52] == 16
        assert capacities[53] == 32

    def test_reductions_stack(self):
        faults = [
            FaultEvent(tick=1, kind=FaultKind.RESOURCE_CONTENTION, pipeline=None, capacity_reduction=8, duration_ticks=10),
            FaultEvent(tick=2, kind=FaultKind.RESOURCE_CONTENTION, pipeline=None, capacity_reduction=8, duration_ticks=10),
        ]
        spec, world = _stream_world(faults)
        for t in range(3):
            inject_faults(spec, world, t)
            report = step(world, {"s": 0})
        assert report.snapshot.capacity_headroom == 32 - 16


class TestDriftAndFailureFaults:
    def test_incompatible_drift_marks_failing(self):
        base = make_stream_pipeline(pid="s").schema
        delta = schema_delta(base, mutate_schema(base, "incompatible", seed=4))
        fault = FaultEvent(
            tick=2, kind=FaultKind.SCHEMA_DRIFT, pipeline="s", delta=delta, partition="pt-2"
        )
        spec, world = _stream_world([fault])
        inject_faults(spec, world, 2)
        p = world.pipelines["s"]
        assert p.health is Health.FAILING
        assert p.failing_cause == "schema_drift"
        assert p.pending_drift is not None
        assert p.pending_drift.partition == "pt-2"
        assert classify_delta(p.pending_drift.delta).kind is DriftKind.INCOMPATIBLE

    def test_compatible_drift_just_bumps_schema(self):
        base = make_stream_pipeline(pid="s").schema
        delta = schema_delta(base, mutate_schema(base, "compatible", seed=4))
        fault = FaultEvent(tick=2, kind=FaultKind.SCHEMA_DRIFT, pipeline="s", delta=delta, partition="pt-2")
        spec, world = _stream_world([fault])
        old_version = world.pipelines["s"].schema.version
        inject_faults(spec, world, 2)
        p = world.pipelines["s"]
        assert p.health is Health.HEALTHY
        assert p.pending_drift is None
        assert p.schema.version == old_version + 1

    def test_compatible_drift_leaves_a_pending_one_alone(self):
        # So a pending drift is never compatible: only an incompatible (or no
        # longer fitting) delta makes or replaces one.
        base = make_stream_pipeline(pid="s").schema
        incompatible = schema_delta(base, mutate_schema(base, "incompatible", seed=4))
        compatible = schema_delta(base, mutate_schema(base, "compatible", seed=4))
        faults = [
            FaultEvent(tick=2, kind=FaultKind.SCHEMA_DRIFT, pipeline="s", delta=incompatible, partition="pt-2"),
            FaultEvent(tick=3, kind=FaultKind.SCHEMA_DRIFT, pipeline="s", delta=compatible, partition="pt-3"),
        ]
        spec, world = _stream_world(faults)
        p = world.pipelines["s"]
        old_version = p.schema.version
        inject_faults(spec, world, 2)
        inject_faults(spec, world, 3)
        assert p.schema.version == old_version + 1
        assert (p.pending_drift.partition, p.pending_drift.delta) == ("pt-2", incompatible)
        assert p.health is Health.FAILING

    @pytest.mark.parametrize("controller", ["static", "agentic"])
    def test_drift_that_no_longer_fits_opens_an_incompatible_drift(self, controller, policy):
        # Both deltas are taken against the declared schema; after the first
        # one widens ``id``, the second no longer applies to the live schema.
        base = make_stream_pipeline().schema
        delta = schema_delta(base, mutate_schema(base, "compatible", seed=1))
        faults = [
            FaultEvent(tick=t, kind=FaultKind.SCHEMA_DRIFT, pipeline="stream-a", delta=delta, partition=f"pt-{t}")
            for t in (1, 2)
        ]
        spec = make_mini_scenario(faults=faults)
        assert validate_scenario(spec) == []
        result = run_experiment(spec, policy, controller=controller)
        first = result.incidents[0]
        assert (first.id, first.pipeline, first.detected_tick) == ("INC-0001", "stream-a", 2)
        assert first.incident_class is IncidentClass.SCHEMA_INCOMPATIBLE

    def test_task_failure_marks_stage(self):
        fault = FaultEvent(tick=1, kind=FaultKind.TRANSIENT_TASK_FAILURE, pipeline="s", stage="ingest")
        spec, world = _stream_world([fault])
        inject_faults(spec, world, 1)
        p = world.pipelines["s"]
        assert p.health is Health.FAILING
        assert p.failing_cause == "task_failure"
        assert p.failing_stage == "ingest"

    def test_unknown_pipeline_raises(self):
        fault = FaultEvent(tick=1, kind=FaultKind.TRANSIENT_TASK_FAILURE, pipeline="ghost", stage="s")
        spec, world = _stream_world([fault])
        with pytest.raises(UnknownPipeline):
            inject_faults(spec, world, 1)

    def test_injection_consumes_events(self):
        fault = FaultEvent(tick=1, kind=FaultKind.TRANSIENT_TASK_FAILURE, pipeline="s", stage="ingest")
        spec, world = _stream_world([fault])
        assert len(inject_faults(spec, world, 1)) == 1
        assert inject_faults(spec, world, 1) == []
        assert world.pending_failures == [("s", "task_failure")]


class TestMutateSchema:
    def test_compatible_on_string_only_schema_adds_nullable(self):
        schema = Schema(columns=(Column("a", Dtype.STRING),))
        out = mutate_schema(schema, "compatible", seed=9)
        assert len(out.columns) == 2
        assert out.columns[-1].nullable is True

    def test_incompatible_never_drops_last_column(self):
        schema = Schema(columns=(Column("a", Dtype.INT64),))
        for seed in range(50):
            out = mutate_schema(schema, "incompatible", seed=seed)
            assert len(out.columns) >= 1

    def test_unknown_kind_rejected(self):
        schema = Schema(columns=(Column("a", Dtype.INT64),))
        with pytest.raises(ValueError):
            mutate_schema(schema, "sideways", seed=1)

    def test_classification_round_trip_for_1000_seeds(self):
        bases = [
            Schema(columns=(Column("a", Dtype.INT32),)),
            Schema(columns=(Column("a", Dtype.INT64), Column("b", Dtype.STRING, True))),
            Schema(
                columns=(
                    Column("a", Dtype.INT32),
                    Column("b", Dtype.FLOAT64),
                    Column("c", Dtype.BOOL, True),
                )
            ),
        ]
        expected = {"compatible": DriftKind.BACKWARD_COMPATIBLE, "incompatible": DriftKind.INCOMPATIBLE}
        for seed in range(1000):
            base = bases[seed % len(bases)]
            kind = "compatible" if seed % 2 == 0 else "incompatible"
            mutated = mutate_schema(base, kind, seed=seed)
            delta = schema_delta(base, mutated)
            assert delta.changes, (seed, kind)
            assert classify_delta(delta).kind is expected[kind], (seed, kind)

    def test_mutation_is_seed_deterministic(self):
        schema = Schema(columns=(Column("a", Dtype.INT32), Column("b", Dtype.STRING)))
        assert mutate_schema(schema, "incompatible", 7) == mutate_schema(schema, "incompatible", 7)


class TestCanonicalScenario:
    def test_is_structurally_valid(self, canonical_spec):
        from pipegov.scenario import validate_scenario

        assert validate_scenario(canonical_spec) == []

    def test_covers_every_fault_kind(self, canonical_spec):
        kinds = {f.kind for f in canonical_spec.fault_schedule}
        assert kinds == set(FaultKind)

    def test_round_trips_through_dict(self, canonical_spec):
        from pipegov.scenario import parse_scenario, scenario_hash

        again = parse_scenario(canonical_spec.to_dict())
        assert scenario_hash(again) == scenario_hash(canonical_spec)

"""Seeded inputs for the three benchmark workloads.

Every input is a scenario file and a policy file written under the run's
work directory (canonical-compare reads the committed files directly). The
same workload seed always yields byte-identical files. Generation happens
before any timing starts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from pipegov.core import Column, Dtype, PipelineKind, PipelineSpec, ResourceModel, Schema, StageSpec, schema_delta
from pipegov.harness.baseline import derive_baseline_allocations
from pipegov.scenario import (
    ArrivalModel,
    BatchModel,
    FaultEvent,
    FaultKind,
    ScenarioSpec,
    default_policy_dict,
    mutate_schema,
)

# Streaming stages on canonical serve at most 25 records/unit * 12 units = 300
# records/tick; a mean of 330 keeps their queues growing for the whole run.
BACKLOG_STREAM_RATE = 330.0

# Pipeline count, streaming pipelines among them, and horizon per corpus slot
# (horizons are shuffled between slots): the corpus mix, and with it ticks/s
# and memory, does not swing with the seed. Twelve slots average out the
# rest of what the seed draws.
FUZZ_PIPELINES = (2, 3, 4, 2, 3, 4) * 2
FUZZ_STREAMS = (1, 1, 2, 1, 2, 2) * 2
FUZZ_HORIZONS = (1500, 1700, 1900, 2100, 2300, 2500) * 2
FUZZ_BINDING = (0, 4, 6, 10)  # slots whose budget sits just above reserved spend (4 of 12)


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _canonical_doc(root: Path, horizon: int | None) -> dict:
    doc = json.loads((root / "scenarios" / "canonical.json").read_text(encoding="utf-8"))
    if horizon is not None:
        doc["horizon"] = horizon
        doc["fault_schedule"] = [f for f in doc["fault_schedule"] if f["tick"] < horizon]
    return doc


def canonical_compare(root: Path, work: Path, seed: int, horizon: int | None) -> dict:
    """``pipegov compare`` over two consecutive scenario seeds."""

    first = random.Random(f"canonical-compare:{seed}").randrange(1, 1_000_000)
    scenario = str(root / "scenarios" / "canonical.json")
    if horizon is not None:
        scenario = _write_json(work / "canonical-short.json", _canonical_doc(root, horizon))
    return {
        "scenario": scenario,
        "policy": str(root / "policies" / "default.json"),
        "seeds": [first, first + 1],
    }


def backlog_static(root: Path, work: Path, seed: int, horizon: int | None) -> dict:
    """Canonical pipelines, faults and policy with overloaded streaming input."""

    doc = _canonical_doc(root, horizon)
    doc["seed"] = random.Random(f"backlog-static:{seed}").randrange(1, 1_000_000)
    for model in doc["arrival_models"].values():
        model["base_rate"] = BACKLOG_STREAM_RATE
    return {
        "scenario": _write_json(work / "backlog.json", doc),
        "policy": str(root / "policies" / "default.json"),
    }


def _stream(pid: str, rng: random.Random) -> PipelineSpec:
    rate = rng.choice([15, 20, 25])
    max_alloc = rng.choice([4, 6, 8])
    return PipelineSpec(
        id=pid,
        kind=PipelineKind.STREAMING,
        stages=(
            StageSpec(id="ingest", base_rate=rate, min_alloc=1, max_alloc=max_alloc),
            StageSpec(id="sink", upstream=("ingest",), base_rate=rate, min_alloc=1, max_alloc=max_alloc),
        ),
        schema=Schema(columns=(Column("id", Dtype.INT64), Column("v", Dtype.FLOAT64, True))),
        criticality=rng.randint(1, 5),
        freshness_target=rng.choice([8, 10, 15]),
        tags=("regulated",) if rng.random() < 0.3 else (),
    )


def _batch(pid: str, rng: random.Random) -> PipelineSpec:
    rate = rng.choice([20, 25])
    return PipelineSpec(
        id=pid,
        kind=PipelineKind.BATCH,
        stages=(
            StageSpec(id="extract", base_rate=rate, min_alloc=1, max_alloc=4),
            StageSpec(id="load", upstream=("extract",), base_rate=rate, min_alloc=1, max_alloc=4),
        ),
        schema=Schema(columns=(Column("id", Dtype.INT64), Column("amount", Dtype.FLOAT64))),
        criticality=rng.randint(1, 5),
        schedule_period=rng.choice([150, 200, 250]),
    )


def _faults(rng: random.Random, horizon: int, streams: list, pipelines: list, case_seed: int) -> list:
    """3-8 faults; the first four draws take distinct kinds, so most cases see all four."""

    kinds = list(FaultKind)
    rng.shuffle(kinds)
    events: list[FaultEvent] = []
    drifted: set[str] = set()
    for k in range(rng.randint(3, 8)):
        kind = kinds[k] if k < len(kinds) else rng.choice(list(FaultKind))
        tick = rng.randrange(20, horizon - 300)
        if kind is FaultKind.SCHEMA_DRIFT:
            candidates = [p for p in streams if p.id not in drifted]
            if not candidates:
                kind = FaultKind.TRANSIENT_TASK_FAILURE
            else:
                target = rng.choice(candidates)
                drifted.add(target.id)
                mode = rng.choice(["compatible", "incompatible"])
                changed = mutate_schema(target.schema, mode, seed=case_seed * 10 + k)
                events.append(
                    FaultEvent(
                        tick=tick,
                        kind=kind,
                        pipeline=target.id,
                        delta=schema_delta(target.schema, changed),
                        partition=f"pt-{k}",
                    )
                )
                continue
        if kind is FaultKind.TRANSIENT_TASK_FAILURE:
            target = rng.choice(pipelines)
            events.append(
                FaultEvent(tick=tick, kind=kind, pipeline=target.id, stage=rng.choice(target.stages).id)
            )
        elif kind is FaultKind.UPSTREAM_DELAY:
            events.append(
                FaultEvent(
                    tick=tick,
                    kind=kind,
                    pipeline=rng.choice(pipelines).id,
                    delay_ticks=rng.randrange(20, 120),
                    missing_fraction=rng.choice([0.0, 0.25, 0.5]),
                )
            )
        else:
            events.append(
                FaultEvent(
                    tick=tick,
                    kind=kind,
                    capacity_reduction=rng.randint(4, 10),
                    duration_ticks=rng.randrange(30, 150),
                )
            )
    return sorted(events, key=lambda e: e.tick)


def _fuzz_case(rng: random.Random, slot: int, case_seed: int, horizon: int) -> tuple[dict, dict]:
    n_pipelines, n_streams = FUZZ_PIPELINES[slot], FUZZ_STREAMS[slot]
    streams = [_stream(f"s{i}", rng) for i in range(n_streams)]
    batches = [_batch(f"b{i}", rng) for i in range(n_pipelines - n_streams)]
    pipelines = streams + batches

    arrival_models = {}
    for p in streams:
        bursts = []
        for _ in range(rng.randint(0, 2)):
            start = rng.randrange(100, horizon - 200)
            bursts.append((start, start + rng.randrange(30, 120), rng.uniform(1.5, 3.0)))
        arrival_models[p.id] = ArrivalModel(
            base_rate=rng.uniform(8.0, 0.9 * p.stages[0].base_rate), bursts=tuple(sorted(bursts))
        )
    batch_models = {
        p.id: BatchModel(dataset_size=rng.randrange(1500, 4000), schedule_period=p.schedule_period)
        for p in batches
    }
    price = rng.choice([0.4, 0.5, 0.8])
    total_max = sum(s.max_alloc for p in pipelines for s in p.stages)
    spec = ScenarioSpec(
        horizon=horizon,
        seed=case_seed,
        resource_model=ResourceModel(
            capacity=max(int(total_max * rng.uniform(0.6, 1.1)), 8), unit_price=price, storage_price=0.0
        ),
        pipelines=tuple(pipelines),
        arrival_models=arrival_models,
        batch_models=batch_models,
        fault_schedule=tuple(_faults(rng, horizon, streams, pipelines, case_seed)),
    )

    window = rng.choice([300, 400, 480])
    if slot in FUZZ_BINDING:
        reserved = sum(sum(s.values()) for s in derive_baseline_allocations(spec).values())
        budget = reserved * price * window * 1.02
    else:
        budget = total_max * price * window * 1.05
    policy = default_policy_dict()
    policy["cost"]["budget_per_window"] = budget
    policy["cost"]["window"] = window
    policy["schema"]["mode"] = rng.choice(["permissive", "strict", "permissive"])
    policy["schema"]["quarantine_allowed"] = rng.random() < 0.8
    return spec.to_dict(), policy


def fuzz_agentic(root: Path, work: Path, seed: int, horizon: int | None) -> dict:
    """A corpus of small random scenarios shaped like the policy-safety corpus."""

    rng = random.Random(f"fuzz-agentic:{seed}")
    horizons = list(FUZZ_HORIZONS)
    rng.shuffle(horizons)
    cases = []
    kinds: set[str] = set()
    for slot in range(len(FUZZ_PIPELINES)):
        case_seed = rng.randrange(1, 1_000_000)
        scenario, policy = _fuzz_case(rng, slot, case_seed, horizon or horizons[slot])
        kinds.update(f["kind"] for f in scenario["fault_schedule"])
        cases.append(
            {
                "id": f"case-{slot}",
                "scenario": _write_json(work / f"fuzz-{slot}.json", scenario),
                "policy": _write_json(work / f"fuzz-{slot}-policy.json", policy),
            }
        )
    if len(kinds) != len(FaultKind):
        raise AssertionError(f"fuzz corpus for seed {seed} misses fault kinds: {sorted(kinds)}")
    return {"cases": cases}


GENERATORS = {
    "canonical-compare": canonical_compare,
    "fuzz-agentic": fuzz_agentic,
    "backlog-static": backlog_static,
}


def expected_ops(workload: str, inputs: dict) -> int:
    """Operations one sample attempts: compare seeds, scenario runs, audit replays."""

    if workload == "canonical-compare":
        return 3 * len(inputs["seeds"])  # each seed: the compare, plus replaying two audit logs
    if workload == "fuzz-agentic":
        return 2 * len(inputs["cases"])  # each case: the run, plus replaying its audit log
    return 1

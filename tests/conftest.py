"""Shared fixtures: canonical inputs and a small synthetic scenario."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pipegov.core import (
    Column,
    Dtype,
    PipelineKind,
    PipelineSpec,
    ResourceModel,
    Schema,
    StageSpec,
)
from pipegov.policy import parse_policy
from pipegov.scenario import ScenarioSpec, canonical_scenario, default_policy_dict
from pipegov.scenario.model import ArrivalModel, BatchModel

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def canonical_spec() -> ScenarioSpec:
    return canonical_scenario()


@pytest.fixture(scope="session")
def policy():
    return parse_policy(default_policy_dict())


def make_stream_pipeline(
    pid: str = "stream-a",
    base_rate: int = 20,
    criticality: int = 2,
    freshness_target: int = 10,
    tags: tuple[str, ...] = (),
    max_alloc: int = 6,
) -> PipelineSpec:
    schema = Schema(columns=(Column("id", Dtype.INT64), Column("v", Dtype.FLOAT64, True)))
    return PipelineSpec(
        id=pid,
        kind=PipelineKind.STREAMING,
        stages=(
            StageSpec(id="ingest", base_rate=base_rate, min_alloc=1, max_alloc=max_alloc),
            StageSpec(id="sink", upstream=("ingest",), base_rate=base_rate, min_alloc=1, max_alloc=max_alloc),
        ),
        schema=schema,
        criticality=criticality,
        freshness_target=freshness_target,
        tags=tags,
    )


def make_batch_pipeline(
    pid: str = "batch-a",
    base_rate: int = 25,
    criticality: int = 3,
    schedule_period: int = 200,
    tags: tuple[str, ...] = (),
) -> PipelineSpec:
    schema = Schema(columns=(Column("id", Dtype.INT64), Column("amount", Dtype.FLOAT64)))
    return PipelineSpec(
        id=pid,
        kind=PipelineKind.BATCH,
        stages=(
            StageSpec(id="extract", base_rate=base_rate, min_alloc=1, max_alloc=4),
            StageSpec(id="load", upstream=("extract",), base_rate=base_rate, min_alloc=1, max_alloc=4),
        ),
        schema=schema,
        criticality=criticality,
        schedule_period=schedule_period,
        tags=tags,
    )


def make_mini_scenario(
    horizon: int = 600,
    seed: int = 7,
    faults=(),
    stream_tags: tuple[str, ...] = (),
    capacity: int = 32,
) -> ScenarioSpec:
    """One streaming and one batch pipeline, light load, optional faults."""

    stream = make_stream_pipeline(tags=stream_tags)
    batch = make_batch_pipeline()
    return ScenarioSpec(
        horizon=horizon,
        seed=seed,
        resource_model=ResourceModel(capacity=capacity, unit_price=0.5, storage_price=0.01),
        pipelines=(stream, batch),
        arrival_models={"stream-a": ArrivalModel(base_rate=15.0)},
        batch_models={"batch-a": BatchModel(dataset_size=3000, schedule_period=200)},
        fault_schedule=tuple(faults),
    )


@pytest.fixture()
def mini_scenario() -> ScenarioSpec:
    return make_mini_scenario()


# Canonical scenario edits the strict reader must reject, as (keys to the
# edited value, new value); ``DELETE`` removes the key, and an index one
# past a list's end appends. Each one once parsed to a different experiment
# (``pipelines[4]`` is events-stream, whose QuarantinePartition needs the
# ``regulated`` tag to go to an operator), passed with an unknown key, or
# ended in a traceback.
DELETE = object()
MALFORMED_CANONICAL = [
    pytest.param(("pipelines", 4, "tags"), "regulated", id="tags-string"),
    pytest.param(("fault_schedule", 0, "tick"), 3.7, id="tick-float"),
    pytest.param(("pipelines", 0, "schema", "owner"), "ops", id="schema-unknown-key"),
    pytest.param(("pipelines", 0, "schema", "columns", 0, "pii"), True, id="column-unknown-key"),
    pytest.param(("fault_schedule", 0, "delta", "changes", 0, "why"), "x", id="change-unknown-key"),
    pytest.param(("fault_schedule", 0, "delta", "changes"), DELETE, id="delta-without-changes"),
    pytest.param(("horizon",), "long", id="horizon-string"),
    pytest.param(("arrival_models", "events-stream", "base_rate"), "fast", id="base-rate-string"),
    pytest.param(("fault_schedule", 2, "missing_fraction"), "x", id="missing-fraction-string"),
    pytest.param(("pipelines",), 5, id="pipelines-int"),
    pytest.param(("fault_schedule", 12), 7, id="fault-int"),
]


def malformed_canonical(keys: tuple, value) -> tuple[dict, str]:
    """The canonical document with one edit, and the path of the edited field."""

    doc = json.loads((REPO_ROOT / "scenarios" / "canonical.json").read_text(encoding="utf-8"))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    last = keys[-1]
    if value is DELETE:
        del parent[last]
    elif isinstance(parent, list) and last == len(parent):
        parent.append(value)
    else:
        parent[last] = value
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
    return doc, path


# Verdict lines registered by the acceptance suite; echoed after the run so
# they survive pytest's per-test output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

"""Pipeline topology and resource specs, plus structural validation.

Validation returns findings as data rather than raising: a spec loaded from
a file may carry several problems at once and callers (CLI, tests, fuzzers)
want all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from pipegov.core.reader import Fields, checked, integer, list_of, number, one_of, string
from pipegov.core.schema import Schema


class PipelineKind(str, Enum):
    BATCH = "batch"
    STREAMING = "streaming"


@dataclass(frozen=True)
class StageSpec:
    """One processing stage.

    ``base_rate`` is records per allocation unit per tick; allocation is
    clamped to ``[min_alloc, max_alloc]`` by every code path that changes
    it. ``checkpoint_interval`` is in ticks.
    """

    id: str
    upstream: tuple[str, ...] = ()
    base_rate: int = 25
    min_alloc: int = 1
    max_alloc: int = 4
    checkpoint_interval: int = 60

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "upstream": list(self.upstream),
            "base_rate": self.base_rate,
            "min_alloc": self.min_alloc,
            "max_alloc": self.max_alloc,
            "checkpoint_interval": self.checkpoint_interval,
        }

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> StageSpec:
        with Fields(raw, path) as f:
            return cls(
                id=f.take("id", string),
                upstream=f.take("upstream", list_of(string), ()),
                base_rate=f.take("base_rate", integer, 25),
                min_alloc=f.take("min_alloc", integer, 1),
                max_alloc=f.take("max_alloc", integer, 4),
                checkpoint_interval=f.take("checkpoint_interval", integer, 60),
            )


@dataclass(frozen=True)
class PipelineSpec:
    id: str
    kind: PipelineKind
    stages: tuple[StageSpec, ...]
    schema: Schema
    criticality: int = 3  # 1 is most critical, 5 least
    freshness_target: int | None = None  # streaming only, ticks
    schedule_period: int | None = None  # batch only, ticks
    tags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {
            "id": self.id,
            "kind": self.kind.value,
            "stages": [s.to_dict() for s in self.stages],
            "schema": self.schema.to_dict(),
            "criticality": self.criticality,
            "tags": list(self.tags),
        }
        if self.freshness_target is not None:
            out["freshness_target"] = self.freshness_target
        if self.schedule_period is not None:
            out["schedule_period"] = self.schedule_period
        return out

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> PipelineSpec:
        with Fields(raw, path) as f:
            return cls(
                id=f.take("id", string),
                kind=f.take("kind", one_of(PipelineKind)),
                stages=f.take("stages", list_of(StageSpec.from_dict)),
                schema=f.take("schema", Schema.from_dict),
                criticality=f.take("criticality", integer, 3),
                freshness_target=f.take("freshness_target", integer, None),
                schedule_period=f.take("schedule_period", integer, None),
                tags=f.take("tags", list_of(string), ()),
            )


_CAPACITY = checked(integer, lambda capacity: capacity >= 1, "must be >= 1")


@dataclass(frozen=True)
class ResourceModel:
    """Shared cluster capacity and pricing."""

    capacity: int
    unit_price: float = 0.5  # per allocation unit per tick
    storage_price: float = 0.01  # per materialized record

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "unit_price": self.unit_price,
            "storage_price": self.storage_price,
        }

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> ResourceModel:
        with Fields(raw, path) as f:
            return cls(
                capacity=f.take("capacity", _CAPACITY),
                unit_price=f.take("unit_price", number, 0.5),
                storage_price=f.take("storage_price", number, 0.01),
            )


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    subject: str
    message: str


def _topo_order(stages: tuple[StageSpec, ...]) -> list[str] | None:
    """Kahn's algorithm; None when the stage graph has a cycle."""

    ids = [s.id for s in stages]
    known = set(ids)
    indegree = {s.id: len([u for u in s.upstream if u in known]) for s in stages}
    children: dict[str, list[str]] = {i: [] for i in ids}
    for s in stages:
        for u in s.upstream:
            if u in known:
                children[u].append(s.id)
    ready = sorted(i for i in ids if indegree[i] == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for child in sorted(children[node]):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
        ready.sort()
    if len(order) != len(ids):
        return None
    return order


def stage_topology(pipeline: PipelineSpec) -> list[str]:
    order = _topo_order(pipeline.stages)
    if order is None:
        raise ValueError(f"pipeline {pipeline.id!r} has a stage cycle")
    return order


def validate_pipeline_spec(pipeline: PipelineSpec) -> list[ValidationIssue]:
    """Collect every structural violation in one pass."""

    issues: list[ValidationIssue] = []
    ids = [s.id for s in pipeline.stages]

    if not pipeline.stages:
        issues.append(ValidationIssue("no_stages", pipeline.id, "pipeline has no stages"))
        return issues

    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            issues.append(ValidationIssue("duplicate_stage", sid, f"stage id {sid!r} repeats"))
        seen.add(sid)

    known = set(ids)
    for s in pipeline.stages:
        for u in s.upstream:
            if u not in known:
                issues.append(
                    ValidationIssue("unknown_upstream", s.id, f"stage {s.id!r} names unknown upstream {u!r}")
                )
        if s.base_rate <= 0:
            issues.append(ValidationIssue("bad_base_rate", s.id, f"base_rate must be positive, got {s.base_rate}"))
        if s.min_alloc < 1:
            issues.append(ValidationIssue("bad_alloc_bounds", s.id, f"min_alloc must be >= 1, got {s.min_alloc}"))
        if s.min_alloc > s.max_alloc:
            issues.append(
                ValidationIssue(
                    "bad_alloc_bounds", s.id, f"min_alloc {s.min_alloc} exceeds max_alloc {s.max_alloc}"
                )
            )
        if s.checkpoint_interval < 1:
            issues.append(
                ValidationIssue("bad_checkpoint", s.id, f"checkpoint_interval must be >= 1, got {s.checkpoint_interval}")
            )

    if _topo_order(pipeline.stages) is None:
        issues.append(ValidationIssue("cycle", pipeline.id, "stage graph contains a cycle"))
    else:
        downstreamed = {u for s in pipeline.stages for u in s.upstream if u in known}
        sinks = [i for i in ids if i not in downstreamed]
        if len(sinks) != 1:
            issues.append(
                ValidationIssue("sink_count", pipeline.id, f"expected exactly one sink stage, found {sorted(sinks)}")
            )

    if not 1 <= pipeline.criticality <= 5:
        issues.append(
            ValidationIssue("bad_criticality", pipeline.id, f"criticality must be in 1..5, got {pipeline.criticality}")
        )

    if pipeline.kind is PipelineKind.STREAMING:
        if pipeline.freshness_target is None or pipeline.freshness_target < 1:
            issues.append(
                ValidationIssue("missing_freshness_target", pipeline.id, "streaming pipeline needs freshness_target >= 1")
            )
    else:
        if pipeline.schedule_period is None or pipeline.schedule_period < 1:
            issues.append(
                ValidationIssue("missing_schedule_period", pipeline.id, "batch pipeline needs schedule_period >= 1")
            )

    return issues

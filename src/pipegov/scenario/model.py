"""Workload and fault-schedule description for one simulated run.

A scenario is a single JSON document: pipeline fleet, shared resource
model, arrival/batch workload models, a scripted fault schedule, and the
simulator latency constants. Every object in it is read through
``core.reader``, so a typo cannot silently change an experiment: each
field is typed and nothing is coerced (an integer field takes a JSON
integer, never ``3.7`` or ``"3"``; a list field never takes a string),
unknown keys are rejected at every depth, and every error names the
field's path, such as ``pipelines[4].tags``. Whatever is wrong reaches
the caller as a ``ScenarioError``. ``scenario_hash`` fingerprints the
parsed document so two runs can prove they executed the same world.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

from pipegov.core.pipeline import (
    PipelineKind,
    PipelineSpec,
    ResourceModel,
    ValidationIssue,
    validate_pipeline_spec,
)
from pipegov.core.reader import Fields, OutOfRange, ReadError, integer, list_of, map_of, number, one_of, string
from pipegov.core.schema import SchemaDelta
from pipegov.simkernel.world import SimConstants
from pipegov.telemetry.audit import canonical_json


class ScenarioError(ValueError):
    """Structural problem in a scenario document."""


class FaultKind(str, Enum):
    SCHEMA_DRIFT = "SchemaDrift"
    UPSTREAM_DELAY = "UpstreamDelay"
    RESOURCE_CONTENTION = "ResourceContention"
    TRANSIENT_TASK_FAILURE = "TransientTaskFailure"


# The fields of each fault kind, with the reader of each.
_FAULT_FIELDS = {
    FaultKind.SCHEMA_DRIFT: {"pipeline": string, "delta": SchemaDelta.from_dict, "partition": string},
    FaultKind.UPSTREAM_DELAY: {"pipeline": string, "delay_ticks": integer, "missing_fraction": number},
    FaultKind.RESOURCE_CONTENTION: {"capacity_reduction": integer, "duration_ticks": integer},
    FaultKind.TRANSIENT_TASK_FAILURE: {"pipeline": string, "stage": string},
}


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault. Only the fields of its kind are set."""

    tick: int
    kind: FaultKind
    pipeline: str | None = None
    delta: SchemaDelta | None = None
    partition: str | None = None
    delay_ticks: int | None = None
    missing_fraction: float | None = None
    capacity_reduction: int | None = None
    duration_ticks: int | None = None
    stage: str | None = None

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ScenarioError(f"fault tick must be >= 0, got {self.tick}")
        missing = [name for name in _FAULT_FIELDS[self.kind] if getattr(self, name) in (None, "")]
        if missing:
            raise ScenarioError(f"{self.kind.value} needs {', '.join(missing)}")
        for name in ("delay_ticks", "capacity_reduction", "duration_ticks"):
            value = getattr(self, name)
            if name in _FAULT_FIELDS[self.kind] and value < 1:
                raise ScenarioError(f"{name} must be >= 1, got {value}")
        if self.kind is FaultKind.UPSTREAM_DELAY and not 0.0 <= self.missing_fraction <= 1.0:
            raise ScenarioError(f"missing_fraction must be in [0, 1], got {self.missing_fraction}")

    def to_dict(self) -> dict:
        out: dict = {"tick": self.tick, "kind": self.kind.value}
        for name in sorted(_FAULT_FIELDS[self.kind]):
            value = getattr(self, name)
            out[name] = value.to_dict() if name == "delta" else value
        return out

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> FaultEvent:
        with Fields(raw, path) as f:
            kind = f.take("kind", one_of(FaultKind))
            fields = {name: f.take(name, read) for name, read in _FAULT_FIELDS[kind].items()}
            return cls(tick=f.take("tick", integer), kind=kind, **fields)


@dataclass(frozen=True)
class ArrivalModel:
    """Streaming ingress: Poisson mean base_rate, times any active burst."""

    base_rate: float
    bursts: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ScenarioError(f"arrival base_rate must be > 0, got {self.base_rate}")
        for start, end, mult in self.bursts:
            if start >= end:
                raise ScenarioError(f"burst window [{start}, {end}) is empty")
            if mult <= 0:
                raise ScenarioError(f"burst multiplier must be > 0, got {mult}")

    def mean_at(self, tick: int) -> float:
        mean = self.base_rate
        for start, end, mult in self.bursts:
            if start <= tick < end:
                mean *= mult
        return mean

    def to_dict(self) -> dict:
        return {
            "base_rate": self.base_rate,
            "bursts": [[s, e, m] for s, e, m in self.bursts],
        }

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> ArrivalModel:
        with Fields(raw, path) as f:
            return cls(base_rate=f.take("base_rate", number), bursts=f.take("bursts", list_of(_burst), ()))


def _burst(value: object, path: str) -> tuple[int, int, float]:
    if type(value) is not list or len(value) != 3:
        raise OutOfRange(path, f"must be [start, end, multiplier], got {value!r}")
    return integer(value[0], f"{path}[0]"), integer(value[1], f"{path}[1]"), number(value[2], f"{path}[2]")


@dataclass(frozen=True)
class BatchModel:
    """Batch ingress: dataset_size records land at every schedule boundary."""

    dataset_size: int
    schedule_period: int

    def __post_init__(self) -> None:
        if self.dataset_size < 1:
            raise ScenarioError(f"dataset_size must be >= 1, got {self.dataset_size}")
        if self.schedule_period < 1:
            raise ScenarioError(f"schedule_period must be >= 1, got {self.schedule_period}")

    def to_dict(self) -> dict:
        return {"dataset_size": self.dataset_size, "schedule_period": self.schedule_period}

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> BatchModel:
        with Fields(raw, path) as f:
            return cls(
                dataset_size=f.take("dataset_size", integer),
                schedule_period=f.take("schedule_period", integer),
            )


@dataclass(frozen=True)
class ScenarioSpec:
    horizon: int
    seed: int
    resource_model: ResourceModel
    pipelines: tuple[PipelineSpec, ...]
    arrival_models: dict[str, ArrivalModel] = field(default_factory=dict)
    batch_models: dict[str, BatchModel] = field(default_factory=dict)
    fault_schedule: tuple[FaultEvent, ...] = ()
    sim_constants: SimConstants = field(default_factory=SimConstants)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ScenarioError(f"horizon must be >= 1, got {self.horizon}")

    def pipeline_map(self) -> dict[str, PipelineSpec]:
        return {p.id: p for p in self.pipelines}

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "seed": self.seed,
            "resource_model": self.resource_model.to_dict(),
            "pipelines": [p.to_dict() for p in self.pipelines],
            "arrival_models": {k: v.to_dict() for k, v in sorted(self.arrival_models.items())},
            "batch_models": {k: v.to_dict() for k, v in sorted(self.batch_models.items())},
            "fault_schedule": [f.to_dict() for f in self.fault_schedule],
            "sim_constants": self.sim_constants.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: object) -> ScenarioSpec:
        try:
            with Fields(raw) as f:
                return cls(
                    horizon=f.take("horizon", integer),
                    seed=f.take("seed", integer),
                    resource_model=f.take("resource_model", ResourceModel.from_dict),
                    pipelines=f.take("pipelines", list_of(PipelineSpec.from_dict)),
                    arrival_models=f.take("arrival_models", map_of(ArrivalModel.from_dict), {}),
                    batch_models=f.take("batch_models", map_of(BatchModel.from_dict), {}),
                    fault_schedule=f.take("fault_schedule", list_of(FaultEvent.from_dict), ()),
                    sim_constants=f.take("sim_constants", SimConstants.from_dict, SimConstants()),
                )
        except ReadError as exc:
            raise ScenarioError(str(exc)) from None


def parse_scenario(source: dict | str) -> ScenarioSpec:
    """Parse a scenario from a dict or a JSON string; strict on structure."""

    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
    return ScenarioSpec.from_dict(source)


def validate_scenario(spec: ScenarioSpec) -> list[ValidationIssue]:
    """Semantic cross-checks on a structurally valid scenario."""

    issues: list[ValidationIssue] = []
    seen: set[str] = set()
    for p in spec.pipelines:
        if p.id in seen:
            issues.append(ValidationIssue("duplicate_pipeline", p.id, f"pipeline id {p.id!r} repeats"))
        seen.add(p.id)
        issues.extend(validate_pipeline_spec(p))

    by_id = spec.pipeline_map()
    for pid, p in sorted(by_id.items()):
        if p.kind is PipelineKind.STREAMING and pid not in spec.arrival_models:
            issues.append(
                ValidationIssue("missing_arrival_model", pid, f"streaming pipeline {pid!r} has no arrival model")
            )
        if p.kind is PipelineKind.BATCH:
            model = spec.batch_models.get(pid)
            if model is None:
                issues.append(
                    ValidationIssue("missing_batch_model", pid, f"batch pipeline {pid!r} has no batch model")
                )
            elif p.schedule_period is not None and model.schedule_period != p.schedule_period:
                issues.append(
                    ValidationIssue(
                        "model_period_mismatch",
                        pid,
                        f"batch model period {model.schedule_period} != pipeline schedule_period {p.schedule_period}",
                    )
                )
    for pid in sorted(set(spec.arrival_models) | set(spec.batch_models)):
        if pid not in by_id:
            issues.append(ValidationIssue("orphan_model", pid, f"workload model names unknown pipeline {pid!r}"))
        elif pid in spec.arrival_models and by_id[pid].kind is not PipelineKind.STREAMING:
            issues.append(ValidationIssue("orphan_model", pid, f"arrival model on non-streaming pipeline {pid!r}"))
        elif pid in spec.batch_models and by_id[pid].kind is not PipelineKind.BATCH:
            issues.append(ValidationIssue("orphan_model", pid, f"batch model on non-batch pipeline {pid!r}"))

    for i, event in enumerate(spec.fault_schedule):
        subject = f"fault[{i}]"
        if not 0 <= event.tick < spec.horizon:
            issues.append(
                ValidationIssue("fault_tick_range", subject, f"tick {event.tick} outside [0, {spec.horizon})")
            )
        if event.pipeline is not None and event.pipeline not in by_id:
            issues.append(
                ValidationIssue("fault_unknown_pipeline", subject, f"fault names unknown pipeline {event.pipeline!r}")
            )
        elif event.kind is FaultKind.TRANSIENT_TASK_FAILURE:
            stages = {s.id for s in by_id[event.pipeline].stages}
            if event.stage not in stages:
                issues.append(
                    ValidationIssue(
                        "fault_unknown_stage",
                        subject,
                        f"fault names unknown stage {event.stage!r} on pipeline {event.pipeline!r}",
                    )
                )
    return issues


def scenario_hash(spec: ScenarioSpec) -> str:
    """Stable fingerprint of the full scenario document."""

    return hashlib.sha256(canonical_json(spec.to_dict()).encode("utf-8")).hexdigest()

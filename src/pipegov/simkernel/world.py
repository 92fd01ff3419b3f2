"""World state for the tick simulation.

Records move through per-stage FIFO queues as cohorts (arrival tick, count,
optional partition label), so per-record freshness can be measured without
materializing individual records. All counters are integers; the world is
valid only while, for every pipeline:

    ingress == materialized + queued + quarantined + dropped

Records withheld by an upstream delay are not ingress until they are
released (or declared dropped), which keeps the equation exact at every
tick.

Each stage queue is a ``CohortQueue`` that keeps a running total of the
records it holds, updated by every mutation it offers, so ``depth()`` and
``queued()`` cost O(stages) rather than O(cohorts). The kernel checks the
equation over these totals on every tick; ``check_accounting`` also
re-sums every queue and rejects a total that disagrees with its cohorts.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import NamedTuple

from pipegov.core.pipeline import (
    PipelineSpec,
    ResourceModel,
    StageSpec,
    stage_topology,
    validate_pipeline_spec,
)
from pipegov.core.reader import Fields, checked, integer
from pipegov.core.schema import Schema, SchemaDelta


class Health(str, Enum):
    HEALTHY = "Healthy"
    FAILING = "Failing"
    HALTED = "Halted"
    DEFERRED = "Deferred"


# Halted and deferred pipelines keep their units but pay nothing for them; the
# kernel prices and the controller projects spend by this one rule.
UNPAID = frozenset({Health.HALTED, Health.DEFERRED})
# Nothing runs on a halted or deferred pipeline, so no task there can fail
# and there is no run to roll back or recompute. The same two states as
# UNPAID, named apart because the two rules could part.
NOT_RUNNING = frozenset({Health.HALTED, Health.DEFERRED})


@dataclass(slots=True)
class Cohort:
    arrival_tick: int
    count: int
    partition: str | None = None


class CohortQueue:
    """FIFO of cohorts with a running total of the records it holds.

    ``records`` equals the sum of cohort counts as long as cohorts are only
    added and removed through these methods; ``recount`` re-sums them.
    """

    __slots__ = ("_cohorts", "records")

    def __init__(self) -> None:
        self._cohorts: deque[Cohort] = deque()
        self.records = 0

    def __len__(self) -> int:
        return len(self._cohorts)

    def __iter__(self) -> Iterator[Cohort]:
        return iter(self._cohorts)

    def recount(self) -> int:
        return sum(c.count for c in self._cohorts)

    def append(self, cohort: Cohort) -> None:
        self._cohorts.append(cohort)
        self.records += cohort.count

    def take(self, limit: int, end: int = 0) -> list[Cohort]:
        """Remove up to ``limit`` records from the front (``end`` 0), oldest
        first, or from the back (``end`` -1), newest first."""

        cohorts = self._cohorts
        pop = cohorts.popleft if end == 0 else cohorts.pop
        taken: list[Cohort] = []
        remaining = limit
        while remaining > 0 and cohorts:
            edge = cohorts[end]
            if edge.count <= remaining:
                taken.append(pop())
                remaining -= edge.count
            else:
                edge.count -= remaining
                taken.append(Cohort(edge.arrival_tick, remaining, edge.partition))
                remaining = 0
        self.records -= limit - remaining
        return taken

    def remove_partition(self, partition: str) -> int:
        """Drop every cohort tagged ``partition``; returns the records dropped."""

        removed = sum(c.count for c in self._cohorts if c.partition == partition)
        if removed:
            self._cohorts = deque(c for c in self._cohorts if c.partition != partition)
            self.records -= removed
        return removed


_TICKS = checked(integer, lambda ticks: ticks >= 0, "must be >= 0")


@dataclass(slots=True)
class SimConstants:
    """Latencies and spans the kernel charges for recovery work, in ticks."""

    replay_latency: int = 5
    rollback_latency: int = 10
    recompute_latency_per_partition: int = 3
    quarantine_latency: int = 1
    resume_latency: int = 1
    drift_span: int = 60  # tagged-arrival window for drift on streaming pipelines
    release_span: int = 10  # ticks over which withheld records re-enter

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> SimConstants:
        with Fields(raw, path) as f:
            return cls(**{c.name: f.take(c.name, _TICKS, c.default) for c in fields(cls)})


@dataclass
class StageState:
    spec: StageSpec
    alloc: int
    queue: CohortQueue = field(default_factory=CohortQueue)
    downstream: tuple[str, ...] = ()
    # forwarded record counts per downstream stage since the last checkpoint;
    # Replay pulls these back out of downstream queue tails.
    forwarded_since_checkpoint: dict[str, int] = field(default_factory=dict)

    def depth(self) -> int:
        return self.queue.records


@dataclass
class PendingDrift:
    """A drift the live schema cannot take; a compatible delta never makes one."""

    partition: str
    delta: SchemaDelta
    window_end: int  # arrivals through this tick belong to the drifted partition
    quarantine_mode: bool = False


@dataclass
class PipelineState:
    spec: PipelineSpec
    stages: dict[str, StageState]
    chain: tuple[StageState, ...]  # the stages in topological order, entry first
    schema: Schema
    health: Health = Health.HEALTHY
    failing_cause: str | None = None  # "schema_drift" | "task_failure" | "missing_input"
    failing_stage: str | None = None
    recover_at: int | None = None
    paused_until: int = 0  # processing pause for rollback/recompute work
    pending_drift: PendingDrift | None = None

    # Upstream delay state. The kernel fills withheld and release_plan only
    # while suppress_until is set, and clears suppress_until only once the
    # delay has passed and the plan is empty. So suppress_until None means
    # the delay is over: withheld is 0 and release_plan is empty.
    suppress_until: int | None = None
    missing_fraction: float = 0.0
    withheld: int = 0
    release_plan: deque[tuple[int, int]] = field(default_factory=deque)

    # per-pipeline record accounting
    ingress: int = 0
    materialized: int = 0
    quarantined: int = 0
    dropped: int = 0

    # rollback support and freshness bookkeeping
    materialized_since_checkpoint: list[Cohort] = field(default_factory=list)
    newest_materialized_arrival: int = 0

    def queued(self) -> int:
        return sum(s.depth() for s in self.stages.values())

    def allocation_total(self) -> int:
        return sum(s.alloc for s in self.stages.values())

    @property
    def topo(self) -> list[str]:
        return [s.spec.id for s in self.chain]

    def entry_stage(self) -> StageState:
        return self.chain[0]


class PipelineSample(NamedTuple):
    queue_depth: int
    freshness_lag: int
    failure_count: int
    utilization: float
    ingress: int


class TelemetrySnapshot(NamedTuple):
    pipelines: dict[str, PipelineSample]
    capacity_headroom: int  # effective capacity minus the allocation of busy stages


class TickReport(NamedTuple):
    tick: int
    snapshot: TelemetrySnapshot
    # (pipeline, kind) per failure this tick; kind is "task_failure",
    # "schema_drift" or "missing_input"
    failures: tuple[tuple[str, str], ...]
    materialized: int
    cost: float


@dataclass
class SimWorld:
    pipelines: dict[str, PipelineState]  # in id order, whatever order it is given in
    resource_model: ResourceModel
    constants: SimConstants
    tick: int = 0
    capacity_reductions: list[tuple[int, int]] = field(default_factory=list)  # (until, units)
    consumed_faults: set[int] = field(default_factory=set)  # fault schedule indexes
    # (pipeline, kind) failures raised by fault injection, reported by the next step
    pending_failures: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.pipelines = dict(sorted(self.pipelines.items()))

    def pipeline_ids(self) -> list[str]:
        return list(self.pipelines)

    def effective_capacity(self, tick: int) -> int:
        reduced = sum(units for until, units in self.capacity_reductions if tick < until)
        return max(1, self.resource_model.capacity - reduced)

    def counters(self) -> dict[str, int]:
        totals = {"ingress": 0, "materialized": 0, "queued": 0, "quarantined": 0, "dropped": 0}
        for p in self.pipelines.values():
            totals["ingress"] += p.ingress
            totals["materialized"] += p.materialized
            totals["queued"] += p.queued()
            totals["quarantined"] += p.quarantined
            totals["dropped"] += p.dropped
        return totals


def checked_pipelines(pipelines: Iterable[PipelineSpec]) -> list[PipelineSpec]:
    """The pipelines in id order; raises ValueError naming the first one,
    in that order, whose id repeats or whose spec is structurally invalid."""

    ordered = sorted(pipelines, key=lambda p: p.id)
    seen: set[str] = set()
    for spec in ordered:
        if spec.id in seen:
            raise ValueError(f"duplicate pipeline id {spec.id!r}")
        seen.add(spec.id)
        issues = validate_pipeline_spec(spec)
        if issues:
            summary = "; ".join(f"{i.code}({i.subject})" for i in issues)
            raise ValueError(f"invalid pipeline {spec.id!r}: {summary}")
    return ordered


def build_world(
    pipelines: list[PipelineSpec],
    resource_model: ResourceModel,
    allocations: dict[str, dict[str, int]] | None = None,
    constants: SimConstants | None = None,
) -> SimWorld:
    """Construct a world with every pipeline healthy and queues empty.

    ``allocations`` maps pipeline id -> stage id -> units; omitted stages
    start at their minimum allocation. Structural problems in any pipeline
    spec are rejected here (``checked_pipelines``) rather than surfacing
    mid-run.
    """

    states: dict[str, PipelineState] = {}
    for spec in checked_pipelines(pipelines):
        downstream_map: dict[str, list[str]] = {s.id: [] for s in spec.stages}
        for s in spec.stages:
            for up in s.upstream:
                downstream_map[up].append(s.id)
        stage_states: dict[str, StageState] = {}
        for s in spec.stages:
            alloc = s.min_alloc
            if allocations and spec.id in allocations:
                alloc = allocations[spec.id].get(s.id, s.min_alloc)
            alloc = max(s.min_alloc, min(s.max_alloc, alloc))
            stage_states[s.id] = StageState(
                spec=s, alloc=alloc, downstream=tuple(sorted(downstream_map[s.id]))
            )
        chain = tuple(stage_states[sid] for sid in stage_topology(spec))
        states[spec.id] = PipelineState(
            spec=spec, stages=stage_states, chain=chain, schema=spec.schema
        )
    return SimWorld(
        pipelines=states,
        resource_model=resource_model,
        constants=constants or SimConstants(),
    )

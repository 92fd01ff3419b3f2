"""What an agent is allowed to see, and what the system remembers.

An ObservationBundle is a frozen, JSON-serializable view assembled by the
control loop for exactly one (tick, agent) reasoning call. Everything a
reasoning backend may use lives here — telemetry, open incidents, policy
headroom, past-outcome statistics — so backends can be pure functions of
the bundle and stay deterministic and replaceable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.reader import Fields, integer, string


@dataclass
class MemoryCell:
    attempts: int = 0
    successes: int = 0
    total_resolution_ticks: int = 0

    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0

    def mean_resolution(self) -> float:
        return self.total_resolution_ticks / self.successes if self.successes else 0.0


class OutcomeMemory:
    """Action-effectiveness statistics keyed by (incident class, action kind).

    Attempts count every executed action tied to an incident; successes
    count incidents that closed with that action as their resolution.
    """

    def __init__(self) -> None:
        self._cells: dict[tuple[str, str], MemoryCell] = {}

    def _cell(self, incident_class: str, kind: str) -> MemoryCell:
        return self._cells.setdefault((incident_class, kind), MemoryCell())

    def record_attempt(self, incident_class: str, kind: str) -> None:
        self._cell(incident_class, kind).attempts += 1

    def record_success(self, incident_class: str, kind: str, resolution_ticks: int) -> None:
        cell = self._cell(incident_class, kind)
        cell.successes += 1
        cell.total_resolution_ticks += resolution_ticks
        if cell.successes > cell.attempts:
            raise ValueError(
                f"memory for ({incident_class}, {kind}): successes {cell.successes} "
                f"exceed attempts {cell.attempts}"
            )

    def extract(self) -> dict[str, dict]:
        """Plain-data form for embedding into ObservationBundles."""

        out: dict[str, dict] = {}
        for (cls, kind), cell in sorted(self._cells.items()):
            out[f"{cls}:{kind}"] = {
                "attempts": cell.attempts,
                "successes": cell.successes,
                "success_rate": cell.success_rate(),
                "mean_resolution": cell.mean_resolution(),
            }
        return out


@dataclass(frozen=True)
class ObservationBundle:
    """Read-only, plain-data view for one reasoning call.

    Apart from ``memory``, it carries only the keys the builtin agents read.

    ``snapshot`` is the previous tick's telemetry, pipelines in sorted
    order, and ``{}`` at tick 0, before the first step::

        {capacity_headroom,
         pipelines: {pipeline_id: {freshness_lag, queue_depth, ingress}}}

    ``open_incidents`` lists the open incidents in detection order::

        ({id, pipeline, incident_class, claimed_by, approval_pending,
          last_action_tick}, ...)

    ``pipelines`` carries per-pipeline operational context::

        {pipeline_id: {criticality, freshness_target, health, failing_stage,
                       recovering, suppressed, ticks_since_alloc_change,
                       stages: {stage_id: {alloc, min_alloc, max_alloc}},
                       drift: None | {partition, quarantine_mode, compatible},
                       delay: None | {baseline_ingress}}}

    ``series`` carries short per-pipeline metric windows (newest last)::

        {pipeline_id: {"utilization": [...], "ingress": [...]}}

    They hold the last 30 utilization and the last 20 ingress samples
    through the previous tick: the values the runner records into its
    MetricStore, kept by the controller in rolling windows as it folds
    each tick's report. Both lists are empty before the first report.

    ``policy`` is the governance headroom::

        {max_scale_step, budget_per_window, window_remaining,
         committed_spend, unit_price, quarantine_allowed, schema_mode,
         allowed_strategies}

    ``memory`` is ``OutcomeMemory.extract()``, the form the report also
    writes; agents read each cell's ``attempts``, ``success_rate`` and
    ``mean_resolution``.

    The agents of one tick share every container except ``policy``; no
    container is handed to a backend on two ticks.
    """

    tick: int
    agent: str
    snapshot: dict
    open_incidents: tuple[dict, ...]
    pipelines: dict[str, dict]
    series: dict[str, dict[str, list]]
    policy: dict
    memory: dict[str, dict]

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "agent": self.agent,
            "snapshot": self.snapshot,
            "open_incidents": list(self.open_incidents),
            "pipelines": self.pipelines,
            "series": self.series,
            "policy": self.policy,
            "memory": self.memory,
        }


@dataclass(frozen=True, slots=True)
class CandidateAction:
    """What a reasoning backend emits: a plain, data-only action request.

    Candidates carry no authority. The control loop screens each one
    against the proposing agent's action table and the governance policy
    before anything touches the cluster.
    """

    kind: str
    pipeline: str
    stage: str | None = None
    partition: str | None = None
    delta_units: int = 0
    condition: str | None = None
    rationale: str = ""
    incident_id: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "pipeline": self.pipeline}
        if self.stage is not None:
            out["stage"] = self.stage
        if self.partition is not None:
            out["partition"] = self.partition
        if self.delta_units:
            out["delta_units"] = self.delta_units
        if self.condition is not None:
            out["condition"] = self.condition
        if self.rationale:
            out["rationale"] = self.rationale
        if self.incident_id is not None:
            out["incident_id"] = self.incident_id
        return out

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> CandidateAction:
        with Fields(raw, path) as f:
            return cls(
                kind=f.take("kind", string),
                pipeline=f.take("pipeline", string),
                stage=f.take("stage", string, None),
                partition=f.take("partition", string, None),
                delta_units=f.take("delta_units", integer, 0),
                condition=f.take("condition", string, None),
                rationale=f.take("rationale", string, ""),
                incident_id=f.take("incident_id", string, None),
            )

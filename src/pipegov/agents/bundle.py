"""What an agent is allowed to see, and what the system remembers.

An ObservationBundle is a read-only view assembled by the control loop for
exactly one (tick, agent) reasoning call. Everything a reasoning backend
may use lives here — telemetry, open incidents, policy headroom,
past-outcome statistics — so backends can be pure functions of the bundle
and stay deterministic and replaceable.

A ControlState is what a builtin agent's trigger reads instead: the
controller's own state, from which that tick's bundles would be built.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from ..core.reader import Fields, integer, string

if TYPE_CHECKING:
    from ..simkernel.world import PipelineState, TelemetrySnapshot
    from ..telemetry.incidents import Incident
    from .monitoring import PipelineObservation


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
        """Plain-data form for bundles and the report. The success count
        stays internal: both rates derive from it, and no agent reads it."""

        out: dict[str, dict] = {}
        for (cls, kind), cell in sorted(self._cells.items()):
            out[f"{cls}:{kind}"] = {
                "attempts": cell.attempts,
                "success_rate": cell.success_rate(),
                "mean_resolution": cell.mean_resolution(),
            }
        return out

    def view(self) -> Mapping[str, Mapping]:
        """``extract()`` as read-only mappings."""

        cells = self.extract()
        return MappingProxyType({key: MappingProxyType(cell) for key, cell in cells.items()})


def _plain(node: object) -> object:
    """A JSON-ready copy: every mapping a dict, every tuple a list."""

    if isinstance(node, Mapping):
        return {key: _plain(value) for key, value in node.items()}
    return [_plain(value) for value in node] if isinstance(node, tuple) else node


class ObservationBundle(NamedTuple):
    """Read-only view for one reasoning call.

    A bundle is built for each call the controller makes: for every agent
    on every tick, except under the builtin rules, whose agents are asked
    only on the ticks their trigger holds (see ``ControlState``).

    It carries only the keys the builtin agents read, and every key shown
    below is always present, from tick 0 on. Every container in it is a
    ``MappingProxyType`` or a tuple, so nothing a backend holds can be
    changed, by the backend or by the controller: a view stays equal to
    what it was when handed out. Its views are built fresh on each tick
    that builds bundles, and the agents of that tick share them.
    ``to_dict()`` returns plain, JSON-ready copies.

    ``observed`` is what the controller has observed of the cluster and of
    each pipeline through the previous tick, pipelines in sorted order::

        {capacity_headroom,
         pipelines: {pipeline_id: {freshness_lag, queue_depth, ingress,
                                   low_util_run}}}

    The headroom, lag and queue depth are the previous tick's kernel
    telemetry. ``ingress`` holds the last 10 ingress samples
    (``STABLE_TICKS``), newest last, as far back as the recovery agent
    looks. ``low_util_run`` counts the samples in a row, ending with the
    newest, whose utilization is below ``LOW_UTIL_THRESHOLD``; the
    optimization agent's idle rule holds when it is at least
    ``LOW_UTIL_TICKS``. Both follow the values the runner records into its
    MetricStore. Before the first step every value reads 0 and the window
    ``()``.

    ``open_incidents`` lists the open incidents in detection order::

        ({id, pipeline, incident_class, claimed_by, approval_pending,
          last_action_tick, delay_baseline}, ...)

    ``delay_baseline`` is an UpstreamDelay's ingress mean when it opened,
    and None for the other classes.

    ``pipelines`` carries per-pipeline operational context::

        {pipeline_id: {criticality, freshness_target, health, failing_stage,
                       recovering, suppressed, alloc_changed_at,
                       stages: {stage_id: {alloc, min_alloc, max_alloc}},
                       drift: None | {partition, quarantine_mode}}}

    ``alloc_changed_at`` is the tick of the pipeline's last applied scaling
    action, 0 before any. A pending drift is always one the live schema
    cannot take.

    ``policy`` is the governance headroom, shared by the agents of a tick::

        {max_scale_step, budget_per_window, window, committed_spend,
         unit_price, quarantine_allowed, schema_mode, allowed_strategies}

    ``window`` is the policy's ``cost.window``: new units are priced over
    one full window, as the policy engine prices them.

    ``memory`` is ``OutcomeMemory.view()``, the read-only form of what the
    report writes::

        {"<incident class>:<action kind>": {attempts, success_rate,
                                            mean_resolution}}
    """

    tick: int
    agent: str
    observed: Mapping
    open_incidents: tuple[Mapping, ...]
    pipelines: Mapping[str, Mapping]
    policy: Mapping
    memory: Mapping[str, Mapping]

    def to_dict(self) -> dict:
        return _plain(self._asdict())


class ControlState(NamedTuple):
    """What a builtin agent's trigger reads to tell whether its rule can act.

    These are the raw objects a tick's bundles are built from, at the point
    they would be built: the ledger's open incidents, the previous tick's
    kernel telemetry (every value 0 before the first step), the world's
    pipelines, and by pipeline id the controller's observation records,
    which a bundle's ``observed`` shows, and last scaling ticks (a missing
    id reads as 0, as in a bundle's ``alloc_changed_at``).
    """

    tick: int
    incidents: Collection[Incident]
    snapshot: TelemetrySnapshot
    pipelines: Mapping[str, PipelineState]
    observations: Mapping[str, PipelineObservation]
    alloc_changed_at: Mapping[str, int]


def may_act(claim: str | None, agent: str, approval_pending: bool, recovering: bool) -> bool:
    """Whether ``agent``'s rule may act on an open incident: its claim is free
    or the agent's own, no approval is pending and no fix is maturing."""

    return claim in (None, agent) and not approval_pending and not recovering


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

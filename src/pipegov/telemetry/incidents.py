"""Incident records and the ledger that owns every change to them.

An incident is one outage, from detection to resumption, numbered
``INC-0001``, ... in detection order. The control chassis calls each ledger
transition where it writes the matching audit record; audit replay folds
the same transitions over a log. The rules:

- A trigger for a (pipeline, class) pair with an open incident coalesces
  into it, so a fault that keeps re-firing is one outage.
- ``claim`` names who handles an open incident: the agent that proposed
  a remedy, ``"Baseline"`` for retries, or ``"operator"`` once escalated.
  An approval request or an applied remedy claims it for the proposer (so
  the operator's own remedy sets ``"Operator"``); a deny or a rejection
  releases only the proposer's own claim, never an escalation.
- Retries and operator remedies cite an open incident, agent remedies an
  open incident or none. A late approval's remedy changes no incident.
- An incident closes with its last applied remedy as its resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from pipegov.core.actions import Actor

CLUSTER_PIPELINE = "cluster"  # scope for incidents that are not pipeline-local


class IncidentClass(str, Enum):
    SCHEMA_INCOMPATIBLE = "SchemaIncompatible"
    UPSTREAM_DELAY = "UpstreamDelay"
    RESOURCE_CONTENTION = "ResourceContention"
    TRANSIENT_TASK_FAILURE = "TransientTaskFailure"
    FRESHNESS_BREACH = "FreshnessBreach"


class IllegalIncidentTransition(ValueError):
    pass


@dataclass
class Incident:
    id: str
    pipeline: str
    incident_class: IncidentClass
    detected_tick: int
    resumed_tick: int | None = None
    resolution: str | None = None
    # Control state while open, changed only by IncidentLedger.
    claim: str | None = None
    denied: set[str] = field(default_factory=set)  # action kinds policy denied
    failed: bool = False  # a task failed; the retry fallback may act
    retries_used: int = 0
    retry_next_at: int = 0
    last_applied: str | None = None  # action kind; the resolution on close
    last_action_tick: int | None = None
    approval_pending: bool = False
    delay_baseline: float | None = None  # ingress mean when an UpstreamDelay opened

    @property
    def open(self) -> bool:
        return self.resumed_tick is None

    def duration(self) -> int | None:
        if self.resumed_tick is None:
            return None
        return self.resumed_tick - self.detected_tick

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "pipeline": self.pipeline,
            "incident_class": self.incident_class.value,
            "detected_tick": self.detected_tick,
            "resumed_tick": self.resumed_tick,
            "resolution": self.resolution,
        }


class IncidentLedger:
    """Every incident in detection order, and the open ones in the same order."""

    def __init__(self) -> None:
        self.incidents: dict[str, Incident] = {}
        self.open: dict[str, Incident] = {}  # the same objects, while open

    def _open(self, incident_id: str) -> Incident:
        incident = self.open.get(incident_id)
        if incident is None:
            raise IllegalIncidentTransition(f"no open incident {incident_id!r}")
        return incident

    def opened(
        self,
        pipeline: str,
        incident_class: IncidentClass,
        tick: int,
        failed: bool = False,
        delay_baseline: float | None = None,
    ) -> tuple[Incident, bool]:
        """Open an incident or coalesce into the pair's open one; True when new."""

        for incident in self.open.values():
            if incident.pipeline == pipeline and incident.incident_class is incident_class:
                incident.failed |= failed
                return incident, False
        incident = Incident(f"INC-{len(self.incidents) + 1:04d}", pipeline, incident_class, tick)
        incident.failed, incident.delay_baseline = failed, delay_baseline
        self.incidents[incident.id] = self.open[incident.id] = incident
        return incident, True

    def proposed(self, incident_id: str | None, agent: str, tick: int, backoff: int = 0) -> None:
        """A retry (``agent`` "Baseline") may next run ``backoff`` ticks on."""

        if incident_id is None:
            if agent in (Actor.BASELINE.value, Actor.OPERATOR.value):
                raise IllegalIncidentTransition(f"{agent} proposal cites no incident")
            return
        incident = self._open(incident_id)
        if agent == Actor.BASELINE.value:
            incident.retries_used += 1
            incident.retry_next_at = tick + backoff
        if agent != Actor.OPERATOR.value:
            incident.claim = agent

    def denied(self, incident_id: str | None, agent: str, kind: str) -> None:
        if incident_id is not None:
            incident = self._open(incident_id)
            incident.denied.add(kind)
            if incident.claim == agent:
                incident.claim = None

    def approval_requested(self, incident_id: str | None, agent: str) -> None:
        if incident_id is not None:
            incident = self._open(incident_id)
            incident.approval_pending, incident.claim = True, agent

    def granted(self, incident_id: str | None) -> None:
        if incident_id in self.open:  # not once the incident has closed
            self.open[incident_id].approval_pending = False

    def acted(self, incident_id: str | None, agent: str, kind: str, tick: int, applied: bool) -> None:
        """A remedy was applied, or rejected by the data plane."""

        incident = self.open.get(incident_id)
        if incident is None:  # no incident, or an approval landed after it closed
            return
        if applied:
            incident.last_applied, incident.last_action_tick, incident.claim = kind, tick, agent
        elif incident.claim == agent:
            incident.claim = None

    def escalated(self, incident_id: str) -> None:
        self._open(incident_id).claim = "operator"

    def closed(self, incident_id: str, tick: int) -> Incident:
        incident = self.open.pop(self._open(incident_id).id)
        incident.resumed_tick, incident.resolution = tick, incident.last_applied
        return incident

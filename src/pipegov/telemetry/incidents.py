"""Incident registry with per-(pipeline, class) coalescing.

While an incident for a given pipeline and class is open, further openings
of the same pair return the existing incident instead of creating a new
one, so a fault that keeps re-firing is tracked as one outage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

CLUSTER_PIPELINE = "cluster"  # scope for incidents that are not pipeline-local


class IncidentClass(str, Enum):
    SCHEMA_INCOMPATIBLE = "SchemaIncompatible"
    UPSTREAM_DELAY = "UpstreamDelay"
    RESOURCE_CONTENTION = "ResourceContention"
    TRANSIENT_TASK_FAILURE = "TransientTaskFailure"
    FRESHNESS_BREACH = "FreshnessBreach"


class UnknownIncident(KeyError):
    pass


class AlreadyClosed(ValueError):
    pass


@dataclass
class Incident:
    id: str
    pipeline: str
    incident_class: IncidentClass
    detected_tick: int
    resumed_tick: int | None = None
    resolution: str | None = None

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


@dataclass
class IncidentRegistry:
    _incidents: dict[str, Incident] = field(default_factory=dict)
    _open_index: dict[tuple[str, str], str] = field(default_factory=dict)
    _next: int = 1

    def open_incident(self, pipeline: str, incident_class: IncidentClass, tick: int) -> Incident:
        key = (pipeline, incident_class.value)
        existing = self._open_index.get(key)
        if existing is not None:
            return self._incidents[existing]
        incident = Incident(
            id=f"INC-{self._next:04d}",
            pipeline=pipeline,
            incident_class=incident_class,
            detected_tick=tick,
        )
        self._next += 1
        self._incidents[incident.id] = incident
        self._open_index[key] = incident.id
        return incident

    def close_incident(self, incident_id: str, tick: int, resolution: str) -> Incident:
        incident = self._incidents.get(incident_id)
        if incident is None:
            raise UnknownIncident(incident_id)
        if not incident.open:
            raise AlreadyClosed(incident_id)
        if tick < incident.detected_tick:
            raise ValueError(
                f"close tick {tick} precedes detection tick {incident.detected_tick}"
            )
        incident.resumed_tick = tick
        incident.resolution = resolution
        del self._open_index[(incident.pipeline, incident.incident_class.value)]
        return incident

    def get(self, incident_id: str) -> Incident:
        incident = self._incidents.get(incident_id)
        if incident is None:
            raise UnknownIncident(incident_id)
        return incident

    def all_incidents(self) -> list[Incident]:
        return [self._incidents[k] for k in sorted(self._incidents)]

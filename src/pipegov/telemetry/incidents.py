"""Incident records: one outage, from detection to resumption.

The control chassis (``agents.controller.Controller``) opens and closes
them. While an incident for a given pipeline and class is open, a further
trigger for the same pair coalesces into it instead of opening a new one,
so a fault that keeps re-firing is tracked as one outage. Ids are
``INC-0001``, ``INC-0002``, ... in detection order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

CLUSTER_PIPELINE = "cluster"  # scope for incidents that are not pipeline-local


class IncidentClass(str, Enum):
    SCHEMA_INCOMPATIBLE = "SchemaIncompatible"
    UPSTREAM_DELAY = "UpstreamDelay"
    RESOURCE_CONTENTION = "ResourceContention"
    TRANSIENT_TASK_FAILURE = "TransientTaskFailure"
    FRESHNESS_BREACH = "FreshnessBreach"


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


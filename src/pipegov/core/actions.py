"""Shared action vocabulary.

Every mutation a controller can request is one of the nine kinds below.
The vocabulary is closed on purpose: reasoning backends may rank or skip
actions but cannot invent new ones, and the policy engine matches on these
kinds by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping

from pipegov.core.reader import Fields, integer, one_of, string


class ActionKind(str, Enum):
    SCALE_UP = "ScaleUp"
    SCALE_DOWN = "ScaleDown"
    REPLAY = "Replay"
    ROLLBACK = "Rollback"
    PARTIAL_RECOMPUTE = "PartialRecompute"
    QUARANTINE_PARTITION = "QuarantinePartition"
    DEFER = "Defer"
    RESUME = "Resume"
    HALT = "Halt"


SCALING_KINDS = frozenset({ActionKind.SCALE_UP, ActionKind.SCALE_DOWN})
RECOVERY_KINDS = frozenset(
    {
        ActionKind.REPLAY,
        ActionKind.ROLLBACK,
        ActionKind.PARTIAL_RECOMPUTE,
        ActionKind.DEFER,
        ActionKind.RESUME,
    }
)


class Actor(str, Enum):
    MONITORING_AGENT = "MonitoringAgent"
    OPTIMIZATION_AGENT = "OptimizationAgent"
    SCHEMA_AGENT = "SchemaAgent"
    RECOVERY_AGENT = "RecoveryAgent"
    POLICY_ENGINE = "PolicyEngine"
    OPERATOR = "Operator"
    BASELINE = "Baseline"


# Least-privilege table: the only kinds each proposing actor may emit.
# Checked before policy evaluation; the policy allow-list narrows further.
AGENT_ACTION_TABLE: Mapping[Actor, frozenset[ActionKind]] = {
    Actor.MONITORING_AGENT: frozenset(),
    Actor.OPTIMIZATION_AGENT: SCALING_KINDS,
    Actor.SCHEMA_AGENT: frozenset(
        {ActionKind.RESUME, ActionKind.QUARANTINE_PARTITION, ActionKind.HALT}
    ),
    Actor.RECOVERY_AGENT: RECOVERY_KINDS,
    Actor.OPERATOR: frozenset(ActionKind),
    Actor.BASELINE: frozenset({ActionKind.REPLAY, ActionKind.RESUME}),
}


@dataclass(frozen=True)
class ProposedAction:
    """A request to mutate the world, awaiting policy validation.

    ``justification`` must cite the observations that led to the proposal;
    it travels into the audit log verbatim.
    """

    id: str
    tick: int
    agent: Actor
    kind: ActionKind
    pipeline: str
    stage: str | None = None
    partition: str | None = None
    delta_units: int = 0  # per-stage allocation change for scaling kinds
    condition: str | None = None  # resume condition recorded by Defer
    justification: str = ""
    incident_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tick": self.tick,
            "agent": self.agent.value,
            "kind": self.kind.value,
            "pipeline": self.pipeline,
            "stage": self.stage,
            "partition": self.partition,
            "delta_units": self.delta_units,
            "condition": self.condition,
            "justification": self.justification,
            "incident_id": self.incident_id,
        }

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> ProposedAction:
        with Fields(raw, path) as f:
            return cls(
                id=f.take("id", string),
                tick=f.take("tick", integer),
                agent=f.take("agent", one_of(Actor)),
                kind=f.take("kind", one_of(ActionKind)),
                pipeline=f.take("pipeline", string),
                stage=f.take("stage", string, None),
                partition=f.take("partition", string, None),
                delta_units=f.take("delta_units", integer, 0),
                condition=f.take("condition", string, None),
                justification=f.take("justification", string, ""),
                incident_id=f.take("incident_id", string, None),
            )

"""Schema-drift response: resume, quarantine, or halt.

``schema_propose`` is the single-incident decision rule; the bundle-level
entry point walks open schema incidents and applies it to each pipeline
that still has an unhandled drift window and is not halted.

Trigger (``schema_wakes``): an open SchemaIncompatible incident the agent
``may_act`` on, on a pipeline that is not Halted and whose drift is
pending outside quarantine. The rule proposes for exactly these, through
the same predicates, so on any other tick it returns nothing.
"""

from __future__ import annotations

from ..core.actions import Actor
from .bundle import CandidateAction, ControlState, ObservationBundle, may_act

_AGENT = Actor.SCHEMA_AGENT.value
_SCHEMA_INCOMPATIBLE = "SchemaIncompatible"


class NotASchemaIncident(ValueError):
    """Raised when the decision rule is handed a non-schema incident."""


def schema_propose(incident: dict, drift: dict, policy: dict) -> CandidateAction:
    """Decide how to handle one schema incident given its drift window.

    ``drift`` is the pipeline's drift view from the bundle (``partition``,
    ``quarantine_mode``), always an incompatible one; ``policy`` is the
    bundle's policy summary (``quarantine_allowed``, ``schema_mode``).
    """

    if incident["incident_class"] != _SCHEMA_INCOMPATIBLE:
        raise NotASchemaIncident(
            f"expected a SchemaIncompatible incident, got {incident['incident_class']!r}"
        )
    pipeline = incident["pipeline"]
    incident_id = incident["id"]
    if policy["quarantine_allowed"]:
        return CandidateAction(
            kind="QuarantinePartition",
            pipeline=pipeline,
            partition=drift["partition"],
            rationale="incompatible drift; isolate affected partition and keep flowing",
            incident_id=incident_id,
        )
    if policy["schema_mode"] == "strict":
        return CandidateAction(
            kind="Halt",
            pipeline=pipeline,
            rationale="incompatible drift under strict schema policy; stopping pipeline",
            incident_id=incident_id,
        )
    return CandidateAction(
        kind="Resume",
        pipeline=pipeline,
        rationale="incompatible drift, quarantine disallowed; accepting schema change",
        incident_id=incident_id,
    )


def _drift_to_handle(health: str, quarantine_mode: bool | None) -> bool:
    # None: no drift pending. A halted pipeline would reject a second Halt.
    return health != "Halted" and quarantine_mode is not None and not quarantine_mode


def schema_wakes(state: ControlState) -> bool:
    for i in state.incidents:
        if i.incident_class != _SCHEMA_INCOMPATIBLE:
            continue
        p = state.pipelines[i.pipeline]
        drift = p.pending_drift
        if may_act(i.claim, _AGENT, i.approval_pending, p.recover_at is not None) and (
            _drift_to_handle(p.health, None if drift is None else drift.quarantine_mode)
        ):
            return True
    return False


def schema_candidates(bundle: ObservationBundle) -> list[CandidateAction]:
    candidates: list[CandidateAction] = []
    for incident in bundle.open_incidents:
        if incident["incident_class"] != _SCHEMA_INCOMPATIBLE:
            continue
        meta = bundle.pipelines[incident["pipeline"]]
        drift = meta["drift"]
        if may_act(
            incident["claimed_by"], bundle.agent, incident["approval_pending"], meta["recovering"]
        ) and _drift_to_handle(meta["health"], None if drift is None else drift["quarantine_mode"]):
            candidates.append(schema_propose(incident, drift, bundle.policy))
    return candidates

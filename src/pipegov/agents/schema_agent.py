"""Schema-drift response: resume, quarantine, or halt.

``schema_propose`` is the single-incident decision rule; the bundle-level
entry point walks open schema incidents and applies it to each pipeline
that still has an unhandled drift window and is not halted.
"""

from __future__ import annotations

from .bundle import CandidateAction, ObservationBundle


class NotASchemaIncident(ValueError):
    """Raised when the decision rule is handed a non-schema incident."""


def schema_propose(incident: dict, drift: dict, policy: dict) -> CandidateAction:
    """Decide how to handle one schema incident given its drift window.

    ``drift`` is the pipeline's drift view from the bundle (``partition``,
    ``quarantine_mode``), always an incompatible one; ``policy`` is the
    bundle's policy summary (``quarantine_allowed``, ``schema_mode``).
    """

    if incident["incident_class"] != "SchemaIncompatible":
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


def schema_candidates(bundle: ObservationBundle) -> list[CandidateAction]:
    candidates: list[CandidateAction] = []
    for incident in bundle.open_incidents:
        if incident["incident_class"] != "SchemaIncompatible":
            continue
        if incident["claimed_by"] not in (None, bundle.agent):
            continue
        if incident["approval_pending"]:
            continue
        meta = bundle.pipelines[incident["pipeline"]]
        if meta["health"] == "Halted":
            continue  # already halted: a second Halt is rejected
        drift = meta["drift"]
        if drift is None or drift["quarantine_mode"]:
            continue  # nothing pending, or already being quarantined
        if meta["recovering"]:
            continue  # a fix is already in flight
        candidates.append(schema_propose(incident, drift, bundle.policy))
    return candidates

"""Observability: metric series, incident records, and the append-only audit log.

``telemetry.incidents.IncidentLedger`` owns every incident transition and
its rules: a trigger coalesces into an open incident on the same pipeline
and class, and a claim (the proposer, ``"Baseline"`` or an escalation's
``"operator"``) is released only by its own deny or rejection. The control
chassis calls the transitions and audit replay folds them over a log.
"""

from pipegov.telemetry.audit import (
    AuditError,
    AuditLog,
    AuditRecord,
    GENESIS_PREV_HASH,
    canonical_json,
    load_audit_jsonl,
    verify_chain,
)
from pipegov.telemetry.incidents import Incident, IncidentClass
from pipegov.telemetry.metrics import (
    MetricStore,
    NonMonotonicTick,
    UnknownSeries,
)

__all__ = [
    "AuditError",
    "AuditLog",
    "AuditRecord",
    "GENESIS_PREV_HASH",
    "Incident",
    "IncidentClass",
    "MetricStore",
    "NonMonotonicTick",
    "UnknownSeries",
    "canonical_json",
    "load_audit_jsonl",
    "verify_chain",
]

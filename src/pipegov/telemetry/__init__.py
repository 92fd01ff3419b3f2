"""Observability: metric series, incident records, and the append-only audit log.

Incident records are opened and closed by the control chassis in
``pipegov.agents.controller``; this package only defines them.
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

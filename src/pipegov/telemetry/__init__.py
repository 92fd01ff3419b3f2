"""Observability: metric series, incidents, and the append-only audit log."""

from pipegov.telemetry.audit import (
    AuditError,
    AuditLog,
    AuditRecord,
    GENESIS_PREV_HASH,
    canonical_json,
    load_audit_jsonl,
    verify_chain,
)
from pipegov.telemetry.incidents import (
    AlreadyClosed,
    Incident,
    IncidentClass,
    IncidentRegistry,
    UnknownIncident,
)
from pipegov.telemetry.metrics import (
    MetricStore,
    NonMonotonicTick,
    UnknownSeries,
)

__all__ = [
    "AlreadyClosed",
    "AuditError",
    "AuditLog",
    "AuditRecord",
    "GENESIS_PREV_HASH",
    "Incident",
    "IncidentClass",
    "IncidentRegistry",
    "MetricStore",
    "NonMonotonicTick",
    "UnknownIncident",
    "UnknownSeries",
    "canonical_json",
    "load_audit_jsonl",
    "verify_chain",
]

"""Reasoning agents and the control loop that governs them."""

from .backends import (
    BackendError,
    BuiltinBackend,
    NullBackend,
    ReasoningBackend,
    StubBackend,
    make_backend,
)
from .bundle import CandidateAction, MemoryCell, ObservationBundle, OutcomeMemory
from .controller import (
    AGENT_PHASES,
    ControlReport,
    Controller,
    OperatorModel,
)
from .monitoring import (
    EWMA_ALPHA,
    EWMA_K,
    EWMA_MIN_SAMPLES,
    EWMA_SIGMA_FLOOR,
    WATCHED_METRICS,
    AnomalyDetector,
    AnomalyFlag,
    EwmaState,
)
from .optimization import LOW_UTIL_THRESHOLD, LOW_UTIL_TICKS, optimize_propose
from .recovery import (
    STABLE_TICKS,
    STRATEGY_ORDER,
    UnknownIncidentClass,
    recovery_candidates,
    recovery_propose,
)
from .schema_agent import NotASchemaIncident, schema_candidates, schema_propose

__all__ = [
    "AGENT_PHASES",
    "AnomalyDetector",
    "AnomalyFlag",
    "BackendError",
    "BuiltinBackend",
    "CandidateAction",
    "ControlReport",
    "Controller",
    "EWMA_ALPHA",
    "EWMA_K",
    "EWMA_MIN_SAMPLES",
    "EWMA_SIGMA_FLOOR",
    "EwmaState",
    "LOW_UTIL_THRESHOLD",
    "LOW_UTIL_TICKS",
    "MemoryCell",
    "NotASchemaIncident",
    "NullBackend",
    "ObservationBundle",
    "OperatorModel",
    "OutcomeMemory",
    "ReasoningBackend",
    "STABLE_TICKS",
    "STRATEGY_ORDER",
    "StubBackend",
    "UnknownIncidentClass",
    "WATCHED_METRICS",
    "make_backend",
    "optimize_propose",
    "recovery_candidates",
    "recovery_propose",
    "schema_candidates",
    "schema_propose",
]

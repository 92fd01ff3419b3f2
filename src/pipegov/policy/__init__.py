"""Policy documents and the pure action validator."""

from pipegov.policy.engine import (
    PolicyDecision,
    ValidationContext,
    Verdict,
    projected_spend,
    validate_action,
)
from pipegov.policy.model import (
    ActionRules,
    CostRules,
    FreshnessRules,
    MissingField,
    OutOfRange,
    PolicyDocument,
    PolicyError,
    RecoveryRules,
    SchemaRules,
    UnknownKey,
    parse_policy,
)

__all__ = [
    "ActionRules",
    "CostRules",
    "FreshnessRules",
    "MissingField",
    "OutOfRange",
    "PolicyDecision",
    "PolicyDocument",
    "PolicyError",
    "RecoveryRules",
    "SchemaRules",
    "UnknownKey",
    "ValidationContext",
    "Verdict",
    "parse_policy",
    "projected_spend",
    "validate_action",
]

"""Pure action validation against a policy document.

``validate_action`` evaluates a fixed rule order and stops at the first
failure:

1. actor allow-list
2. action-kind legality (recovery strategy list, quarantine permission)
3. scale-step bound
4. projected windowed compute spend against the budget
5. approval requirements (matching kind + pipeline tag)

A verdict always carries resolvable rule citations: a Deny or
RequireApproval cites the rule that triggered it, an Allow cites every rule
that constrained the action. The function reads only its arguments, so any
audited decision can be replayed bit-for-bit later.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from pipegov.core.actions import ActionKind, ProposedAction, RECOVERY_KINDS
from pipegov.core.reader import Fields, integer, list_of, number, string
from pipegov.policy.model import PolicyDocument

RULE_ALLOW_LIST = "actions.allow_list"
RULE_STRATEGIES = "recovery.allowed_strategies"
RULE_QUARANTINE = "schema.quarantine_allowed"
RULE_SCALE_STEP = "cost.max_scale_step"
RULE_BUDGET = "cost.budget_per_window"
RULE_APPROVAL = "actions.approval_required"


class Verdict(str, Enum):
    ALLOW = "Allow"
    DENY = "Deny"
    REQUIRE_APPROVAL = "RequireApproval"


@dataclass(frozen=True)
class ValidationContext:
    """World facts the validator needs; captured into the audit record.

    ``windowed_spend`` is the compute spend already accrued in the current
    tumbling policy window. ``committed_spend`` projects the current
    allocation forward — at least to the window end, and at least one full
    window at the total reserved allocation — so approving an increase can
    never push this window or the next past its budget. ``window_remaining``
    is the horizon (in ticks) over which ``delta_units_total`` new units
    are priced.
    """

    tick: int
    pipeline_tags: tuple[str, ...] = ()
    windowed_spend: float = 0.0
    committed_spend: float = 0.0
    window_remaining: int = 0
    unit_price: float = 0.0
    delta_units_total: int = 0  # delta_units summed over affected stages

    def to_dict(self) -> dict[str, Any]:
        return {
            "tick": self.tick,
            "pipeline_tags": list(self.pipeline_tags),
            "windowed_spend": self.windowed_spend,
            "committed_spend": self.committed_spend,
            "window_remaining": self.window_remaining,
            "unit_price": self.unit_price,
            "delta_units_total": self.delta_units_total,
        }

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> ValidationContext:
        with Fields(raw, path) as f:
            return cls(
                tick=f.take("tick", integer),
                pipeline_tags=f.take("pipeline_tags", list_of(string), ()),
                windowed_spend=f.take("windowed_spend", number, 0.0),
                committed_spend=f.take("committed_spend", number, 0.0),
                window_remaining=f.take("window_remaining", integer, 0),
                unit_price=f.take("unit_price", number, 0.0),
                delta_units_total=f.take("delta_units_total", integer, 0),
            )


@dataclass(frozen=True)
class PolicyDecision:
    verdict: Verdict
    rule_citations: tuple[str, ...]
    explanation: str


def projected_spend(context: ValidationContext) -> float:
    """Window spend if the proposed allocation change is applied now."""

    added = context.delta_units_total * context.unit_price * context.window_remaining
    return context.committed_spend + added


def validate_action(
    policy: PolicyDocument, action: ProposedAction, context: ValidationContext
) -> PolicyDecision:
    def deny(rule: str, explanation: str) -> PolicyDecision:
        return PolicyDecision(Verdict.DENY, (rule,), explanation)

    evaluated: list[str] = [RULE_ALLOW_LIST]
    allowed = policy.actions.allowed_for(action.agent)
    if action.kind not in allowed:
        return deny(
            RULE_ALLOW_LIST,
            f"{action.agent.value} is not allowed to propose {action.kind.value}",
        )

    if action.kind in RECOVERY_KINDS:
        evaluated.append(RULE_STRATEGIES)
        if action.kind not in policy.recovery.allowed_strategies:
            return deny(
                RULE_STRATEGIES,
                f"{action.kind.value} is not an allowed recovery strategy",
            )
    if action.kind is ActionKind.QUARANTINE_PARTITION:
        evaluated.append(RULE_QUARANTINE)
        if not policy.schema.quarantine_allowed:
            return deny(RULE_QUARANTINE, "partition quarantine is disabled by policy")

    if action.kind is ActionKind.SCALE_UP or action.kind is ActionKind.SCALE_DOWN:
        evaluated.append(RULE_SCALE_STEP)
        if abs(action.delta_units) > policy.cost.max_scale_step:
            return deny(
                RULE_SCALE_STEP,
                f"scale step {abs(action.delta_units)} exceeds limit {policy.cost.max_scale_step}",
            )

    if action.kind is ActionKind.SCALE_UP:
        evaluated.append(RULE_BUDGET)
        projected = projected_spend(context)
        if projected > policy.cost.budget_per_window:
            return deny(
                RULE_BUDGET,
                f"projected window spend {projected:.2f} exceeds budget {policy.cost.budget_per_window:.2f}",
            )

    for kind, tag in policy.actions.approval_required:
        if kind is action.kind and tag in context.pipeline_tags:
            return PolicyDecision(
                Verdict.REQUIRE_APPROVAL,
                (RULE_APPROVAL,),
                f"{action.kind.value} on a {tag!r}-tagged pipeline requires operator approval",
            )

    return PolicyDecision(
        Verdict.ALLOW,
        tuple(evaluated),
        f"{action.kind.value} permitted for {action.agent.value}",
    )

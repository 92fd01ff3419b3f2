"""Policy document model and strict JSON parsing.

Parsing is fail-closed. The document is read through ``core.reader``:
each field is typed and nothing is coerced (a bool is not an integer,
and ``"2"`` is not a number), unknown keys are rejected at every depth,
required fields must be present, and every error names the field's path,
such as ``cost.budget_per_window``. Each error is a ``PolicyError``:
``MissingField``, ``UnknownKey`` or ``OutOfRange``, with its ``.path``.
A document that parses is structurally safe to hand to the validator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from pipegov.core import reader
from pipegov.core.actions import ActionKind, Actor
from pipegov.core.reader import Fields, boolean, checked, integer, list_of, map_of, number, one_of, string


class PolicyError(ValueError):
    pass


class MissingField(PolicyError, reader.MissingField):
    pass


class OutOfRange(PolicyError, reader.OutOfRange):
    pass


class UnknownKey(PolicyError, reader.UnknownKey):
    pass


@dataclass(frozen=True)
class CostRules:
    budget_per_window: float  # compute budget per tumbling window
    window: int  # ticks
    max_scale_step: int  # per-stage allocation units per action


@dataclass(frozen=True)
class RecoveryRules:
    rto_by_criticality: tuple[tuple[int, int], ...]  # criticality -> target ticks
    allowed_strategies: tuple[ActionKind, ...]


@dataclass(frozen=True)
class SchemaRules:
    mode: str  # "strict" | "permissive"
    quarantine_allowed: bool


@dataclass(frozen=True)
class FreshnessRules:
    breach_tolerance: int  # extra ticks past a pipeline's freshness target


@dataclass(frozen=True)
class ActionRules:
    allow_list: tuple[tuple[Actor, tuple[ActionKind, ...]], ...]
    approval_required: tuple[tuple[ActionKind, str], ...]  # (kind, pipeline tag)

    def allowed_for(self, actor: Actor) -> tuple[ActionKind, ...]:
        for listed, kinds in self.allow_list:
            if listed is actor:
                return kinds
        return ()


@dataclass(frozen=True)
class PolicyDocument:
    id: str
    version: int
    cost: CostRules
    recovery: RecoveryRules
    schema: SchemaRules
    freshness: FreshnessRules
    actions: ActionRules

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "version": self.version,
            "cost": {
                "budget_per_window": self.cost.budget_per_window,
                "window": self.cost.window,
                "max_scale_step": self.cost.max_scale_step,
            },
            "recovery": {
                "rto_by_criticality": {str(k): v for k, v in self.recovery.rto_by_criticality},
                "allowed_strategies": [k.value for k in self.recovery.allowed_strategies],
            },
            "schema": {
                "mode": self.schema.mode,
                "quarantine_allowed": self.schema.quarantine_allowed,
            },
            "freshness": {"breach_tolerance": self.freshness.breach_tolerance},
            "actions": {
                "allow_list": {
                    actor.value: [k.value for k in kinds] for actor, kinds in self.actions.allow_list
                },
                "approval_required": [
                    {"kind": kind.value, "tag": tag} for kind, tag in self.actions.approval_required
                ],
            },
        }


_NAME = checked(string, bool, "must be a non-empty string")
_KINDS = checked(list_of(one_of(ActionKind)), bool, "must be a non-empty list")


def _at_least(low: int):
    return checked(integer, lambda value: value >= low, f"must be an integer >= {low}")


def _rto(value: object, path: str) -> tuple[tuple[int, int], ...]:
    """Criticality level -> target ticks. JSON object keys are strings, so
    this is the one place a document value is converted with ``int()``."""

    rto = []
    for key, ticks in sorted(map_of(_at_least(1))(value, path).items()):
        if key not in ("1", "2", "3", "4", "5"):
            raise reader.OutOfRange(f"{path}.{key}", "criticality must be one of 1..5")
        rto.append((int(key), ticks))
    return tuple(rto)


def _allow_list(value: object, path: str) -> tuple[tuple[Actor, tuple[ActionKind, ...]], ...]:
    return tuple(
        (one_of(Actor)(name, f"{path}.{name}"), kinds)
        for name, kinds in sorted(map_of(_KINDS)(value, path).items())
    )


def _approval(raw: object, path: str) -> tuple[ActionKind, str]:
    with Fields(raw, path) as f:
        return f.take("kind", one_of(ActionKind)), f.take("tag", _NAME)


def _read_policy(f: Fields) -> PolicyDocument:
    with f.take("cost", Fields) as cost:
        cost_rules = CostRules(
            cost.take("budget_per_window", checked(number, lambda budget: budget > 0, "must be > 0")),
            cost.take("window", _at_least(1)),
            cost.take("max_scale_step", _at_least(1)),
        )
    with f.take("recovery", Fields) as recovery:
        recovery_rules = RecoveryRules(
            recovery.take("rto_by_criticality", _rto), recovery.take("allowed_strategies", _KINDS)
        )
    with f.take("schema", Fields) as schema:
        schema_rules = SchemaRules(
            schema.take(
                "mode",
                checked(string, lambda mode: mode in ("strict", "permissive"), "must be 'strict' or 'permissive'"),
            ),
            schema.take("quarantine_allowed", boolean),
        )
    with f.take("freshness", Fields) as freshness:
        freshness_rules = FreshnessRules(freshness.take("breach_tolerance", _at_least(0)))
    with f.take("actions", Fields) as actions:
        action_rules = ActionRules(
            actions.take("allow_list", _allow_list),
            actions.take("approval_required", list_of(_approval)),
        )
    return PolicyDocument(
        id=f.take("id", _NAME),
        version=f.take("version", _at_least(1)),
        cost=cost_rules,
        recovery=recovery_rules,
        schema=schema_rules,
        freshness=freshness_rules,
        actions=action_rules,
    )


def parse_policy(raw: Mapping[str, Any] | str) -> PolicyDocument:
    """Parse and validate a policy document from a dict or JSON text."""

    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise PolicyError(f"policy is not valid JSON: {exc}") from exc
    try:
        with Fields(raw) as f:
            return _read_policy(f)
    except reader.ReadError as exc:
        kind = {reader.MissingField: MissingField, reader.UnknownKey: UnknownKey}.get(type(exc), OutOfRange)
        raise kind(exc.path, exc.reason) from None

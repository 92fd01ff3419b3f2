"""Policy document model and strict JSON parsing.

Parsing is fail-closed: unknown keys are rejected, required fields must be
present, and range violations name the offending field. A document that
parses is structurally safe to hand to the validator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from pipegov.core.actions import ActionKind, Actor


class PolicyError(ValueError):
    pass


class MissingField(PolicyError):
    def __init__(self, path: str) -> None:
        super().__init__(f"missing required field: {path}")
        self.path = path


class OutOfRange(PolicyError):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownKey(PolicyError):
    def __init__(self, path: str) -> None:
        super().__init__(f"unknown key: {path}")
        self.path = path


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


def _expect_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise OutOfRange(path, f"expected an object, got {type(value).__name__}")
    return value


def _take(raw: Mapping[str, Any], path: str, key: str) -> Any:
    if key not in raw:
        raise MissingField(f"{path}.{key}" if path else key)
    return raw[key]


def _reject_unknown(raw: Mapping[str, Any], path: str, known: set[str]) -> None:
    for key in raw:
        if key not in known:
            raise UnknownKey(f"{path}.{key}" if path else key)


def parse_policy(raw: Mapping[str, Any] | str) -> PolicyDocument:
    """Parse and validate a policy document from a dict or JSON text."""

    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise PolicyError(f"policy is not valid JSON: {exc}") from exc
    raw = _expect_mapping(raw, "policy")
    _reject_unknown(raw, "", {"id", "version", "cost", "recovery", "schema", "freshness", "actions"})

    policy_id = _take(raw, "", "id")
    if not isinstance(policy_id, str) or not policy_id:
        raise OutOfRange("id", "must be a non-empty string")
    version = _take(raw, "", "version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise OutOfRange("version", f"must be an integer >= 1, got {version!r}")

    cost_raw = _expect_mapping(_take(raw, "", "cost"), "cost")
    _reject_unknown(cost_raw, "cost", {"budget_per_window", "window", "max_scale_step"})
    budget = _take(cost_raw, "cost", "budget_per_window")
    if not isinstance(budget, (int, float)) or isinstance(budget, bool) or budget <= 0:
        raise OutOfRange("cost.budget_per_window", f"must be > 0, got {budget!r}")
    window = _take(cost_raw, "cost", "window")
    if not isinstance(window, int) or isinstance(window, bool) or window <= 0:
        raise OutOfRange("cost.window", f"must be an integer > 0, got {window!r}")
    step = _take(cost_raw, "cost", "max_scale_step")
    if not isinstance(step, int) or isinstance(step, bool) or step < 1:
        raise OutOfRange("cost.max_scale_step", f"must be an integer >= 1, got {step!r}")
    cost = CostRules(float(budget), window, step)

    rec_raw = _expect_mapping(_take(raw, "", "recovery"), "recovery")
    _reject_unknown(rec_raw, "recovery", {"rto_by_criticality", "allowed_strategies"})
    rto_raw = _expect_mapping(_take(rec_raw, "recovery", "rto_by_criticality"), "recovery.rto_by_criticality")
    rto: list[tuple[int, int]] = []
    for key in sorted(rto_raw):
        try:
            level = int(key)
        except ValueError:
            raise OutOfRange("recovery.rto_by_criticality", f"criticality key {key!r} is not an integer")
        if not 1 <= level <= 5:
            raise OutOfRange("recovery.rto_by_criticality", f"criticality {level} outside 1..5")
        ticks = rto_raw[key]
        if not isinstance(ticks, int) or isinstance(ticks, bool) or ticks < 1:
            raise OutOfRange("recovery.rto_by_criticality", f"rto for criticality {level} must be >= 1")
        rto.append((level, ticks))
    strategies_raw = _take(rec_raw, "recovery", "allowed_strategies")
    if not isinstance(strategies_raw, list) or not strategies_raw:
        raise OutOfRange("recovery.allowed_strategies", "must be a non-empty list")
    strategies = tuple(_parse_kind(k, "recovery.allowed_strategies") for k in strategies_raw)
    recovery = RecoveryRules(tuple(rto), strategies)

    schema_raw = _expect_mapping(_take(raw, "", "schema"), "schema")
    _reject_unknown(schema_raw, "schema", {"mode", "quarantine_allowed"})
    mode = _take(schema_raw, "schema", "mode")
    if mode not in ("strict", "permissive"):
        raise OutOfRange("schema.mode", f"must be 'strict' or 'permissive', got {mode!r}")
    quarantine = _take(schema_raw, "schema", "quarantine_allowed")
    if not isinstance(quarantine, bool):
        raise OutOfRange("schema.quarantine_allowed", "must be a boolean")
    schema = SchemaRules(mode, quarantine)

    fresh_raw = _expect_mapping(_take(raw, "", "freshness"), "freshness")
    _reject_unknown(fresh_raw, "freshness", {"breach_tolerance"})
    tolerance = _take(fresh_raw, "freshness", "breach_tolerance")
    if not isinstance(tolerance, int) or isinstance(tolerance, bool) or tolerance < 0:
        raise OutOfRange("freshness.breach_tolerance", f"must be an integer >= 0, got {tolerance!r}")
    freshness = FreshnessRules(tolerance)

    actions_raw = _expect_mapping(_take(raw, "", "actions"), "actions")
    _reject_unknown(actions_raw, "actions", {"allow_list", "approval_required"})
    allow_raw = _expect_mapping(_take(actions_raw, "actions", "allow_list"), "actions.allow_list")
    allow_list: list[tuple[Actor, tuple[ActionKind, ...]]] = []
    for actor_name in sorted(allow_raw):
        try:
            actor = Actor(actor_name)
        except ValueError:
            raise OutOfRange("actions.allow_list", f"unknown actor {actor_name!r}")
        kinds_raw = allow_raw[actor_name]
        if not isinstance(kinds_raw, list) or not kinds_raw:
            raise OutOfRange("actions.allow_list", f"allow list for {actor_name} must be non-empty")
        kinds = tuple(_parse_kind(k, f"actions.allow_list.{actor_name}") for k in kinds_raw)
        allow_list.append((actor, kinds))
    approval_raw = _take(actions_raw, "actions", "approval_required")
    if not isinstance(approval_raw, list):
        raise OutOfRange("actions.approval_required", "must be a list")
    approvals: list[tuple[ActionKind, str]] = []
    for i, entry in enumerate(approval_raw):
        entry = _expect_mapping(entry, f"actions.approval_required[{i}]")
        _reject_unknown(entry, f"actions.approval_required[{i}]", {"kind", "tag"})
        kind = _parse_kind(_take(entry, f"actions.approval_required[{i}]", "kind"), "actions.approval_required")
        tag = _take(entry, f"actions.approval_required[{i}]", "tag")
        if not isinstance(tag, str) or not tag:
            raise OutOfRange("actions.approval_required", "tag must be a non-empty string")
        approvals.append((kind, tag))
    actions = ActionRules(tuple(allow_list), tuple(approvals))

    return PolicyDocument(
        id=policy_id,
        version=version,
        cost=cost,
        recovery=recovery,
        schema=schema,
        freshness=freshness,
        actions=actions,
    )


def _parse_kind(value: Any, path: str) -> ActionKind:
    try:
        return ActionKind(value)
    except ValueError:
        raise OutOfRange(path, f"unknown action kind {value!r}")


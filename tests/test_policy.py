"""Policy parsing and the pure validator."""

from __future__ import annotations

import copy
import random

import pytest

from pipegov.core import ActionKind, Actor, ProposedAction
from pipegov.policy import (
    MissingField,
    OutOfRange,
    PolicyError,
    UnknownKey,
    ValidationContext,
    Verdict,
    parse_policy,
    projected_spend,
    validate_action,
)
from pipegov.scenario import default_policy_dict


def _doc(**overrides) -> dict:
    doc = default_policy_dict()
    for path, value in overrides.items():
        node = doc
        parts = path.split(".")
        for key in parts[:-1]:
            node = node[key]
        node[parts[-1]] = value
    return doc


def _action(kind: ActionKind, agent: Actor = Actor.OPTIMIZATION_AGENT, **kw) -> ProposedAction:
    defaults = dict(id="ACT-1", tick=10, pipeline="p")
    defaults.update(kw)
    return ProposedAction(agent=agent, kind=kind, **defaults)


def _ctx(**kw) -> ValidationContext:
    defaults = dict(tick=10)
    defaults.update(kw)
    return ValidationContext(**defaults)


class TestParsePolicy:
    def test_default_document_parses(self):
        policy = parse_policy(default_policy_dict())
        assert policy.version == 1
        assert policy.cost.max_scale_step == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(OutOfRange, match="cost.budget_per_window"):
            parse_policy(_doc(**{"cost.budget_per_window": -5}))

    def test_unknown_key_rejected(self):
        doc = default_policy_dict()
        doc["autoscale"] = True
        with pytest.raises(UnknownKey, match="autoscale"):
            parse_policy(doc)

    def test_nested_unknown_key_rejected(self):
        doc = default_policy_dict()
        doc["cost"]["turbo"] = 1
        with pytest.raises(UnknownKey, match="cost.turbo"):
            parse_policy(doc)

    def test_missing_field_rejected(self):
        doc = default_policy_dict()
        del doc["cost"]["window"]
        with pytest.raises(MissingField, match="cost.window"):
            parse_policy(doc)

    def test_bad_strategy_name_rejected(self):
        with pytest.raises(PolicyError):
            parse_policy(_doc(**{"recovery.allowed_strategies": ["Teleport"]}))

    def test_bad_schema_mode_rejected(self):
        with pytest.raises(OutOfRange, match="schema.mode"):
            parse_policy(_doc(**{"schema.mode": "lenient"}))

    def test_criticality_out_of_range_rejected(self):
        doc = default_policy_dict()
        doc["recovery"]["rto_by_criticality"]["9"] = 100
        with pytest.raises(OutOfRange, match="rto_by_criticality"):
            parse_policy(doc)

    def test_json_text_accepted(self):
        import json

        policy = parse_policy(json.dumps(default_policy_dict()))
        assert policy.id == "gov-default"

    def test_round_trip(self, policy):
        assert parse_policy(policy.to_dict()).to_dict() == policy.to_dict()


class TestValidateAction:
    def test_scale_up_within_all_bounds_allowed(self, policy):
        # projected = 40 committed + 2 units x 0.5 price x 4 remaining = 44 <= budget
        action = _action(ActionKind.SCALE_UP, delta_units=2)
        context = _ctx(windowed_spend=40.0, committed_spend=40.0, window_remaining=4, unit_price=0.5)
        decision = validate_action(policy, action, context)
        assert decision.verdict is Verdict.ALLOW
        assert decision.rule_citations == (
            "actions.allow_list",
            "cost.max_scale_step",
            "cost.budget_per_window",
        )

    def test_oversized_scale_step_denied(self, policy):
        action = _action(ActionKind.SCALE_UP, delta_units=6)
        decision = validate_action(policy, action, _ctx())
        assert decision.verdict is Verdict.DENY
        assert decision.rule_citations == ("cost.max_scale_step",)

    def test_budget_overrun_denied(self, policy):
        action = _action(ActionKind.SCALE_UP, delta_units=2)
        context = _ctx(
            committed_spend=policy.cost.budget_per_window - 100.0,
            window_remaining=1440,
            unit_price=0.5,
            delta_units_total=2,
        )
        decision = validate_action(policy, action, context)
        assert decision.verdict is Verdict.DENY
        assert decision.rule_citations == ("cost.budget_per_window",)

    def test_scale_down_skips_budget_rule(self, policy):
        action = _action(ActionKind.SCALE_DOWN, delta_units=2)
        context = _ctx(committed_spend=policy.cost.budget_per_window * 2)
        decision = validate_action(policy, action, context)
        assert decision.verdict is Verdict.ALLOW
        assert "cost.budget_per_window" not in decision.rule_citations

    def test_actor_outside_allow_list_denied(self, policy):
        action = _action(ActionKind.QUARANTINE_PARTITION, agent=Actor.OPTIMIZATION_AGENT)
        decision = validate_action(policy, action, _ctx())
        assert decision.verdict is Verdict.DENY
        assert decision.rule_citations == ("actions.allow_list",)

    def test_allow_list_checked_before_scale_step(self, policy):
        # violates both the allow-list and the step bound; first rule wins
        action = _action(ActionKind.SCALE_UP, agent=Actor.SCHEMA_AGENT, delta_units=99)
        decision = validate_action(policy, action, _ctx())
        assert decision.rule_citations == ("actions.allow_list",)

    def test_disallowed_strategy_denied(self, policy):
        restricted = parse_policy(_doc(**{"recovery.allowed_strategies": ["Replay"]}))
        action = _action(ActionKind.ROLLBACK, agent=Actor.RECOVERY_AGENT)
        decision = validate_action(restricted, action, _ctx())
        assert decision.verdict is Verdict.DENY
        assert decision.rule_citations == ("recovery.allowed_strategies",)

    def test_quarantine_disabled_denied(self, policy):
        no_quarantine = parse_policy(_doc(**{"schema.quarantine_allowed": False}))
        action = _action(ActionKind.QUARANTINE_PARTITION, agent=Actor.SCHEMA_AGENT, partition="pt-1")
        decision = validate_action(no_quarantine, action, _ctx())
        assert decision.verdict is Verdict.DENY
        assert decision.rule_citations == ("schema.quarantine_allowed",)

    def test_approval_required_on_tagged_pipeline(self, policy):
        doc = default_policy_dict()
        doc["actions"]["approval_required"] = [{"kind": "Rollback", "tag": "regulated"}]
        approving = parse_policy(doc)
        action = _action(ActionKind.ROLLBACK, agent=Actor.RECOVERY_AGENT)
        decision = validate_action(approving, action, _ctx(pipeline_tags=("regulated",)))
        assert decision.verdict is Verdict.REQUIRE_APPROVAL
        assert decision.rule_citations == ("actions.approval_required",)

    def test_untagged_pipeline_needs_no_approval(self, policy):
        action = _action(ActionKind.QUARANTINE_PARTITION, agent=Actor.SCHEMA_AGENT, partition="pt-1")
        decision = validate_action(policy, action, _ctx(pipeline_tags=("internal",)))
        assert decision.verdict is Verdict.ALLOW

    def test_decision_is_pure(self, policy):
        action = _action(ActionKind.SCALE_UP, delta_units=2)
        context = _ctx(committed_spend=10.0, window_remaining=5, unit_price=0.5, delta_units_total=2)
        first = validate_action(policy, action, context)
        second = validate_action(policy, action, context)
        assert first == second

    def test_citations_resolve_in_document(self, policy):
        # every cited rule corresponds to a real field of the document
        doc = policy.to_dict()

        def resolve(path: str) -> object:
            node = doc
            for key in path.split("."):
                node = node[key]
            return node

        probes = [
            _action(ActionKind.SCALE_UP, delta_units=6),
            _action(ActionKind.QUARANTINE_PARTITION, agent=Actor.SCHEMA_AGENT, partition="x"),
            _action(ActionKind.ROLLBACK, agent=Actor.RECOVERY_AGENT),
            _action(ActionKind.HALT, agent=Actor.OPTIMIZATION_AGENT),
        ]
        for action in probes:
            decision = validate_action(policy, action, _ctx())
            assert decision.rule_citations
            for citation in decision.rule_citations:
                resolve(citation)  # raises KeyError if the citation dangles


class TestMonotonicSafety:
    def test_shrinking_policy_never_flips_deny_to_allow(self, policy):
        rng = random.Random(0)
        kinds = list(ActionKind)
        actors = [Actor.OPTIMIZATION_AGENT, Actor.SCHEMA_AGENT, Actor.RECOVERY_AGENT, Actor.OPERATOR]
        base_doc = default_policy_dict()

        tight_doc = copy.deepcopy(base_doc)
        tight_doc["cost"]["budget_per_window"] = base_doc["cost"]["budget_per_window"] / 4
        tight_doc["cost"]["max_scale_step"] = 1
        tight_doc["recovery"]["allowed_strategies"] = ["Replay"]
        tight_doc["actions"]["allow_list"] = {
            "OptimizationAgent": ["ScaleDown"],
            "RecoveryAgent": ["Replay"],
            "Operator": ["Replay", "Resume"],
        }
        tight_doc["schema"]["quarantine_allowed"] = False
        base = parse_policy(base_doc)
        tight = parse_policy(tight_doc)

        for _ in range(500):
            action = _action(
                rng.choice(kinds),
                agent=rng.choice(actors),
                delta_units=rng.randint(0, 5),
                partition=rng.choice([None, "pt-1"]),
            )
            context = _ctx(
                committed_spend=rng.uniform(0, 60_000),
                window_remaining=rng.randint(1, 1440),
                unit_price=0.5,
                delta_units_total=abs(action.delta_units) * 2,
                pipeline_tags=rng.choice([(), ("regulated",)]),
            )
            before = validate_action(base, action, context).verdict
            after = validate_action(tight, action, context).verdict
            if before is Verdict.DENY:
                assert after is Verdict.DENY


class TestProjectedSpend:
    def test_arithmetic(self):
        context = _ctx(committed_spend=40.0, window_remaining=4, unit_price=0.5, delta_units_total=2)
        assert projected_spend(context) == pytest.approx(44.0)

    def test_zero_delta_is_committed_spend(self):
        context = _ctx(committed_spend=40.0, window_remaining=100, unit_price=0.5)
        assert projected_spend(context) == pytest.approx(40.0)

    def test_context_round_trip(self):
        context = _ctx(
            pipeline_tags=("regulated",),
            windowed_spend=1.5,
            committed_spend=2.5,
            window_remaining=7,
            unit_price=0.25,
            delta_units_total=3,
        )
        assert ValidationContext.from_dict(context.to_dict()) == context


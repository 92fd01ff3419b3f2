"""Audit replay: the chain, the embedded policies, every decision re-validated
against them, each approval grant and its due tick (a log with a grant must
carry the operator settings), and each outcome's link to the decision it
cites. Then it folds the controller's incident ledger transitions over the
log and rejects the first illegal one. It lives in the harness, the one
layer that sees the policy engine, ``OperatorModel`` and ``telemetry`` together.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..agents.controller import OperatorModel
from ..core.actions import ProposedAction
from ..policy.engine import ValidationContext, Verdict, validate_action
from ..policy.model import PolicyDocument, PolicyError, parse_policy
from ..telemetry.audit import AuditRecord, load_audit_jsonl
from ..telemetry.incidents import IllegalIncidentTransition, IncidentClass, IncidentLedger


@dataclass(frozen=True)
class ReplayResult:
    records: tuple[AuditRecord, ...]
    decisions: int  # decisions re-validated; 0 when there is a problem
    problem: str | None  # the first problem found, None for a valid log


class _Invalid(Exception):
    pass


def replay_audit(path: str) -> ReplayResult:
    """Check the audit log at ``path``. Prints nothing."""

    loaded, first_bad, malformed = load_audit_jsonl(path)
    records = tuple(loaded)
    try:
        if malformed is not None:
            raise _Invalid(f"malformed audit record at seq {first_bad}: {malformed}")
        if first_bad is not None:
            raise _Invalid(f"audit chain broken at seq {first_bad}")
        if not records:
            raise _Invalid("empty audit log")
        return ReplayResult(records, _check_records(records), None)
    except _Invalid as problem:
        return ReplayResult(records, 0, str(problem))


def _check_records(records: tuple[AuditRecord, ...]) -> int:
    # The chain holds, so seqs run 1..n and payloads[seq - 1] is record seq's.
    payloads = [record.payload for record in records]
    policies: dict[int, PolicyDocument] = {}
    operator: OperatorModel | None = None
    for record, payload in zip(records, payloads):
        if payload.get("kind") != "policy_change" or payload.get("policy") is None:
            continue
        try:
            policy = parse_policy(payload["policy"])
        except PolicyError as exc:
            raise _Invalid(f"seq {record.seq}: embedded policy invalid: {exc}") from None
        policies[policy.version] = policy
        settings = payload.get("operator")
        if isinstance(settings, dict) and "operator_delay" in settings:
            delay = settings["operator_delay"]
            malformed = f"seq {record.seq}: malformed run_start record: "
            if type(delay) is not int:
                raise _Invalid(f"{malformed}operator_delay {delay!r} is not an integer")
            try:
                operator = OperatorModel(operator_delay=delay)
            except ValueError as exc:
                raise _Invalid(f"{malformed}{exc}") from None

    def cited_decision(ref: object) -> dict | None:
        cited = payloads[ref - 1] if isinstance(ref, int) and 1 <= ref <= len(payloads) else {}
        return cited if cited.get("kind") == "decision" else None

    spent: set[int] = set()  # decisions a grant or an outcome has cited

    def spend(seq: int, ref: int, what: str, reused: str) -> None:
        if ref >= seq:
            raise _Invalid(f"seq {seq}: {what} cites seq {ref}, which is not earlier")
        if ref in spent:
            raise _Invalid(f"seq {seq}: {what} cites seq {ref}, which {reused}")
        spent.add(ref)

    checked = 0
    for record, payload in zip(records, payloads):
        seq, kind = record.seq, payload.get("kind")
        if kind == "decision":
            checked += 1
            phase = payload.get("phase")
            if phase == "initial":
                _revalidate(record, payload, policies.get(record.policy_version))
                continue
            if phase != "approval_grant":
                raise _Invalid(f"seq {seq}: decision record has unknown phase {phase!r}")
            ref = payload.get("approved_ref")
            request = cited_decision(ref)
            if request is None:
                raise _Invalid(f"seq {seq}: approval grant cites no decision")
            if request.get("verdict") != Verdict.REQUIRE_APPROVAL.value:
                raise _Invalid(
                    f"seq {seq}: approval grant cites a decision that did not require approval"
                )
            if request.get("action") != payload.get("action"):
                raise _Invalid(f"seq {seq}: approval grant action mismatch")
            if operator is None:
                raise _Invalid(
                    f"seq {seq}: approval grant, but no run_start record gives operator_delay"
                )
            due = operator.due(records[ref - 1].tick)
            if record.tick != due:
                raise _Invalid(f"seq {seq}: approval granted at tick {record.tick}, expected {due}")
            spend(seq, ref, "approval grant", "was already granted")
        elif kind == "outcome" and payload.get("event") == "action_outcome":
            ref = payload.get("decision_ref")
            decision = cited_decision(ref)
            if decision is None:
                raise _Invalid(f"seq {seq}: action outcome cites no decision")
            if decision.get("verdict") != Verdict.ALLOW.value:
                raise _Invalid(f"seq {seq}: action executed without an Allow verdict")
            spend(seq, ref, "action outcome", "already authorised an outcome")
            # Every earlier decision passed the checks above, so its action parsed.
            result = payload.get("result")
            if not isinstance(result, dict) or result.get("action_id") != decision["action"]["id"]:
                raise _Invalid(f"seq {seq}: action outcome is not for its decision's action")
    _fold_incidents(records, payloads)
    return checked


def _fold_incidents(records: tuple[AuditRecord, ...], payloads: list) -> None:
    """Fold the controller's ledger transitions over the log. The checks above
    passed, so every decision's action parsed and every outcome cites one."""

    ledger = IncidentLedger()
    for record, payload in zip(records, payloads):
        seq, event = record.seq, payload.get("event")
        try:
            if payload.get("kind") == "decision":
                action = payload["action"]
                incident_id, agent = action["incident_id"], action["agent"]
                if payload["phase"] == "approval_grant":
                    ledger.granted(incident_id)
                    continue
                if seq < 2 or payloads[seq - 2] != {"kind": "proposal", "action": action}:
                    raise _Invalid(f"seq {seq}: decision does not follow its proposal")
                ledger.proposed(incident_id, agent, record.tick)
                if payload["verdict"] == Verdict.REQUIRE_APPROVAL.value:
                    ledger.approval_requested(incident_id, agent)
                elif payload["verdict"] == Verdict.DENY.value:
                    ledger.denied(incident_id, agent, action["kind"])
            elif event == "action_outcome":
                action = payloads[payload["decision_ref"] - 1]["action"]
                applied = payload["result"].get("status") == "applied"
                ledger.acted(action["incident_id"], action["agent"], action["kind"], record.tick, applied)
            elif event == "operator_task_enqueued":
                ledger.escalated(str(payload.get("incident_id")))
            elif event in ("incident_opened", "incident_closed"):
                raw = payload.get("incident")
                if not isinstance(raw, dict):
                    raise _Invalid(f"seq {seq}: malformed {event} record")
                if event == "incident_closed":
                    incident = ledger.closed(str(raw.get("id")), record.tick)
                elif raw.get("incident_class") not in list(IncidentClass):
                    raise _Invalid(f"seq {seq}: malformed {event} record")
                else:
                    cls = IncidentClass(raw["incident_class"])
                    incident, new = ledger.opened(str(raw.get("pipeline")), cls, record.tick)
                    if not new:
                        raise IllegalIncidentTransition(f"{incident.id} is still open")
                if raw != incident.to_dict():
                    raise _Invalid(f"seq {seq}: {event} record {raw} differs from the ledger's")
        except IllegalIncidentTransition as exc:
            raise _Invalid(f"seq {seq}: illegal incident transition: {exc}") from None


def _revalidate(record: AuditRecord, payload: dict, policy: PolicyDocument | None) -> None:
    if policy is None:
        raise _Invalid(f"seq {record.seq}: no policy document for version {record.policy_version}")
    try:
        action = ProposedAction.from_dict(payload.get("action"), "action")
        context = ValidationContext.from_dict(payload.get("context"), "context")
    except ValueError as exc:
        raise _Invalid(f"seq {record.seq}: malformed decision record: {exc}") from None
    decision = validate_action(policy, action, context)
    if decision.verdict.value != payload.get("verdict"):
        raise _Invalid(
            f"seq {record.seq}: recorded verdict {payload.get('verdict')!r} "
            f"but policy says {decision.verdict.value!r}"
        )
    if list(decision.rule_citations) != payload.get("citations", []):
        raise _Invalid(f"seq {record.seq}: rule citations do not match policy")

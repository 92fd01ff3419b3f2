"""The control loop that governs a running cluster.

One chassis serves both controller modes. Every tick it:

1. executes operator work that has come due (approval grants, scheduled
   operator fixes),
2. opens incidents from hard triggers (injected faults, failure events,
   freshness breaches) and closes incidents whose exit conditions hold,
3. if it has a reasoning backend, audits the monitoring agent's anomaly
   flags, then builds one ObservationBundle per agent it asks and collects
   that agent's candidate actions (schema, then recovery, then
   optimization). Any backend but the builtin one is asked for every
   agent on every tick. The builtin agents are asked only on a woken
   tick, and then only those whose trigger holds, which is when their
   rule can act; on other ticks no bundle is built. Each agent module
   states its trigger beside its rule, over state the controller already
   keeps (``ControlState``),
4. sweeps unclaimed incidents into the retry/escalation fallback — without
   a backend this *is* the controller: bounded replays, then a
   simulated human operator after ``operator_delay`` ticks,
5. validates every proposal against the governance policy and applies
   the allowed ones to the world, recording proposal, decision, and
   outcome in the hash-chained audit log.

The static baseline is therefore literally this class built without a
backend: identical detection, identical fallback, identical policy gate,
identical audit trail.

Each tick starts by folding the previous tick's report once: its compute
spend goes into the current budget window and, when a backend is
present, its kernel snapshot into the anomaly detector, in one pass over
the pipelines that folds each pipeline's ``PipelineObservation`` record
(ingress window and low-utilization run) and its watched series; the
detector's ingress mean is an UpstreamDelay's pre-delay baseline. A
static run keeps no observation state. The triggers read the previous
tick's kernel snapshot and the records, and a bundle's ``observed`` view
shows both, cut down to what the agents read, every pipeline and key
present from tick 0, when every value reads 0.
Every view a bundle shows is built fresh on each tick that builds
bundles, and the agents of that tick share it.

The audit log is the only record of what happened; the per-tick
ControlReport carries just the proposals and anomaly flags. Incidents
live in an ``IncidentLedger`` (``telemetry.incidents``, which states the
coalescing and claim rules): the controller calls its transitions where
it writes the matching audit records, except that a proposal claims its
incident when it is screened, so that the same tick's sweep sees the
claim. Audit replay folds the same transitions over the log.
``incidents`` is the ledger's table of every incident in detection
order, what a run reports; the controller walks only the open view.

Approvals and operator tasks wait in FIFO queues. The queues are drained
at the start of a tick, before that tick's proposals, so every entry is
due ``operator_delay`` ticks, and at least one tick, after the tick it was
queued in (``OperatorModel.due``); that is the tick an operator task's audit
record names. Within a tick entries are queued in audit order
(approvals) or incident order (operator tasks), so each queue is already
in due order and is drained from the left.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import count
from types import MappingProxyType
from typing import NamedTuple

from ..core.actions import (
    AGENT_ACTION_TABLE,
    SCALING_KINDS,
    ActionKind,
    Actor,
    ProposedAction,
)
from ..policy.engine import ValidationContext, Verdict, validate_action
from ..policy.model import PolicyDocument
from ..scenario.model import FaultEvent, FaultKind
from ..simkernel.kernel import (
    ActionOutcome,
    ApprovedAction,
    IllegalTransition,
    InvalidTarget,
    apply_action,
)
from ..simkernel.world import (
    UNPAID,
    Health,
    PipelineSample,
    PipelineState,
    SimWorld,
    TelemetrySnapshot,
    TickReport,
)
from ..telemetry.audit import AuditLog
from ..telemetry.incidents import CLUSTER_PIPELINE, Incident, IncidentClass, IncidentLedger
from .backends import BackendError, BuiltinBackend, ReasoningBackend
from .bundle import CandidateAction, ControlState, ObservationBundle, OutcomeMemory
from .monitoring import AnomalyDetector, AnomalyFlag, PipelineObservation

# Reasoning phases, in the order they run each tick.
AGENT_PHASES = (
    Actor.MONITORING_AGENT,
    Actor.SCHEMA_AGENT,
    Actor.RECOVERY_AGENT,
    Actor.OPTIMIZATION_AGENT,
)

_AGENT_NAMES = tuple((actor, actor.value) for actor in AGENT_PHASES[1:])
_UNSAMPLED = PipelineSample(0, 0, 0, 0.0, 0)  # every value before the first step

# Kernel failure events that open (or re-mark as failed) an incident.
_FAILURE_CLASSES = {
    "task_failure": IncidentClass.TRANSIENT_TASK_FAILURE,
    "missing_input": IncidentClass.UPSTREAM_DELAY,
    "schema_drift": IncidentClass.SCHEMA_INCOMPATIBLE,
}


@dataclass(frozen=True)
class OperatorModel:
    """Retry budget and human-response latency for the fallback path."""

    max_retries: int = 3
    retry_backoff: int = 5
    operator_delay: int = 120

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 1:
            raise ValueError("retry_backoff must be >= 1")
        if self.operator_delay < 0:
            raise ValueError("operator_delay must be >= 0")

    def due(self, t: int) -> int:
        """The tick operator work queued at tick ``t`` runs: the queues are
        drained at the start of a tick, so never before ``t + 1``."""

        return t + max(self.operator_delay, 1)


@dataclass(frozen=True)
class _PendingApproval:
    due: int
    action: ProposedAction
    request_ref: int


@dataclass(frozen=True)
class _OperatorTask:
    due: int
    kind: ActionKind
    pipeline: str
    incident_id: str


class ControlReport(NamedTuple):
    """What the controller did in one tick."""

    proposals: tuple[ProposedAction, ...]
    flags: tuple[AnomalyFlag, ...]


class Controller:
    """Shared control chassis for both the static and agentic modes."""

    def __init__(
        self,
        policy: PolicyDocument,
        audit: AuditLog,
        backend: ReasoningBackend | None = None,
        operator: OperatorModel | None = None,
    ) -> None:
        self.policy = policy
        self.audit = audit
        self.backend = backend  # None: the static controller
        self.operator = operator or OperatorModel()
        self.memory = OutcomeMemory()
        self.interventions = 0
        self.ledger = IncidentLedger()
        self.incidents = self.ledger.incidents  # every incident, in detection order

        self._builtin = BuiltinBackend()
        # The (actor, agent, trigger) of each agent run by a backend that
        # dispatches to the builtin rules unchanged; None asks every agent.
        self._triggers = None
        if getattr(type(backend), "decide", None) is BuiltinBackend.decide:
            rules = backend.rules
            self._triggers = tuple((a, n, rules[n][1]) for a, n in _AGENT_NAMES if n in rules)
        self._detector = AnomalyDetector()
        self._action_ids = (f"ACT-{n:05d}" for n in count(1))
        self._approvals: deque[_PendingApproval] = deque()  # FIFO: due order
        self._operator_tasks: deque[_OperatorTask] = deque()  # FIFO: due order
        self._alloc_changed_at: dict[str, int] = {}
        self._window_index: int | None = None
        self._window_spend = 0.0
        self._breach_limits: list[tuple[str, int]] | None = None  # set on the first report
        self._allowed_strategies = tuple(k.value for k in policy.recovery.allowed_strategies)

    # ------------------------------------------------------------------
    # main entry points

    def tick(
        self,
        world: SimWorld,
        t: int,
        applied_faults: list[FaultEvent],
        prev_report: TickReport | None,
    ) -> ControlReport:
        """Run one control cycle. Called after fault injection, before step."""

        flags: list[AnomalyFlag] = []
        proposals: list[ProposedAction] = []

        if prev_report is not None:
            flags = self._fold_statistics(world, t, prev_report)

        self._run_due_approvals(world, t)
        self._run_due_operator_tasks(world, t)
        self._detect(world, t, applied_faults, prev_report)
        self._close_matured(world, t, prev_report)

        if self.backend is not None:
            for flag in flags:
                payload = {"kind": "outcome", "event": "anomaly_flag", "flag": flag.to_dict()}
                self.audit.append(t, Actor.MONITORING_AGENT, payload, self.policy.version)
            if prev_report is not None:
                observed = prev_report.snapshot
            else:  # before the first step every value reads 0
                observed = TelemetrySnapshot(dict.fromkeys(world.pipeline_ids(), _UNSAMPLED), 0)
            agents = self._woken(world, t, observed)
            if agents:
                for actor, bundle in self._bundles(world, t, observed, agents):
                    for candidate in self._decide(bundle):
                        action = self._screen_candidate(world, t, actor, candidate)
                        if action is not None:
                            proposals.append(action)

        self._fallback_sweep(world, t, proposals)

        for action in proposals:
            self._validate_and_execute(world, t, action)

        return ControlReport(tuple(proposals), tuple(flags))

    # ------------------------------------------------------------------
    # chassis statistics

    def _fold_statistics(
        self, world: SimWorld, t: int, prev_report: TickReport
    ) -> list[AnomalyFlag]:
        """Account the previous tick's compute spend and, with a backend, fold
        its snapshot into the detector; returns the detector's flags."""

        idx = prev_report.tick // self.policy.cost.window
        if idx != self._window_index:
            self._window_index = idx
            self._window_spend = 0.0
        storage = prev_report.materialized * world.resource_model.storage_price
        self._window_spend += prev_report.cost - storage
        if self.backend is None:
            return []
        return self._detector.observe_snapshot(t, prev_report.snapshot)

    # ------------------------------------------------------------------
    # incident detection and closure

    def _note_incident(
        self, pipeline: str, incident_class: IncidentClass, t: int, failed: bool = False
    ) -> None:
        """Open (or coalesce into) an incident, auditing a new one."""

        baseline = None
        if incident_class is IncidentClass.UPSTREAM_DELAY:
            baseline = self._detector.mean(pipeline, "ingress")
        incident, new = self.ledger.opened(
            pipeline, incident_class, t, failed=failed, delay_baseline=baseline
        )
        if new:
            payload = {"kind": "outcome", "event": "incident_opened", "incident": incident.to_dict()}
            self.audit.append(t, Actor.POLICY_ENGINE, payload, self.policy.version)

    def _detect(
        self,
        world: SimWorld,
        t: int,
        applied_faults: list[FaultEvent],
        prev_report: TickReport | None,
    ) -> None:
        for event in applied_faults:
            if event.kind is FaultKind.SCHEMA_DRIFT:
                # Only a drift the live schema cannot take fails the pipeline.
                if (event.pipeline, "schema_drift") in world.pending_failures:
                    self._note_incident(event.pipeline, IncidentClass.SCHEMA_INCOMPATIBLE, t)
            elif event.kind is FaultKind.UPSTREAM_DELAY:
                self._note_incident(event.pipeline, IncidentClass.UPSTREAM_DELAY, t)
            elif event.kind is FaultKind.RESOURCE_CONTENTION:
                self._note_incident(
                    CLUSTER_PIPELINE, IncidentClass.RESOURCE_CONTENTION, t
                )
            elif event.kind is FaultKind.TRANSIENT_TASK_FAILURE:
                self._note_incident(
                    event.pipeline, IncidentClass.TRANSIENT_TASK_FAILURE, t, failed=True
                )

        if prev_report is None:
            return

        for pid, kind in prev_report.failures:
            incident_class = _FAILURE_CLASSES.get(kind)
            if incident_class is not None:
                self._note_incident(pid, incident_class, t, failed=True)

        if self._breach_limits is None:  # a controller governs one world
            tolerance = self.policy.freshness.breach_tolerance
            specs = [world.pipelines[pid].spec for pid in world.pipeline_ids()]
            self._breach_limits = [
                (s.id, s.freshness_target + tolerance)
                for s in specs
                if s.freshness_target is not None
            ]
        samples = prev_report.snapshot.pipelines
        for pid, limit in self._breach_limits:
            if samples[pid].freshness_lag > limit:
                self._note_incident(pid, IncidentClass.FRESHNESS_BREACH, t)

    def _close_matured(
        self, world: SimWorld, t: int, prev_report: TickReport | None
    ) -> None:
        if prev_report is None:
            return  # tick 0: every open incident was detected this tick
        for incident in list(self.ledger.open.values()):
            if incident.detected_tick >= t:
                continue
            cls = incident.incident_class
            done = False
            if cls is IncidentClass.SCHEMA_INCOMPATIBLE:
                p = world.pipelines[incident.pipeline]
                done = p.health is Health.HEALTHY and (
                    p.pending_drift is None or p.pending_drift.quarantine_mode
                )
            elif cls is IncidentClass.TRANSIENT_TASK_FAILURE:
                done = world.pipelines[incident.pipeline].health is Health.HEALTHY
            elif cls is IncidentClass.UPSTREAM_DELAY:
                p = world.pipelines[incident.pipeline]
                done = p.suppress_until is None and p.health is Health.HEALTHY
            elif cls is IncidentClass.RESOURCE_CONTENTION:
                done = prev_report.snapshot.capacity_headroom >= 0
            elif cls is IncidentClass.FRESHNESS_BREACH:
                lag = prev_report.snapshot.pipelines[incident.pipeline].freshness_lag
                done = lag <= world.pipelines[incident.pipeline].spec.freshness_target
            if not done:
                continue
            self.ledger.closed(incident.id, t)
            if incident.resolution is not None:
                self.memory.record_success(cls.value, incident.resolution, incident.duration())
            payload = {"kind": "outcome", "event": "incident_closed", "incident": incident.to_dict()}
            self.audit.append(t, Actor.POLICY_ENGINE, payload, self.policy.version)

    # ------------------------------------------------------------------
    # agent phases

    def _woken(
        self, world: SimWorld, t: int, observed: TelemetrySnapshot
    ) -> Sequence[tuple[Actor, str]]:
        """The agents to ask this tick, in phase order: all of them, unless
        the backend runs the builtin rules, whose triggers pick them."""

        triggers = self._triggers
        if triggers is None:
            return _AGENT_NAMES
        state = ControlState(
            t, self.ledger.open.values(), observed, world.pipelines,
            self._detector.observations, self._alloc_changed_at,
        )
        return [(actor, name) for actor, name, wakes in triggers if wakes(state)]

    def _decide(self, bundle: ObservationBundle) -> list[CandidateAction]:
        try:
            candidates = self.backend.decide(bundle)
            if not isinstance(candidates, list) or (
                candidates and not all(isinstance(c, CandidateAction) for c in candidates)
            ):
                raise BackendError("backend response is not a list of candidate actions")
            return candidates
        except Exception as exc:
            self._violation(bundle.tick, bundle.agent, str(exc))
            return self._builtin.decide(bundle)

    def _violation(
        self, t: int, agent: str, error: str, candidate: CandidateAction | None = None
    ) -> None:
        """Audit a failed backend call, or a refused ``candidate``."""

        payload = {"kind": "outcome", "event": "backend_violation", "agent": agent, "error": error}
        if candidate is not None:
            payload["candidate"] = candidate.to_dict()
        self.audit.append(t, Actor.POLICY_ENGINE, payload, self.policy.version)

    def _screen_candidate(
        self, world: SimWorld, t: int, actor: Actor, candidate: CandidateAction
    ) -> ProposedAction | None:
        def violation(reason: str) -> None:
            self._violation(t, actor.value, reason, candidate)

        try:
            kind = ActionKind(candidate.kind)
        except ValueError:
            violation(f"unknown action kind {candidate.kind!r}")
            return None
        if kind not in AGENT_ACTION_TABLE[actor]:
            violation(f"{actor.value} may not emit {kind.value}")
            return None
        if candidate.pipeline not in world.pipelines:
            violation(f"unknown pipeline {candidate.pipeline!r}")
            return None
        if kind in SCALING_KINDS and candidate.delta_units <= 0:
            violation("scaling candidate requires positive delta_units")
            return None
        if candidate.incident_id is not None:
            incident = self.ledger.open.get(candidate.incident_id)
            if incident is None:
                violation(f"no open incident {candidate.incident_id!r}")
                return None
            if incident.claim not in (None, actor.value):
                return None  # someone else is already handling it
            if kind.value in incident.denied:
                return None  # policy already denied this remedy
        self.ledger.proposed(candidate.incident_id, actor.value, t)
        return ProposedAction(
            next(self._action_ids),
            t,
            actor,
            kind,
            candidate.pipeline,
            stage=candidate.stage,
            partition=candidate.partition,
            delta_units=candidate.delta_units,
            condition=candidate.condition,
            justification=candidate.rationale,
            incident_id=candidate.incident_id,
        )

    # ------------------------------------------------------------------
    # fallback: bounded retries, then a human

    def _fallback_sweep(
        self, world: SimWorld, t: int, proposals: list[ProposedAction]
    ) -> None:
        for incident in self.ledger.open.values():
            cls = incident.incident_class
            if cls is IncidentClass.SCHEMA_INCOMPATIBLE:
                if incident.claim is None:
                    self._enqueue_operator_task(t, ActionKind.RESUME, incident)
            elif cls in (
                IncidentClass.TRANSIENT_TASK_FAILURE,
                IncidentClass.UPSTREAM_DELAY,
            ):
                if not incident.failed:
                    continue
                if incident.claim not in (None, Actor.BASELINE.value):
                    continue
                pipeline = world.pipelines[incident.pipeline]
                if pipeline.health is not Health.FAILING:
                    continue
                if t < incident.retry_next_at:
                    continue
                if incident.retries_used < self.operator.max_retries:
                    self.ledger.proposed(
                        incident.id, Actor.BASELINE.value, t, self.operator.retry_backoff
                    )
                    proposals.append(
                        ProposedAction(
                            next(self._action_ids),
                            t,
                            Actor.BASELINE,
                            ActionKind.REPLAY,
                            incident.pipeline,
                            justification=(
                                f"automatic retry {incident.retries_used}"
                                f"/{self.operator.max_retries}"
                            ),
                            incident_id=incident.id,
                        )
                    )
                else:
                    self._enqueue_operator_task(t, ActionKind.REPLAY, incident)

    def _enqueue_operator_task(self, t: int, kind: ActionKind, incident: Incident) -> None:
        due = self.operator.due(t)
        self._operator_tasks.append(_OperatorTask(due, kind, incident.pipeline, incident.id))
        self.ledger.escalated(incident.id)
        self.interventions += 1
        payload = {
            "kind": "outcome",
            "event": "operator_task_enqueued",
            "incident_id": incident.id,
            "pipeline": incident.pipeline,
            "fix": kind.value,
            "due_tick": due,
        }
        self.audit.append(t, Actor.OPERATOR, payload, self.policy.version)

    def _run_due_operator_tasks(self, world: SimWorld, t: int) -> None:
        while self._operator_tasks and self._operator_tasks[0].due <= t:
            task = self._operator_tasks.popleft()
            if task.incident_id not in self.ledger.open:
                continue  # resolved itself while the operator was paged
            action = ProposedAction(
                next(self._action_ids),
                t,
                Actor.OPERATOR,
                task.kind,
                task.pipeline,
                justification="scheduled operator intervention",
                incident_id=task.incident_id,
            )
            self._validate_and_execute(world, t, action)

    # ------------------------------------------------------------------
    # approvals

    def _run_due_approvals(self, world: SimWorld, t: int) -> None:
        while self._approvals and self._approvals[0].due <= t:
            approval = self._approvals.popleft()
            action = approval.action
            grant = {
                "kind": "decision",
                "phase": "approval_grant",
                "action": action.to_dict(),
                "approved_ref": approval.request_ref,
                "verdict": Verdict.ALLOW.value,
                "citations": ["actions.approval_required"],
                "explanation": "operator approval granted after review delay",
            }
            granted = self.audit.append(t, Actor.OPERATOR, grant, self.policy.version)
            self.ledger.granted(action.incident_id)
            self._apply(world, t, action, granted.seq)

    # ------------------------------------------------------------------
    # validation and execution

    def _committed_spend(self, world: SimWorld, t: int) -> float:
        """Committed spend; new units are priced over ``policy.cost.window``.

        Two commitments are projected and the larger governs: finishing the
        current window at today's paying allocation, and a full window at
        the total reserved allocation. The second bound matters because an
        allocation approved late in a window persists into the next one,
        and paused pipelines resume and pay again; without it a scale-up
        granted near a window boundary could overcommit the following
        window. New units are priced over a full window for the same
        reason.
        """

        paying_units = reserved_units = 0
        for p in world.pipelines.values():
            units = p.allocation_total()
            reserved_units += units
            if p.health not in UNPAID:
                paying_units += units
        window = self.policy.cost.window
        remaining = window - (t % window)
        price = world.resource_model.unit_price
        return max(
            self._window_spend + paying_units * price * remaining,
            reserved_units * price * window,
        )

    def _context(self, world: SimWorld, t: int, action: ProposedAction) -> ValidationContext:
        tags: tuple[str, ...] = ()
        delta_total = 0
        pipeline = world.pipelines.get(action.pipeline)
        if pipeline is not None:
            tags = tuple(pipeline.spec.tags)
            if action.kind in SCALING_KINDS:
                affected = 1 if action.stage is not None else len(pipeline.stages)
                delta_total = abs(action.delta_units) * affected
        return ValidationContext(
            tick=t,
            pipeline_tags=tags,
            windowed_spend=self._window_spend,
            committed_spend=self._committed_spend(world, t),
            unit_price=world.resource_model.unit_price,
            delta_units_total=delta_total,
        )

    def _validate_and_execute(
        self, world: SimWorld, t: int, action: ProposedAction
    ) -> None:
        proposal_payload = {"kind": "proposal", "action": action.to_dict()}
        self.audit.append(t, action.agent, proposal_payload, self.policy.version)

        context = self._context(world, t, action)
        decision = validate_action(self.policy, action, context)
        decision_payload = {
            "kind": "decision",
            "phase": "initial",
            "action": action.to_dict(),
            "context": context.to_dict(),
            "verdict": decision.verdict.value,
            "citations": list(decision.rule_citations),
            "explanation": decision.explanation,
        }
        decided = self.audit.append(t, Actor.POLICY_ENGINE, decision_payload, self.policy.version)

        if decision.verdict is Verdict.ALLOW:
            self._apply(world, t, action, decided.seq)
        elif decision.verdict is Verdict.REQUIRE_APPROVAL:
            self._approvals.append(
                _PendingApproval(self.operator.due(t), action, decided.seq)
            )
            self.interventions += 1
            self.ledger.approval_requested(action.incident_id, action.agent.value)
        else:
            self.ledger.denied(action.incident_id, action.agent.value, action.kind.value)

    def _apply(
        self, world: SimWorld, t: int, action: ProposedAction, decision_ref: int
    ) -> None:
        try:
            result = apply_action(world, ApprovedAction(action, decision_ref))
        except (InvalidTarget, IllegalTransition) as exc:
            result = ActionOutcome(
                action.id, action.kind, action.pipeline, "rejected", str(exc), {}
            )
        payload = {
            "kind": "outcome",
            "event": "action_outcome",
            "decision_ref": decision_ref,
            "result": result.to_dict(),
        }
        self.audit.append(t, action.agent, payload, self.policy.version)
        self.ledger.acted(
            action.incident_id, action.agent.value, action.kind.value, t, result.applied
        )
        if result.applied:
            if action.kind in SCALING_KINDS:
                self._alloc_changed_at[action.pipeline] = t
            if action.incident_id is not None:  # counted even after the incident closed
                cls = self.incidents[action.incident_id].incident_class
                self.memory.record_attempt(cls.value, action.kind.value)

    # ------------------------------------------------------------------
    # observation bundles

    def _bundles(
        self, world: SimWorld, t: int, observed: TelemetrySnapshot, agents: Sequence = _AGENT_NAMES
    ) -> list[tuple[Actor, ObservationBundle]]:
        """The bundle of each of ``agents`` for the tick, in phase order.

        Every view is built fresh, and the agents share all of them.
        """

        open_incidents = tuple(
            MappingProxyType(
                {
                    "id": incident.id,
                    "pipeline": incident.pipeline,
                    "incident_class": incident.incident_class.value,
                    "claimed_by": incident.claim,
                    "approval_pending": incident.approval_pending,
                    "last_action_tick": incident.last_action_tick,
                    "delay_baseline": incident.delay_baseline,
                }
            )
            for incident in self.ledger.open.values()
        )
        pipelines = {
            pid: _pipeline_view(p, self._alloc_changed_at.get(pid, 0))
            for pid, p in world.pipelines.items()
        }
        policy = MappingProxyType(
            {
                "max_scale_step": self.policy.cost.max_scale_step,
                "budget_per_window": self.policy.cost.budget_per_window,
                "window": self.policy.cost.window,
                "committed_spend": self._committed_spend(world, t),
                "unit_price": world.resource_model.unit_price,
                "quarantine_allowed": self.policy.schema.quarantine_allowed,
                "schema_mode": self.policy.schema.mode,
                "allowed_strategies": self._allowed_strategies,
            }
        )
        observed_view = _snapshot_view(observed, self._detector.observations)
        views = (observed_view, open_incidents, MappingProxyType(pipelines), policy, self.memory.view())
        return [(actor, ObservationBundle(t, name, *views)) for actor, name in agents]


def _snapshot_view(
    snapshot: TelemetrySnapshot, observations: Mapping[str, PipelineObservation]
) -> Mapping:
    """What bundles show of the previous tick's kernel snapshot and of each
    pipeline's record, pipelines in sorted order."""

    pipelines = {}
    for pid, sample in sorted(snapshot.pipelines.items()):
        record = observations[pid]
        pipelines[pid] = MappingProxyType(
            {
                "freshness_lag": sample.freshness_lag,
                "queue_depth": sample.queue_depth,
                "ingress": tuple(record.ingress),
                "low_util_run": record.low_util_run,
            }
        )
    view = {"capacity_headroom": snapshot.capacity_headroom, "pipelines": MappingProxyType(pipelines)}
    return MappingProxyType(view)


def _pipeline_view(p: PipelineState, alloc_changed_at: int) -> Mapping:
    """A pipeline's read-only view; ``alloc_changed_at`` is the tick of its
    last applied scaling action, 0 before any."""

    drift = p.pending_drift
    if drift is not None:
        drift = MappingProxyType(
            {"partition": drift.partition, "quarantine_mode": drift.quarantine_mode}
        )
    stages = {
        sid: MappingProxyType(
            {"alloc": st.alloc, "min_alloc": st.spec.min_alloc, "max_alloc": st.spec.max_alloc}
        )
        for sid, st in p.stages.items()
    }
    view = {
        "criticality": p.spec.criticality,
        "freshness_target": p.spec.freshness_target,
        "health": p.health.value,
        "failing_stage": p.failing_stage,
        "recovering": p.recover_at is not None,
        "suppressed": p.suppress_until is not None,
        "alloc_changed_at": alloc_changed_at,
        "stages": MappingProxyType(stages),
        "drift": drift,
    }
    return MappingProxyType(view)

"""The control loop that governs a running cluster.

One chassis serves both controller modes. Every tick it:

1. executes operator work that has come due (approval grants, scheduled
   operator fixes),
2. opens incidents from hard triggers (injected faults, failure events,
   freshness breaches) and closes incidents whose exit conditions hold,
3. if it has a reasoning backend, builds one ObservationBundle per agent
   and collects candidate actions from the backend (monitoring first,
   then schema, recovery, optimization),
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
present, each pipeline's samples feed its rolling utilization and
ingress windows and its ingress EWMA. A static run keeps no observation
state. Each tick's bundles are built in fresh containers from the
windows, the world and the open incidents: a backend that changes its
bundle changes nothing the controller keeps or a later tick shows. The
agents of one tick share every container but their policy view.

The audit log is the only record of what happened; the per-tick
ControlReport carries just the proposals and anomaly flags. The
controller owns the incident lifecycle. ``incidents`` holds every
incident in detection order, numbered ``INC-0001`` on; it is what a run
reports. Each open incident also has one control record (the incident
itself, who claims it, which remedies policy denied, retry budget, last
applied remedy, pending approval, pre-delay ingress baseline), created
when the incident opens and dropped when it closes, so nothing carries
over to the next incident on the same pipeline. A trigger for a
(pipeline, class) pair that already has an open record coalesces into
it. These records, in creation order, are the only table the controller
walks.

Approvals and operator tasks wait in FIFO queues. Every entry is due
``operator_delay`` ticks after the tick it was queued in, and within a
tick entries are queued in audit order (approvals) or incident order
(operator tasks), so each queue is already in due order and is drained
from the left. The queues are drained at the start of a tick, before
that tick's proposals, so the earliest an entry runs is the next tick:
``max(operator_delay, 1)`` ticks after it was queued.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

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
    Health,
    PipelineSample,
    SimWorld,
    TelemetrySnapshot,
    TickReport,
)
from ..telemetry.audit import AuditLog
from ..telemetry.incidents import CLUSTER_PIPELINE, Incident, IncidentClass
from .backends import BackendError, BuiltinBackend, ReasoningBackend
from .bundle import CandidateAction, ObservationBundle, OutcomeMemory
from .monitoring import AnomalyDetector, AnomalyFlag

INGRESS_EWMA_ALPHA = 0.2  # smoothing for the pre-incident ingress baseline
UTILIZATION_WINDOW = 30  # ticks of utilization history shown to agents
INGRESS_WINDOW = 20  # ticks of ingress history shown to agents

# Reasoning phases, in the order they run each tick.
AGENT_PHASES = (
    Actor.MONITORING_AGENT,
    Actor.SCHEMA_AGENT,
    Actor.RECOVERY_AGENT,
    Actor.OPTIMIZATION_AGENT,
)

_OPERATOR_CLAIM = "operator"

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


@dataclass
class _IncidentControl:
    """The controller's bookkeeping for one open incident."""

    incident: Incident
    claim: str | None = None  # actor value, or _OPERATOR_CLAIM
    denied: set[str] = field(default_factory=set)  # action kinds policy denied
    failed: bool = False  # a task failed; the retry fallback may act
    retries_used: int = 0
    retry_next_at: int = 0
    last_applied: str | None = None  # action kind; the resolution on close
    last_action_tick: int | None = None
    approval_pending: bool = False
    delay_baseline: float | None = None  # ingress EWMA when an UpstreamDelay opened


@dataclass
class _SeriesWindows:
    """One pipeline's recent samples, newest last, through the previous tick."""

    ingress_ewma: float  # seeded by the first sample
    utilization: deque[float] = field(
        default_factory=lambda: deque(maxlen=UTILIZATION_WINDOW)
    )
    ingress: deque[float] = field(default_factory=lambda: deque(maxlen=INGRESS_WINDOW))


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


@dataclass(frozen=True)
class ControlReport:
    """What the controller did in one tick."""

    tick: int
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
        self.incidents: dict[str, Incident] = {}  # every incident, in detection order

        self._builtin = BuiltinBackend()
        self._detector = AnomalyDetector()
        self._action_seq = 0
        self._incidents: dict[str, _IncidentControl] = {}  # open incidents only
        self._approvals: deque[_PendingApproval] = deque()  # FIFO: due order
        self._operator_tasks: deque[_OperatorTask] = deque()  # FIFO: due order
        self._alloc_changed_at: dict[str, int] = {}
        self._window_index: int | None = None
        self._window_spend = 0.0
        self._windows: dict[str, _SeriesWindows] = {}  # stays empty without a backend
        self._allowed_strategies = tuple(k.value for k in policy.recovery.allowed_strategies)
        self._allowed_kinds = {
            actor: tuple(k.value for k in policy.actions.allowed_for(actor))
            for actor in AGENT_PHASES
        }

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
            self._fold_statistics(world, prev_report)

        self._run_due_approvals(world, t)
        self._run_due_operator_tasks(world, t)
        self._detect(world, t, applied_faults, prev_report)
        self._close_matured(world, t, prev_report)

        if self.backend is not None:
            if prev_report is None:
                snapshot = _zero_snapshot(world)
            else:
                snapshot = prev_report.snapshot.to_dict()
                flags = self._monitoring_phase(t, snapshot)
            for actor, bundle in self._bundles(world, t, snapshot, applied_faults):
                for candidate in self._decide(bundle):
                    action = self._screen_candidate(world, t, actor, candidate)
                    if action is not None:
                        proposals.append(action)

        self._fallback_sweep(world, t, proposals)

        for action in proposals:
            self._validate_and_execute(world, t, action)

        return ControlReport(tick=t, proposals=tuple(proposals), flags=tuple(flags))

    # ------------------------------------------------------------------
    # chassis statistics

    def _fold_statistics(self, world: SimWorld, prev_report: TickReport) -> None:
        """Account the previous tick's compute spend and, with a backend, its samples."""

        idx = prev_report.tick // self.policy.cost.window
        if idx != self._window_index:
            self._window_index = idx
            self._window_spend = 0.0
        storage = prev_report.materialized * world.resource_model.storage_price
        self._window_spend += prev_report.cost - storage
        if self.backend is None:
            return
        for pid, sample in prev_report.snapshot.pipelines.items():
            value = float(sample.ingress)
            windows = self._windows.get(pid)
            if windows is None:
                windows = self._windows[pid] = _SeriesWindows(value)
            else:
                mu = windows.ingress_ewma
                windows.ingress_ewma = mu + INGRESS_EWMA_ALPHA * (value - mu)
            windows.utilization.append(float(sample.utilization))
            windows.ingress.append(value)

    # ------------------------------------------------------------------
    # incident detection and closure

    def _note_incident(
        self, pipeline: str, incident_class: IncidentClass, t: int
    ) -> _IncidentControl:
        """Open (or coalesce into) an incident and return its control record."""

        for record in self._incidents.values():
            incident = record.incident
            if incident.pipeline == pipeline and incident.incident_class is incident_class:
                return record
        incident = Incident(f"INC-{len(self.incidents) + 1:04d}", pipeline, incident_class, t)
        self.incidents[incident.id] = incident
        record = _IncidentControl(incident)
        if incident_class is IncidentClass.UPSTREAM_DELAY:
            windows = self._windows.get(pipeline)
            record.delay_baseline = windows.ingress_ewma if windows is not None else 0.0
        self._incidents[incident.id] = record
        payload = {
            "kind": "outcome",
            "event": "incident_opened",
            "incident": incident.to_dict(),
        }
        self.audit.append(t, Actor.POLICY_ENGINE, payload, self.policy.version)
        return record

    def _detect(
        self,
        world: SimWorld,
        t: int,
        applied_faults: list[FaultEvent],
        prev_report: TickReport | None,
    ) -> None:
        for event in applied_faults:
            if event.kind is FaultKind.SCHEMA_DRIFT:
                if world.pipelines[event.pipeline].pending_drift is not None:
                    self._note_incident(
                        event.pipeline, IncidentClass.SCHEMA_INCOMPATIBLE, t
                    )
            elif event.kind is FaultKind.UPSTREAM_DELAY:
                self._note_incident(event.pipeline, IncidentClass.UPSTREAM_DELAY, t)
            elif event.kind is FaultKind.RESOURCE_CONTENTION:
                self._note_incident(
                    CLUSTER_PIPELINE, IncidentClass.RESOURCE_CONTENTION, t
                )
            elif event.kind is FaultKind.TRANSIENT_TASK_FAILURE:
                self._note_incident(
                    event.pipeline, IncidentClass.TRANSIENT_TASK_FAILURE, t
                ).failed = True

        if prev_report is None:
            return

        for failure in prev_report.failures:
            incident_class = _FAILURE_CLASSES.get(failure["kind"])
            if incident_class is not None:
                self._note_incident(failure["pipeline"], incident_class, t).failed = True

        tolerance = self.policy.freshness.breach_tolerance
        for pid, sample in prev_report.snapshot.pipelines.items():
            target = world.pipelines[pid].spec.freshness_target
            if target is None:
                continue
            if sample.freshness_lag > target + tolerance:
                self._note_incident(pid, IncidentClass.FRESHNESS_BREACH, t)

    def _close_matured(
        self, world: SimWorld, t: int, prev_report: TickReport | None
    ) -> None:
        prev_snap = prev_report.snapshot if prev_report is not None else None
        for record in list(self._incidents.values()):
            incident = record.incident
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
                done = (
                    p.suppress_until is None
                    and not p.release_plan
                    and p.withheld == 0
                    and p.health is Health.HEALTHY
                )
            elif cls is IncidentClass.RESOURCE_CONTENTION:
                done = prev_snap is not None and prev_snap.capacity_headroom >= 0
            elif cls is IncidentClass.FRESHNESS_BREACH:
                target = world.pipelines[incident.pipeline].spec.freshness_target
                if prev_snap is not None and target is not None:
                    done = prev_snap.pipelines[incident.pipeline].freshness_lag <= target
            if not done:
                continue
            del self._incidents[incident.id]
            incident.resumed_tick = t
            incident.resolution = record.last_applied
            if incident.resolution is not None:
                self.memory.record_success(
                    cls.value, incident.resolution, incident.duration()
                )
            payload = {
                "kind": "outcome",
                "event": "incident_closed",
                "incident": incident.to_dict(),
            }
            self.audit.append(t, Actor.POLICY_ENGINE, payload, self.policy.version)

    # ------------------------------------------------------------------
    # agent phases

    def _monitoring_phase(self, t: int, snapshot: dict) -> list[AnomalyFlag]:
        flags = self._detector.observe_snapshot(t, snapshot)
        for flag in flags:
            payload = {"kind": "outcome", "event": "anomaly_flag", "flag": flag.to_dict()}
            self.audit.append(t, Actor.MONITORING_AGENT, payload, self.policy.version)
        return flags

    def _decide(self, bundle: ObservationBundle) -> list[CandidateAction]:
        try:
            candidates = self.backend.decide(bundle)
            if not isinstance(candidates, list) or not all(
                isinstance(c, CandidateAction) for c in candidates
            ):
                raise BackendError("backend response is not a list of candidate actions")
            return candidates
        except Exception as exc:
            payload = {
                "kind": "outcome",
                "event": "backend_violation",
                "agent": bundle.agent,
                "error": str(exc),
            }
            self.audit.append(bundle.tick, Actor.POLICY_ENGINE, payload, self.policy.version)
            return self._builtin.decide(bundle)

    def _screen_candidate(
        self, world: SimWorld, t: int, actor: Actor, candidate: CandidateAction
    ) -> ProposedAction | None:
        def violation(reason: str) -> None:
            payload = {
                "kind": "outcome",
                "event": "backend_violation",
                "agent": actor.value,
                "candidate": candidate.to_dict(),
                "error": reason,
            }
            self.audit.append(t, Actor.POLICY_ENGINE, payload, self.policy.version)

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
        record = None
        if candidate.incident_id is not None:
            record = self._incidents.get(candidate.incident_id)
            if record is None:
                violation(f"no open incident {candidate.incident_id!r}")
                return None
            if record.claim not in (None, actor.value):
                return None  # someone else is already handling it
            if kind.value in record.denied:
                return None  # policy already denied this remedy
        action = self._next_action(
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
        if record is not None:
            record.claim = actor.value
        return action

    def _next_action(
        self,
        t: int,
        actor: Actor,
        kind: ActionKind,
        pipeline: str,
        *,
        stage: str | None = None,
        partition: str | None = None,
        delta_units: int = 0,
        condition: str | None = None,
        justification: str = "",
        incident_id: str | None = None,
    ) -> ProposedAction:
        self._action_seq += 1
        return ProposedAction(
            id=f"ACT-{self._action_seq:05d}",
            tick=t,
            agent=actor,
            kind=kind,
            pipeline=pipeline,
            stage=stage,
            partition=partition,
            delta_units=delta_units,
            condition=condition,
            justification=justification,
            incident_id=incident_id,
        )

    # ------------------------------------------------------------------
    # fallback: bounded retries, then a human

    def _fallback_sweep(
        self, world: SimWorld, t: int, proposals: list[ProposedAction]
    ) -> None:
        for record in self._incidents.values():
            incident = record.incident
            cls = incident.incident_class
            if cls is IncidentClass.SCHEMA_INCOMPATIBLE:
                if record.claim is None:
                    self._enqueue_operator_task(t, ActionKind.RESUME, record)
            elif cls in (
                IncidentClass.TRANSIENT_TASK_FAILURE,
                IncidentClass.UPSTREAM_DELAY,
            ):
                if not record.failed:
                    continue
                if record.claim not in (None, Actor.BASELINE.value):
                    continue
                pipeline = world.pipelines[incident.pipeline]
                if pipeline.health is not Health.FAILING:
                    continue
                if t < record.retry_next_at:
                    continue
                if record.retries_used < self.operator.max_retries:
                    record.retries_used += 1
                    record.retry_next_at = t + self.operator.retry_backoff
                    record.claim = Actor.BASELINE.value
                    proposals.append(
                        self._next_action(
                            t,
                            Actor.BASELINE,
                            ActionKind.REPLAY,
                            incident.pipeline,
                            justification=(
                                f"automatic retry {record.retries_used}"
                                f"/{self.operator.max_retries}"
                            ),
                            incident_id=incident.id,
                        )
                    )
                else:
                    self._enqueue_operator_task(t, ActionKind.REPLAY, record)

    def _enqueue_operator_task(
        self, t: int, kind: ActionKind, record: _IncidentControl
    ) -> None:
        incident = record.incident
        due = t + self.operator.operator_delay
        self._operator_tasks.append(
            _OperatorTask(due, kind, incident.pipeline, incident.id)
        )
        record.claim = _OPERATOR_CLAIM
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
            if task.incident_id not in self._incidents:
                continue  # resolved itself while the operator was paged
            action = self._next_action(
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
            record = self._incidents.get(action.incident_id)
            if record is not None:  # None once the incident has closed
                record.approval_pending = False
            self._apply(world, t, action, granted.seq)

    # ------------------------------------------------------------------
    # validation and execution

    def _spend_projection(self, world: SimWorld, t: int) -> tuple[float, int]:
        """Committed spend and the horizon (ticks) used to price new units.

        Two commitments are projected and the larger governs: finishing the
        current window at today's paying allocation, and a full window at
        the total reserved allocation. The second bound matters because an
        allocation approved late in a window persists into the next one,
        and paused pipelines resume and pay again; without it a scale-up
        granted near a window boundary could overcommit the following
        window. New units are priced over a full window for the same
        reason.
        """

        window = self.policy.cost.window
        remaining = window - (t % window)
        price = world.resource_model.unit_price
        paying_units = 0
        reserved_units = 0
        for p in world.pipelines.values():
            units = p.allocation_total()
            reserved_units += units
            if p.health not in (Health.HALTED, Health.DEFERRED):
                paying_units += units
        committed = max(
            self._window_spend + paying_units * price * remaining,
            reserved_units * price * window,
        )
        return committed, window

    def _context(self, world: SimWorld, t: int, action: ProposedAction) -> ValidationContext:
        price = world.resource_model.unit_price
        committed, horizon = self._spend_projection(world, t)
        delta_total = 0
        if action.kind in SCALING_KINDS:
            pipeline = world.pipelines.get(action.pipeline)
            if pipeline is not None:
                affected = 1 if action.stage is not None else len(pipeline.stages)
                delta_total = abs(action.delta_units) * affected
        tags: tuple[str, ...] = ()
        pipeline = world.pipelines.get(action.pipeline)
        if pipeline is not None:
            tags = tuple(pipeline.spec.tags)
        return ValidationContext(
            tick=t,
            pipeline_tags=tags,
            windowed_spend=self._window_spend,
            committed_spend=committed,
            window_remaining=horizon,
            unit_price=price,
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

        record = self._incidents.get(action.incident_id)
        if decision.verdict is Verdict.ALLOW:
            self._apply(world, t, action, decided.seq)
        elif decision.verdict is Verdict.REQUIRE_APPROVAL:
            self._approvals.append(
                _PendingApproval(t + self.operator.operator_delay, action, decided.seq)
            )
            self.interventions += 1
            if record is not None:
                record.approval_pending = True
                record.claim = action.agent.value
        elif record is not None:  # Deny
            record.denied.add(action.kind.value)
            if record.claim == action.agent.value:
                record.claim = None

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

        # None when there is no incident, or an approval landed after it closed.
        record = self._incidents.get(action.incident_id)
        if result.applied:
            if action.kind in SCALING_KINDS:
                self._alloc_changed_at[action.pipeline] = t
            if action.incident_id is not None:
                incident = self.incidents[action.incident_id]
                self.memory.record_attempt(
                    incident.incident_class.value, action.kind.value
                )
            if record is not None:
                record.last_applied = action.kind.value
                record.last_action_tick = t
                record.claim = action.agent.value
        elif record is not None and record.claim == action.agent.value:
            record.claim = None

    # ------------------------------------------------------------------
    # observation bundles

    def _bundles(
        self,
        world: SimWorld,
        t: int,
        snapshot: dict,
        applied_faults: list[FaultEvent],
    ) -> Iterator[tuple[Actor, ObservationBundle]]:
        """Yield each reasoning agent's bundle for the tick, in phase order.

        Every container is built fresh for the tick, with spec fields
        copied out of the world and series out of the rolling windows, so
        nothing handed to a backend is handed out again on a later tick.
        The agents share every container but ``policy``, which is fresh
        per agent.
        """

        delay_by_pipeline: dict[str, dict] = {}
        incidents: list[dict] = []
        for record in self._incidents.values():
            incident = record.incident
            view = incident.to_dict()
            view["claimed_by"] = record.claim
            view["approval_pending"] = record.approval_pending
            view["failed"] = record.failed
            view["last_action_tick"] = record.last_action_tick
            incidents.append(view)
            if record.delay_baseline is not None:
                delay_by_pipeline[incident.pipeline] = {
                    "baseline_ingress": record.delay_baseline
                }
        open_incidents = tuple(incidents)

        pipelines: dict[str, dict] = {}
        series: dict[str, dict[str, list[float]]] = {}
        for pid, p in world.pipelines.items():
            spec = p.spec
            drift = None
            if p.pending_drift is not None:
                drift = {
                    "partition": p.pending_drift.partition,
                    "window_end": p.pending_drift.window_end,
                    "quarantine_mode": p.pending_drift.quarantine_mode,
                    "compatible": not p.pending_drift.incompatible,
                    "delta": p.pending_drift.delta.to_dict(),
                }
            pipelines[pid] = {
                "kind": spec.kind.value,
                "criticality": spec.criticality,
                "freshness_target": spec.freshness_target,
                "tags": list(spec.tags),
                "health": p.health.value,
                "failing_cause": p.failing_cause,
                "failing_stage": p.failing_stage,
                "recovering": p.recover_at is not None,
                "suppressed": p.suppress_until is not None,
                "ticks_since_alloc_change": t - self._alloc_changed_at.get(pid, 0),
                "stages": {
                    sid: {
                        "alloc": st.alloc,
                        "min_alloc": st.spec.min_alloc,
                        "max_alloc": st.spec.max_alloc,
                        "base_rate": st.spec.base_rate,
                    }
                    for sid, st in p.stages.items()
                },
                "drift": drift,
                "delay": delay_by_pipeline.get(pid),
            }
            windows = self._windows.get(pid)
            series[pid] = {
                "utilization": list(windows.utilization) if windows else [],
                "ingress": list(windows.ingress) if windows else [],
            }

        committed, horizon = self._spend_projection(world, t)
        shared_policy = {
            "max_scale_step": self.policy.cost.max_scale_step,
            "budget_per_window": self.policy.cost.budget_per_window,
            "window": self.policy.cost.window,
            "window_remaining": horizon,
            "windowed_spend": self._window_spend,
            "committed_spend": committed,
            "unit_price": world.resource_model.unit_price,
            "quarantine_allowed": self.policy.schema.quarantine_allowed,
            "schema_mode": self.policy.schema.mode,
            "breach_tolerance": self.policy.freshness.breach_tolerance,
        }
        memory = self.memory.extract()
        faults = tuple(event.to_dict() for event in applied_faults)

        for actor in AGENT_PHASES[1:]:
            policy_view = dict(shared_policy)
            policy_view["allowed_strategies"] = list(self._allowed_strategies)
            policy_view["allowed_kinds"] = list(self._allowed_kinds[actor])
            yield actor, ObservationBundle(
                tick=t,
                agent=actor.value,
                snapshot=snapshot,
                open_incidents=open_incidents,
                pipelines=pipelines,
                series=series,
                policy=policy_view,
                memory=memory,
                faults=faults,
            )


def _zero_snapshot(world: SimWorld) -> dict:
    """The snapshot agents see before the first step: no traffic, no cost."""

    capacity = world.effective_capacity(world.tick)
    samples = {
        pid: PipelineSample(
            queue_depth=0,
            effective_rate=0,
            freshness_lag=0,
            failure_count=0,
            utilization=0.0,
            allocation=p.allocation_total(),
            ingress=0,
            health=p.health.value,
            suppressed=False,
        )
        for pid, p in world.pipelines.items()
    }
    return TelemetrySnapshot(
        tick=-1,
        pipelines=samples,
        total_cost=0.0,
        capacity=capacity,
        capacity_headroom=capacity,
        contention_factor=1.0,
    ).to_dict()

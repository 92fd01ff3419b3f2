"""Failure recovery: pick a strategy, defer through outages, resume on stability.

``recovery_propose`` ranks candidate strategies for one incident using
past-outcome statistics (success rate, then mean resolution time, then a
fixed preference order). The bundle-level entry point also runs the
defer/resume state machine for upstream-delay incidents: defer while the
source is dark, resume once ingress has been back at its pre-incident
level for ``STABLE_TICKS`` consecutive ticks.

Trigger (``recovery_wakes``): an open incident the agent ``may_act`` on
and the rule has a move for: an UpstreamDelay on a Healthy or Failing
pipeline (Defer), or on a Deferred, unsuppressed one whose ingress window
is stable around the incident's ``delay_baseline`` (Resume); a
TransientTaskFailure on a Failing pipeline, ``REPROPOSE_AFTER`` ticks or
more after its last action. The rule proposes for exactly these, through
the same predicates, so on any other tick it returns nothing.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.actions import Actor
from .bundle import CandidateAction, ControlState, ObservationBundle, may_act

STABLE_TICKS = 10
STABILITY_BAND = 0.2  # fraction of the pre-incident ingress mean
STABILITY_FLOOR = 1.0  # absolute band floor, so zero-mean sources can settle
REPROPOSE_AFTER = 10  # ticks a pipeline may stay failing before retrying

_AGENT = Actor.RECOVERY_AGENT.value
_UPSTREAM_DELAY = "UpstreamDelay"

# Fixed preference order per incident class; memory statistics reorder it.
STRATEGY_ORDER: dict[str, tuple[str, ...]] = {
    "TransientTaskFailure": ("Replay", "Rollback"),
    "UpstreamDelay": ("Defer",),
}


class UnknownIncidentClass(ValueError):
    """Raised for incident classes with no recovery strategy table."""


def recovery_propose(
    incident: dict, memory: dict[str, dict], allowed: tuple[str, ...] | list[str]
) -> str:
    """Pick the recovery kind for one incident.

    ``memory`` maps ``"<incident class>:<kind>"`` to attempt statistics;
    ``allowed`` is the policy's allowed strategy list. Candidates are
    ranked by success rate (desc), mean resolution ticks (asc), then the
    fixed preference order, so an empty memory keeps the default choice.
    """

    incident_class = incident["incident_class"]
    base = STRATEGY_ORDER.get(incident_class)
    if base is None:
        raise UnknownIncidentClass(f"no recovery strategies for {incident_class!r}")
    candidates = [kind for kind in base if kind in allowed]
    if not candidates:
        candidates = list(base)  # policy will veto; still return the preference

    def rank(item: tuple[int, str]) -> tuple[float, float, int]:
        index, kind = item
        cell = memory.get(f"{incident_class}:{kind}")
        if not cell or not cell["attempts"]:
            return (0.0, 0.0, index)
        return (-cell["success_rate"], cell["mean_resolution"], index)

    ranked = sorted(enumerate(candidates), key=rank)
    return ranked[0][1]


def _ingress_stable(window: Sequence[float], baseline: float) -> bool:
    if len(window) < STABLE_TICKS:
        return False
    band = max(STABILITY_BAND * baseline, STABILITY_FLOOR)
    return all(abs(x - baseline) <= band for x in window)


def _defers(health: str) -> bool:
    return health in ("Healthy", "Failing")


def _resumes(health: str, suppressed: bool, window: Sequence[float], baseline: float) -> bool:
    return health == "Deferred" and not suppressed and _ingress_stable(window, baseline)


def _retries(health: str, tick: int, last_action_tick: int | None) -> bool:
    # Only while failing, and once the previous attempt had time to show an effect.
    return health == "Failing" and (
        last_action_tick is None or tick - last_action_tick >= REPROPOSE_AFTER
    )


def recovery_wakes(state: ControlState) -> bool:
    for i in state.incidents:
        if i.incident_class not in STRATEGY_ORDER:
            continue
        p = state.pipelines[i.pipeline]
        if not may_act(i.claim, _AGENT, i.approval_pending, p.recover_at is not None):
            continue
        if i.incident_class == _UPSTREAM_DELAY:
            window = state.observations[i.pipeline].ingress
            if _defers(p.health) or _resumes(
                p.health, p.suppress_until is not None, window, i.delay_baseline
            ):
                return True
        elif _retries(p.health, state.tick, i.last_action_tick):
            return True
    return False


def recovery_candidates(bundle: ObservationBundle) -> list[CandidateAction]:
    candidates: list[CandidateAction] = []
    for incident in bundle.open_incidents:
        incident_class = incident["incident_class"]
        if incident_class not in STRATEGY_ORDER:
            continue
        pid = incident["pipeline"]
        meta = bundle.pipelines[pid]
        if not may_act(
            incident["claimed_by"], bundle.agent, incident["approval_pending"], meta["recovering"]
        ):
            continue
        health = meta["health"]

        if incident_class == _UPSTREAM_DELAY:
            window = bundle.observed["pipelines"][pid]["ingress"]
            if _resumes(health, meta["suppressed"], window, incident["delay_baseline"]):
                candidates.append(
                    CandidateAction(
                        kind="Resume",
                        pipeline=pid,
                        rationale=f"ingress back at pre-incident level for {STABLE_TICKS} ticks",
                        incident_id=incident["id"],
                    )
                )
            elif _defers(health):
                candidates.append(
                    CandidateAction(
                        kind="Defer",
                        pipeline=pid,
                        rationale="upstream source dark; pausing instead of burning retries",
                        incident_id=incident["id"],
                    )
                )
        elif _retries(health, bundle.tick, incident["last_action_tick"]):
            kind = recovery_propose(incident, bundle.memory, bundle.policy["allowed_strategies"])
            candidates.append(
                CandidateAction(
                    kind=kind,
                    pipeline=pid,
                    stage=meta["failing_stage"],
                    rationale="transient task failure; applying best-ranked recovery strategy",
                    incident_id=incident["id"],
                )
            )
    return candidates

"""Failure recovery: pick a strategy, defer through outages, resume on stability.

``recovery_propose`` ranks candidate strategies for one incident using
past-outcome statistics (success rate, then mean resolution time, then a
fixed preference order). The bundle-level entry point also runs the
defer/resume state machine for upstream-delay incidents: defer while the
source is dark, resume once ingress has been back at its pre-incident
level for ``STABLE_TICKS`` consecutive ticks.
"""

from __future__ import annotations

from .bundle import CandidateAction, ObservationBundle

STABLE_TICKS = 10
STABILITY_BAND = 0.2  # fraction of the pre-incident ingress mean
STABILITY_FLOOR = 1.0  # absolute band floor, so zero-mean sources can settle
REPROPOSE_AFTER = 10  # ticks a pipeline may stay failing before retrying

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


def _ingress_stable(bundle: ObservationBundle, pid: str, baseline: float) -> bool:
    window = bundle.series[pid]["ingress"]  # the last STABLE_TICKS samples
    if len(window) < STABLE_TICKS:
        return False
    band = max(STABILITY_BAND * baseline, STABILITY_FLOOR)
    return all(abs(x - baseline) <= band for x in window)


def recovery_candidates(bundle: ObservationBundle) -> list[CandidateAction]:
    candidates: list[CandidateAction] = []
    for incident in bundle.open_incidents:
        incident_class = incident["incident_class"]
        if incident_class not in STRATEGY_ORDER:
            continue
        if incident["claimed_by"] not in (None, bundle.agent):
            continue
        if incident["approval_pending"]:
            continue
        pid = incident["pipeline"]
        meta = bundle.pipelines[pid]
        if meta["recovering"]:
            continue  # a fix is already maturing

        if incident_class == "UpstreamDelay":
            if meta["health"] == "Deferred":
                if not meta["suppressed"] and _ingress_stable(
                    bundle, pid, incident["delay_baseline"]
                ):
                    candidates.append(
                        CandidateAction(
                            kind="Resume",
                            pipeline=pid,
                            rationale=(
                                f"ingress back at pre-incident level for {STABLE_TICKS} ticks"
                            ),
                            incident_id=incident["id"],
                        )
                    )
            elif meta["health"] in ("Healthy", "Failing"):
                candidates.append(
                    CandidateAction(
                        kind="Defer",
                        pipeline=pid,
                        rationale="upstream source dark; pausing instead of burning retries",
                        incident_id=incident["id"],
                    )
                )
            continue

        # TransientTaskFailure: act only while the pipeline is actually failing.
        if meta["health"] != "Failing":
            continue
        last = incident["last_action_tick"]
        if last is not None and bundle.tick - last < REPROPOSE_AFTER:
            continue  # give the previous attempt time to show an effect
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

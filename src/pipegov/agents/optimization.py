"""Allocation tuning: scale idle pipelines down, breaching pipelines up.

Pure decision logic over an ObservationBundle. Three rules, applied in
a fixed order so output is deterministic:

1. Contention relief — when the cluster is over-committed, shed units
   from the least-critical busy pipelines before anything else.
2. Sustained-idle scale-down — a pipeline whose utilization stayed under
   ``LOW_UTIL_THRESHOLD`` for ``LOW_UTIL_TICKS`` consecutive ticks (and
   whose allocation has not changed in that long, counted from its
   ``alloc_changed_at``) gives a step back. The bundle's ``low_util_run``
   counts those ticks, so the rule reads one integer, not a window.
3. Freshness scale-up — a healthy streaming pipeline lagging past its
   freshness target gets a step, most critical first, but only while the
   projected window spend stays inside budget.

The control loop still screens every candidate against policy; the
budget check here just avoids proposing obvious denials.
"""

from __future__ import annotations

from collections.abc import Mapping

from .bundle import CandidateAction, ObservationBundle

LOW_UTIL_THRESHOLD = 0.30
LOW_UTIL_TICKS = 30

_HEALTHY = "Healthy"


def _can_scale_down(stages: Mapping[str, Mapping]) -> bool:
    return any(s["alloc"] > s["min_alloc"] for s in stages.values())


def _can_scale_up(stages: Mapping[str, Mapping]) -> bool:
    return any(s["alloc"] < s["max_alloc"] for s in stages.values())


def _budget_allows(policy: Mapping, pending_units: int, extra_units: int) -> bool:
    projected = (
        policy["committed_spend"]
        + (pending_units + extra_units) * policy["unit_price"] * policy["window"]
    )
    return projected <= policy["budget_per_window"]


def _sustained_low(bundle: ObservationBundle, pid: str, meta: Mapping) -> bool:
    return (
        bundle.series[pid]["low_util_run"] >= LOW_UTIL_TICKS
        and bundle.tick - meta["alloc_changed_at"] >= LOW_UTIL_TICKS
    )


def optimize_propose(bundle: ObservationBundle) -> list[CandidateAction]:
    policy = bundle.policy
    step = policy["max_scale_step"]
    snapshot_pipelines = bundle.snapshot.get("pipelines", {})
    contended = bundle.snapshot.get("capacity_headroom", 0) < 0

    # One pass in pipeline order sorts every pipeline into the three rules.
    busy = []  # (-criticality, pid): shed while contended, least critical first
    idle = []  # pids given a step back, in id order
    breaching = []  # (criticality, pid): given a step within budget, most critical first
    for pid in sorted(bundle.pipelines):
        meta = bundle.pipelines[pid]
        stages = meta["stages"]
        sample = snapshot_pipelines.get(pid, {})
        shed = contended and sample.get("queue_depth", 0) > 0 and _can_scale_down(stages)
        if shed:
            busy.append((-meta["criticality"], pid))
        if meta["health"] != _HEALTHY or meta["recovering"]:
            continue
        if not shed and _sustained_low(bundle, pid, meta) and _can_scale_down(stages):
            idle.append(pid)
        target = meta["freshness_target"]
        if (
            target is not None
            and not meta["suppressed"]
            and sample.get("freshness_lag", 0) > target
            and _can_scale_up(stages)
        ):
            breaching.append((meta["criticality"], pid))

    candidates = [
        CandidateAction(
            kind="ScaleDown",
            pipeline=pid,
            delta_units=step,
            rationale="cluster over capacity; shedding least-critical load",
        )
        for _, pid in sorted(busy)
    ]
    candidates += [
        CandidateAction(
            kind="ScaleDown",
            pipeline=pid,
            delta_units=step,
            rationale=(
                f"utilization below {LOW_UTIL_THRESHOLD:.0%} for "
                f"{LOW_UTIL_TICKS} consecutive ticks"
            ),
        )
        for pid in idle
    ]
    pending_units = 0
    for _, pid in sorted(breaching):
        extra = step * len(bundle.pipelines[pid]["stages"])
        if not _budget_allows(policy, pending_units, extra):
            continue
        pending_units += extra
        candidates.append(
            CandidateAction(
                kind="ScaleUp",
                pipeline=pid,
                delta_units=step,
                rationale="freshness lag above target; adding capacity",
            )
        )

    return candidates

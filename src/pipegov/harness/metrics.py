"""Run metrics and controller comparisons.

MTTR is the arithmetic mean of (resumption tick − detection tick) over
closed incidents; incidents still open at the horizon are reported
separately and excluded from the mean. Freshness is the nearest-rank
95th percentile of per-tick lag, per streaming pipeline. Comparisons
express each metric as relative change (baseline − agentic)/baseline in
percent, omitting metrics that are absent (or zero in the baseline) so
degenerate runs never divide by zero.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

from ..core.pipeline import PipelineKind
from ..telemetry.metrics import UnknownSeries
from .runner import RunResult

# Scalar metrics compared between controllers, in report order.
COMPARED_METRICS = ("mttr_mean", "total_cost", "manual_interventions")


class ScenarioMismatch(ValueError):
    """Comparing runs that did not execute the same experiment."""


def percentile_nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(p*n)-th smallest sample."""

    if not values:
        raise ValueError("percentile of an empty series")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class MetricsReport:
    controller: str
    scenario_hash: str
    seed: int
    policy_version: int
    mttr_mean: float | None
    mttr_per_incident: tuple[dict, ...]
    unresolved_incidents: tuple[dict, ...]
    freshness_p95: dict[str, float]
    total_cost: float
    manual_interventions: int

    def to_dict(self) -> dict:
        return {
            "controller": self.controller,
            "scenario_hash": self.scenario_hash,
            "seed": self.seed,
            "policy_version": self.policy_version,
            "mttr_mean": self.mttr_mean,
            "mttr_per_incident": list(self.mttr_per_incident),
            "unresolved_incidents": list(self.unresolved_incidents),
            "freshness_p95": dict(self.freshness_p95),
            "total_cost": self.total_cost,
            "manual_interventions": self.manual_interventions,
        }


def compute_metrics(run: RunResult) -> MetricsReport:
    closed = [inc for inc in run.incidents if not inc.open]
    unresolved = [inc for inc in run.incidents if inc.open]
    durations = [inc.duration() for inc in closed]
    mttr_mean = sum(durations) / len(durations) if durations else None

    freshness: dict[str, float] = {}
    for pid in sorted(run.world.pipelines):
        if run.world.pipelines[pid].spec.kind is not PipelineKind.STREAMING:
            continue
        try:
            _, lags = run.store.columns(pid, "freshness_lag")
        except UnknownSeries:
            continue
        freshness[pid] = percentile_nearest_rank(lags, 95)

    return MetricsReport(
        controller=run.controller,
        scenario_hash=run.scenario_hash,
        seed=run.seed,
        policy_version=run.policy_version,
        mttr_mean=mttr_mean,
        mttr_per_incident=tuple(inc.to_dict() for inc in closed),
        unresolved_incidents=tuple(inc.to_dict() for inc in unresolved),
        freshness_p95=freshness,
        total_cost=run.total_cost,
        manual_interventions=run.interventions,
    )


@dataclass(frozen=True)
class ComparisonReport:
    scenario_hash: str
    seed: int
    policy_version: int
    baseline: MetricsReport
    agentic: MetricsReport
    deltas_percent: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "scenario_hash": self.scenario_hash,
            "seed": self.seed,
            "policy_version": self.policy_version,
            "baseline": self.baseline.to_dict(),
            "agentic": self.agentic.to_dict(),
            "deltas_percent": dict(self.deltas_percent),
        }


def _relative_change(before: float, after: float) -> float:
    return (before - after) / before * 100.0


def compare(baseline: MetricsReport, agentic: MetricsReport) -> ComparisonReport:
    """Relative improvement of the agentic run over the baseline.

    Positive deltas mean the agentic controller reduced the metric.
    Metrics absent from either run, or zero in the baseline, are left
    out of ``deltas_percent`` rather than divided by zero.
    """

    if baseline.scenario_hash != agentic.scenario_hash:
        raise ScenarioMismatch(
            f"scenario hash mismatch: {baseline.scenario_hash} != {agentic.scenario_hash}"
        )
    if baseline.seed != agentic.seed:
        raise ScenarioMismatch(f"seed mismatch: {baseline.seed} != {agentic.seed}")
    if baseline.policy_version != agentic.policy_version:
        raise ScenarioMismatch(
            f"policy version mismatch: {baseline.policy_version} != {agentic.policy_version}"
        )

    deltas: dict[str, float] = {}
    for metric in COMPARED_METRICS:
        before = getattr(baseline, metric)
        after = getattr(agentic, metric)
        if before is None or after is None or before == 0:
            continue
        deltas[metric] = _relative_change(float(before), float(after))
    for pid in sorted(set(baseline.freshness_p95) & set(agentic.freshness_p95)):
        before = baseline.freshness_p95[pid]
        if before == 0:
            continue
        deltas[f"freshness_p95.{pid}"] = _relative_change(before, agentic.freshness_p95[pid])

    return ComparisonReport(
        scenario_hash=baseline.scenario_hash,
        seed=baseline.seed,
        policy_version=baseline.policy_version,
        baseline=baseline,
        agentic=agentic,
        deltas_percent=deltas,
    )


@dataclass(frozen=True)
class AggregateComparison:
    """Mean ± stddev of per-seed comparisons on one scenario."""

    scenario_hash: str
    seeds: tuple[int, ...]
    policy_version: int
    per_seed: tuple[ComparisonReport, ...]
    mean_deltas: dict[str, float]
    stddev_deltas: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "scenario_hash": self.scenario_hash,
            "seeds": list(self.seeds),
            "policy_version": self.policy_version,
            "mean_deltas_percent": dict(self.mean_deltas),
            "stddev_deltas_percent": dict(self.stddev_deltas),
            "per_seed": [c.to_dict() for c in self.per_seed],
        }


def aggregate_comparisons(comparisons: list[ComparisonReport]) -> AggregateComparison:
    """Summarize per-seed comparisons; a delta is aggregated only when
    every seed produced it."""

    if not comparisons:
        raise ValueError("nothing to aggregate")
    keys = set(comparisons[0].deltas_percent)
    for comparison in comparisons[1:]:
        keys &= set(comparison.deltas_percent)
    mean_deltas: dict[str, float] = {}
    stddev_deltas: dict[str, float] = {}
    for key in sorted(keys):
        samples = [c.deltas_percent[key] for c in comparisons]
        mean_deltas[key] = statistics.mean(samples)
        stddev_deltas[key] = statistics.pstdev(samples)
    return AggregateComparison(
        scenario_hash=comparisons[0].scenario_hash,
        seeds=tuple(c.seed for c in comparisons),
        policy_version=comparisons[0].policy_version,
        per_seed=tuple(comparisons),
        mean_deltas=mean_deltas,
        stddev_deltas=stddev_deltas,
    )

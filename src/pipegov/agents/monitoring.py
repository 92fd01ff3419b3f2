"""Anomaly flagging over telemetry series.

The detector keeps an exponentially weighted mean and mean-absolute
deviation per series and flags samples that stray beyond k deviations
(with a deviation floor so constant series can never flag). Flags are
observations, not actions: hard failure signals open incidents through
the control loop's detection phase regardless of these statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

EWMA_ALPHA = 0.2
EWMA_K = 3.0
EWMA_SIGMA_FLOOR = 1.0
EWMA_MIN_SAMPLES = 5

WATCHED_METRICS = ("freshness_lag", "queue_depth", "ingress")


@dataclass(frozen=True)
class AnomalyFlag:
    tick: int
    pipeline: str
    metric: str
    value: float
    mean: float
    deviation: float

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "pipeline": self.pipeline,
            "metric": self.metric,
            "value": self.value,
            "mean": self.mean,
            "deviation": self.deviation,
        }


@dataclass
class EwmaState:
    mean: float = 0.0
    deviation: float = 0.0
    samples: int = 0

    def update(self, value: float) -> bool:
        """Fold in one sample; True when it is anomalous.

        The anomaly test runs against the statistics *before* the sample
        is folded in, once enough history exists (the current sample
        counts toward that minimum).
        """

        self.samples += 1
        flagged = False
        if self.samples >= EWMA_MIN_SAMPLES:
            threshold = EWMA_K * max(self.deviation, EWMA_SIGMA_FLOOR)
            flagged = abs(value - self.mean) > threshold
        prev_mean = self.mean
        if self.samples == 1:
            self.mean = value
        else:
            self.mean += EWMA_ALPHA * (value - self.mean)
            self.deviation += EWMA_ALPHA * (abs(value - prev_mean) - self.deviation)
        return flagged


class AnomalyDetector:
    """Per-(pipeline, metric) EWMA states fed from telemetry snapshots."""

    def __init__(self) -> None:
        self._states: dict[tuple[str, str], EwmaState] = {}

    def observe_sample(self, tick: int, pipeline: str, metric: str, value: float) -> AnomalyFlag | None:
        state = self._states.setdefault((pipeline, metric), EwmaState())
        mean, dev = state.mean, state.deviation
        if state.update(value):
            return AnomalyFlag(tick, pipeline, metric, value, mean, dev)
        return None

    def observe_snapshot(self, tick: int, snapshot: dict) -> list[AnomalyFlag]:
        """Scan one serialized TelemetrySnapshot; returns flags raised."""

        flags: list[AnomalyFlag] = []
        for pid in sorted(snapshot["pipelines"]):
            sample = snapshot["pipelines"][pid]
            for metric in WATCHED_METRICS:
                flag = self.observe_sample(tick, pid, metric, float(sample[metric]))
                if flag is not None:
                    flags.append(flag)
        return flags

"""Anomaly flagging over telemetry series.

The detector keeps an exponentially weighted mean and mean-absolute
deviation per series and flags samples that stray beyond k deviations
(with a deviation floor so constant series can never flag). Flags are
observations, not actions: hard failure signals open incidents through
the control loop's detection phase regardless of these statistics.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..simkernel.world import PipelineSample, TelemetrySnapshot

EWMA_ALPHA = 0.2
EWMA_K = 3.0
EWMA_SIGMA_FLOOR = 1.0
EWMA_MIN_SAMPLES = 5

WATCHED_METRICS = ("freshness_lag", "queue_depth", "ingress")
# Each watched metric with its index in a kernel PipelineSample.
_WATCHED = tuple((metric, PipelineSample._fields.index(metric)) for metric in WATCHED_METRICS)


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


@dataclass(slots=True)
class EwmaState:
    mean: float = 0.0
    deviation: float = 0.0
    samples: int = 0

    def update(self, value: float) -> bool:
        """Fold in one sample; True when it is anomalous (see ``_fold``)."""

        return bool(_fold({("", ""): self}, 0, {"": (value,)}, (("", 0),)))


def _fold(
    states: dict[tuple[str, str], EwmaState],
    tick: int,
    pipelines: Mapping[str, Sequence[float]],
    metrics: tuple[tuple[str, int], ...],
) -> list[AnomalyFlag]:
    """Fold each pipeline's (sorted) sample of each metric, in that order,
    into its series' state, creating missing states; returns the flags raised.
    ``metrics`` pairs each metric's name with its value's index in a sample.

    A sample is tested against the statistics *before* it is folded in,
    once enough history exists (the current sample counts toward that
    minimum): it is anomalous when it strays more than ``EWMA_K`` times
    the deviation, floored at ``EWMA_SIGMA_FLOOR``, from the mean.
    """

    flags: list[AnomalyFlag] = []
    alpha, k, floor, least = EWMA_ALPHA, EWMA_K, EWMA_SIGMA_FLOOR, EWMA_MIN_SAMPLES
    for pid in sorted(pipelines):
        sample = pipelines[pid]
        for metric, index in metrics:
            state = states.get((pid, metric))
            if state is None:
                state = states[(pid, metric)] = EwmaState()
            value = float(sample[index])
            mean, dev = state.mean, state.deviation
            samples = state.samples = state.samples + 1
            threshold = k * (floor if floor > dev else dev)  # k * max(dev, floor)
            if samples >= least and abs(value - mean) > threshold:
                flags.append(AnomalyFlag(tick, pid, metric, value, mean, dev))
            if samples == 1:
                state.mean = value
            else:
                state.mean = mean + alpha * (value - mean)
                state.deviation = dev + alpha * (abs(value - mean) - dev)
    return flags


class AnomalyDetector:
    """Per-(pipeline, metric) EWMA states fed from telemetry snapshots."""

    def __init__(self) -> None:
        self._states: dict[tuple[str, str], EwmaState] = {}

    def observe_sample(self, tick: int, pipeline: str, metric: str, value: float) -> AnomalyFlag | None:
        """Fold one sample of one series, as ``observe_snapshot`` folds each."""

        flags = _fold(self._states, tick, {pipeline: (value,)}, ((metric, 0),))
        return flags[0] if flags else None

    def mean(self, pipeline: str, metric: str) -> float:
        """The series' running mean; 0.0 before its first sample."""

        state = self._states.get((pipeline, metric))
        return state.mean if state is not None else 0.0

    def observe_snapshot(self, tick: int, snapshot: TelemetrySnapshot) -> list[AnomalyFlag]:
        """Scan the watched metrics of one kernel snapshot; returns flags raised."""

        return _fold(self._states, tick, snapshot.pipelines, _WATCHED)

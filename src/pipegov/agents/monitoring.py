"""Anomaly flagging over telemetry series, and each pipeline's record.

The detector keeps an exponentially weighted mean and mean-absolute
deviation per series and flags samples that stray beyond k deviations
(with a deviation floor so constant series can never flag). Flags are
observations, not actions: hard failure signals open incidents through
the control loop's detection phase regardless of these statistics.

A kernel snapshot is folded in one pass, pipelines in id order: each
pipeline's ``PipelineObservation`` record, then its watched series, whose
states are kept per pipeline. ``_fold`` is the one EWMA routine.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..simkernel.world import PipelineSample, TelemetrySnapshot
from .optimization import LOW_UTIL_THRESHOLD
from .recovery import STABLE_TICKS

EWMA_ALPHA = 0.2
EWMA_K = 3.0
EWMA_SIGMA_FLOOR = 1.0
EWMA_MIN_SAMPLES = 5

WATCHED_METRICS = ("freshness_lag", "queue_depth", "ingress")
# Each watched metric with its index in a kernel PipelineSample.
_WATCHED = tuple((metric, PipelineSample._fields.index(metric)) for metric in WATCHED_METRICS)


@dataclass(slots=True)
class PipelineObservation:
    """One pipeline's samples through the previous tick, as the detector
    folds them: the last ``STABLE_TICKS`` ingress values, newest last, and
    how many in a row, ending with the newest, had utilization below
    ``LOW_UTIL_THRESHOLD``. A new record stands for a pipeline not yet sampled."""

    ingress: deque[float] = field(default_factory=lambda: deque(maxlen=STABLE_TICKS))
    low_util_run: int = 0


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

        return bool(_fold({"": self}, 0, "", (value,), (("", 0),), []))


def _fold(
    row: dict[str, EwmaState],
    tick: int,
    pipeline: str,
    sample: Sequence[float],
    metrics: tuple[tuple[str, int], ...],
    flags: list[AnomalyFlag],
) -> list[AnomalyFlag]:
    """Fold one pipeline's sample of each metric, in that order, into its
    series' state in ``row``, creating missing states; appends the flags
    raised to ``flags`` and returns it. ``metrics`` pairs each metric's
    name with its value's index in ``sample``.

    A sample is tested against the statistics *before* it is folded in,
    once enough history exists (the current sample counts toward that
    minimum): it is anomalous when it strays more than ``EWMA_K`` times
    the deviation, floored at ``EWMA_SIGMA_FLOOR``, from the mean.
    """

    alpha, k, floor, least = EWMA_ALPHA, EWMA_K, EWMA_SIGMA_FLOOR, EWMA_MIN_SAMPLES
    for metric, index in metrics:
        state = row.get(metric)
        if state is None:
            state = row[metric] = EwmaState()
        value = sample[index]  # an int converts in each subtraction, as float() would
        mean, dev = state.mean, state.deviation
        spread = abs(value - mean)
        samples = state.samples = state.samples + 1
        threshold = k * (floor if floor > dev else dev)  # k * max(dev, floor)
        if samples >= least and spread > threshold:
            flags.append(AnomalyFlag(tick, pipeline, metric, float(value), mean, dev))
        if samples == 1:
            state.mean = float(value)
        else:
            state.mean = mean + alpha * (value - mean)
            state.deviation = dev + alpha * (spread - dev)
    return flags


class AnomalyDetector:
    """EWMA states per pipeline and metric, and each pipeline's record,
    fed from kernel snapshots."""

    def __init__(self) -> None:
        self._states: defaultdict[str, dict[str, EwmaState]] = defaultdict(dict)
        self.observations: defaultdict[str, PipelineObservation] = defaultdict(PipelineObservation)

    def observe_sample(self, tick: int, pipeline: str, metric: str, value: float) -> AnomalyFlag | None:
        """Fold one sample of one series, as ``observe_snapshot`` folds each."""

        flags = _fold(self._states[pipeline], tick, pipeline, (value,), ((metric, 0),), [])
        return flags[0] if flags else None

    def mean(self, pipeline: str, metric: str) -> float:
        """The series' running mean; 0.0 before its first sample."""

        state = self._states.get(pipeline, {}).get(metric)
        return state.mean if state is not None else 0.0

    def observe_snapshot(self, tick: int, snapshot: TelemetrySnapshot) -> list[AnomalyFlag]:
        """Fold one kernel snapshot, pipelines in id order: each pipeline's
        record, then its watched series; returns the flags raised."""

        flags: list[AnomalyFlag] = []
        states, observations, samples = self._states, self.observations, snapshot.pipelines
        for pid in sorted(samples):
            sample = samples[pid]
            record = observations[pid]
            record.ingress.append(float(sample.ingress))
            record.low_util_run = (
                record.low_util_run + 1 if sample.utilization < LOW_UTIL_THRESHOLD else 0
            )
            _fold(states[pid], tick, pid, sample, _WATCHED, flags)
        return flags

"""Per-pipeline metric series with strictly increasing ticks.

A series is identified by (scope, name) where scope is a pipeline id or the
reserved "cluster" scope for global series. Samples are (tick, value) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CLUSTER_SCOPE = "cluster"


class NonMonotonicTick(ValueError):
    pass


class UnknownSeries(KeyError):
    pass


@dataclass
class MetricStore:
    _series: dict[tuple[str, str], list[tuple[int, float]]] = field(default_factory=dict)

    def record_sample(self, scope: str, name: str, tick: int, value: float) -> None:
        key = (scope, name)
        samples = self._series.setdefault(key, [])
        if samples and tick <= samples[-1][0]:
            raise NonMonotonicTick(
                f"series {key}: tick {tick} is not after last tick {samples[-1][0]}"
            )
        samples.append((tick, value))

    def series(self, scope: str, name: str) -> list[tuple[int, float]]:
        key = (scope, name)
        if key not in self._series:
            raise UnknownSeries(f"no series {key}")
        return list(self._series[key])

    def series_keys(self) -> list[tuple[str, str]]:
        return sorted(self._series)

    def query_window(self, scope: str, name: str, window: int) -> list[tuple[int, float]]:
        """Samples with tick in (now - window, now], now = last recorded tick."""

        key = (scope, name)
        if key not in self._series:
            raise UnknownSeries(f"no series {key}")
        samples = self._series[key]
        if not samples:
            return []
        lo = samples[-1][0] - window
        # Ticks are recorded in ascending order, so the window is a tail
        # slice; scanning back from the end keeps this O(window).
        i = len(samples)
        while i > 0 and samples[i - 1][0] > lo:
            i -= 1
        return samples[i:]

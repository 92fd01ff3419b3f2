"""Per-pipeline metric series with strictly increasing ticks.

A series is identified by (scope, name) where scope is a pipeline id or the
reserved "cluster" scope for global series. Samples are (tick, value) pairs.

Each series is stored as two columns of equal length: an ``array('q')`` of
ticks and an ``array('d')`` of values, 16 bytes per sample instead of a
tuple and a boxed float each. Values are normally Python floats; the
first value of any other type turns that series' value column into a plain
list, so every value reads back exactly as it was recorded (an int stays an
int, and ``repr`` gives the same text). ``series`` builds a fresh list of
(tick, value) tuples, so a caller cannot change the store through it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

CLUSTER_SCOPE = "cluster"


class NonMonotonicTick(ValueError):
    pass


class UnknownSeries(KeyError):
    pass


@dataclass
class MetricStore:
    # (scope, name) -> (ticks, values)
    _series: dict[tuple[str, str], tuple[array, array | list]] = field(default_factory=dict)

    def record_sample(self, scope: str, name: str, tick: int, value: float) -> None:
        key = (scope, name)
        try:
            ticks, values = self._series[key]
        except KeyError:
            ticks, values = self._series[key] = (array("q"), array("d"))
        else:
            if ticks and tick <= ticks[-1]:
                raise NonMonotonicTick(
                    f"series {key}: tick {tick} is not after last tick {ticks[-1]}"
                )
        if type(value) is not float and type(values) is not list:
            values = list(values)
            self._series[key] = (ticks, values)
        ticks.append(tick)
        values.append(value)

    def _columns(self, scope: str, name: str) -> tuple[array, array | list]:
        key = (scope, name)
        if key not in self._series:
            raise UnknownSeries(f"no series {key}")
        return self._series[key]

    def series(self, scope: str, name: str) -> list[tuple[int, float]]:
        return list(zip(*self._columns(scope, name)))

    def series_keys(self) -> list[tuple[str, str]]:
        return sorted(self._series)

    def query_window(self, scope: str, name: str, window: int) -> list[tuple[int, float]]:
        """Samples with tick in (now - window, now], now = last recorded tick."""

        ticks, values = self._columns(scope, name)
        if not ticks:
            return []
        i = bisect_right(ticks, ticks[-1] - window)
        return list(zip(ticks[i:], values[i:]))

"""Per-pipeline metric series, kept as tables with strictly increasing ticks.

A series is identified by (scope, name) where scope is a pipeline id or the
reserved "cluster" scope for global series. Samples are (tick, value) pairs.

Series recorded together under one scope form a table. ``record_row(scope,
names, tick, row)`` appends the tick to the table's one ``array('q')`` tick
column, which all its series share, and the row's values, in ``names``
order, to one row-major ``array('d')``: series ``i`` of a ``w``-wide table
is the strided column ``values[i::w]``. ``record_sample`` is a row of one.
The runner records one five-series row per pipeline and one cost row per
tick.

Values are stored as doubles: an int reads back as ``float(int)`` and
``-0.0`` keeps its sign. A rejected call changes nothing. A call is
rejected for a tick that is not after the table's last tick, a row whose
width differs from its names, a name another table of the scope already
holds, or a value ``array('d')`` refuses (a string, an int beyond the
double range). Readers get fresh lists and arrays, so a caller cannot
change the store through them.
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
    # (scope, names) -> (ticks, row-major values)
    _tables: dict[tuple[str, tuple[str, ...]], tuple[array, array]] = field(default_factory=dict)
    # (scope, name) -> (ticks, values, column, width) of the table holding it
    _columns: dict[tuple[str, str], tuple[array, array, int, int]] = field(default_factory=dict)

    def record_row(self, scope: str, names: tuple[str, ...], tick: int, row: tuple[float, ...]) -> None:
        if len(row) != len(names):
            raise ValueError(f"table {(scope, names)}: {len(row)} values for {len(names)} series")
        try:
            ticks, values = self._tables[scope, names]
        except KeyError:
            self._open_table(scope, names, tick, row)
            return
        if tick <= ticks[-1]:
            raise NonMonotonicTick(
                f"table {(scope, names)}: tick {tick} is not after last tick {ticks[-1]}"
            )
        end = len(values)
        ticks.append(tick)
        try:
            values.extend(row)
        except BaseException:
            ticks.pop()
            del values[end:]
            raise

    def _open_table(self, scope: str, names: tuple[str, ...], tick: int, row: tuple[float, ...]) -> None:
        if not names or len(set(names)) < len(names) or any((scope, n) in self._columns for n in names):
            raise ValueError(f"table {(scope, names)}: names must be distinct and new to the scope")
        ticks, values = self._tables[scope, names] = (array("q", (tick,)), array("d", row))
        for i, name in enumerate(names):
            self._columns[scope, name] = (ticks, values, i, len(names))

    # Nothing in src/ calls it; tests do, and perfbench's tracer patches it by name.
    def record_sample(self, scope: str, name: str, tick: int, value: float) -> None:
        self.record_row(scope, (name,), tick, (value,))

    def _column(self, scope: str, name: str) -> tuple[array, array, int, int]:
        try:
            return self._columns[scope, name]
        except KeyError:
            raise UnknownSeries(f"no series {(scope, name)}") from None

    def columns(self, scope: str, name: str) -> tuple[array, array]:
        """The series' ticks and values, as two fresh arrays of equal length."""

        ticks, values, i, width = self._column(scope, name)
        return ticks[:], values[i::width]

    def series(self, scope: str, name: str) -> list[tuple[int, float]]:
        return list(zip(*self.columns(scope, name)))

    def series_keys(self) -> list[tuple[str, str]]:
        return sorted(self._columns)

    def query_window(self, scope: str, name: str, window: int) -> list[tuple[int, float]]:
        """Samples with tick in (now - window, now], now = last recorded tick."""

        ticks, values, i, width = self._column(scope, name)
        start = bisect_right(ticks, ticks[-1] - window)
        return list(zip(ticks[start:], values[start * width + i :: width]))

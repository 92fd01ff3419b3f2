"""Per-pipeline metric series, kept as tables with strictly increasing ticks.

A series is identified by (scope, name) where scope is a pipeline id or the
reserved "cluster" scope for global series. Samples are (tick, value) pairs.

Series recorded together form a table, keyed by its tuple of (scope, name)
columns, which may span scopes. ``record_row(columns, tick, row)`` appends
the tick to the table's one ``array('q')`` tick column, which all its
series share, and the row, a list of values in column order, to one
row-major ``array('d')``: series ``i`` of a ``w``-wide table is the strided
column ``values[i::w]``. ``record_sample`` is a row of one. The runner
records one row per tick: every pipeline's five series and the cluster
cost.

Values are stored as doubles: an int reads back as ``float(int)`` and
``-0.0`` keeps its sign. A rejected call changes nothing. A call is
rejected for a tick that is not after the table's last tick, a row that is
not a list or whose width differs from its columns, a column another table
already holds, or a value ``array('d')`` refuses (a string, an int beyond
the double range). Readers get fresh lists and arrays, so a caller cannot
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


Column = tuple[str, str]  # (scope, name)


@dataclass
class MetricStore:
    # columns -> (ticks, row-major values)
    _tables: dict[tuple[Column, ...], tuple[array, array]] = field(default_factory=dict)
    # (scope, name) -> (ticks, values, column, width) of the table holding it
    _columns: dict[Column, tuple[array, array, int, int]] = field(default_factory=dict)

    def record_row(self, columns: tuple[Column, ...], tick: int, row: list[float]) -> None:
        if len(row) != len(columns):
            raise ValueError(f"table {columns}: {len(row)} values for {len(columns)} series")
        try:
            ticks, values = self._tables[columns]
        except KeyError:
            self._open_table(columns, tick, row)
            return
        if tick <= ticks[-1]:
            raise NonMonotonicTick(f"table {columns}: tick {tick} is not after last tick {ticks[-1]}")
        ticks.append(tick)
        try:
            values.fromlist(row)  # all of the row or, on an error, none of it
        except BaseException:
            ticks.pop()
            raise

    def _open_table(self, columns: tuple[Column, ...], tick: int, row: list[float]) -> None:
        if not columns or len(set(columns)) < len(columns) or any(c in self._columns for c in columns):
            raise ValueError(f"table {columns}: columns must be distinct and held by no other table")
        ticks, values = array("q", (tick,)), array("d")
        values.fromlist(row)
        self._tables[columns] = (ticks, values)
        for i, column in enumerate(columns):
            self._columns[column] = (ticks, values, i, len(columns))

    # Nothing in src/ calls it; tests do, and perfbench's tracer patches it by name.
    def record_sample(self, scope: str, name: str, tick: int, value: float) -> None:
        self.record_row(((scope, name),), tick, [value])

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

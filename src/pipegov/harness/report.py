"""Deterministic experiment artifacts: JSON reports, CSV tables, audit logs.

Every writer here produces byte-identical output for identical inputs —
no timestamps, no environment data, sorted keys, fixed float repr — so
reruns can be diffed and the determinism acceptance check can compare
files directly. Writers require the output directory to exist; the CLI
creates it before delegating.

``telemetry.csv`` (about 310,000 rows per canonical run) is streamed into
the open file one series at a time, each read through
``MetricStore.columns`` as a tick column and a value column. Each row is
``f"{prefix}{tick},{value!r}"``, which is what ``csv.writer`` emits for an
int tick and a float value, but the parts are formatted once each: the csv
module quotes the ``scope,metric`` prefix once per series, the
``"{tick},"`` texts are reused while the next series' ticks are equal (a
run's series share one tick column), and each value's ``repr`` is made
once per distinct 64-bit pattern in the series. Keying by the pattern
rather than by float equality keeps ``-0.0`` apart from ``0.0`` and finds
a NaN again. The rows are then joined with the prefix between them.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterable, Iterator

import numpy as np

from ..telemetry.metrics import MetricStore
from .metrics import AggregateComparison, ComparisonReport, MetricsReport
from .runner import RunResult


class IoFailure(Exception):
    """An artifact could not be written."""


def _write_chunks(path: str, chunks: Iterable[str]) -> str:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def _write_text(path: str, text: str) -> str:
    return _write_chunks(path, (text,))


def _require_dir(out_dir: str) -> None:
    if not os.path.isdir(out_dir):
        raise IoFailure(f"output directory {out_dir!r} does not exist")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _metric_rows(report: MetricsReport) -> list[list]:
    rows: list[list] = []
    if report.mttr_mean is not None:
        rows.append([report.controller, "mttr_mean", report.mttr_mean])
    rows.append([report.controller, "total_cost", report.total_cost])
    rows.append([report.controller, "manual_interventions", report.manual_interventions])
    for pid in sorted(report.freshness_p95):
        rows.append([report.controller, f"freshness_p95.{pid}", report.freshness_p95[pid]])
    rows.append([report.controller, "incidents_closed", len(report.mttr_per_incident)])
    rows.append([report.controller, "incidents_unresolved", len(report.unresolved_incidents)])
    return rows


def emit_report(comparison: ComparisonReport, out_dir: str) -> list[str]:
    """Write comparison.json, metrics.csv, and plot-ready bar CSVs."""

    _require_dir(out_dir)
    written: list[str] = []

    written.append(
        _write_text(
            os.path.join(out_dir, "comparison.json"), _json_text(comparison.to_dict())
        )
    )

    rows = _metric_rows(comparison.baseline) + _metric_rows(comparison.agentic)
    written.append(
        _write_text(
            os.path.join(out_dir, "metrics.csv"),
            _csv_text(["controller", "metric", "value"], rows),
        )
    )

    mttr_rows = [
        [report.controller, "" if report.mttr_mean is None else report.mttr_mean]
        for report in (comparison.baseline, comparison.agentic)
    ]
    written.append(
        _write_text(
            os.path.join(out_dir, "mttr_bars.csv"),
            _csv_text(["controller", "mttr_mean"], mttr_rows),
        )
    )

    cost_rows = [
        [report.controller, report.total_cost]
        for report in (comparison.baseline, comparison.agentic)
    ]
    written.append(
        _write_text(
            os.path.join(out_dir, "cost_bars.csv"),
            _csv_text(["controller", "total_cost"], cost_rows),
        )
    )
    return written


def emit_aggregate_report(aggregate: AggregateComparison, out_dir: str) -> list[str]:
    """Write the multi-seed summary (mean ± stddev deltas plus per-seed detail)."""

    _require_dir(out_dir)
    return [
        _write_text(
            os.path.join(out_dir, "comparison.json"), _json_text(aggregate.to_dict())
        )
    ]


def write_run_artifacts(result: RunResult, out_dir: str) -> list[str]:
    """Persist one run: audit.jsonl, run.json summary, telemetry.csv."""

    _require_dir(out_dir)
    written: list[str] = []

    audit_path = os.path.join(out_dir, "audit.jsonl")
    try:
        result.audit.write_jsonl(audit_path)
    except OSError as exc:
        raise IoFailure(f"cannot write {audit_path}: {exc}") from exc
    written.append(audit_path)

    summary = {
        "controller": result.controller,
        "scenario_hash": result.scenario_hash,
        "seed": result.seed,
        "policy_version": result.policy_version,
        "horizon": result.horizon,
        "allocations": result.allocations,
        "interventions": result.interventions,
        "anomaly_flags": result.anomaly_flags,
        "total_cost": result.total_cost,
        "counters": result.counters,
        "incidents": [inc.to_dict() for inc in result.incidents],
        "memory": result.memory.extract(),
    }
    written.append(_write_text(os.path.join(out_dir, "run.json"), _json_text(summary)))

    written.append(
        _write_chunks(os.path.join(out_dir, "telemetry.csv"), _telemetry_chunks(result.store))
    )
    return written


def _telemetry_chunks(store: MetricStore) -> Iterator[str]:
    """telemetry.csv as one header chunk plus one chunk per series."""

    yield "scope,metric,tick,value\n"
    last_ticks = tick_texts = None
    for scope, name in store.series_keys():
        prefix = _csv_text([scope, name], [])[:-1] + ","
        ticks, values = store.columns(scope, name)
        if ticks != last_ticks:
            last_ticks, tick_texts = ticks, [f"{tick}," for tick in ticks]
        # One text per distinct 64-bit pattern: the value's repr, a newline
        # and the next row's prefix, which the last row does without.
        patterns, which = np.unique(np.frombuffer(values, np.int64), return_inverse=True)
        texts = np.array([f"{v!r}\n{prefix}" for v in patterns.view(np.float64).tolist()], dtype=object)
        parts = [prefix] * (2 * len(ticks) + 1)
        parts[1::2] = tick_texts
        parts[2::2] = texts[which].tolist()
        parts[-1] = parts[-1][: -len(prefix)]
        yield "".join(parts)

"""Spans around calls into pipegov's modules, installed from outside them.

The benchmark never edits ``src/``. Instead it replaces a function at the
place it is imported (``harness.runner.step``, ``agents.controller.apply_action``,
a class attribute such as ``Controller.tick``) with a wrapper that records a
span: name, start, end and the span that was open when it started. A span's
self time is its duration minus the durations of its child spans.

Two levels exist:

* ``Tracer(fine=False)`` wraps only the harness entry points
  (calibration, one controller run, metrics, report writers), which run a
  handful of times per sample, and every ``CHUNK_TICKS`` kernel steps
  stamps the clock and times one call of ``hostspeed.reference``, outside
  the chunks. Every timed sample uses it to split its wall time into phases
  and chunks and to measure how fast the host ran meanwhile.
* ``Tracer(fine=True)`` also wraps the per-tick calls of every layer and
  the counters the per-layer metrics need. It runs only in the separate
  traced sample.

The hottest leaves (``MetricStore.record_sample``, called 31 times per tick,
and ``MetricStore.query_window``) are counted in aggregate and get no span
each. Work a wrapper does for its own counters after the wrapped call
returns is charged to no layer: it ends up in ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import os
import time

from pipegov import cli
from pipegov.agents import backends, controller, monitoring
from pipegov.harness import baseline, runner
from pipegov.telemetry import audit, metrics

from hostspeed import reference

clock = time.perf_counter

AGENT_ACTORS = frozenset(
    a.value for a in controller.AGENT_PHASES if a is not controller.Actor.MONITORING_AGENT
)
FLAG_WINDOW = 5  # a flag within this many ticks of an incident's detection is "near"
CHUNK_TICKS = 100  # untraced samples stamp the clock every this many simulated ticks
SETUP_REFERENCES = 40  # reference() calls a set-up probe times at its first tick


class FirstTick(Exception):
    """Raised at the first simulated tick of a sample that measures set-up only."""


class Tracer:
    def __init__(self, fine: bool, setup_only: bool = False) -> None:
        self.fine = fine
        self.setup_only = setup_only
        self.first_tick: float | None = None  # CLOCK_MONOTONIC, comparable across processes
        # Each open span is [id, name, start, child_seconds].
        self._stack: list[list] = [[0, "root", 0.0, 0.0]]
        self._next_id = 1
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.cohorts_max = 0
        self.phase_ticks: list[tuple[str, int, float]] = []  # (phase, ticks, seconds)
        self.chunks: list[tuple[str, list[float]]] = []  # (phase, seconds per CHUNK_TICKS ticks)
        self.references: list[tuple[str, list[float]]] = []  # (phase, seconds per reference() call)
        # (before, after) each reference() call of the current phase; equal at the phase's ends
        self._marks: list[tuple[float, float]] = []
        self._flag_ticks: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span machinery

    def span(self, name: str, fn, pre=None, post=None):
        """Wrap ``fn`` so each call records a span called ``name``."""

        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self_s[name] = self_s.get(name, 0.0) + duration - frame[3]
                calls[name] = calls.get(name, 0) + 1
                spans.append((span_id, parent[0], name, frame[2], end))
                parent[3] += duration
            if post is not None:
                post(result, args, kwargs, duration)
                parent[3] += clock() - end
            return result

        return wrapper

    def leaf(self, name: str, fn, post=None):
        """Like ``span`` for a hot leaf: aggregate counts only, no span records."""

        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            duration = end - start
            stack[-1][3] += duration
            self_s[name] = self_s.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if post is not None:
                post(result)
                stack[-1][3] += clock() - end
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # harness entry points (both levels)

    def _mark_first_tick(self) -> None:
        if self.first_tick is None:
            self.first_tick = time.clock_gettime(time.CLOCK_MONOTONIC)
            if self.setup_only:
                reference()  # the first call warms the loop up
                times = []
                for _ in range(SETUP_REFERENCES):
                    before = clock()
                    reference()
                    times.append(clock() - before)
                self.references.append(("setup", times))
                raise FirstTick

    def _start_chunks(self) -> None:
        now = clock()
        self._marks = [(now, now)]

    def _end_chunks(self, phase: str) -> None:
        now = clock()
        marks = self._marks + [(now, now)]
        self.chunks.append((phase, [b[0] - a[1] for a, b in zip(marks, marks[1:])]))
        self.references.append((phase, [after - before for before, after in marks[1:-1]]))
        self._marks = []

    def calibrate_fn(self):
        def pre(args, kwargs):
            self._mark_first_tick()
            self._start_chunks()

        def post(allocations, args, kwargs, duration):
            self.phase_ticks.append(("calibration", args[0].horizon, duration))
            self._end_chunks("calibration")

        return self.span("harness.calibrate", baseline.derive_baseline_allocations, pre, post)

    def run_experiment_fn(self):
        def pre(args, kwargs):
            self._mark_first_tick()
            self._start_chunks()
            if self.fine:
                mode = kwargs.get("controller", "static")
                runner.step = self._step_wrappers[mode]
                self._flag_ticks = []

        def post(result, args, kwargs, duration):
            self.phase_ticks.append((result.controller, result.horizon, duration))
            self._end_chunks(result.controller)
            if self.fine:
                self._finish_run(result)

        return self.span("harness.run_experiment", runner.run_experiment, pre, post)

    def compute_metrics_fn(self):
        return self.span("harness.compute_metrics", cli.compute_metrics)

    def report_fn(self, fn):
        def post(paths, args, kwargs, duration):
            self.phase_ticks.append(("report", 0, duration))
            if self.fine:
                self.count("harness.report.bytes", sum(os.path.getsize(p) for p in paths))

        return self.span("harness.report", fn, post=post)

    def install_cli(self) -> None:
        """Route the ``compare`` command's harness calls through spans."""

        self._patch(cli, "derive_baseline_allocations", self.calibrate_fn())
        self._patch(cli, "run_experiment", self.run_experiment_fn())
        self._patch(cli, "compute_metrics", self.compute_metrics_fn())
        for attr in ("emit_report", "write_run_artifacts", "emit_aggregate_report"):
            self._patch(cli, attr, self.report_fn(getattr(cli, attr)))

    def install_chunk_clock(self) -> None:
        """Time a reference() call every CHUNK_TICKS kernel steps (untraced samples only)."""

        tracer = self

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(world, arrivals):
                if world.tick % CHUNK_TICKS == 0 and world.tick:
                    before = clock()
                    reference()
                    tracer._marks.append((before, clock()))
                return fn(world, arrivals)

            return wrapper

        self._patch(runner, "step", counted(runner.step))
        self._patch(baseline, "step", counted(baseline.step))

    # ------------------------------------------------------------------
    # per-layer wrappers (fine level only)

    def install_layers(self) -> None:
        span, leaf, count = self.span, self.leaf, self.count

        def cohorts(result, args, kwargs, duration):
            n = 0
            for p in args[0].pipelines.values():
                for s in p.stages.values():
                    n += len(s.queue)
            count("simkernel.queue_cohorts.sum", n)
            count("simkernel.queue_cohorts.samples")
            if n > self.cohorts_max:
                self.cohorts_max = n

        self._step_wrappers = {
            mode: span(f"simkernel.step.{mode}", runner.step, post=cohorts)
            for mode in runner.CONTROLLER_MODES
        }
        self._patch(runner, "step", self._step_wrappers["static"])
        self._patch(baseline, "step", span("simkernel.step.calibration", baseline.step, post=cohorts))

        arrivals = runner.generate_arrivals
        self._patch(runner, "generate_arrivals", span("scenario.generate_arrivals", arrivals))
        self._patch(baseline, "generate_arrivals", span("scenario.generate_arrivals", arrivals))
        self._patch(
            runner,
            "inject_faults",
            span(
                "scenario.inject_faults",
                runner.inject_faults,
                post=lambda r, a, k, d: count("scenario.faults_applied", len(r)),
            ),
        )
        self._patch(runner, "check_accounting", span("simkernel.check_accounting", runner.check_accounting))

        self._patch(
            controller,
            "apply_action",
            span(
                "simkernel.apply_action",
                controller.apply_action,
                post=lambda r, a, k, d: count("simkernel.actions_applied", int(r.applied)),
            ),
        )
        self._patch(
            controller,
            "validate_action",
            span(
                "policy.validate_action",
                controller.validate_action,
                post=lambda r, a, k, d: count(f"policy.verdict.{r.verdict.name.lower()}"),
            ),
        )

        def agent_proposals(report, args, kwargs, duration):
            count("agents.proposals", sum(1 for p in report.proposals if p.agent.value in AGENT_ACTORS))

        self._patch(
            controller.Controller, "tick", span("agents.tick", controller.Controller.tick, post=agent_proposals)
        )

        def flags(result, args, kwargs, duration):
            self._flag_ticks.extend(flag.tick for flag in result)

        self._patch(
            monitoring.AnomalyDetector,
            "observe_snapshot",
            span("agents.observe_snapshot", monitoring.AnomalyDetector.observe_snapshot, post=flags),
        )
        self._patch(
            backends.BuiltinBackend,
            "decide",
            span(
                "agents.decide",
                backends.BuiltinBackend.decide,
                post=lambda r, a, k, d: count("agents.candidates", len(r)),
            ),
        )
        self._patch(audit.AuditLog, "append", span("telemetry.audit_append", audit.AuditLog.append))
        self._patch(
            metrics.MetricStore,
            "record_sample",
            leaf("telemetry.record_sample", metrics.MetricStore.record_sample),
        )
        self._patch(
            metrics.MetricStore,
            "query_window",
            leaf(
                "telemetry.query_window",
                metrics.MetricStore.query_window,
                post=lambda r: count("telemetry.query_window.samples", len(r)),
            ),
        )

    def _finish_run(self, result) -> None:
        detections = [inc.detected_tick for inc in result.incidents]
        near = sum(
            1 for t in self._flag_ticks if any(abs(t - d) <= FLAG_WINDOW for d in detections)
        )
        self.count("agents.anomaly_flags", len(self._flag_ticks))
        self.count("agents.flags_near_incident", near)
        self.count("telemetry.audit_bytes", len(result.audit.to_jsonl().encode("utf-8")))

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self, simulated_s: float) -> dict[str, float]:
        """Per-layer totals; ``simulated_s`` is the sample's first tick to its end."""

        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        modes = ("calibration",) + runner.CONTROLLER_MODES
        for mode in modes:
            out[f"simkernel.step.calls.{mode}"] = calls.get(f"simkernel.step.{mode}", 0)
            out[f"simkernel.step.self_s.{mode}"] = self_s.get(f"simkernel.step.{mode}", 0.0)
        out["simkernel.step.calls"] = sum(out[f"simkernel.step.calls.{m}"] for m in modes)
        out["simkernel.step.self_s"] = sum(out[f"simkernel.step.self_s.{m}"] for m in modes)
        for name in (
            "scenario.generate_arrivals",
            "simkernel.apply_action",
            "agents.tick",
            "agents.decide",
            "policy.validate_action",
            "telemetry.record_sample",
            "telemetry.query_window",
            "telemetry.audit_append",
        ):
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in (
            "scenario.generate_arrivals",
            "scenario.inject_faults",
            "simkernel.apply_action",
            "simkernel.check_accounting",
            "agents.tick",
            "agents.observe_snapshot",
            "agents.decide",
            "policy.validate_action",
            "telemetry.record_sample",
            "telemetry.query_window",
            "telemetry.audit_append",
            "telemetry.audit_write",
            "telemetry.audit_replay",
            "harness.calibrate",
            "harness.run_experiment",
            "harness.compute_metrics",
            "harness.report",
        ):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["scenario.faults_applied"] = counts.get("scenario.faults_applied", 0)
        out["simkernel.actions_applied_ratio"] = ratio(
            counts.get("simkernel.actions_applied", 0), calls.get("simkernel.apply_action", 0)
        )
        out["simkernel.queue_cohorts.mean"] = ratio(
            counts.get("simkernel.queue_cohorts.sum", 0), counts.get("simkernel.queue_cohorts.samples", 0)
        )
        out["simkernel.queue_cohorts.max"] = self.cohorts_max
        out["agents.anomaly_flags"] = counts.get("agents.anomaly_flags", 0)
        out["agents.flag_precision"] = ratio(
            counts.get("agents.flags_near_incident", 0), counts.get("agents.anomaly_flags", 0)
        )
        out["agents.candidates"] = counts.get("agents.candidates", 0)
        out["agents.proposals"] = counts.get("agents.proposals", 0)
        out["agents.proposal_ratio"] = ratio(out["agents.proposals"], out["agents.candidates"])
        for verdict in ("allow", "deny", "require_approval"):
            out[f"policy.verdict.{verdict}"] = counts.get(f"policy.verdict.{verdict}", 0)
        out["telemetry.query_window.samples"] = counts.get("telemetry.query_window.samples", 0)
        out["telemetry.audit_bytes"] = counts.get("telemetry.audit_bytes", 0)
        out["harness.report.bytes"] = counts.get("harness.report.bytes", 0)
        out["trace.unattributed_s"] = simulated_s - sum(self_s.values())
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")

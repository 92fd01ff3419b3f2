"""Static-orchestration baseline: fixed allocations plus retry/escalate.

The baseline controller is the shared control chassis with every
reasoning agent disabled — identical incident detection, identical
retry-then-operator fallback, identical policy gate and audit trail.
What makes it "static" is captured here: allocations are frozen at the
start of the run, sized from a fault-free calibration pass so each stage
holds peak demand times a headroom factor, and never change afterwards.

Calibration builds no world. Without faults every pipeline stays healthy,
unpaused and undrifted, and with every stage at max allocation on a
cluster as large as their sum nothing contends, so pipelines are
independent and each stage is a FIFO serving a fixed rate per tick (the
Lindley recursion). The pass takes one pipeline at a time over its column
of the arrival trace. Where no stage fans out, each stage's queue has the
prefix-sum form q = S - min(0, running min of S), S = cumsum(inflow -
rate), computed in integer numpy. A pipeline with a stage that fans out,
whose least-loaded routing depends on each piece, and a column whose
prefix sums could overflow int64 are replayed count by count instead,
exactly as ``step`` takes, splits and routes cohorts. Either way the
per-stage peaks are the most records each stage's queue gives up in one
``step`` in the same regime; property tests over random pipeline graphs
check them against ``step``, and the prefix sums against the replay.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..agents.controller import OperatorModel
from ..core.pipeline import PipelineSpec, stage_topology
from ..scenario.arrivals import arrival_trace, generate_arrivals
from ..scenario.model import ScenarioSpec
from ..simkernel import kernel
from ..simkernel.world import checked_pipelines

DEFAULT_HEADROOM = 1.5
_INT64_MAX = int(np.iinfo(np.int64).max)

# Calibration never steps the kernel. The name stays bound because
# perfbench's tracer patches ``baseline.step`` by name, as it does
# ``MetricStore.query_window``.
step = kernel.step


@dataclass(frozen=True)
class BaselineConfig:
    """Fixed allocations and the operator model for the baseline run."""

    allocations: dict[str, dict[str, int]]
    operator: OperatorModel = OperatorModel()

    def validate_against(self, spec: ScenarioSpec) -> None:
        """Check every allocation is within its stage's [min, max] bounds."""

        for pipeline in spec.pipelines:
            stage_allocs = self.allocations.get(pipeline.id)
            if stage_allocs is None:
                raise ValueError(f"no allocations for pipeline {pipeline.id!r}")
            for stage in pipeline.stages:
                units = stage_allocs.get(stage.id)
                if units is None:
                    raise ValueError(
                        f"no allocation for stage {pipeline.id}/{stage.id}"
                    )
                if not stage.min_alloc <= units <= stage.max_alloc:
                    raise ValueError(
                        f"allocation {units} for {pipeline.id}/{stage.id} outside "
                        f"[{stage.min_alloc}, {stage.max_alloc}]"
                    )


def stage_peaks(pipeline: PipelineSpec, arrivals) -> dict[str, int]:
    """Peak records each stage processes in one tick, ``arrivals[t]`` arriving on tick t.

    Every stage runs at ``base_rate * max_alloc`` with no fault and no
    contention, as in ``step``: arrivals join the first stage in
    topological order, stages serve their queues in that order, and what
    a stage serves joins a downstream queue on the same tick, or leaves
    the sink. Where no stage fans out, each queue follows Lindley's
    recursion q_t = max(0, q_{t-1} + in_t - rate), so
    q_t = S_t - min(0, min_{s<=t} S_s) with S = cumsum(in - rate)
    (``_closed_form_peaks``). A pipeline with a stage that fans out, and
    arrivals whose prefix sums could overflow int64, are replayed count by
    count (``_replayed_peaks``). Both end with a conservation check and
    raise ``InconsistentWorld`` when records went missing.
    """

    peaks = _closed_form_peaks(pipeline, arrivals)
    return _replayed_peaks(pipeline, arrivals) if peaks is None else peaks


def _stage_graph(pipeline: PipelineSpec) -> tuple[list[str], list[list[int]], list[int]]:
    """Stage ids in topological order, each stage's downstream indices in id order, and rates."""

    topo = stage_topology(pipeline)
    index = {sid: i for i, sid in enumerate(topo)}
    downstream: list[list[int]] = [[] for _ in topo]
    for stage in sorted(pipeline.stages, key=lambda s: s.id):
        for up in stage.upstream:
            downstream[index[up]].append(index[stage.id])
    by_id = {s.id: s for s in pipeline.stages}
    return topo, downstream, [by_id[sid].base_rate * by_id[sid].max_alloc for sid in topo]


def _closed_form_peaks(pipeline: PipelineSpec, arrivals) -> dict[str, int] | None:
    """``stage_peaks`` from the prefix-sum form, or None where it does not apply.

    It does not apply to a pipeline with a stage that fans out, nor to
    arrivals whose prefix sums could leave int64.
    """

    topo, downstream, rates = _stage_graph(pipeline)
    if any(len(targets) > 1 for targets in downstream):
        return None
    try:
        column = np.asarray(arrivals, np.int64)  # no copy of an array('q') column
    except OverflowError:
        return None
    if not len(column):
        return dict.fromkeys(topo, 0)
    # Every |S_t| is at most the ticks times the larger of the top count and the rate.
    if len(column) * max(int(column.max()), *rates) > _INT64_MAX:
        return None

    # Records enter at the first stage only, and with no fan-out they take
    # one path from it to the sink; a stage off that path never holds any.
    path = [0]
    while downstream[path[-1]]:
        path.append(downstream[path[-1]][0])
    peaks = dict.fromkeys(topo, 0)
    served, queued = column, 0
    for i in path:
        into = served  # what the stage before served, on the same tick
        queue = np.subtract(into, rates[i])
        np.cumsum(queue, out=queue)  # S, then the queue
        floor = np.minimum.accumulate(queue)
        np.minimum(floor, 0, out=floor)
        queue -= floor
        # served on tick t: q_{t-1} + in_t - q_t, written over the floor
        served = np.subtract(into, queue, out=floor)
        served[1:] += queue[:-1]
        peaks[topo[i]] = int(served.max())
        queued += int(queue[-1])
        del into, queue
    sunk = int(served.sum())
    arrived = int(column.sum())
    if arrived != sunk + queued:
        raise kernel.InconsistentWorld(
            f"pipeline {pipeline.id}: ingress {arrived} != materialized {sunk} + queued {queued}"
        )
    return peaks


def _replayed_peaks(pipeline: PipelineSpec, arrivals) -> dict[str, int]:
    """``stage_peaks`` by replaying each stage's queue as a deque of record counts.

    Counts are taken, split and routed exactly as ``step`` takes, splits
    and routes cohorts: stages take from their queue heads in topological
    order (splitting a head count when the rate ends inside it), and each
    count taken joins the least-loaded downstream queue, ties going to the
    lower stage id, or leaves the sink.
    """

    topo, downstream, rates = _stage_graph(pipeline)
    queues: list[deque[int]] = [deque() for _ in topo]
    totals = [0] * len(topo)  # records in each queue
    peaks = [0] * len(topo)
    served = list(zip(range(len(topo)), rates, queues, downstream))
    arrived = sunk = 0
    for count in arrivals:
        if count > 0:
            queues[0].append(count)
            totals[0] += count
            arrived += count
        for i, rate, queue, targets in served:
            queued = totals[i]
            if not queued:
                continue
            take = rate if rate < queued else queued
            totals[i] = queued - take
            if take > peaks[i]:
                peaks[i] = take
            while take:
                head = queue[0]
                if head <= take:
                    queue.popleft()
                else:
                    queue[0] = head - take
                    head = take
                take -= head
                if targets:
                    # a single downstream leaves no choice to weigh
                    target = targets[0] if len(targets) == 1 else min(targets, key=totals.__getitem__)
                    queues[target].append(head)
                    totals[target] += head
                else:
                    sunk += head

    for sid, queue, total in zip(topo, queues, totals):
        if sum(queue) != total:
            raise kernel.InconsistentWorld(
                f"pipeline {pipeline.id} stage {sid}: queue total {total} != recount {sum(queue)}"
            )
    if arrived != sunk + sum(totals):
        raise kernel.InconsistentWorld(
            f"pipeline {pipeline.id}: ingress {arrived} != materialized {sunk} + queued {sum(totals)}"
        )
    return dict(zip(topo, peaks))


def derive_baseline_allocations(spec: ScenarioSpec) -> dict[str, dict[str, int]]:
    """Size fixed allocations from a fault-free calibration pass.

    ``stage_peaks`` serves each pipeline's arrivals with every stage at
    max allocation and nothing contending, without building a world. Peak
    per-stage demand (processed records over base rate, in units) times
    ``DEFAULT_HEADROOM`` — clamped to stage bounds — becomes the static
    allocation. Raises ValueError for a repeated pipeline id or a
    structurally invalid pipeline, as ``build_world`` does.
    """

    checked_pipelines(spec.pipelines)
    # Draws go through this module's name, which perfbench's tracer wraps.
    trace = arrival_trace(spec, generate_arrivals)
    allocations: dict[str, dict[str, int]] = {}
    for pipeline in spec.pipelines:
        try:
            arrivals = trace.column(pipeline.id)
        except KeyError:  # no workload model: nothing arrives, as step reads 0
            arrivals = ()
        # ceil is monotone, so the peak's ceil(processed / base_rate) is the
        # peak of the per-tick units.
        peaks = stage_peaks(pipeline, arrivals)
        stage_allocs: dict[str, int] = {}
        for stage in pipeline.stages:
            units = max(1, math.ceil(peaks[stage.id] / stage.base_rate))
            want = math.ceil(DEFAULT_HEADROOM * units)
            stage_allocs[stage.id] = max(stage.min_alloc, min(stage.max_alloc, want))
        allocations[pipeline.id] = stage_allocs
    return allocations

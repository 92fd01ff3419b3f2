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
Lindley recursion). The pass replays that for one pipeline at a time over
its column of the arrival trace, holding each stage's queue as a deque of
record counts, and takes, splits and routes those counts exactly as
``step`` takes, splits and routes cohorts. Its per-stage peaks are
therefore the most records each stage's queue gives up in one ``step`` in
the same regime; a property test over random pipeline graphs checks them
against ``step``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..agents.controller import OperatorModel
from ..core.pipeline import PipelineSpec, stage_topology
from ..scenario.arrivals import arrival_trace, generate_arrivals
from ..scenario.model import ScenarioSpec
from ..simkernel import kernel
from ..simkernel.world import checked_pipelines

DEFAULT_HEADROOM = 1.5

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
    topological order, stages take from their queue heads in that order
    (splitting a head count when the rate ends inside it), and each count
    taken joins the least-loaded downstream queue, ties going to the lower
    stage id, or leaves the sink. Ends with a conservation check; raises
    ``InconsistentWorld`` when records went missing.
    """

    topo = stage_topology(pipeline)
    index = {sid: i for i, sid in enumerate(topo)}
    downstream: list[list[int]] = [[] for _ in topo]
    for stage in sorted(pipeline.stages, key=lambda s: s.id):
        for up in stage.upstream:
            downstream[index[up]].append(index[stage.id])
    by_id = {s.id: s for s in pipeline.stages}
    rates = [by_id[sid].base_rate * by_id[sid].max_alloc for sid in topo]
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

    ``stage_peaks`` replays each pipeline's arrivals with every stage at
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

"""Experiment runner: one scenario, one controller, one deterministic run.

The per-tick cycle is fixed: inject the faults scheduled for the tick
(``inject_faults`` is called only on a tick that has one), run the control
loop (which sees the faults and the previous tick's telemetry), take the
tick's arrivals from the scenario's arrival trace (drawn once per
scenario hash and shared with calibration), advance the simulation
kernel, then record telemetry as one store row: each pipeline's five
series, in the snapshot's pipeline order, then the cluster cost. Repeat
for the scenario horizon. Everything downstream — metrics, comparisons,
reports — consumes the RunResult this produces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import chain

from ..agents.backends import BuiltinBackend, ReasoningBackend
from ..agents.bundle import OutcomeMemory
from ..agents.controller import Controller
from ..core.actions import Actor
from ..policy.model import PolicyDocument
from ..scenario.arrivals import arrival_trace, generate_arrivals
from ..scenario.faults import inject_faults
from ..scenario.model import ScenarioSpec, scenario_hash, validate_scenario
from ..simkernel.kernel import check_accounting, step
from ..simkernel.world import SimWorld, TickReport, build_world
from ..telemetry.audit import AuditLog
from ..telemetry.incidents import Incident
from ..telemetry.metrics import CLUSTER_SCOPE, MetricStore
from .baseline import BaselineConfig, derive_baseline_allocations

CONTROLLER_MODES = ("static", "agentic")

# The series recorded from each PipelineSample, one name per field in field order.
SAMPLE_SERIES = ("queue_depth", "freshness_lag", "failure_rate", "utilization", "ingress")


@dataclass
class RunResult:
    """Everything one experiment produced."""

    controller: str
    scenario_hash: str
    seed: int
    policy_version: int
    horizon: int
    allocations: dict[str, dict[str, int]]
    audit: AuditLog
    store: MetricStore
    incidents: list[Incident]
    interventions: int
    memory: OutcomeMemory
    anomaly_flags: int
    total_cost: float
    counters: dict[str, int]
    world: SimWorld


def reseed(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    """The same scenario with a different arrival/fault seed."""

    return spec if seed == spec.seed else replace(spec, seed=seed)


def run_experiment(
    spec: ScenarioSpec,
    policy: PolicyDocument,
    controller: str = "static",
    backend: ReasoningBackend | None = None,
    config: BaselineConfig | None = None,
) -> RunResult:
    """Simulate the scenario horizon under one controller mode."""

    if controller not in CONTROLLER_MODES:
        raise ValueError(f"controller must be one of {CONTROLLER_MODES}, got {controller!r}")
    issues = validate_scenario(spec)
    if issues:
        raise ValueError(f"scenario invalid: {issues[0].code}: {issues[0].message}")

    if config is None:
        config = BaselineConfig(allocations=derive_baseline_allocations(spec))
    config.validate_against(spec)

    world = build_world(
        spec.pipelines, spec.resource_model, config.allocations, spec.sim_constants
    )
    audit = AuditLog()
    store = MetricStore()
    loop = Controller(
        policy=policy,
        audit=audit,
        backend=(backend or BuiltinBackend()) if controller == "agentic" else None,
        operator=config.operator,
    )

    spec_hash = scenario_hash(spec)
    audit.append(
        0,
        Actor.POLICY_ENGINE,
        {
            "kind": "policy_change",
            "event": "run_start",
            "controller": controller,
            "scenario_hash": spec_hash,
            "seed": spec.seed,
            "allocations": config.allocations,
            "operator": asdict(config.operator),
            "policy": policy.to_dict(),
        },
        policy.version,
    )

    # One column per recorded value, in the order of the kernel snapshot's
    # pipelines, which is world.pipeline_ids() order.
    columns = tuple((pid, name) for pid in world.pipeline_ids() for name in SAMPLE_SERIES)
    columns += ((CLUSTER_SCOPE, "cost"),)
    prev_report: TickReport | None = None
    total_cost = 0.0
    flags_total = 0
    # Draws go through this module's name, which perfbench's tracer wraps.
    trace = arrival_trace(spec, generate_arrivals)
    fault_ticks = {event.tick for event in spec.fault_schedule}
    for t in range(spec.horizon):
        applied = inject_faults(spec, world, t) if t in fault_ticks else []
        control = loop.tick(world, t, applied, prev_report)
        flags_total += len(control.flags)
        report = step(world, trace.at(t))
        row = [*chain.from_iterable(report.snapshot.pipelines.values()), report.cost]
        store.record_row(columns, t, row)
        total_cost += report.cost
        prev_report = report

    check_accounting(world)
    return RunResult(
        controller=controller,
        scenario_hash=spec_hash,
        seed=spec.seed,
        policy_version=policy.version,
        horizon=spec.horizon,
        allocations=config.allocations,
        audit=audit,
        store=store,
        incidents=list(loop.incidents.values()),
        interventions=loop.interventions,
        memory=loop.memory,
        anomaly_flags=flags_total,
        total_cost=total_cost,
        counters=world.counters(),
        world=world,
    )

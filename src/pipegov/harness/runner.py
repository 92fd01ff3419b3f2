"""Experiment runner: one scenario, one controller, one deterministic run.

The per-tick cycle is fixed: inject scheduled faults, run the control
loop (which sees the faults and the previous tick's telemetry), take the
tick's arrivals from the scenario's arrival trace (drawn once per
scenario hash and shared with calibration), advance the simulation
kernel, then record telemetry. Repeat for the scenario horizon. Everything downstream — metrics, comparisons,
reports — consumes the RunResult this produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..agents.backends import ReasoningBackend
from ..agents.bundle import OutcomeMemory
from ..agents.controller import Controller, OperatorModel
from ..core.actions import Actor
from ..policy.model import PolicyDocument
from ..scenario.arrivals import arrival_trace, generate_arrivals
from ..scenario.faults import inject_faults
from ..scenario.model import ScenarioSpec, scenario_hash, validate_scenario
from ..simkernel.kernel import check_accounting, step
from ..simkernel.world import SimWorld, TickReport, build_world
from ..telemetry.audit import AuditLog
from ..telemetry.incidents import Incident, IncidentRegistry
from ..telemetry.metrics import CLUSTER_SCOPE, MetricStore
from .baseline import BaselineConfig, derive_baseline_allocations

CONTROLLER_MODES = ("static", "agentic")


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

    if seed == spec.seed:
        return spec
    raw = spec.to_dict()
    raw["seed"] = seed
    return ScenarioSpec.from_dict(raw)


def run_experiment(
    spec: ScenarioSpec,
    policy: PolicyDocument,
    controller: str = "static",
    backend: ReasoningBackend | None = None,
    config: BaselineConfig | None = None,
    seed: int | None = None,
) -> RunResult:
    """Simulate the scenario horizon under one controller mode."""

    if controller not in CONTROLLER_MODES:
        raise ValueError(f"controller must be one of {CONTROLLER_MODES}, got {controller!r}")
    if seed is not None:
        spec = reseed(spec, seed)
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
    registry = IncidentRegistry()
    store = MetricStore()
    loop = Controller(
        policy=policy,
        resource_model=spec.resource_model,
        audit=audit,
        registry=registry,
        store=store,
        backend=backend,
        agents_enabled=(controller == "agentic"),
        operator=OperatorModel(
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
            operator_delay=config.operator_delay,
        ),
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
            "operator": {
                "max_retries": config.max_retries,
                "retry_backoff": config.retry_backoff,
                "operator_delay": config.operator_delay,
            },
            "policy": policy.to_dict(),
        },
        policy.version,
    )

    prev_report: TickReport | None = None
    total_cost = 0.0
    flags_total = 0
    # Draws go through this module's name, which perfbench's tracer wraps.
    trace = arrival_trace(spec, generate_arrivals)
    for t in range(spec.horizon):
        applied = inject_faults(spec, world, t)
        control = loop.tick(world, t, applied, prev_report)
        flags_total += len(control.flags)
        report = step(world, trace.at(t))
        loop.observe_report(report)
        for pid, sample in report.snapshot.pipelines.items():
            store.record_sample(pid, "freshness_lag", t, float(sample.freshness_lag))
            store.record_sample(pid, "queue_depth", t, float(sample.queue_depth))
            store.record_sample(pid, "failure_rate", t, float(sample.failure_count))
            store.record_sample(pid, "utilization", t, float(sample.utilization))
            store.record_sample(pid, "ingress", t, float(sample.ingress))
        store.record_sample(CLUSTER_SCOPE, "cost", t, report.cost)
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
        incidents=registry.all_incidents(),
        interventions=loop.interventions,
        memory=loop.memory,
        anomaly_flags=flags_total,
        total_cost=total_cost,
        counters=world.counters(),
        world=world,
    )

"""Workload traces and scripted fault injection."""

from pipegov.scenario.arrivals import arrival_trace, generate_arrivals, tick_rng
from pipegov.scenario.canonical import canonical_scenario, default_policy, default_policy_dict
from pipegov.scenario.drift import NoEligibleChange, mutate_schema
from pipegov.scenario.faults import UnknownPipeline, inject_faults
from pipegov.scenario.model import (
    ArrivalModel,
    BatchModel,
    FaultEvent,
    FaultKind,
    ScenarioError,
    ScenarioSpec,
    parse_scenario,
    scenario_hash,
    validate_scenario,
)

__all__ = [
    "ArrivalModel",
    "BatchModel",
    "FaultEvent",
    "FaultKind",
    "NoEligibleChange",
    "ScenarioError",
    "ScenarioSpec",
    "UnknownPipeline",
    "arrival_trace",
    "canonical_scenario",
    "default_policy",
    "default_policy_dict",
    "generate_arrivals",
    "inject_faults",
    "mutate_schema",
    "parse_scenario",
    "scenario_hash",
    "tick_rng",
    "validate_scenario",
]

"""The reference experiment: loaders for the committed scenario and policy.

``scenarios/canonical.json`` and ``policies/default.json`` are the only
definition of the reference experiment; these loaders read them from the
checkout this package sits in. Six pipelines (four daily batch, two
streaming) share a 64-unit cluster over a 10,000-tick horizon and face
twelve scripted faults:

- two compatible schema drifts (metrics-stream, catalog-batch): controls
  that must cause no incident, so a controller that overreacts shows;
- four upstream delays, each swallowing one batch boundary;
- an incompatible drift on risk-batch, quarantinable without approval;
- an incompatible drift on the regulated events-stream, whose quarantine
  the policy sends for approval;
- two capacity squeezes and two transient task failures.

The policy bounds what the controllers may do about it.
"""

from __future__ import annotations

import json
from pathlib import Path

from pipegov.scenario.model import ScenarioSpec, parse_scenario

_REPO = Path(__file__).resolve().parents[3]


def canonical_scenario() -> ScenarioSpec:
    return parse_scenario((_REPO / "scenarios" / "canonical.json").read_text(encoding="utf-8"))


def default_policy_dict() -> dict:
    """The governance policy as its JSON document form, fresh on each call."""

    return json.loads((_REPO / "policies" / "default.json").read_text(encoding="utf-8"))

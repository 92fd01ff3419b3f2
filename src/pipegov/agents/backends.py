"""Pluggable reasoning backends.

A backend is anything with a ``decide(bundle) -> list[CandidateAction]``
method that is a pure function of the bundle. The builtin backend runs
the deterministic heuristics in this package; the stub backend replays
scripted responses from a JSON file so tests can stand in for an
external reasoning service. ``make_backend`` resolves the CLI selector
(``builtin``, ``builtin:<agent>[,<agent>...]``, ``null`` or
``stub:<path>``). Whatever a backend raises, the control loop records it as
a ``backend_violation`` and asks the builtin rules instead.

Each builtin rule comes with its trigger, which says from the
controller's own state (``ControlState``) whether the rule can act. A
backend whose ``decide`` is ``BuiltinBackend.decide`` is asked only for
the agents whose trigger holds; any other backend, a subclass that
overrides ``decide`` included, is asked for every agent on every tick.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Protocol

from ..core.actions import Actor
from ..core.reader import list_of
from .bundle import CandidateAction, ObservationBundle
from .optimization import optimization_wakes, optimize_propose
from .recovery import recovery_candidates, recovery_wakes
from .schema_agent import schema_candidates, schema_wakes


class BackendError(ValueError):
    """A backend response that cannot be interpreted as candidates."""


class ReasoningBackend(Protocol):
    def decide(self, bundle: ObservationBundle) -> list[CandidateAction]: ...


# The builtin rule and trigger of each reasoning agent, keyed by its actor value.
_BUILTIN_RULES = {
    Actor.OPTIMIZATION_AGENT.value: (optimize_propose, optimization_wakes),
    Actor.SCHEMA_AGENT.value: (schema_candidates, schema_wakes),
    Actor.RECOVERY_AGENT.value: (recovery_candidates, recovery_wakes),
}


class BuiltinBackend:
    """Deterministic rule-based reasoning, dispatched per agent.

    ``rules`` holds the (rule, trigger) pair of each agent it runs, all of
    them unless ``agents`` names some; an agent left out proposes nothing
    and its trigger never holds.
    """

    rules = _BUILTIN_RULES

    def __init__(self, agents: Iterable[str] | None = None) -> None:
        if agents is not None:
            self.rules = {agent: _BUILTIN_RULES[agent] for agent in agents}

    def decide(self, bundle: ObservationBundle) -> list[CandidateAction]:
        entry = self.rules.get(bundle.agent)
        return entry[0](bundle) if entry is not None else []


class NullBackend:
    """Backend that never proposes anything.

    Running the agentic controller with this backend exercises every
    chassis code path while leaving the simulated world exactly as the
    static controller would, which is what the baseline-equivalence
    check relies on.
    """

    def decide(self, bundle: ObservationBundle) -> list[CandidateAction]:
        return []


class StubBackend:
    """Scripted responses keyed by ``"<tick>:<agent>"``.

    The file maps keys to lists of candidate-action dicts. A missing key
    means "no candidates". Malformed entries raise BackendError; the
    control loop records the violation and falls back to the builtin
    rules for that call.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise BackendError(f"stub file {path} must contain a JSON object")
        self._responses: dict[str, object] = raw

    def decide(self, bundle: ObservationBundle) -> list[CandidateAction]:
        key = f"{bundle.tick}:{bundle.agent}"
        entries = self._responses.get(key)
        if entries is None:
            return []
        try:
            return list(list_of(CandidateAction.from_dict)(entries, key))
        except ValueError as exc:
            raise BackendError(f"stub entry {exc}") from exc


def make_backend(selector: str) -> ReasoningBackend:
    if selector == "builtin":
        return BuiltinBackend()
    if selector.startswith("builtin:"):
        agents = selector[len("builtin:"):].split(",")
        if set(agents) <= _BUILTIN_RULES.keys() and len(set(agents)) == len(agents):
            return BuiltinBackend(agents)
    if selector == "null":
        return NullBackend()
    if selector.startswith("stub:"):
        path = selector[len("stub:"):]
        if not path:
            raise BackendError("stub backend needs a file path: stub:<path>")
        return StubBackend(path)
    raise BackendError(f"unknown backend selector {selector!r}")

"""Pluggable reasoning backends.

A backend is anything with a ``decide(bundle) -> list[CandidateAction]``
method that is a pure function of the bundle. The builtin backend runs
the deterministic heuristics in this package; the stub backend replays
scripted responses from a JSON file so tests can stand in for an
external reasoning service. ``make_backend`` resolves the CLI selector
(``builtin``, ``null`` or ``stub:<path>``). Whatever a backend raises, the
control loop records it as a ``backend_violation`` and asks the builtin
rules instead.
"""

from __future__ import annotations

import json
from typing import Protocol

from ..core.actions import Actor
from ..core.reader import list_of
from .bundle import CandidateAction, ObservationBundle
from .optimization import optimize_propose
from .recovery import recovery_candidates
from .schema_agent import schema_candidates


class BackendError(ValueError):
    """A backend response that cannot be interpreted as candidates."""


class ReasoningBackend(Protocol):
    name: str

    def decide(self, bundle: ObservationBundle) -> list[CandidateAction]: ...


# The builtin rule for each reasoning agent, keyed by its actor value.
_BUILTIN_RULES = {
    Actor.OPTIMIZATION_AGENT.value: optimize_propose,
    Actor.SCHEMA_AGENT.value: schema_candidates,
    Actor.RECOVERY_AGENT.value: recovery_candidates,
}


class BuiltinBackend:
    """Deterministic rule-based reasoning, dispatched per agent."""

    name = "builtin"

    def decide(self, bundle: ObservationBundle) -> list[CandidateAction]:
        rule = _BUILTIN_RULES.get(bundle.agent)
        return rule(bundle) if rule is not None else []


class NullBackend:
    """Backend that never proposes anything.

    Running the agentic controller with this backend exercises every
    chassis code path while leaving the simulated world exactly as the
    static controller would, which is what the baseline-equivalence
    check relies on.
    """

    name = "null"

    def decide(self, bundle: ObservationBundle) -> list[CandidateAction]:
        return []


class StubBackend:
    """Scripted responses keyed by ``"<tick>:<agent>"``.

    The file maps keys to lists of candidate-action dicts. A missing key
    means "no candidates". Malformed entries raise BackendError; the
    control loop records the violation and falls back to the builtin
    rules for that call.
    """

    name = "stub"

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
    if selector == "null":
        return NullBackend()
    if selector.startswith("stub:"):
        path = selector[len("stub:"):]
        if not path:
            raise BackendError("stub backend needs a file path: stub:<path>")
        return StubBackend(path)
    raise BackendError(f"unknown backend selector {selector!r}")

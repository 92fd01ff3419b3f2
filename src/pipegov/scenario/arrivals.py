"""Deterministic per-tick workload generation.

Each tick gets its own generator seeded from SHA-256(seed:tick), so an
arrival count depends only on (scenario seed, tick) — never on how many
draws happened earlier in the run. That makes traces reproducible and
lets tests probe any single tick in isolation.

Seeding a generator costs most of a draw, so a run does not draw tick by
tick: ``arrival_trace`` draws the whole horizon once per scenario hash
(which covers the seed) and keeps the counts in one flat integer array.
Calibration and both controller runs of a seed replay that one trace.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Callable

import numpy as np

from pipegov.scenario.model import ScenarioSpec, scenario_hash


def tick_rng(seed: int, tick: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{tick}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def generate_arrivals(spec: ScenarioSpec, tick: int) -> dict[str, int]:
    """Record counts arriving at each pipeline on this tick.

    Streaming pipelines draw from a Poisson whose mean is the base rate
    scaled by any active burst; draws happen in sorted pipeline order from
    the tick's own generator. Batch pipelines receive their dataset at
    every schedule boundary (tick > 0) and nothing in between.
    """

    out: dict[str, int] = {}
    rng: np.random.Generator | None = None
    for pid in sorted(spec.arrival_models):
        if rng is None:
            rng = tick_rng(spec.seed, tick)
        mean = spec.arrival_models[pid].mean_at(tick)
        out[pid] = int(rng.poisson(mean))
    for pid in sorted(spec.batch_models):
        model = spec.batch_models[pid]
        on_boundary = tick > 0 and tick % model.schedule_period == 0
        out[pid] = model.dataset_size if on_boundary else 0
    return out


class ArrivalTrace:
    """Every tick's arrival counts for one scenario, drawn once.

    Counts sit row by row in one ``array('q')``, a row per tick and a
    column per pipeline in ``generate_arrivals`` key order.
    """

    __slots__ = ("horizon", "_pids", "_counts")

    def __init__(self, spec: ScenarioSpec, draw: Callable[[ScenarioSpec, int], dict[str, int]]) -> None:
        self.horizon = spec.horizon
        self._pids: tuple[str, ...] = ()
        self._counts = array("q")
        for t in range(spec.horizon):
            row = draw(spec, t)
            if not t:
                self._pids = tuple(row)
            self._counts.extend(row.values())

    def at(self, tick: int) -> dict[str, int]:
        """A fresh dict equal to ``generate_arrivals(spec, tick)``."""

        if not 0 <= tick < self.horizon:
            raise IndexError(f"tick {tick} outside horizon {self.horizon}")
        width = len(self._pids)
        start = tick * width
        return dict(zip(self._pids, self._counts[start : start + width]))


# One process-wide entry: calibration and the runs after it reach the
# trace through plain function calls (the CLI, library callers, tests), and
# a hit returns exactly what a miss would draw, so sharing cannot leak state
# between callers.
_memo: tuple[str, ArrivalTrace] | None = None


def arrival_trace(
    spec: ScenarioSpec,
    draw: Callable[[ScenarioSpec, int], dict[str, int]] = generate_arrivals,
) -> ArrivalTrace:
    """The scenario's arrival trace, drawn with ``draw`` on a miss.

    One trace is kept, keyed by ``scenario_hash``, so calibration and the
    runs that follow it on the same scenario and seed share one draw.
    """

    global _memo
    key = scenario_hash(spec)
    if _memo is None or _memo[0] != key:
        _memo = (key, ArrivalTrace(spec, draw))
    return _memo[1]

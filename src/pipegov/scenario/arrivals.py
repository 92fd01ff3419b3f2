"""Deterministic per-tick workload generation.

Each tick gets its own generator seeded from SHA-256(seed:tick), so an
arrival count depends only on (scenario seed, tick) — never on how many
draws happened earlier in the run. That makes traces reproducible and
lets tests probe any single tick in isolation.

A run does not draw tick by tick: ``arrival_trace`` draws the whole
horizon once per scenario hash (which covers the seed) and keeps the
counts in one flat integer array, which calibration (a pipeline's column
at a time) and both controller runs (a tick's row at a time) of a seed
replay. Most of ``tick_rng``'s cost is ``SeedSequence`` hashing the
digest's first 64 bits into PCG64's four state words. The
trace computes those words for 1,024 ticks at once, with SeedSequence's
own uint32 arithmetic in numpy, and seeds each tick's ``PCG64`` from its
row, so its draws are exactly ``generate_arrivals(spec, tick)``'s.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Iterable, Iterator
from itertools import repeat
from typing import Callable

import numpy as np

from pipegov.scenario.model import ScenarioSpec, scenario_hash

# Quoted: naming np.random at import would load numpy.random (see _seeded_generators).
Draw = Callable[[ScenarioSpec, int, "np.random.Generator | None"], dict[str, int]]

# SeedSequence's hash constants (numpy/random/bit_generator.pyx), stable under NEP 19.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_BLOCK = 1024  # ticks seeded per numpy pass


def tick_rng(seed: int, tick: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{tick}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed s, a row each.

    A seed's entropy is its 32-bit words, low first, and the pool of four
    pads it with words of 0; so every 64-bit seed mixes as [lo, hi, 0, 0].
    """

    const = _INIT_A  # hashmix's running multiplier, advanced once per call

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    low = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zeros = np.zeros(len(seeds), np.uint32)
    pool = [hashmix(word) for word in (low, high, zeros, zeros)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> np.uint32(16)
    state = np.empty((len(seeds), 8), np.uint64)
    const = _INIT_B
    for i in range(8):
        word = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        word = word * np.uint32(const)
        state[:, i] = word ^ word >> np.uint32(16)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _seeded_generators(blocks: Iterable[np.ndarray]) -> Iterator[np.random.Generator]:
    """``default_rng(s)`` for each uint64 seed s, hashed one block per vectorised pass."""

    # numpy loads numpy.random on first use; importing it here keeps that
    # load at the first draw, as in tick_rng, and out of process start-up.
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """One seed's ``generate_state(4, np.uint64)``, the only request PCG64 makes."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
            return self.words

    for seeds in blocks:
        for words in _pcg64_words(seeds):
            yield np.random.Generator(np.random.PCG64(StateWords(words)))


def _tick_generators(seed: int, horizon: int) -> Iterator[np.random.Generator]:
    """``tick_rng(seed, t)`` for each tick of the horizon, seeded ``_BLOCK`` ticks at a time."""

    digests = (
        b"".join(
            hashlib.sha256(f"{seed}:{t}".encode("utf-8")).digest()[:8]
            for t in range(start, min(start + _BLOCK, horizon))
        )
        for start in range(0, horizon, _BLOCK)
    )
    return _seeded_generators(np.frombuffer(block, ">u8").astype(np.uint64) for block in digests)


def generate_arrivals(
    spec: ScenarioSpec, tick: int, rng: np.random.Generator | None = None
) -> dict[str, int]:
    """Record counts arriving at each pipeline on this tick.

    Streaming pipelines draw from a Poisson whose mean is the base rate
    scaled by any active burst; draws happen in sorted pipeline order from
    the tick's own generator: ``rng`` when given, which must be
    ``tick_rng(spec.seed, tick)`` or one equal to it, else that generator
    seeded here. Batch pipelines receive their dataset at every schedule
    boundary (tick > 0) and nothing in between.
    """

    out: dict[str, int] = {}
    if spec.arrival_models and rng is None:
        rng = tick_rng(spec.seed, tick)
    for pid in sorted(spec.arrival_models):
        out[pid] = int(rng.poisson(spec.arrival_models[pid].mean_at(tick)))
    for pid in sorted(spec.batch_models):
        model = spec.batch_models[pid]
        on_boundary = tick > 0 and tick % model.schedule_period == 0
        out[pid] = model.dataset_size if on_boundary else 0
    return out


class ArrivalTrace:
    """Every tick's arrival counts for one scenario, drawn once.

    ``draw(spec, tick, rng)`` is called once per tick in order, with that
    tick's generator from ``_tick_generators`` (None when the scenario has
    no streaming pipeline). Counts sit row by row in one ``array('q')``, a
    row per tick and a column per pipeline in ``generate_arrivals`` key
    order.
    """

    __slots__ = ("horizon", "_pids", "_counts")

    def __init__(self, spec: ScenarioSpec, draw: Draw) -> None:
        self.horizon = spec.horizon
        self._pids: tuple[str, ...] = ()
        self._counts = array("q")
        rngs = _tick_generators(spec.seed, spec.horizon) if spec.arrival_models else repeat(None)
        for t, rng in zip(range(spec.horizon), rngs):
            row = draw(spec, t, rng)
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

    def column(self, pid: str) -> array:
        """A fresh array of ``pid``'s count on every tick, equal to ``at(t)[pid]`` at index t.

        Raises KeyError for a pipeline the scenario gives no workload model.
        """

        try:
            index = self._pids.index(pid)
        except ValueError:
            raise KeyError(pid) from None
        return self._counts[index :: len(self._pids)]


# One process-wide entry: calibration and the runs after it reach the
# trace through plain function calls (the CLI, library callers, tests), and
# a hit returns exactly what a miss would draw, so sharing cannot leak state
# between callers.
_memo: tuple[str, ArrivalTrace] | None = None


def arrival_trace(spec: ScenarioSpec, draw: Draw = generate_arrivals) -> ArrivalTrace:
    """The scenario's arrival trace, drawn with ``draw`` on a miss.

    One trace is kept, keyed by ``scenario_hash``, so calibration and the
    runs that follow it on the same scenario and seed share one draw.
    """

    global _memo
    key = scenario_hash(spec)
    if _memo is None or _memo[0] != key:
        _memo = (key, ArrivalTrace(spec, draw))
    return _memo[1]

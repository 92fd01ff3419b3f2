"""How fast the host is running right now, from a fixed reference loop.

The benchmark's host is shared: other tenants slow it down by up to about
1.6x in stretches lasting from seconds to minutes, and a stretch can cover a
whole run. No choice among a run's own timings removes that. Timed samples
therefore run ``reference()`` every ``CHUNK_TICKS`` simulated ticks (outside
the timed chunks) and the end-to-end times are scaled by

    REFERENCE_NOMINAL_S / mean(reference times measured in the same stretch)

which turns host seconds into seconds at the host's uncontended speed.
Set-up probes, which cannot interleave the loop with interpreter start and
imports, time ``SETUP_REFERENCES`` calls right after their first tick. The
loop does the kind of work pipegov's kernel does (attribute reads over deques
of small objects, dict updates, float arithmetic) and imports nothing from
``src/``, so a change to pipegov cannot change it.
"""

from __future__ import annotations

from collections import deque

# Mean time of one reference() call, interleaved with the simulation, on the
# host the benchmark was tuned on (a 2-vCPU x86-64 KVM guest, Python 3.11)
# while it ran uncontended. It sets the scale of the corrected times only.
REFERENCE_NOMINAL_S = 0.30e-3


class _Cohort:
    __slots__ = ("tick", "count", "part")

    def __init__(self, tick: int, count: int, part: str) -> None:
        self.tick, self.count, self.part = tick, count, part


_QUEUES = [
    deque(_Cohort(i, (i * 7) % 13 + 1, f"p{i % 3}") for i in range(40 * j + 20)) for j in range(6)
]


def reference() -> float:
    """A fixed amount of kernel-like work, about 0.3 ms on the tuning host."""

    stats: dict[tuple[int, str], float] = {}
    total = 0.0
    for rnd in range(12):
        for j, queue in enumerate(_QUEUES):
            depth = sum(c.count for c in queue)
            head = queue.popleft()
            head.tick += 1
            queue.append(head)
            key = (j, head.part)
            stats[key] = stats.get(key, 0.0) * 0.9 + depth * 0.1
            total += depth / (1.0 + rnd)
    return total

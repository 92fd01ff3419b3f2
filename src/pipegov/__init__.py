"""Deterministic data-pipeline simulator with a policy-checked control plane.

The package is organised around a small set of layers:

- ``core``: schema algebra, pipeline topology specs, and the shared action
  vocabulary.
- ``simkernel``: the tick-based world state and its transition function.
- ``scenario``: workload generation, fault injection, and scenario files.
- ``telemetry``: metric series, incident records (opened and closed by
  the control chassis), and the hash-chained audit log.
- ``policy``: policy documents and the action validator.
- ``agents``: observation, proposal heuristics, and the control loop.
- ``harness``: baseline controller, experiment runner, metrics, reports.
- ``cli``: command-line entry points.
"""

__version__ = "0.1.0"

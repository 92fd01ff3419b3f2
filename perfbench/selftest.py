"""Self-test of the benchmark on short-horizon variants of its three workloads.

Usage (from the repository root):

    python3 perfbench/selftest.py

For each workload it checks that:

* an untraced run prints every end-to-end metric with its unit, and its
  JSON line carries exactly the end-to-end metrics of BENCHMARK.json;
* a traced run prints every per-layer metric with its unit, and the traced
  sample's artifact digests equal the untraced run's;
* a sample whose audit logs are corrupted after writing counts failed
  operations instead of passing (workloads that write audit logs only).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run as bench

HORIZONS = {"canonical-compare": 1500, "fuzz-agentic": 600, "backlog-static": 1500}
SEED = 7

# Runs sample.py with AuditLog.write_jsonl flipping one bit of every log it writes.
CORRUPTING_SAMPLE = r"""
import runpy, sys
from pathlib import Path
sample = Path(sys.argv[1])
sys.path[:0] = [str(sample.parent.parent / "src"), str(sample.parent)]
from pipegov.telemetry.audit import AuditLog
write = AuditLog.write_jsonl
def corrupted(self, path):
    write(self, path)
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        data[len(data) // 2] ^= 1
        fh.seek(0)
        fh.write(data)
AuditLog.write_jsonl = corrupted
sys.argv = sys.argv[1:]
runpy.run_path(str(sample), run_name="__main__")
"""


def _execute(workload: str, trace: bool) -> tuple[dict, str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = bench.execute(workload, SEED, 1, trace, HORIZONS[workload])
    record_path = bench.WORK / "results" / f"{workload}-seed{SEED}-trace{int(trace)}.json"
    return result, out.getvalue(), json.loads(record_path.read_text(encoding="utf-8"))


def _printed(text: str, name: str, unit: str) -> bool:
    return any(
        line.strip().startswith(f"{name} = ") and line.strip().endswith(f" {unit}")
        for line in text.splitlines()
    )


def check_workload(workload: str, manifest: dict) -> list[str]:
    problems = []

    result, text, untraced = _execute(workload, trace=False)
    expected = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    expected.update(
        {name: unit for name, (unit, applies) in bench.WORKLOAD_METRICS.items() if workload in applies}
    )
    problems += [f"untraced run does not print {n} [{u}]" for n, u in expected.items() if not _printed(text, n, u)]
    if set(result["metrics"]) != {m["name"] for m in manifest["end_to_end"]}:
        problems.append(f"untraced JSON metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    if not result["correct"]:
        problems.append(f"untraced run not correct: {untraced['failures']}")

    result, text, traced = _execute(workload, trace=True)
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    problems += [f"traced run does not print {n} [{u}]" for n, u in layers.items() if not _printed(text, n, u)]
    if set(result["metrics"]) != set(layers):
        problems.append("traced JSON metrics differ from BENCHMARK.json per_layer")
    if not result["correct"]:
        problems.append(f"traced run not correct: {traced['failures']}")
    if traced["traced_digests"] != untraced["fingerprint"]["digests"]:
        problems.append("traced and untraced artifact digests differ")

    if workload != "backlog-static":  # the only workload that writes no audit log
        run = bench.Run(workload, SEED, 1, HORIZONS[workload])
        try:
            run.spawn(command=[sys.executable, "-c", CORRUPTING_SAMPLE, str(bench.SAMPLE)])
        finally:
            run.close()
        replays = [f for f in run.failures if " replay " in f]
        if not run.attempted or not replays:
            problems.append(f"corrupted audit logs were not counted as failed replays: {run.failures}")
    return problems


def main() -> int:
    manifest = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(bench.ROOT / "src"))
    failed = False
    for workload in HORIZONS:
        problems = check_workload(workload, manifest)
        failed |= bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

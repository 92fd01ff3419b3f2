"""One benchmark sample, run in a fresh interpreter.

Usage: python3 perfbench/sample.py JOB.json RESULT.json

run.py writes the job, records the moment it spawns this process, and reads
the result. Set-up ends at the first simulated tick, which the tracer stamps
on CLOCK_MONOTONIC so run.py can subtract its spawn time. The timed region
ends when the workload's last operation returns; the correctness checks
(audit replays for canonical-compare, conservation, digests) run after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import pipegov  # noqa: E402
from tracer import FirstTick, Tracer  # noqa: E402


def _stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _timed_end() -> dict:
    """End of the timed region: the time, and the peak resident set so far."""

    return {"end": _stamp(), "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _op(unit: str, kind: str, ok: bool, cause: str | None = None) -> dict:
    return {"unit": unit, "kind": kind, "ok": ok, "cause": cause}


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """Run a ``pipegov`` command in-process; return its exit code and stderr."""

    from pipegov import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _conserved(counters: dict) -> bool:
    return counters["ingress"] == (
        counters["materialized"] + counters["queued"] + counters["quarantined"] + counters["dropped"]
    )


def _run_stats(result) -> dict:
    from pipegov.harness.metrics import compute_metrics

    return {
        "mttr_mean": compute_metrics(result).mttr_mean,
        "total_cost": result.total_cost,
        "interventions": result.interventions,
        "anomaly_flags": result.anomaly_flags,
        "incidents": len(result.incidents),
        "counters": result.counters,
    }


def _memory_digests(unit: str, result) -> dict:
    """Digests of a run kept in memory: its audit log and telemetry series."""

    telemetry = hashlib.sha256()
    for scope, name in result.store.series_keys():
        telemetry.update(repr((scope, name, result.store.series(scope, name))).encode("utf-8"))
    return {
        f"{unit}/audit.jsonl": hashlib.sha256(result.audit.to_jsonl().encode("utf-8")).hexdigest(),
        f"{unit}/telemetry": telemetry.hexdigest(),
    }


def _file_digests(out_dir: str) -> dict:
    digests = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.file_digest(fh, "sha256").hexdigest()
    return dict(sorted(digests.items()))


# ----------------------------------------------------------------------
# workloads


def canonical_compare(job: dict, tracer) -> dict:
    tracer.install_cli()
    inputs, out = job["inputs"], job["out_dir"]
    argv = ["compare", "--scenario", inputs["scenario"], "--policy", inputs["policy"], "--out", out, "--quiet"]
    for seed in inputs["seeds"]:
        argv += ["--seed", str(seed)]
    try:
        code, err = _quiet_main(argv)
    except FirstTick:
        raise
    except Exception:
        code, err = None, traceback.format_exc()
    timed = _timed_end()
    tracer.uninstall()

    ops, stats = [], {}
    for seed in inputs["seeds"]:
        unit = f"seed-{seed}"
        if code != 0:
            ops.append(_op(unit, "compare", False, f"compare exited with {code}: {err[-400:]}"))
            continue
        with open(os.path.join(out, unit, "comparison.json"), encoding="utf-8") as fh:
            comparison = json.load(fh)
        cause = None
        for controller, report in (("static", "baseline"), ("agentic", "agentic")):
            run_dir = os.path.join(out, unit, controller)
            with open(os.path.join(run_dir, "run.json"), encoding="utf-8") as fh:
                run = json.load(fh)
            if not _conserved(run["counters"]):
                cause = f"{controller} run breaks conservation: {run['counters']}"
            stats[f"{unit}/{controller}"] = {
                "mttr_mean": comparison[report]["mttr_mean"],
                "total_cost": run["total_cost"],
                "interventions": run["interventions"],
                "anomaly_flags": run["anomaly_flags"],
                "incidents": len(run["incidents"]),
                "counters": run["counters"],
            }
            replay_code, replay_err = _quiet_main(["replay-audit", os.path.join(run_dir, "audit.jsonl"), "--quiet"])
            ops.append(_op(unit, "replay", replay_code == 0, replay_err or None))
        ops.append(_op(unit, "compare", cause is None, cause))
    return {**timed, "ops": ops, "stats": stats, "digests": _file_digests(out) if code == 0 else {}}


def _load_case(scenario_path: str, policy_path: str):
    from pipegov.policy.model import parse_policy
    from pipegov.scenario.model import parse_scenario, validate_scenario

    with open(scenario_path, encoding="utf-8") as fh:
        spec = parse_scenario(json.load(fh))
    issues = validate_scenario(spec)
    if issues:
        raise ValueError(f"{scenario_path}: {issues[0].code}: {issues[0].message}")
    with open(policy_path, encoding="utf-8") as fh:
        policy = parse_policy(json.load(fh))
    return spec, policy


def _run_case(calibrate, run, spec, policy, controller: str, backend):
    """Calibrate, then run one controller; returns (result, error)."""

    from pipegov.harness.baseline import BaselineConfig

    try:
        allocations = calibrate(spec)
        config = BaselineConfig(allocations=allocations)
        result = run(spec, policy, controller=controller, backend=backend, config=config)
    except FirstTick:
        raise
    except Exception:
        return None, traceback.format_exc()
    return result, None


def fuzz_agentic(job: dict, tracer) -> dict:
    from pipegov.agents.backends import make_backend

    cases = [(c["id"], *_load_case(c["scenario"], c["policy"])) for c in job["inputs"]["cases"]]
    backend = make_backend("builtin")
    calibrate, run = tracer.calibrate_fn(), tracer.run_experiment_fn()
    write = tracer.span("telemetry.audit_write", lambda log, path: log.write_jsonl(path))

    def replayed(code, args, kwargs, duration):
        tracer.phase_ticks.append(("replay", args[1], duration))

    replay = tracer.span(
        "telemetry.audit_replay",
        lambda path, records: _quiet_main(["replay-audit", path, "--quiet"]),
        post=replayed,
    )

    done = []
    for case_id, spec, policy in cases:
        result, error = _run_case(calibrate, run, spec, policy, "agentic", backend)
        if result is None:
            done.append((case_id, None, error))
            continue
        path = os.path.join(job["out_dir"], f"{case_id}.audit.jsonl")
        write(result.audit, path)
        done.append((case_id, result, replay(path, len(result.audit.records))))
    timed = _timed_end()
    tracer.uninstall()

    ops, stats, digests = [], {}, {}
    for case_id, result, outcome in done:
        if result is None:
            ops.append(_op(case_id, "run", False, outcome[-400:]))
            continue
        conserved = _conserved(result.counters)
        ops.append(_op(case_id, "run", conserved, None if conserved else f"conservation: {result.counters}"))
        code, err = outcome
        ops.append(_op(case_id, "replay", code == 0, err or None))
        stats[f"{case_id}/agentic"] = _run_stats(result)
        digests.update(_memory_digests(case_id, result))
    return {**timed, "ops": ops, "stats": stats, "digests": digests}


def backlog_static(job: dict, tracer) -> dict:
    spec, policy = _load_case(job["inputs"]["scenario"], job["inputs"]["policy"])
    result, error = _run_case(tracer.calibrate_fn(), tracer.run_experiment_fn(), spec, policy, "static", None)
    timed = _timed_end()
    tracer.uninstall()
    if result is None:
        return {**timed, "ops": [_op("static", "run", False, error[-400:])], "stats": {}, "digests": {}}
    conserved = _conserved(result.counters)
    return {
        **timed,
        "ops": [_op("static", "run", conserved, None if conserved else f"conservation: {result.counters}")],
        "stats": {"static": _run_stats(result)},
        "digests": _memory_digests("static", result),
    }


WORKLOADS = {
    "canonical-compare": canonical_compare,
    "fuzz-agentic": fuzz_agentic,
    "backlog-static": backlog_static,
}


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    if not Path(pipegov.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported pipegov from {pipegov.__file__}, not from {SRC}")
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    tracer = Tracer(fine=job["trace"], setup_only=job["setup_only"])
    if job["trace"]:
        tracer.install_layers()
    else:
        tracer.install_chunk_clock()
    try:
        out = WORKLOADS[job["workload"]](job, tracer)
    except FirstTick:
        out = {**_timed_end(), "ops": [], "stats": {}, "digests": {}}
    out["first_tick"] = tracer.first_tick
    out["phases"] = tracer.phase_ticks
    out["chunks"] = tracer.chunks
    out["references"] = tracer.references
    if job["trace"] and tracer.first_tick is not None:
        out["layers"] = tracer.layer_metrics(out["end"] - tracer.first_tick)
        tracer.write_spans(job["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

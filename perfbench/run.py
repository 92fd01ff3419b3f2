"""pipegov benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload canonical-compare --seed 1 --seconds 40 --trace 0

Each timed sample is a fresh interpreter (perfbench/sample.py) spawned by
this process, one at a time. ``--trace 0`` reports the end-to-end metrics
named in BENCHMARK.json; ``--trace 1`` runs untraced samples, then one
traced sample of the same input, and reports the per-layer metrics. The
last line of standard output is one JSON object; the lines before it give
every metric with its unit, the fingerprint of the simulated results and a
note on the machine. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_NOMINAL_S

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = Path(__file__).resolve().parent / "sample.py"
WORK = ROOT / ".perfbench"
REQUIRED = ("src/pipegov/cli.py", "scenarios/canonical.json", "policies/default.json", "BENCHMARK.json")

RUN_LIMIT_S = 165.0  # every run must end within 180 s
SETUP_PROBES = 3  # spawns before each sample that stop at the first tick; they give setup_s
TRACE_COST = 1.25  # a traced sample takes at most this many untraced lifetimes
CONTROLLERS = ("static", "agentic")

# End-to-end metrics printed besides the JSON's (BENCHMARK.json "end_to_end",
# which every workload has), for the workloads they apply to. host_wall_s and
# host_setup_s are wall and set-up time before the host-speed correction, and
# host_slowdown the factor wall time is divided by.
ALL = ("canonical-compare", "fuzz-agentic", "backlog-static")
WORKLOAD_METRICS = {
    "compare_s_per_seed": ("s/seed", ("canonical-compare",)),
    "static_ticks_per_s": ("ticks/s", ("canonical-compare", "backlog-static")),
    "agentic_ticks_per_s": ("ticks/s", ("canonical-compare", "fuzz-agentic")),
    "report_write_s": ("s/seed", ("canonical-compare",)),
    "audit_replay_records_per_s": ("records/s", ("fuzz-agentic",)),
    "failed_ops_ratio": ("ratio", ALL),
    "host_wall_s": ("s", ALL),
    "host_setup_s": ("s", ALL),
    "host_slowdown": ("x", ALL),
}


def stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _tree_files(*patterns: str) -> list[Path]:
    return sorted(p for pattern in patterns for p in ROOT.glob(pattern) if p.is_file())


def machine_note() -> dict:
    import numpy

    src = _tree_files("src/**/*.py")
    code = hashlib.sha256()
    for path in src + _tree_files("scenarios/*", "policies/*", "perfbench/inputs.py"):
        code.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src),
        "code_sha256": code.hexdigest(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values)


class Run:
    """One benchmark invocation: inputs, spawned samples, and the checks on them."""

    def __init__(self, workload: str, seed: int, seconds: float, horizon: int | None = None) -> None:
        import inputs

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.note = machine_note()
        self.start = stamp()
        self.work = WORK / "work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = inputs.GENERATORS[workload](ROOT, self.work, seed, horizon)
        self.expected_ops = inputs.expected_ops(workload, self.inputs)
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []  # each probe's set-up time, corrected for host speed
        self.host_setups: list[float] = []
        self.fingerprint: dict = {}
        self._spawned = 0
        self._digest_path = (
            WORK / "digests" / self.note["code_sha256"][:16] / f"{workload}-{seed}-h{horizon or 'full'}.json"
        )
        self.reference = json.loads(self._digest_path.read_text()) if self._digest_path.exists() else None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------------

    def spawn(self, trace: bool = False, setup_only: bool = False, command: list[str] | None = None) -> dict | None:
        """Run one sample in a fresh interpreter; returns its result, or None if it failed."""

        self._spawned += 1
        name = f"sample-{self._spawned}"
        out_dir = self.work / name
        out_dir.mkdir()
        job = {
            "workload": self.workload,
            "inputs": self.inputs,
            "out_dir": str(out_dir),
            "trace": trace,
            "setup_only": setup_only,
            "spans_path": str(WORK / "trace" / f"{self.workload}-seed{self.seed}.spans.csv"),
        }
        if trace:
            (WORK / "trace").mkdir(parents=True, exist_ok=True)
        job_path, result_path = self.work / f"{name}.job.json", self.work / f"{name}.result.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        argv = (command or [sys.executable, str(SAMPLE)]) + [str(job_path), str(result_path)]
        timeout = max(1.0, RUN_LIMIT_S - (stamp() - self.start))
        spawned = stamp()
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
            error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}"
        except subprocess.TimeoutExpired:
            error = f"sample killed after {timeout:.0f} s"
        exited = stamp()
        shutil.rmtree(out_dir, ignore_errors=True)
        result = json.loads(result_path.read_text(encoding="utf-8")) if error is None else None
        if result is not None and result["first_tick"] is None:
            causes = "; ".join(op["cause"] or "" for op in result["ops"])
            error = f"stopped before the first simulated tick: {causes[-600:]}"
        if error is not None:
            if not setup_only:
                self.attempted += self.expected_ops
                self.failures += [f"{name}: {error}"] * self.expected_ops
            return None
        result["setup"] = result["first_tick"] - spawned
        result["wall"] = result["end"] - spawned
        result["lifetime"] = exited - spawned
        if setup_only:
            slowdown = statistics.fmean(result["references"][0][1]) / REFERENCE_NOMINAL_S
            self.setups.append(result["setup"] / slowdown)
            self.host_setups.append(result["setup"])
        else:
            self._check(name, result)
        return result

    def _check(self, name: str, result: dict) -> None:
        """Count the sample's operations and compare its digests with the seed's reference."""

        ops = result["ops"]
        clean = all(op["ok"] for op in ops)
        if self.reference is None and clean:
            self.reference = result["digests"]
            self._digest_path.parent.mkdir(parents=True, exist_ok=True)
            self._digest_path.write_text(json.dumps(self.reference, indent=1, sort_keys=True))
        for key in sorted(set(self.reference or {}) | set(result["digests"])):
            if self.reference is None or self.reference.get(key) == result["digests"].get(key):
                continue
            unit = key.split("/")[0]
            owners = [op for op in ops if op["kind"] != "replay" and op["ok"]]
            owner = next((op for op in owners if op["unit"] == unit), owners[0] if owners else None)
            if owner is not None:
                owner["ok"] = False
                owner["cause"] = f"artifact {key} differs from the reference for this seed"
        if not self.fingerprint and clean:
            self.fingerprint = {"stats": result["stats"], "digests": result["digests"]}
        self.attempted += len(ops)
        self.failures += [f"{name}: {op['kind']} {op['unit']}: {op['cause']}" for op in ops if not op["ok"]]

    def measure(self, reserve: float = 0.0) -> list[dict]:
        """Untraced samples, one at a time, until the next would overrun ``seconds``.

        Set-up probes are spread over the run, ``SETUP_PROBES`` before each
        sample, so ``setup_s`` sees the host over the whole run. ``reserve``
        is the share of a sample's lifetime kept free after them (the traced
        sample of a ``--trace 1`` run).
        """

        self.spawn(setup_only=True)  # warm-up: byte-compiles the sources, not counted
        self.setups.clear()
        self.host_setups.clear()
        samples = []
        while True:
            begun = stamp()
            for _ in range(SETUP_PROBES):
                self.spawn(setup_only=True)
            result = self.spawn()
            if result is None:
                break
            samples.append(result)
            now = stamp()  # the next probes and sample are expected to take as long as these
            if (now - self.start) + (now - begun) + reserve * result["lifetime"] > self.seconds:
                break
        return samples

    # ------------------------------------------------------------------

    def corrected(self, sample: dict) -> dict[str, float]:
        """One sample's end-to-end figures, in seconds at the host's uncontended speed.

        Each time is divided by the slowdown measured in the same stretch:
        the mean time of the sample's ``reference()`` calls over
        ``REFERENCE_NOMINAL_S`` (see hostspeed.py). A phase's tick rate uses
        the calls made during that phase; everything else uses all of the
        sample's calls. The reference calls themselves are not counted as
        the program's time.
        """

        refs: dict[str, list[float]] = {}
        for phase, times in sample["references"]:
            refs.setdefault(phase, []).extend(times)
        every = [t for times in refs.values() for t in times]
        slowdown = statistics.fmean(every) / REFERENCE_NOMINAL_S
        wall = sample["wall"] - sum(every)
        out = {"wall_s": wall / slowdown, "host_wall_s": wall, "host_slowdown": slowdown}

        runs = [(p, ticks) for p, ticks, _ in sample["phases"] if p in ("calibration",) + CONTROLLERS]
        ticks: dict[str, int] = {}
        secs: dict[str, float] = {}
        for (phase, horizon), (_, chunk_s) in zip(runs, sample["chunks"]):
            ticks[phase] = ticks.get(phase, 0) + horizon
            secs[phase] = secs.get(phase, 0.0) + sum(chunk_s)
        for phase in ticks:
            phase_slowdown = statistics.fmean(refs[phase]) / REFERENCE_NOMINAL_S if refs.get(phase) else slowdown
            out[f"{phase}_ticks_per_s"] = ticks[phase] * phase_slowdown / secs[phase]

        def seconds(phase: str) -> float:
            return sum(s for p, _, s in sample["phases"] if p == phase) / slowdown

        if self.workload == "fuzz-agentic":
            out["audit_replay_records_per_s"] = sum(n for p, n, _ in sample["phases"] if p == "replay") / seconds(
                "replay"
            )
        if self.workload == "canonical-compare":
            seeds = len(self.inputs["seeds"])
            out["compare_s_per_seed"] = (sample["end"] - sample["first_tick"] - sum(every)) / slowdown / seeds
            out["report_write_s"] = seconds("report") / seeds
        return out

    def end_to_end(self, samples: list[dict]) -> dict[str, float]:
        """Medians over the run's samples; ``setup_s`` over its set-up probes."""

        per_sample = [self.corrected(s) for s in samples]
        metrics = {name: _median([m[name] for m in per_sample]) for name in per_sample[0]}
        if not self.setups:
            raise RuntimeError("no set-up probe completed")
        metrics["setup_s"] = _median(self.setups)
        metrics["host_setup_s"] = _median(self.host_setups)
        metrics["peak_rss_mb"] = _median([s["rss_kb"] / 1024 for s in samples])
        metrics["failed_ops_ratio"] = len(self.failures) / self.attempted if self.attempted else 1.0
        return metrics

    def rationale(self, layers: dict[str, float]) -> list[tuple[str, bool]]:
        """The per-layer facts each workload was chosen for."""

        if self.workload == "canonical-compare":
            with open(self.inputs["scenario"], encoding="utf-8") as fh:
                horizon = json.load(fh)["horizon"]
            per_seed = 3 * horizon * len(self.inputs["seeds"])
            return [
                (f"scenario.generate_arrivals.calls == 3 x horizon x seeds ({per_seed})",
                 layers["scenario.generate_arrivals.calls"] == per_seed),
                ("harness.report.bytes > 0", layers["harness.report.bytes"] > 0),
            ]
        if self.workload == "backlog-static":
            others = {
                k: v for k, v in layers.items()
                if k.endswith(".self_s") and not k.startswith("simkernel.step.")
            }
            largest = max(others, key=others.get)
            return [
                (f"simkernel.step.self_s is the largest layer (next: {largest})",
                 layers["simkernel.step.self_s"] > others[largest]),
                ("simkernel.queue_cohorts.mean >= 100", layers["simkernel.queue_cohorts.mean"] >= 100),
            ]
        control = sum(
            layers[k]
            for k in ("agents.tick.self_s", "agents.observe_snapshot.self_s", "agents.decide.self_s",
                      "telemetry.query_window.self_s")
        )
        return [
            (f"agents + telemetry.query_window self time ({control:.3f} s) > simkernel.step.self_s.agentic",
             control > layers["simkernel.step.self_s.agentic"]),
        ]


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def execute(workload: str, seed: int, seconds: float, trace: bool, horizon: int | None = None) -> dict:
    """Run one workload; print the human-readable report; return the result object."""

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(workload, seed, seconds, horizon)
    try:
        samples = run.measure(reserve=TRACE_COST if trace else 0.0)
        if not samples:
            raise RuntimeError("no sample completed: " + "; ".join(run.failures[:3]))
        e2e = run.end_to_end(samples)
        report: dict[str, tuple[float, str]] = {}
        if trace:
            traced = run.spawn(trace=True)
            if traced is None:
                raise RuntimeError("the traced sample failed: " + run.failures[-1])
            layers = traced["layers"]
            layers["trace.overhead_s"] = traced["wall"] - e2e["host_wall_s"]
            units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
            report = {name: (layers[name], unit) for name, unit in units.items()}
            checks = run.rationale(layers)
        else:
            units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
            report = {name: (e2e[name], unit) for name, unit in units.items()}
            checks = []
    finally:
        run.close()

    print(
        f"machine: nproc={run.note['nproc']} python={run.note['python']} numpy={run.note['numpy']} "
        f"loadavg={','.join(f'{x:.2f}' for x in run.note['loadavg_at_start'])} "
        f"src_lines={run.note['src_lines']} code={run.note['code_sha256'][:12]}"
    )
    print(f"workload {workload} seed {seed}: {len(samples)} timed samples, {len(run.setups)} set-ups, "
          f"{run.attempted} operations, {len(run.failures)} failed")
    for cause in run.failures:
        print(f"  FAILED {cause}")
    printed = dict(report)
    if not trace:
        for name, (unit, applies) in WORKLOAD_METRICS.items():
            if workload in applies:
                printed[name] = (e2e[name], unit)
    for name, (value, unit) in printed.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    for check, holds in checks:
        print(f"  rationale: {check}: {'holds' if holds else 'DOES NOT HOLD'}")
    for unit, stats in sorted(run.fingerprint.get("stats", {}).items()):
        print(f"  fingerprint {unit}: " + " ".join(f"{k}={v}" for k, v in stats.items()))
    digests = run.fingerprint.get("digests", {})
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    print(f"  artifacts: {len(digests)} digests, combined sha256 {combined}")

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": run.note,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in printed.items()},
        "samples": {"wall_s": [s["wall"] for s in samples], "setup_s": run.setups, "host_setup_s": run.host_setups,
                    "corrected": [run.corrected(s) for s in samples],
                    "chunks": [s["chunks"] for s in samples], "phases": [s["phases"] for s in samples],
                    "references": [s["references"] for s in samples]},
        "failures": run.failures,
        "rationale": [{"check": c, "holds": h} for c, h in checks],
        "fingerprint": run.fingerprint,
    }
    if trace:
        record["traced_digests"] = traced["digests"]
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a pipegov checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    if args.workload not in inputs.GENERATORS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(inputs.GENERATORS)}", file=sys.stderr)
        return 2
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

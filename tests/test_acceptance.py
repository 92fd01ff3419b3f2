"""End-to-end acceptance checks for the governed pipeline control plane.

Each test verifies one release criterion and registers a PASS/FAIL line
that the terminal summary echoes after the run:

1. deterministic comparison artifacts (byte-identical reruns)
2. policy safety: no action applied without an audited Allow verdict
3. windowed compute spend never exceeds the policy budget
4. schema-change classifier agrees with brute-force enumeration
5. record accounting balances in every run
6. the agentic chassis with no reasoning backend equals the static baseline
7. headline improvements on the reference scenario across seeds 1-5
8. anomaly detector: no false flags on constants, steps flagged immediately
9. any single-byte tamper of a persisted audit log is located exactly
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import pytest

import test_schema
from conftest import ACCEPTANCE_LINES, make_batch_pipeline, make_stream_pipeline
from pipegov.agents import AnomalyDetector, NullBackend
from pipegov.cli import main
from pipegov.core import ResourceModel, schema_delta
from pipegov.harness import (
    BaselineConfig,
    aggregate_comparisons,
    compare,
    compute_metrics,
    derive_baseline_allocations,
    reseed,
    run_experiment,
)
from pipegov.policy import parse_policy
from pipegov.scenario import (
    FaultEvent,
    FaultKind,
    ScenarioSpec,
    canonical_scenario,
    default_policy_dict,
    mutate_schema,
)
from pipegov.scenario.model import ArrivalModel, BatchModel
from pipegov.simkernel import check_accounting

REPO_ROOT = Path(__file__).resolve().parent.parent
FUZZ_SEEDS = range(1, 51)
HEADLINE_SEEDS = range(1, 6)


@contextmanager
def _criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number}: FAIL — {title}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {number}: PASS — {title}")


# ----------------------------------------------------------------------
# fuzzed scenario corpus (criteria 2, 3, 5)

def _fuzz_case(seed: int):
    """One random scenario + policy; budgets bind in ~30% of cases."""

    rng = random.Random(9000 + seed)
    horizon = rng.randrange(1500, 2501)
    price = rng.choice([0.4, 0.5, 0.8])

    streams = []
    for i in range(rng.randint(1, 2)):
        streams.append(
            make_stream_pipeline(
                pid=f"s{i}",
                base_rate=rng.choice([15, 20, 25]),
                criticality=rng.randint(1, 5),
                freshness_target=rng.choice([8, 10, 15]),
                tags=("regulated",) if rng.random() < 0.3 else (),
                max_alloc=rng.choice([4, 6, 8]),
            )
        )
    batches = []
    for i in range(rng.randint(1, 2)):
        batches.append(
            make_batch_pipeline(
                pid=f"b{i}",
                base_rate=rng.choice([20, 25]),
                criticality=rng.randint(1, 5),
                schedule_period=rng.choice([150, 200, 250]),
            )
        )
    pipelines = streams + batches

    arrival_models = {}
    for p in streams:
        bursts = []
        for _ in range(rng.randint(0, 2)):
            start = rng.randrange(100, horizon - 200)
            bursts.append((start, start + rng.randrange(30, 120), rng.uniform(1.5, 3.0)))
        arrival_models[p.id] = ArrivalModel(
            base_rate=rng.uniform(8.0, 0.9 * p.stages[0].base_rate),
            bursts=tuple(sorted(bursts)),
        )
    batch_models = {
        p.id: BatchModel(
            dataset_size=rng.randrange(1500, 4000), schedule_period=p.schedule_period
        )
        for p in batches
    }

    events = []
    drifted: set[str] = set()
    for k in range(rng.randint(3, 8)):
        kind = rng.choice(list(FaultKind))
        tick = rng.randrange(20, horizon - 300)
        if kind is FaultKind.TRANSIENT_TASK_FAILURE:
            target = rng.choice(pipelines)
            events.append(
                FaultEvent(
                    tick=tick,
                    kind=kind,
                    pipeline=target.id,
                    stage=rng.choice(target.stages).id,
                )
            )
        elif kind is FaultKind.UPSTREAM_DELAY:
            target = rng.choice(pipelines)
            events.append(
                FaultEvent(
                    tick=tick,
                    kind=kind,
                    pipeline=target.id,
                    delay_ticks=rng.randrange(20, 120),
                    missing_fraction=rng.choice([0.0, 0.25, 0.5]),
                )
            )
        elif kind is FaultKind.SCHEMA_DRIFT:
            candidates = [p for p in streams if p.id not in drifted]
            if not candidates:
                continue
            target = rng.choice(candidates)
            drifted.add(target.id)
            mode = rng.choice(["compatible", "incompatible"])
            delta = schema_delta(
                target.schema, mutate_schema(target.schema, mode, seed=seed * 10 + k)
            )
            events.append(
                FaultEvent(
                    tick=tick,
                    kind=kind,
                    pipeline=target.id,
                    delta=delta,
                    partition=f"pt-{k}",
                )
            )
        else:  # resource contention, cluster-wide
            events.append(
                FaultEvent(
                    tick=tick,
                    kind=kind,
                    capacity_reduction=rng.randint(4, 10),
                    duration_ticks=rng.randrange(30, 150),
                )
            )

    total_max = sum(s.max_alloc for p in pipelines for s in p.stages)
    spec = ScenarioSpec(
        horizon=horizon,
        seed=seed,
        resource_model=ResourceModel(
            capacity=max(int(total_max * rng.uniform(0.6, 1.1)), 8),
            unit_price=price,
            storage_price=0.0,
        ),
        pipelines=tuple(pipelines),
        arrival_models=arrival_models,
        batch_models=batch_models,
        fault_schedule=tuple(sorted(events, key=lambda e: e.tick)),
    )

    allocations = derive_baseline_allocations(spec)
    reserved = sum(sum(stages.values()) for stages in allocations.values())
    window = rng.choice([300, 400, 480])
    binding = seed % 10 < 3
    if binding:
        budget = reserved * price * window * 1.02
    else:
        budget = total_max * price * window * 1.05

    doc = default_policy_dict()
    doc["cost"]["budget_per_window"] = budget
    doc["cost"]["window"] = window
    doc["schema"]["mode"] = rng.choice(["permissive", "strict", "permissive"])
    doc["schema"]["quarantine_allowed"] = rng.random() < 0.8
    policy = parse_policy(doc)
    return spec, policy, BaselineConfig(allocations=allocations), binding


@pytest.fixture(scope="module")
def fuzz_runs():
    runs = []
    for seed in FUZZ_SEEDS:
        spec, policy, config, binding = _fuzz_case(seed)
        result = run_experiment(spec, policy, controller="agentic", config=config)
        runs.append({"seed": seed, "policy": policy, "binding": binding, "result": result})
    return runs


@pytest.fixture(scope="module")
def canonical_compare_dirs(tmp_path_factory):
    scenario = str(REPO_ROOT / "scenarios" / "canonical.json")
    policy = str(REPO_ROOT / "policies" / "default.json")
    dirs = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp(f"accept-{name}")
        code = main(
            ["compare", "--scenario", scenario, "--policy", policy, "--out", str(out), "--quiet"]
        )
        assert code == 0
        dirs.append(out)
    return dirs


@pytest.fixture(scope="module")
def canonical_pair():
    spec = canonical_scenario()
    policy = parse_policy(default_policy_dict())
    config = BaselineConfig(allocations=derive_baseline_allocations(spec))
    static = run_experiment(spec, policy, controller="static", config=config)
    agentic_null = run_experiment(
        spec, policy, controller="agentic", backend=NullBackend(), config=config
    )
    return static, agentic_null


@pytest.fixture(scope="module")
def headline():
    spec = canonical_scenario()
    policy = parse_policy(default_policy_dict())
    comparisons = []
    per_seed_reports = []
    for seed in HEADLINE_SEEDS:
        run_spec = reseed(spec, seed)
        config = BaselineConfig(allocations=derive_baseline_allocations(run_spec))
        static = run_experiment(run_spec, policy, controller="static", config=config)
        agentic = run_experiment(run_spec, policy, controller="agentic", config=config)
        static_metrics = compute_metrics(static)
        agentic_metrics = compute_metrics(agentic)
        comparisons.append(compare(static_metrics, agentic_metrics))
        per_seed_reports.append((static_metrics, agentic_metrics))
    return aggregate_comparisons(comparisons), per_seed_reports


# ----------------------------------------------------------------------
# criteria

def test_criterion_1_determinism(canonical_compare_dirs):
    first, second = canonical_compare_dirs
    with _criterion(1, "comparison reruns are byte-identical"):
        rel_first = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        rel_second = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        assert rel_first == rel_second
        assert rel_first  # artifacts were actually written
        for rel in rel_first:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), str(rel)
        summary = json.loads((first / "comparison.json").read_text())
        assert summary["seed"] == 42
        assert summary["scenario_hash"].startswith("b933264430ab")


# SHA-256 of every artifact of ``compare`` on the canonical scenario and
# policy (seed 42), recorded with numpy 2.4.6 before the arrival trace and
# the streamed telemetry.csv writer replaced per-tick draws and csv.writer.
# Criterion 1 compares two runs of the same code; these pin the bytes
# themselves, so a formatter or sampler change cannot pass unnoticed.
CANONICAL_COMPARE_SHA256 = {
    "comparison.json": "78817b6c6eff5f4c1bfbd123da133f46a31a430725b02fda6ceafcd2598873d5",
    "cost_bars.csv": "59fa492c29fe2421b7832934830978249d8cce7de18d9507e511716589554be6",
    "metrics.csv": "a33020041d6d686fb835d66eaaea8166f099479a1d4ebfef1530dc2a5aec5576",
    "mttr_bars.csv": "9634a91eca827d915e91bb8a407c17f6b7fa7380c1e9c6505bb4f266ad9ccff5",
    "agentic/audit.jsonl": "120b8efd07ead917f94b71b48017d42cf2b993380834e4275034b747342544a4",
    "agentic/run.json": "683a5ec2b1cc26a07573be3dc4e6da76280a053a2619b0670b8857d742633d0b",
    "agentic/telemetry.csv": "58f928443672436b6cd196ee8c00391bac88bee427e5cf7b753a81f9f53a84a2",
    "static/audit.jsonl": "a4d1db3901c4bec4542f72ae19d448f6049ca6c557b54051aea5526a2cd37fcc",
    "static/run.json": "548b9697411d990cdc67aadee8f7a4b946b59ece5cbd8ca9362714604aa6229a",
    "static/telemetry.csv": "0eaf4245d77397571426e3e151c2f0be16ea7faf6bbd2be53d668128ee4eb2fd",
}


def test_canonical_artifacts_match_recorded_digests(canonical_compare_dirs):
    first = canonical_compare_dirs[0]
    digests = {
        p.relative_to(first).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in first.rglob("*")
        if p.is_file()
    }
    assert digests == CANONICAL_COMPARE_SHA256


# SHA-256 over the 50 criterion-2 agentic runs in seed order: each run's
# audit JSONL, then each telemetry series as (scope, name, samples). The
# canonical digests above cover one scenario; these random worlds add
# streaming drifts, contention, budgets and every fault kind, so kernel
# and agent bytes are pinned off the reference scenario too. A change that
# moves agent behaviour re-records it and lists the value old -> new.
FUZZ_AGENTIC_SHA256 = "cf2f2f448b3b8276ebe41723bb30de78fc72ace521d016f92142c843cd7beab6"


def test_fuzz_runs_match_recorded_digest(fuzz_runs):
    digest = hashlib.sha256()
    for run in fuzz_runs:
        result = run["result"]
        digest.update(result.audit.to_jsonl().encode("utf-8"))
        for scope, name in result.store.series_keys():
            samples = result.store.series(scope, name)
            digest.update(repr((scope, name, samples)).encode("utf-8"))
    assert digest.hexdigest() == FUZZ_AGENTIC_SHA256


def test_criterion_2_policy_safety(fuzz_runs, tmp_path):
    with _criterion(2, "every applied action cites an audited Allow verdict"):
        total_applied = 0
        for run in fuzz_runs:
            audit = run["result"].audit
            by_seq = {r.seq: r for r in audit.records}
            for record in audit.records:
                payload = record.payload
                if payload.get("kind") != "outcome" or payload.get("event") != "action_outcome":
                    continue
                decision = by_seq.get(payload.get("decision_ref"))
                assert decision is not None, f"seed {run['seed']}: outcome with no decision"
                assert decision.payload.get("kind") == "decision"
                assert decision.payload.get("verdict") == "Allow", (
                    f"seed {run['seed']}: executed without Allow"
                )
                if payload["result"]["status"] == "applied":
                    total_applied += 1

            log_path = tmp_path / f"audit-{run['seed']}.jsonl"
            audit.write_jsonl(str(log_path))
            assert main(["replay-audit", str(log_path), "--quiet"]) == 0, (
                f"seed {run['seed']}: audit replay failed"
            )
        assert total_applied > 0  # the corpus actually exercised execution
    ACCEPTANCE_LINES.append(
        f"criterion 2 detail: {len(fuzz_runs)} fuzzed runs, "
        f"{total_applied} applied actions, all audit replays clean"
    )


def test_criterion_3_budget_compliance(fuzz_runs):
    with _criterion(3, "windowed compute spend never exceeds the budget"):
        binding_runs = 0
        for run in fuzz_runs:
            policy = run["policy"]
            window = policy.cost.window
            budget = policy.cost.budget_per_window
            spends: dict[int, float] = defaultdict(float)
            for tick, value in run["result"].store.series("cluster", "cost"):
                spends[tick // window] += value
            for index, spend in sorted(spends.items()):
                assert spend <= budget + 1e-9, (
                    f"seed {run['seed']}: window {index} spent {spend:.2f} "
                    f"of budget {budget:.2f}"
                )
            binding_runs += run["binding"]
        assert binding_runs >= 10  # the bound binds in a meaningful slice
    ACCEPTANCE_LINES.append(
        f"criterion 3 detail: {binding_runs} of {len(fuzz_runs)} runs had "
        f"tight budgets; zero window breaches"
    )


def test_criterion_4_schema_classifier_equivalence():
    with _criterion(4, "classifier equals brute-force enumeration"):
        single_checks, single_bad = test_schema.run_single_change_enumeration()
        double_checks, double_bad = test_schema.run_double_change_enumeration()
        assert single_bad == []
        assert double_bad == []
        assert single_checks + double_checks > 100_000
    ACCEPTANCE_LINES.append(
        f"criterion 4 detail: {single_checks + double_checks} delta classifications matched"
    )


def test_criterion_5_record_accounting(fuzz_runs, canonical_pair):
    # The kernel asserts the balance at the top of every tick, so any
    # mid-run violation would have aborted the runs themselves; this
    # re-checks the final state of every world explicitly.
    results = [run["result"] for run in fuzz_runs] + list(canonical_pair)
    with _criterion(5, "ingress == materialized + queued + quarantined + dropped"):
        for result in results:
            check_accounting(result.world)
            c = result.counters
            assert c["ingress"] == (
                c["materialized"] + c["queued"] + c["quarantined"] + c["dropped"]
            )
            assert c["ingress"] > 0


def test_criterion_6_baseline_equivalence(canonical_pair):
    static, agentic_null = canonical_pair
    with _criterion(6, "agentless chassis reproduces the static baseline"):
        static_series = {
            key: static.store.series(*key) for key in static.store.series_keys()
        }
        null_series = {
            key: agentic_null.store.series(*key) for key in agentic_null.store.series_keys()
        }
        assert static_series == null_series
        assert [i.to_dict() for i in static.incidents] == [
            i.to_dict() for i in agentic_null.incidents
        ]
        assert static.interventions == agentic_null.interventions
        assert static.total_cost == agentic_null.total_cost
        assert static.counters == agentic_null.counters


def test_criterion_7_headline_improvements(headline):
    aggregate, per_seed = headline
    achieved = aggregate.mean_deltas
    floors = {"mttr_mean": 30.0, "total_cost": 15.0, "manual_interventions": 50.0}
    with _criterion(7, "reference-scenario improvements clear the floors"):
        for metric, floor in floors.items():
            assert achieved.get(metric) is not None, f"{metric} not comparable"
            assert achieved[metric] >= floor, (
                f"{metric}: achieved {achieved[metric]:.1f}%, required >= {floor:.0f}%"
            )
        stream_ids = sorted(per_seed[0][0].freshness_p95)
        assert len(stream_ids) == 2
        for pid in stream_ids:
            static_mean = sum(s.freshness_p95[pid] for s, _ in per_seed) / len(per_seed)
            agentic_mean = sum(a.freshness_p95[pid] for _, a in per_seed) / len(per_seed)
            assert agentic_mean <= static_mean, (
                f"freshness_p95 {pid}: agentic {agentic_mean:.2f} > static {static_mean:.2f}"
            )
    for metric, floor in floors.items():
        ACCEPTANCE_LINES.append(
            f"criterion 7 detail: {metric} reduced {achieved[metric]:.1f}% "
            f"(required >= {floor:.0f}%)"
        )
    for pid in stream_ids:
        static_mean = sum(s.freshness_p95[pid] for s, _ in per_seed) / len(per_seed)
        agentic_mean = sum(a.freshness_p95[pid] for _, a in per_seed) / len(per_seed)
        ACCEPTANCE_LINES.append(
            f"criterion 7 detail: freshness_p95[{pid}] agentic {agentic_mean:.2f} "
            f"<= static {static_mean:.2f}"
        )


def test_criterion_8_detector_step_response():
    with _criterion(8, "no flags on constants; big steps flagged at once"):
        detector = AnomalyDetector()
        for pid, value in (("a", 0.0), ("b", 7.5), ("c", 42.0)):
            for t in range(200):
                assert detector.observe_sample(t, pid, "ingress", value) is None

        rng = random.Random(77)
        for case in range(100):
            detector = AnomalyDetector()
            base = rng.uniform(-100.0, 100.0)
            warmup = rng.randint(5, 30)
            for t in range(warmup):
                assert detector.observe_sample(t, "p", "m", base) is None
            # 3 x sigma-floor is the flag threshold for a flat series
            magnitude = 3.0 * rng.uniform(1.001, 20.0)
            step = base + magnitude * rng.choice([-1.0, 1.0])
            assert detector.observe_sample(warmup, "p", "m", step) is not None, (
                f"case {case}: step of {magnitude:.3f} not flagged"
            )

            quiet = AnomalyDetector()
            for t in range(warmup):
                quiet.observe_sample(t, "p", "m", base)
            small = base + 3.0 * rng.uniform(0.0, 0.999)
            assert quiet.observe_sample(warmup, "p", "m", small) is None

            edge = AnomalyDetector()
            for t in range(warmup):
                edge.observe_sample(t, "p", "m", base)
            assert edge.observe_sample(warmup, "p", "m", base + 3.0) is None


def test_criterion_9_tamper_detection(canonical_compare_dirs, tmp_path, capsys):
    source_path = canonical_compare_dirs[0] / "agentic" / "audit.jsonl"
    lines = source_path.read_text().splitlines()

    def flip_hash_digit(line: str) -> str:
        record = json.loads(line)
        digest = record["hash"]
        flipped = digest[:-1] + ("1" if digest[-1] != "1" else "2")
        return line.replace(digest, flipped, 1)

    middle = next(
        i
        for i, line in enumerate(lines)
        if json.loads(line)["payload"].get("verdict") == "Allow"
    )
    cases = [
        (0, flip_hash_digit(lines[0])),
        (middle, lines[middle].replace("Allow", "AlloW", 1)),
        (len(lines) - 1, flip_hash_digit(lines[-1])),
    ]

    with _criterion(9, "single-byte audit tampering is located exactly"):
        for index, (target, tampered_line) in enumerate(cases):
            seq = json.loads(lines[target])["seq"]
            assert len(tampered_line) == len(lines[target])  # single-byte edit
            mutated = list(lines)
            mutated[target] = tampered_line
            path = tmp_path / f"tampered-{index}.jsonl"
            path.write_text("\n".join(mutated) + "\n")
            capsys.readouterr()
            assert main(["replay-audit", str(path)]) == 1
            err = capsys.readouterr().err
            assert f"audit chain broken at seq {seq}" in err, err

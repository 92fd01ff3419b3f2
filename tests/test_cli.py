"""Command-line interface: exit codes, artifacts, audit replay, shipped files."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from pipegov.agents import OperatorModel
from pipegov.cli import main
from pipegov.core import schema_delta
from pipegov.harness import BaselineConfig, derive_baseline_allocations, run_experiment
from pipegov.policy import parse_policy
from pipegov.scenario import (
    FaultEvent,
    FaultKind,
    canonical_scenario,
    default_policy_dict,
    mutate_schema,
    scenario_hash,
)
from pipegov.telemetry import GENESIS_PREV_HASH, canonical_json
from pipegov.telemetry.audit import compute_hash

from conftest import make_mini_scenario, make_stream_pipeline

REPO_ROOT = Path(__file__).resolve().parent.parent
RUN_FILES = {"audit.jsonl", "run.json", "telemetry.csv"}
COMPARE_FILES = {"comparison.json", "metrics.csv", "mttr_bars.csv", "cost_bars.csv"}


def _rechained(lines: list[str], seq: int, mutate) -> str:
    """The log with record ``seq``'s payload replaced by ``mutate(payload)``.

    Every hash from there on is recomputed, so the chain stays valid.
    """

    prev = GENESIS_PREV_HASH
    out = []
    for line in lines:
        raw = json.loads(line)
        if raw["seq"] == seq:
            raw["payload"] = mutate(raw["payload"])
        body = {k: raw[k] for k in ("seq", "tick", "actor", "payload", "policy_version")}
        raw["prev_hash"] = prev
        prev = raw["hash"] = compute_hash(prev, body)
        out.append(canonical_json(raw))
    return "\n".join(out) + "\n"


def _mini_spec():
    return make_mini_scenario(
        faults=[
            FaultEvent(
                tick=50,
                kind=FaultKind.TRANSIENT_TASK_FAILURE,
                pipeline="stream-a",
                stage="ingest",
            ),
            FaultEvent(
                tick=200,
                kind=FaultKind.UPSTREAM_DELAY,
                pipeline="stream-a",
                delay_ticks=30,
                missing_fraction=0.5,
            ),
        ]
    )


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(_mini_spec().to_dict()))
    policy = root / "policy.json"
    policy.write_text(json.dumps(default_policy_dict()))
    return str(scenario), str(policy)


@pytest.fixture(scope="module")
def compare_out(cli_files, tmp_path_factory):
    scenario, policy = cli_files
    out = tmp_path_factory.mktemp("compare")
    code = main(
        ["compare", "--scenario", scenario, "--policy", policy, "--out", str(out), "--quiet"]
    )
    assert code == 0
    return out


class TestRunCommand:
    def test_single_seed_writes_flat_layout(self, cli_files, tmp_path, capsys):
        scenario, policy = cli_files
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--scenario", scenario,
                "--policy", policy,
                "--controller", "static",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert {p.name for p in out.iterdir()} == RUN_FILES
        summary = json.loads((out / "run.json").read_text())
        assert summary["controller"] == "static"
        assert summary["seed"] == 7
        line = capsys.readouterr().out
        assert "run controller=static seed=7" in line

    def test_multi_seed_writes_seed_subdirs(self, cli_files, tmp_path):
        scenario, policy = cli_files
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--scenario", scenario,
                "--policy", policy,
                "--controller", "agentic",
                "--seed", "1",
                "--seed", "2",
                "--out", str(out),
                "--quiet",
            ]
        )
        assert code == 0
        assert {p.name for p in out.iterdir()} == {"seed-1", "seed-2"}
        for seed in (1, 2):
            seed_dir = out / f"seed-{seed}"
            assert {p.name for p in seed_dir.iterdir()} == RUN_FILES
            assert json.loads((seed_dir / "run.json").read_text())["seed"] == seed

    def test_unknown_backend_fails_cleanly(self, cli_files, tmp_path, capsys):
        scenario, policy = cli_files
        code = main(
            [
                "run",
                "--scenario", scenario,
                "--policy", policy,
                "--controller", "agentic",
                "--backend", "magic",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "backend" in capsys.readouterr().err

    def test_bad_controller_is_a_usage_error(self, cli_files, tmp_path):
        scenario, policy = cli_files
        code = main(
            [
                "run",
                "--scenario", scenario,
                "--policy", policy,
                "--controller", "manual",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2


class TestCompareCommand:
    def test_artifact_layout(self, compare_out):
        names = {p.name for p in compare_out.iterdir()}
        assert names == COMPARE_FILES | {"static", "agentic"}
        for controller in ("static", "agentic"):
            assert {p.name for p in (compare_out / controller).iterdir()} == RUN_FILES

    def test_comparison_json_shape(self, compare_out):
        raw = json.loads((compare_out / "comparison.json").read_text())
        assert set(raw) == {
            "agentic",
            "baseline",
            "deltas_percent",
            "policy_version",
            "scenario_hash",
            "seed",
        }
        assert raw["baseline"]["controller"] == "static"
        assert raw["agentic"]["controller"] == "agentic"
        assert raw["seed"] == 7

    def test_rerun_is_byte_identical(self, cli_files, compare_out, tmp_path):
        scenario, policy = cli_files
        again = tmp_path / "again"
        code = main(
            [
                "compare",
                "--scenario", scenario,
                "--policy", policy,
                "--out", str(again),
                "--quiet",
            ]
        )
        assert code == 0
        for rel in [
            "comparison.json",
            "metrics.csv",
            "mttr_bars.csv",
            "cost_bars.csv",
            "static/audit.jsonl",
            "static/run.json",
            "static/telemetry.csv",
            "agentic/audit.jsonl",
            "agentic/run.json",
            "agentic/telemetry.csv",
        ]:
            assert (again / rel).read_bytes() == (compare_out / rel).read_bytes(), rel

    def test_multi_seed_aggregate(self, cli_files, tmp_path, capsys):
        scenario, policy = cli_files
        out = tmp_path / "multi"
        code = main(
            [
                "compare",
                "--scenario", scenario,
                "--policy", policy,
                "--seed", "1",
                "--seed", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert {p.name for p in out.iterdir()} == {"seed-1", "seed-2", "comparison.json"}
        aggregate = json.loads((out / "comparison.json").read_text())
        assert set(aggregate) == {
            "scenario_hash",
            "seeds",
            "policy_version",
            "mean_deltas_percent",
            "stddev_deltas_percent",
            "per_seed",
        }
        assert aggregate["seeds"] == [1, 2]
        stdout = capsys.readouterr().out
        assert "mean over seeds [1, 2]" in stdout


class TestValidateCommands:
    def test_policy_accepts_shipped_default(self, capsys):
        code = main(["validate-policy", str(REPO_ROOT / "policies" / "default.json")])
        assert code == 0
        assert "policy gov-default version 1: valid" in capsys.readouterr().out

    def test_policy_names_the_broken_rule(self, tmp_path, capsys):
        doc = default_policy_dict()
        doc["cost"]["budget_per_window"] = -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-policy", str(path)]) == 1
        assert "cost.budget_per_window" in capsys.readouterr().err

    def test_policy_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate-policy", str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_scenario_accepts_shipped_canonical(self, capsys):
        code = main(["validate-scenario", str(REPO_ROOT / "scenarios" / "canonical.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario valid" in out
        assert "6 pipelines" in out

    def test_scenario_reports_issue_codes(self, tmp_path, capsys):
        raw = make_mini_scenario().to_dict()
        raw["arrival_models"] = {}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate-scenario", str(path)]) == 1
        assert "missing_arrival_model" in capsys.readouterr().err

    def test_scenario_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1,")
        assert main(["validate-scenario", str(path)]) == 1


class TestReplayAudit:
    def test_agentic_log_verifies(self, compare_out, capsys):
        code = main(["replay-audit", str(compare_out / "agentic" / "audit.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "audit chain verified" in out
        assert "decisions re-validated" in out

    def test_static_log_verifies(self, compare_out):
        assert main(["replay-audit", str(compare_out / "static" / "audit.jsonl"), "--quiet"]) == 0

    def test_tampered_record_is_located(self, compare_out, tmp_path, capsys):
        source = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        target = next(
            i
            for i, line in enumerate(source)
            if json.loads(line)["payload"].get("verdict") == "Allow"
        )
        seq = json.loads(source[target])["seq"]
        source[target] = source[target].replace("Allow", "AlloW", 1)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(source) + "\n")

        assert main(["replay-audit", str(tampered)]) == 1
        assert f"audit chain broken at seq {seq}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, mutate, message",
        [
            (
                "run_start",
                lambda p: {**p, "operator": {**p["operator"], "operator_delay": "soon"}},
                "operator_delay 'soon' is not an integer",
            ),
            ("initial", lambda p: {**p, "action": [p["action"]]}, "malformed decision record"),
            ("initial", lambda p: {**p, "context": [p["context"]]}, "malformed decision record"),
            ("initial", lambda p: {**p, "citations": 5}, "rule citations do not match"),
            ("initial", lambda p: [p], "malformed audit record"),
        ],
        ids=["operator-delay-string", "action-list", "context-list", "citations-int", "payload-list"],
    )
    def test_malformed_fields_in_a_valid_chain_are_rejected(
        self, compare_out, tmp_path, capsys, record, mutate, message
    ):
        lines = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        seq = next(
            raw["seq"]
            for raw in map(json.loads, lines)
            if record in (raw["payload"].get("event"), raw["payload"].get("phase"))
        )
        path = tmp_path / "malformed.jsonl"
        path.write_text(_rechained(lines, seq, mutate))

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert re.search(rf"seq {seq}\b", err), err

    def test_zero_delay_approval_log_verifies(self, tmp_path, capsys):
        # Approvals are drained at the start of a tick, so with operator_delay
        # 0 the regulated drift's request at tick 2 is granted at tick 3.
        base = make_stream_pipeline().schema
        drift = FaultEvent(
            tick=2,
            kind=FaultKind.SCHEMA_DRIFT,
            pipeline="stream-a",
            delta=schema_delta(base, mutate_schema(base, "incompatible", seed=4)),
            partition="pt-2",
        )
        spec = make_mini_scenario(faults=[drift], stream_tags=("regulated",))
        config = BaselineConfig(
            allocations=derive_baseline_allocations(spec), operator=OperatorModel(3, 5, 0)
        )
        result = run_experiment(
            spec, parse_policy(default_policy_dict()), controller="agentic", config=config
        )
        grants = [
            r.tick for r in result.audit.records if r.payload.get("phase") == "approval_grant"
        ]
        assert grants == [3]
        path = tmp_path / "audit.jsonl"
        result.audit.write_jsonl(str(path))

        assert main(["replay-audit", str(path)]) == 0, capsys.readouterr().err

    def test_empty_log_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["replay-audit", str(path)]) == 1
        assert "empty audit log" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_arguments(self, cli_files):
        scenario, _ = cli_files
        assert main(["run", "--scenario", scenario]) == 2

    def test_non_integer_seed(self, cli_files, tmp_path):
        scenario, policy = cli_files
        code = main(
            [
                "compare",
                "--scenario", scenario,
                "--policy", policy,
                "--seed", "lucky",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2


class TestShippedFiles:
    def test_canonical_hash_is_stable(self):
        assert scenario_hash(canonical_scenario()).startswith("b933264430ab")

    def test_default_policy_is_stable(self):
        policy = parse_policy(default_policy_dict())
        digest = hashlib.sha256(canonical_json(policy.to_dict()).encode("utf-8")).hexdigest()
        assert digest == "bc23915a5547f126457f52cb24f859934676885a9b34e82006a7fe7f209da5ec"

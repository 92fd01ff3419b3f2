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
from pipegov.harness import (
    BaselineConfig,
    derive_baseline_allocations,
    replay_audit,
    run_experiment,
)
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

import oracles
from conftest import MALFORMED_CANONICAL, make_mini_scenario, make_stream_pipeline, malformed_canonical

REPO_ROOT = Path(__file__).resolve().parent.parent
RUN_FILES = {"audit.jsonl", "run.json", "telemetry.csv"}
COMPARE_FILES = {"comparison.json", "metrics.csv", "mttr_bars.csv", "cost_bars.csv"}


def _rechain(rows: list[dict]) -> str:
    """The log of ``rows``, renumbered from 1 and hash-chained afresh."""

    prev = GENESIS_PREV_HASH
    out = []
    for seq, raw in enumerate(rows, 1):
        raw = {**raw, "seq": seq, "prev_hash": prev}
        prev = raw["hash"] = oracles.oracle_record_hash(raw)
        out.append(canonical_json(raw))
    return "\n".join(out) + "\n"


def _rechained(lines: list[str], seq: int, mutate) -> str:
    """The log with record ``seq``'s payload replaced by ``mutate(payload)``.

    Every hash from there on is recomputed, so the chain stays valid.
    """

    rows = [json.loads(line) for line in lines]
    rows[seq - 1]["payload"] = mutate(rows[seq - 1]["payload"])
    return _rechain(rows)


# Forgeries of a log's action outcomes: each takes the parsed rows and the
# action_outcome rows among them, edits them in place, and returns the rows.

def _refs_swapped(rows, outcomes):
    first, second = (outcome["payload"] for outcome in outcomes[:2])
    first["decision_ref"], second["decision_ref"] = second["decision_ref"], first["decision_ref"]
    return rows


def _outcome_duplicated(rows, outcomes):
    return rows + [outcomes[0]]


def _later_decision_cited(rows, outcomes):
    outcomes[0]["payload"]["decision_ref"] = outcomes[-1]["payload"]["decision_ref"]
    return rows


def _action_id_changed(rows, outcomes):
    outcomes[0]["payload"]["result"]["action_id"] = "ACT-99999"
    return rows


# Forgeries of a log's incident records: each takes the parsed rows, edits
# or extends them, and returns the rows and the seq replay must reject.

def _first(rows, match) -> int:
    return next(i for i, row in enumerate(rows) if match(row["payload"]))


def _closed_twice(rows):
    at = _first(rows, lambda p: p.get("event") == "incident_closed")
    return rows[: at + 1] + [rows[at]] + rows[at + 1 :], at + 2


def _cites(agent, kind, incident_id):
    def forge(rows):
        at = _first(
            rows,
            lambda p: p.get("kind") == "proposal"
            and (p["action"]["agent"], p["action"]["kind"]) == (agent, kind),
        )
        for row in rows[at : at + 2]:  # the proposal and its decision
            row["payload"]["action"]["incident_id"] = incident_id
        return rows, at + 2

    return forge


def _decision_uncited(rows):
    # An agent remedy may cite no incident, but its proposal cited one.
    at = _first(rows, lambda p: p.get("kind") == "proposal" and p["action"]["kind"] == "Defer")
    rows[at + 1]["payload"]["action"]["incident_id"] = None
    return rows, at + 2


def _resolution_forged(rows):
    at = _first(rows, lambda p: p.get("event") == "incident_closed")
    rows[at]["payload"]["incident"]["resolution"] = "Halt"
    return rows, at + 1


def _delay_opened_twice(rows):
    # The next incident opened on stream-a, while its UpstreamDelay is still open.
    delay = _first(rows, lambda p: p.get("incident", {}).get("incident_class") == "UpstreamDelay")
    at = delay + 1 + _first(rows[delay + 1 :], lambda p: p.get("event") == "incident_opened")
    rows[at]["payload"]["incident"]["incident_class"] = "UpstreamDelay"
    return rows, at + 1


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


@pytest.fixture(scope="module")
def approval_log():
    """An agentic log with one approval grant: a regulated stream's
    incompatible drift at tick 2, operator_delay 0."""

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
    return result.audit.to_jsonl()


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

    @pytest.mark.parametrize("keys, value", MALFORMED_CANONICAL)
    def test_scenario_malformed_field_is_named(self, tmp_path, capsys, keys, value):
        doc, field = malformed_canonical(keys, value)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {field}: " in err, err
        assert "Traceback" not in err

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
            (
                "incident_opened",
                lambda p: {**p, "incident": {**p["incident"], "incident_class": "Gremlin"}},
                "malformed incident_opened record",
            ),
        ],
        ids=[
            "operator-delay-string",
            "action-list",
            "context-list",
            "citations-int",
            "payload-list",
            "incident-class-unknown",
        ],
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

    @pytest.mark.parametrize(
        "key, retype",
        [
            ("policy_version", lambda value: "true"),
            ("seq", lambda value: f"{value}.0"),
            ("tick", lambda value: f'"{value}"'),
        ],
        ids=["version-bool", "seq-float", "tick-string"],
    )
    def test_retyped_integer_field_is_malformed(
        self, compare_out, tmp_path, capsys, key, retype
    ):
        # Each edit reads back as the hashed value under int(), so the chain
        # would still verify; the record's type must be checked instead.
        lines = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        value = json.loads(lines[1])[key]
        assert key != "policy_version" or value == 1
        # The record's own fields follow its payload, so the last match is theirs.
        head, _, tail = lines[1].rpartition(f'"{key}":{value}')
        lines[1] = f'{head}"{key}":{retype(value)}{tail}'
        path = tmp_path / "retyped.jsonl"
        path.write_text("\n".join(lines) + "\n")

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert "malformed audit record at seq 2: " in err, err
        assert f"{key} is " in err, err

    def test_retyped_action_field_is_a_malformed_decision(self, compare_out, tmp_path, capsys):
        # int("30") would replay as 30, so the retyped tick must be caught by type.
        lines = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        seq, tick = next(
            (raw["seq"], raw["payload"]["action"]["tick"])
            for raw in map(json.loads, lines)
            if raw["payload"].get("phase") == "initial"
        )
        path = tmp_path / "retyped-action.jsonl"
        path.write_text(
            _rechained(lines, seq, lambda p: {**p, "action": {**p["action"], "tick": str(tick)}})
        )

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"seq {seq}: malformed decision record: action.tick: must be an integer, got '{tick}'" in err, err

    def test_context_with_a_window_of_its_own_is_malformed(self, compare_out, tmp_path, capsys):
        # New units are priced over the policy's window; a context carrying
        # the window_remaining key older logs wrote is rejected, not read.
        lines = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        seq = next(
            raw["seq"] for raw in map(json.loads, lines) if raw["payload"].get("phase") == "initial"
        )
        path = tmp_path / "window-remaining.jsonl"
        path.write_text(
            _rechained(lines, seq, lambda p: {**p, "context": {**p["context"], "window_remaining": 1440}})
        )

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"seq {seq}: malformed decision record: " in err, err
        assert "window_remaining" in err, err

    def test_scale_up_is_repriced_over_the_embedded_policy_window(
        self, cli_files, tmp_path, capsys
    ):
        # A stub backend proposes one ScaleUp, which the policy allows. A
        # thousandfold window in the embedded policy prices its new units
        # past the budget, so the recorded verdict no longer follows.
        scenario, policy = cli_files
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps({"5:OptimizationAgent": [{"kind": "ScaleUp", "pipeline": "stream-a", "delta_units": 1}]})
        )
        out = tmp_path / "run"
        args = ["--scenario", scenario, "--policy", policy, "--out", str(out), "--quiet"]
        assert main(["run", "--controller", "agentic", "--backend", f"stub:{script}", *args]) == 0
        lines = (out / "audit.jsonl").read_text().splitlines()
        (seq,) = (
            raw["seq"]
            for raw in map(json.loads, lines)
            if raw["payload"].get("phase") == "initial" and raw["payload"]["action"]["kind"] == "ScaleUp"
        )
        assert json.loads(lines[seq - 1])["payload"]["verdict"] == "Allow"
        assert main(["replay-audit", str(out / "audit.jsonl"), "--quiet"]) == 0

        def widen(payload):
            cost = {**payload["policy"]["cost"]}
            cost["window"] *= 1000
            return {**payload, "policy": {**payload["policy"], "cost": cost}}

        path = tmp_path / "widened.jsonl"
        path.write_text(_rechained(lines, 1, widen))

        assert main(["replay-audit", str(path)]) == 1
        assert f"seq {seq}: recorded verdict 'Allow' but policy says 'Deny'" in capsys.readouterr().err

    def test_grant_needs_the_operator_settings(self, approval_log, tmp_path, capsys):
        # Without operator_delay the grant's due tick cannot be checked.
        lines = approval_log.splitlines()
        path = tmp_path / "no-operator.jsonl"
        path.write_text(
            _rechained(lines, 1, lambda p: {k: v for k, v in p.items() if k != "operator"})
        )

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert ": approval grant, but no run_start record gives operator_delay" in err, err

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

    def test_unknown_decision_phase_is_rejected(self, compare_out, tmp_path, capsys):
        # A decision no phase check re-validates could still authorise an outcome.
        lines = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        seq = next(
            raw["seq"]
            for raw in map(json.loads, lines)
            if raw["payload"].get("phase") == "initial" and raw["payload"]["verdict"] == "Allow"
        )

        def relabel(payload):
            action = {**payload["action"], "agent": "MonitoringAgent", "kind": "Halt"}
            return {**payload, "phase": "bogus", "action": action}

        path = tmp_path / "bogus.jsonl"
        path.write_text(_rechained(lines, seq, relabel))

        assert main(["replay-audit", str(path)]) == 1
        assert f"seq {seq}: decision record has unknown phase 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "forge, message",
        [
            (_refs_swapped, "which is not earlier"),
            (_outcome_duplicated, "which already authorised an outcome"),
            (_later_decision_cited, "which is not earlier"),
            (_action_id_changed, "action outcome is not for its decision's action"),
        ],
        ids=["refs-swapped", "outcome-duplicated", "later-decision", "action-id"],
    )
    def test_outcome_must_spend_an_earlier_decision_once(
        self, compare_out, tmp_path, capsys, forge, message
    ):
        lines = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        outcomes = [row for row in rows if row["payload"].get("event") == "action_outcome"]
        assert len(outcomes) >= 2
        path = tmp_path / "forged.jsonl"
        path.write_text(_rechain(forge(rows, outcomes)))

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert "action outcome cites seq" in err or "action outcome is not" in err, err
        assert message in err, err

    @pytest.mark.parametrize(
        "controller, forge, message",
        [
            ("static", _closed_twice, "no open incident 'INC-0001'"),
            ("agentic", _cites("RecoveryAgent", "Defer", "INC-0001"), "no open incident 'INC-0001'"),
            ("agentic", _cites("RecoveryAgent", "Defer", "INC-0099"), "no open incident 'INC-0099'"),
            ("static", _cites("Baseline", "Replay", None), "Baseline proposal cites no incident"),
            ("agentic", _decision_uncited, "decision does not follow its proposal"),
            ("agentic", _resolution_forged, "'resolution': 'Halt', 'resumed_tick': 56} differs"),
            ("agentic", _delay_opened_twice, "illegal incident transition: INC-0002 is still open"),
        ],
        ids=[
            "closed-twice",
            "defer-to-closed",
            "defer-to-unknown",
            "retry-uncited",
            "decision-uncited",
            "resolution-not-applied",
            "delay-opened-twice",
        ],
    )
    def test_illegal_incident_transition_is_rejected(
        self, compare_out, tmp_path, capsys, controller, forge, message
    ):
        lines = (compare_out / controller / "audit.jsonl").read_text().splitlines()
        rows, seq = forge([json.loads(line) for line in lines])
        path = tmp_path / "forged.jsonl"
        path.write_text(_rechain(rows))

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"seq {seq}: " in err and message in err, err

    def test_the_earliest_bad_seq_is_reported(self, compare_out, tmp_path, capsys):
        # An incident closed twice, then a decision whose verdict was flipped.
        lines = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        rows, seq = _closed_twice([json.loads(line) for line in lines])
        at = seq + _first(
            rows[seq:], lambda p: p.get("phase") == "initial" and p["verdict"] == "Allow"
        )
        rows[at]["payload"]["verdict"] = "Deny"
        path = tmp_path / "forged.jsonl"
        path.write_text(_rechain(rows))

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"seq {seq}: illegal incident transition: no open incident" in err, err

    def test_decision_needs_a_policy_embedded_before_it(self, compare_out, tmp_path, capsys):
        lines = (compare_out / "agentic" / "audit.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        at = _first(rows, lambda p: p.get("phase") == "initial")
        # run_start moves to just after that decision; the records between
        # move up one seq, and so do the citations of them.
        for payload in (row["payload"] for row in rows):
            for key in ("decision_ref", "approved_ref"):
                if 2 <= payload.get(key, 0) <= at + 1:
                    payload[key] -= 1
        path = tmp_path / "late_start.jsonl"
        path.write_text(_rechain(rows[1 : at + 1] + rows[:1] + rows[at + 1 :]))

        assert main(["replay-audit", str(path)]) == 1
        assert f"seq {at}: no policy document for version 1" in capsys.readouterr().err

    def test_request_is_granted_once(self, approval_log, tmp_path, capsys):
        rows = [json.loads(line) for line in approval_log.splitlines()]
        grant = next(row for row in rows if row["payload"].get("phase") == "approval_grant")
        path = tmp_path / "regranted.jsonl"
        path.write_text(_rechain(rows + [grant]))

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"seq {len(rows) + 1}: approval grant cites seq " in err
        assert "which was already granted" in err

    def test_negative_operator_delay_is_malformed(self, approval_log, tmp_path, capsys):
        lines = approval_log.splitlines()
        path = tmp_path / "negative.jsonl"
        path.write_text(
            _rechained(lines, 1, lambda p: {**p, "operator": {**p["operator"], "operator_delay": -1}})
        )

        assert main(["replay-audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert "seq 1: malformed run_start record: operator_delay must be >= 0" in err

    def test_library_returns_the_summary_and_prints_nothing(self, compare_out, tmp_path, capsys):
        path = compare_out / "agentic" / "audit.jsonl"
        replay = replay_audit(str(path))
        assert capsys.readouterr() == ("", "")
        assert replay.problem is None
        assert len(replay.records) == len(path.read_text().splitlines())
        assert main(["replay-audit", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"audit chain verified: {len(replay.records)} records, "
            f"{replay.decisions} decisions re-validated\n"
        )

        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(path.read_text().replace('"Allow"', '"AlloW"', 1))
        problem = replay_audit(str(tampered)).problem
        assert problem is not None and problem.startswith("audit chain broken at seq ")
        assert main(["replay-audit", str(tampered)]) == 1
        assert capsys.readouterr().err == f"{tampered}: {problem}\n"


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

    @pytest.mark.parametrize("command", [["run", "--controller", "static"], ["compare"]])
    def test_repeated_seed(self, cli_files, tmp_path, capsys, command):
        scenario, policy = cli_files
        out = tmp_path / "out"
        code = main(
            [
                *command,
                "--scenario", scenario,
                "--policy", policy,
                "--seed", "1",
                "--seed", "2",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "argument --seed: seed 1 given more than once" in capsys.readouterr().err
        assert not out.exists()


class TestShippedFiles:
    def test_canonical_hash_is_stable(self):
        assert scenario_hash(canonical_scenario()).startswith("b933264430ab")

    def test_default_policy_is_stable(self):
        policy = parse_policy(default_policy_dict())
        digest = hashlib.sha256(canonical_json(policy.to_dict()).encode("utf-8")).hexdigest()
        assert digest == "bc23915a5547f126457f52cb24f859934676885a9b34e82006a7fe7f209da5ec"

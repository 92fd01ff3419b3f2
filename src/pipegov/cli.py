"""Command-line entry point.

Subcommands:

- ``run``               one controller on one scenario; writes run artifacts
- ``compare``           static vs agentic on the same scenario/seed(s)
- ``validate-policy``   parse and check a policy document
- ``validate-scenario`` parse and check a scenario file
- ``replay-audit``      verify an audit log's hash chain and re-validate
                        every recorded decision against the embedded policy

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .agents.backends import BackendError, ReasoningBackend, make_backend
from .core.actions import ProposedAction
from .harness.baseline import BaselineConfig, derive_baseline_allocations
from .harness.metrics import aggregate_comparisons, compare, compute_metrics
from .harness.report import (
    IoFailure,
    emit_aggregate_report,
    emit_report,
    write_run_artifacts,
)
from .harness.runner import reseed, run_experiment
from .policy.engine import ValidationContext, Verdict, validate_action
from .policy.model import PolicyDocument, PolicyError, parse_policy
from .scenario.model import (
    ScenarioError,
    ScenarioSpec,
    parse_scenario,
    scenario_hash,
    validate_scenario,
)
from .telemetry.audit import AuditRecord, load_audit_jsonl


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _load_json_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_scenario(path: str) -> ScenarioSpec:
    try:
        raw = _load_json_file(path)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        return parse_scenario(raw)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _load_policy(path: str) -> PolicyDocument:
    try:
        raw = _load_json_file(path)
    except OSError as exc:
        raise PolicyError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PolicyError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        return parse_policy(raw)
    except PolicyError as exc:
        raise PolicyError(f"{path}: {exc}") from exc


def _make_out_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


# ----------------------------------------------------------------------
# replay-audit

def _replay_audit(path: str, quiet: bool) -> int:
    records, first_bad, malformed = load_audit_jsonl(path)
    if malformed is not None:
        _err(f"{path}: malformed audit record at seq {first_bad}: {malformed}")
        return 1
    if first_bad is not None:
        _err(f"{path}: audit chain broken at seq {first_bad}")
        return 1
    if not records:
        _err(f"{path}: empty audit log")
        return 1

    policies: dict[int, PolicyDocument] = {}
    operator_delay: int | None = None
    by_seq: dict[int, AuditRecord] = {r.seq: r for r in records}

    for record in records:
        if record.payload.get("kind") != "policy_change":
            continue
        doc = record.payload.get("policy")
        if doc is None:
            continue
        try:
            policy = parse_policy(doc)
        except PolicyError as exc:
            _err(f"{path}: seq {record.seq}: embedded policy invalid: {exc}")
            return 1
        policies[policy.version] = policy
        operator = record.payload.get("operator")
        if isinstance(operator, dict) and "operator_delay" in operator:
            operator_delay = operator["operator_delay"]
            if type(operator_delay) is not int:
                _err(
                    f"{path}: seq {record.seq}: malformed run_start record: "
                    f"operator_delay {operator_delay!r} is not an integer"
                )
                return 1

    checked = 0
    for record in records:
        payload = record.payload
        kind = payload.get("kind")
        if kind == "decision":
            phase = payload.get("phase")
            if phase == "initial":
                policy = policies.get(record.policy_version)
                if policy is None:
                    _err(
                        f"{path}: seq {record.seq}: no policy document for "
                        f"version {record.policy_version}"
                    )
                    return 1
                try:
                    action = ProposedAction.from_dict(payload["action"])
                    context = ValidationContext.from_dict(payload["context"])
                except (KeyError, TypeError, ValueError) as exc:
                    _err(f"{path}: seq {record.seq}: malformed decision record: {exc}")
                    return 1
                decision = validate_action(policy, action, context)
                if decision.verdict.value != payload.get("verdict"):
                    _err(
                        f"{path}: seq {record.seq}: recorded verdict "
                        f"{payload.get('verdict')!r} but policy says "
                        f"{decision.verdict.value!r}"
                    )
                    return 1
                if list(decision.rule_citations) != payload.get("citations", []):
                    _err(f"{path}: seq {record.seq}: rule citations do not match policy")
                    return 1
                checked += 1
            elif phase == "approval_grant":
                ref = payload.get("approved_ref")
                request = by_seq.get(ref) if isinstance(ref, int) else None
                if request is None or request.payload.get("kind") != "decision":
                    _err(f"{path}: seq {record.seq}: approval grant cites no decision")
                    return 1
                if request.payload.get("verdict") != Verdict.REQUIRE_APPROVAL.value:
                    _err(
                        f"{path}: seq {record.seq}: approval grant cites a decision "
                        f"that did not require approval"
                    )
                    return 1
                if request.payload.get("action") != payload.get("action"):
                    _err(f"{path}: seq {record.seq}: approval grant action mismatch")
                    return 1
                # Approvals are drained at the start of a tick, so a grant
                # lands no earlier than the tick after its request.
                if operator_delay is not None:
                    due = request.tick + max(operator_delay, 1)
                    if record.tick != due:
                        _err(
                            f"{path}: seq {record.seq}: approval granted at tick "
                            f"{record.tick}, expected {due}"
                        )
                        return 1
                checked += 1
        elif kind == "outcome" and payload.get("event") == "action_outcome":
            ref = payload.get("decision_ref")
            decision_rec = by_seq.get(ref) if isinstance(ref, int) else None
            if decision_rec is None or decision_rec.payload.get("kind") != "decision":
                _err(f"{path}: seq {record.seq}: action outcome cites no decision")
                return 1
            if decision_rec.payload.get("verdict") != Verdict.ALLOW.value:
                _err(
                    f"{path}: seq {record.seq}: action executed without an "
                    f"Allow verdict"
                )
                return 1

    if not quiet:
        print(
            f"audit chain verified: {len(records)} records, "
            f"{checked} decisions re-validated"
        )
    return 0


# ----------------------------------------------------------------------
# run / compare

def _prepare_experiment(
    args: argparse.Namespace,
) -> tuple[ScenarioSpec, PolicyDocument, ReasoningBackend, list[int]] | None:
    """Scenario, policy, backend and seeds for run/compare; None after reporting a problem."""

    try:
        spec = _load_scenario(args.scenario)
        policy = _load_policy(args.policy)
    except (ScenarioError, PolicyError) as exc:
        _err(str(exc))
        return None
    issues = validate_scenario(spec)
    if issues:
        for issue in issues:
            _err(f"{args.scenario}: {issue.code}: {issue.subject}: {issue.message}")
        return None
    try:
        backend = make_backend(args.backend)
    except (BackendError, OSError, json.JSONDecodeError) as exc:
        _err(f"backend: {exc}")
        return None
    return spec, policy, backend, args.seed if args.seed else [spec.seed]


def _cmd_run(args: argparse.Namespace) -> int:
    prepared = _prepare_experiment(args)
    if prepared is None:
        return 1
    spec, policy, backend, seeds = prepared
    try:
        for seed in seeds:
            run_spec = reseed(spec, seed)
            config = BaselineConfig(allocations=derive_baseline_allocations(run_spec))
            result = run_experiment(
                run_spec, policy, controller=args.controller, backend=backend, config=config
            )
            out_dir = (
                args.out if len(seeds) == 1 else os.path.join(args.out, f"seed-{seed}")
            )
            _make_out_dir(out_dir)
            write_run_artifacts(result, out_dir)
            if not args.quiet:
                closed = sum(1 for inc in result.incidents if not inc.open)
                print(
                    f"run controller={result.controller} seed={seed} "
                    f"incidents={len(result.incidents)} (closed {closed}) "
                    f"cost={result.total_cost:.2f} "
                    f"interventions={result.interventions} -> {out_dir}"
                )
    except (ValueError, IoFailure) as exc:
        _err(str(exc))
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    prepared = _prepare_experiment(args)
    if prepared is None:
        return 1
    spec, policy, backend, seeds = prepared
    comparisons = []
    try:
        for seed in seeds:
            run_spec = reseed(spec, seed)
            config = BaselineConfig(allocations=derive_baseline_allocations(run_spec))
            static = run_experiment(run_spec, policy, controller="static", config=config)
            agentic = run_experiment(
                run_spec, policy, controller="agentic", backend=backend, config=config
            )
            comparison = compare(compute_metrics(static), compute_metrics(agentic))
            comparisons.append(comparison)

            seed_dir = (
                args.out if len(seeds) == 1 else os.path.join(args.out, f"seed-{seed}")
            )
            _make_out_dir(seed_dir)
            emit_report(comparison, seed_dir)
            for result in (static, agentic):
                run_dir = os.path.join(seed_dir, result.controller)
                _make_out_dir(run_dir)
                write_run_artifacts(result, run_dir)
            if not args.quiet:
                deltas = ", ".join(
                    f"{k} {v:+.1f}%" for k, v in sorted(comparison.deltas_percent.items())
                )
                print(f"seed {seed}: {deltas or 'no comparable deltas'}")
        if len(comparisons) > 1:
            aggregate = aggregate_comparisons(comparisons)
            emit_aggregate_report(aggregate, args.out)
            if not args.quiet:
                summary = ", ".join(
                    f"{k} {v:+.1f}%" for k, v in sorted(aggregate.mean_deltas.items())
                )
                print(f"mean over seeds {list(aggregate.seeds)}: {summary}")
    except (ValueError, IoFailure) as exc:
        _err(str(exc))
        return 1
    return 0


def _cmd_validate_policy(args: argparse.Namespace) -> int:
    try:
        policy = _load_policy(args.file)
    except PolicyError as exc:
        _err(str(exc))
        return 1
    if not args.quiet:
        print(f"policy {policy.id} version {policy.version}: valid")
    return 0


def _cmd_validate_scenario(args: argparse.Namespace) -> int:
    try:
        spec = _load_scenario(args.file)
    except ScenarioError as exc:
        _err(str(exc))
        return 1
    issues = validate_scenario(spec)
    if issues:
        for issue in issues:
            _err(f"{args.file}: {issue.code}: {issue.subject}: {issue.message}")
        return 1
    if not args.quiet:
        print(
            f"scenario valid: horizon {spec.horizon}, "
            f"{len(spec.pipelines)} pipelines, hash {scenario_hash(spec)[:12]}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipegov",
        description="Policy-governed pipeline control experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, controller: bool) -> None:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--policy", required=True, help="policy JSON file")
        if controller:
            p.add_argument(
                "--controller", required=True, choices=("static", "agentic")
            )
        p.add_argument(
            "--backend",
            default="builtin",
            help="reasoning backend: builtin | null | stub:<path>",
        )
        p.add_argument(
            "--seed",
            action="append",
            type=int,
            help="override scenario seed (repeatable for multi-seed batches)",
        )
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true")

    run_p = sub.add_parser("run", help="run one controller on a scenario")
    add_common(run_p, controller=True)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run static and agentic, compare metrics")
    add_common(cmp_p, controller=False)
    cmp_p.set_defaults(func=_cmd_compare)

    vp = sub.add_parser("validate-policy", help="check a policy document")
    vp.add_argument("file")
    vp.add_argument("--quiet", action="store_true")
    vp.set_defaults(func=_cmd_validate_policy)

    vs = sub.add_parser("validate-scenario", help="check a scenario file")
    vs.add_argument("file")
    vs.add_argument("--quiet", action="store_true")
    vs.set_defaults(func=_cmd_validate_scenario)

    ra = sub.add_parser(
        "replay-audit", help="verify an audit log and re-validate its decisions"
    )
    ra.add_argument("file")
    ra.add_argument("--quiet", action="store_true")
    ra.set_defaults(func=lambda a: _replay_audit(a.file, a.quiet))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

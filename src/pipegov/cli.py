"""Command-line entry point.

Subcommands:

- ``run``               one controller on one scenario; writes run artifacts
- ``compare``           static vs agentic on the same scenario/seed(s)
- ``validate-policy``   parse and check a policy document
- ``validate-scenario`` parse and check a scenario file
- ``replay-audit``      check an audit log: chain, embedded policies, decision
                        re-validation, grants and their due tick, outcome
                        links, and the incident ledger folded over the log

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, TypeVar

from .agents.backends import BackendError, ReasoningBackend, make_backend
from .harness.baseline import BaselineConfig, derive_baseline_allocations
from .harness.metrics import aggregate_comparisons, compare, compute_metrics
from .harness.replay import replay_audit
from .harness.report import (
    IoFailure,
    emit_aggregate_report,
    emit_report,
    write_run_artifacts,
)
from .harness.runner import reseed, run_experiment
from .policy.model import PolicyDocument, PolicyError, parse_policy
from .scenario.model import (
    ScenarioError,
    ScenarioSpec,
    parse_scenario,
    scenario_hash,
    validate_scenario,
)


T = TypeVar("T")


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _load(path: str, parse: Callable[[object], T], error: type[ValueError]) -> T:
    """``parse`` of the JSON file at ``path``; every problem is an ``error``
    whose message starts with the path."""

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise error(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        return parse(raw)
    except error as exc:
        raise error(f"{path}: {exc}") from exc


def _report_issues(path: str, spec: ScenarioSpec) -> bool:
    """Print each of the scenario's validation issues; True when there are any."""

    issues = validate_scenario(spec)
    for issue in issues:
        _err(f"{path}: {issue.code}: {issue.subject}: {issue.message}")
    return bool(issues)


# ----------------------------------------------------------------------
# replay-audit

def _replay_audit(path: str, quiet: bool) -> int:
    replay = replay_audit(path)
    if replay.problem is not None:
        _err(f"{path}: {replay.problem}")
        return 1
    if not quiet:
        records, decisions = len(replay.records), replay.decisions
        print(f"audit chain verified: {records} records, {decisions} decisions re-validated")
    return 0


# ----------------------------------------------------------------------
# run / compare

def _prepare_experiment(
    args: argparse.Namespace,
) -> tuple[ScenarioSpec, PolicyDocument, ReasoningBackend, list[int]] | None:
    """Scenario, policy, backend and seeds for run/compare; None after reporting a problem."""

    try:
        spec = _load(args.scenario, parse_scenario, ScenarioError)
        policy = _load(args.policy, parse_policy, PolicyError)
    except (ScenarioError, PolicyError) as exc:
        _err(str(exc))
        return None
    if _report_issues(args.scenario, spec):
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
            os.makedirs(out_dir, exist_ok=True)
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
            os.makedirs(seed_dir, exist_ok=True)
            emit_report(comparison, seed_dir)
            for result in (static, agentic):
                run_dir = os.path.join(seed_dir, result.controller)
                os.makedirs(run_dir, exist_ok=True)
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
        policy = _load(args.file, parse_policy, PolicyError)
    except PolicyError as exc:
        _err(str(exc))
        return 1
    if not args.quiet:
        print(f"policy {policy.id} version {policy.version}: valid")
    return 0


def _cmd_validate_scenario(args: argparse.Namespace) -> int:
    try:
        spec = _load(args.file, parse_scenario, ScenarioError)
    except ScenarioError as exc:
        _err(str(exc))
        return 1
    if _report_issues(args.file, spec):
        return 1
    if not args.quiet:
        print(
            f"scenario valid: horizon {spec.horizon}, "
            f"{len(spec.pipelines)} pipelines, hash {scenario_hash(spec)[:12]}"
        )
    return 0


class _AppendNewSeed(argparse.Action):
    """``--seed``, repeatable: a seed given twice would run twice, write its
    directory twice and count twice in the multi-seed aggregate."""

    def __call__(self, parser, namespace, value, option_string=None):
        seeds = getattr(namespace, self.dest) or []
        if value in seeds:
            raise argparse.ArgumentError(self, f"seed {value} given more than once")
        setattr(namespace, self.dest, [*seeds, value])


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
            help="reasoning backend: builtin | builtin:<agent>[,<agent>...] | null | stub:<path>",
        )
        p.add_argument(
            "--seed",
            action=_AppendNewSeed,
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

"""Command-line entry points.

Subcommands:

    validate <scenario.json>                  design-checklist report
    run      <scenario.json> --out DIR        execute one run (--seed overrides file)
    compare  <scenario.json> --out DIR        automated vs fixed-output twin
    sweep    <scenario.json> --seeds N --out DIR   N independent seeds + aggregate,
                                              one process per usable core
    replay   <rundir>                         re-verify stored outputs

Exit codes: 0 ok, 2 validation failure, 3 runtime fault (or replay mismatch).
A scenario path that cannot be read, ``sweep --seeds`` below 1 and ``compare``
on a ManualFixed policy, which has nothing to compare against, are validation
failures; an output that cannot be written (``--out`` names a file, say) or
that holds a metric which is not finite is a fault, and so is a replay whose
stored scenario.json is unreadable or invalid. ``compare`` writes nothing when
its comparison is not finite.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from .control import ManualFixed
from .core import SimulationError
from .engine import compare_modes, run_scenario, sweep
from .metrics import scan_run_series
from .outputs import (
    NonFiniteOutputError,
    aggregate_summaries,
    fault_count,
    json_text,
    replay_run,
    run_files,
    write_run,
)
from .scenario import ScenarioParseError, load_scenario_file, validate_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAULT = 3


def _print_report(report) -> None:
    if report.ok:
        print("ok: scenario passes the design checklist")
        return
    print(f"FAIL: {len(report.findings)} finding(s)")
    for f in report.findings:
        print(f"  [{f.checklist_item}] {f.message}")


def cmd_validate(args) -> int:
    report = validate_scenario(load_scenario_file(args.scenario))
    _print_report(report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _build_checked(args):
    """Parse, apply the --seed override, validate and build once; None if not ok."""
    raw = load_scenario_file(args.scenario)
    if args.seed is not None:
        raw["seed"] = args.seed
    report = validate_scenario(raw)
    if not report.ok:
        _print_report(report)
        return None
    return report.scenario


def cmd_run(args) -> int:
    scenario = _build_checked(args)
    if scenario is None:
        return EXIT_VALIDATION
    result = run_scenario(scenario)
    outdir = write_run(result, args.out)
    names = [fname for fname, enabled, _ in run_files(scenario.outputs) if enabled]
    print(f"wrote {outdir}/{' '.join(names)}")
    if fault_count(result) > 0:
        print(f"run recorded {fault_count(result)} fault event(s)", file=sys.stderr)
        return EXIT_FAULT
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _build_checked(args)
    if scenario is None:
        return EXIT_VALIDATION
    if isinstance(scenario.policy, ManualFixed):
        print("validation error: compare needs an automated policy, not ManualFixed",
              file=sys.stderr)
        return EXIT_VALIDATION
    comparison = compare_modes(scenario)
    text = json_text(comparison.to_dict())   # a non-finite comparison writes no arm
    out = Path(args.out)
    write_run(comparison.automated, out / "automated")
    write_run(comparison.fixed, out / "fixed")
    (out / "comparison.json").write_text(text, encoding="utf-8")
    print(f"wrote {out}/comparison.json")
    if fault_count(comparison.automated) or fault_count(comparison.fixed):
        return EXIT_FAULT
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        print(f"validation error: --seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return EXIT_VALIDATION
    scenario = _build_checked(args)
    if scenario is None:
        return EXIT_VALIDATION
    results = sweep(scenario, args.seeds)
    out = Path(args.out)
    violations = 0
    for r in results:
        write_run(r, out / f"seed_{r.scenario.seed}")
        scan = scan_run_series(r.delivered_mA, r.mode, r.scenario, r.initial_delivered_mA)
        violations += len(scan.violations)
    agg = aggregate_summaries(results)
    agg["safety_violations_total"] = violations
    (out / "aggregate.json").write_text(json_text(agg), encoding="utf-8")
    print(f"wrote {out}/aggregate.json ({len(results)} runs)")
    if violations or any(fault_count(r) for r in results):
        return EXIT_FAULT
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        report = replay_run(args.rundir)
    except (OSError, SimulationError) as e:
        print(f"replay error: {e}", file=sys.stderr)
        return EXIT_FAULT
    sys.stdout.write(json_text(report.to_dict()))
    return EXIT_OK if report.ok else EXIT_FAULT


@lru_cache(maxsize=1)   # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="neuroloop",
        description="Deterministic simulator for closed-loop neurostimulation controllers",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a scenario against the design checklist")
    v.add_argument("scenario")
    v.set_defaults(func=cmd_validate)

    common = argparse.ArgumentParser(add_help=False)   # the arguments of run, compare, sweep
    common.add_argument("scenario")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override the file's seed")

    sub.add_parser("run", parents=[common], help="execute a scenario").set_defaults(func=cmd_run)
    c = sub.add_parser("compare", parents=[common], help="automated policy vs fixed-output twin")
    c.set_defaults(func=cmd_compare)
    s = sub.add_parser("sweep", parents=[common], help="run N independent seeds and aggregate")
    s.add_argument("--seeds", type=int, required=True)
    s.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("replay", help="re-verify a stored run directory")
    rp.add_argument("rundir")
    rp.set_defaults(func=cmd_replay)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, NonFiniteOutputError) as e:   # writing; reading is a ScenarioParseError
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())

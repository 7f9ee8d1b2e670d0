"""Run output files and replay verification.

A run directory contains:

    scenario.json    — the resolved scenario (seed included), for replay
    timeseries.csv   — one row per tick, fixed column order
    events.jsonl     — one JSON object per event record
    summary.json     — run metadata plus the metrics block

All serialization here is deterministic: the same RunResult always produces
byte-identical text, which is what makes ``replay_run`` able to re-execute
a stored scenario and compare files byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .core import SimulationError
from .engine import RunResult, run_scenario
# scan_pulse_width_us is imported for perfbench/workloads.py, which reads it here.
from .metrics import Metrics, SafetyScanResult, scan_pulse_width_us, scan_timeseries_csv
from .scenario import OutputFlags, load_scenario_file, scenario_from_dict

CSV_COLUMNS = (
    "tick",
    "time_s",
    "biomarker_value",
    "biomarker_quality",
    "setpoint_or_threshold",
    "commanded_mA",
    "delivered_mA",
    "supervisor_mode",
    "distance_mm_or_blank",
    "seizing_flag_or_blank",
    "teed_cum",
)


CSV_CHUNK = 256   # rows whose cells are converted to Python values at a time


def _floats(column):
    # repr of a Python float is the shortest round-trip decimal form.
    return map(repr, column.tolist())


def _floats_or_blank(column):
    return (repr(x) if x == x else "" for x in column.tolist())   # NaN != NaN


def timeseries_csv_text(result: RunResult) -> str:
    """Render the per-tick table; header row mandatory, '.' decimal point.

    Columns are converted to Python values a chunk of rows at a time, never
    per cell, and never whole, which would hold every column at once.
    """
    dt = result.scenario.timebase.dt_s
    dist, seiz = result.distance_mm, result.seizing
    lines = [",".join(CSV_COLUMNS)]
    for lo in range(0, result.n_ticks, CSV_CHUNK):
        part = slice(lo, lo + CSV_CHUNK)
        ticks = range(lo, min(lo + CSV_CHUNK, result.n_ticks))
        lines.extend(map(",".join, zip(
            map(str, ticks),
            (repr(float(t * dt)) for t in ticks),
            _floats_or_blank(result.biomarker[part]),
            result.quality[part],
            _floats_or_blank(result.setpoint[part]),
            _floats(result.commanded_mA[part]),
            _floats(result.delivered_mA[part]),
            result.mode[part],
            _floats_or_blank(dist[part]) if dist is not None else repeat("", len(ticks)),
            ("1" if s else "0" for s in seiz[part].tolist()) if seiz is not None
            else repeat("", len(ticks)),
            _floats(result.teed_cum[part]),
        )))
    return "\n".join(lines) + "\n"


def events_jsonl_text(result: RunResult) -> str:
    out = []
    for rec in result.events:
        out.append(json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")))
    return "\n".join(out) + ("\n" if out else "")


def fault_count(result: RunResult) -> int:
    return sum(1 for r in result.events if r.severity == "Fault")


class NonFiniteOutputError(SimulationError):
    """A JSON output document holds a number that is not finite, which JSON has no form for."""


def json_text(doc: dict) -> str:
    """The text of scenario.json, summary.json, comparison.json or aggregate.json; raises
    NonFiniteOutputError where ``doc`` holds inf or NaN."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as e:   # the one ValueError a tree of dicts, lists and scalars raises
        raise NonFiniteOutputError(str(e)) from None


def summary_json_text(result: RunResult) -> str:
    doc = {
        "name": result.scenario.name,
        "seed": result.scenario.seed,
        "n_ticks": result.n_ticks,
        "dt_s": result.scenario.timebase.dt_s,
        "aborted": result.aborted,
        "event_count": len(result.events),
        "fault_count": fault_count(result),
        "metrics": result.metrics.to_dict(),
    }
    return json_text(doc)


def run_files(flags: OutputFlags) -> tuple:
    """(file name, enabled, renderer) of each output beside scenario.json, in write order:
    what ``write_run`` writes, ``replay_run`` compares and ``neuroloop run`` names. Built
    per call, so a renderer rebound on this module (by a tracer) is the one called."""
    return (
        ("timeseries.csv", flags.timeseries, timeseries_csv_text),
        ("events.jsonl", flags.events, events_jsonl_text),
        ("summary.json", flags.summary, summary_json_text),
    )


def write_run(result: RunResult, outdir) -> Path:
    """Write a run's outputs into ``outdir`` (created if needed)."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scenario.json").write_text(json_text(result.scenario.raw), encoding="utf-8")
    for fname, enabled, render in run_files(result.scenario.outputs):
        if enabled:
            (out / fname).write_text(render(result), encoding="utf-8")
    return out


@dataclass(frozen=True)
class ReplayReport:
    """Result of re-running a stored scenario against its stored outputs."""

    ok: bool
    files_matched: dict
    safety_scan: Optional[SafetyScanResult]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files_matched": dict(self.files_matched),
            "safety_scan_ok": None if self.safety_scan is None else self.safety_scan.ok,
            "violations": (
                [] if self.safety_scan is None else list(self.safety_scan.violations)
            ),
        }


def replay_run(rundir) -> ReplayReport:
    """Re-execute the stored scenario and verify determinism plus safety.

    Re-runs the scenario found in ``rundir/scenario.json``, read and built
    like any scenario file (a bad one raises a SimulationError), compares
    every output its ``outputs`` flags enable byte for byte against the
    fresh serialization (a missing file is a mismatch), and runs the
    independent limit scan over the stored timeseries.csv, at each tick's
    pulse width as its own ``supervisor_mode`` column gives it.
    """
    rundir = Path(rundir)
    scenario = scenario_from_dict(load_scenario_file(rundir / "scenario.json"))
    fresh = run_scenario(scenario)

    matched = {}
    for fname, enabled, render in run_files(scenario.outputs):
        path = rundir / fname
        if enabled or path.exists():
            matched[fname] = (
                path.exists() and path.read_bytes() == render(fresh).encode("utf-8")
            )

    scan = None
    ts = rundir / "timeseries.csv"
    if ts.exists():
        scan = scan_timeseries_csv(ts, scenario, fresh.initial_delivered_mA)

    ok = all(matched.values()) and bool(matched) and (scan is None or scan.ok)
    return ReplayReport(ok=ok, files_matched=matched, safety_scan=scan)


def aggregate_summaries(results: list) -> dict:
    """Mean/min/max of the scalar metrics over a seed sweep."""
    agg: dict = {"n_runs": len(results), "seeds": [r.scenario.seed for r in results]}
    for f in [m.name for m in fields(Metrics) if m.name != "step_response"]:
        vals = [getattr(r.metrics, f) for r in results]
        if any(v is None for v in vals):
            agg[f] = None
            continue
        arr = np.asarray(vals, dtype=float)
        agg[f] = {
            "mean": float(arr.mean()),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }
    agg["fault_count_total"] = int(sum(fault_count(r) for r in results))
    return agg

"""Deterministic discrete-time simulation of closed-loop neurostimulation.

The package models the full automated loop — synthetic patient plant,
biomarker feature extraction, control policy, safety supervision, and the
stimulator hardware — advancing once per tick in a fixed order so that every
run is a pure function of its scenario and seed.

Layout:
    core       time base, dose arithmetic, event records
    plant      dose-response curves, evoked potentials, signals, device model
    features   detection features and detectors, band power, quality flags
    control    the control policies
    safety     limits, trust checks, supervisor state machine, budgets
    scenario   JSON scenario schema, parsing, design-checklist validation
    engine     the run loop, mode comparison, seed sweeps
    metrics    step response, run summaries, independent safety scan
    outputs    file writers and replay verification
    cli        command-line interface
"""

from .core import (
    Dose,
    DoseLimits,
    EventRecord,
    TimeBase,
    charge_per_pulse,
    teed_rate,
)
from .engine import ModeComparison, RunResult, compare_modes, run_scenario, sweep
from .outputs import replay_run, write_run
from .scenario import Scenario, load_scenario, scenario_from_dict, validate_scenario

__version__ = "0.1.0"

__all__ = [
    "Dose",
    "DoseLimits",
    "EventRecord",
    "ModeComparison",
    "RunResult",
    "Scenario",
    "TimeBase",
    "charge_per_pulse",
    "compare_modes",
    "load_scenario",
    "replay_run",
    "run_scenario",
    "scenario_from_dict",
    "sweep",
    "teed_rate",
    "validate_scenario",
    "write_run",
    "__version__",
]

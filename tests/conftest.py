"""Shared scenario builders for the harness and acceptance tests."""

import copy
import json
from pathlib import Path

import pytest

from neuroloop.core import SEVERITY_ALERT, EventRecord
from neuroloop.safety import EVENT_MODE_AUTOMATED, MODE_AUTOMATED, SupervisorState

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def ecap_raw(**overrides):
    """A compact evoked-response scenario dict; overrides are deep-merged."""
    raw = {
        "schema": 1,
        "name": "ecap_test",
        "timebase": {"dt_s": 0.02, "duration_s": 10.0},
        "seed": 1234,
        "baseline_dose": {
            "amplitude_mA": 4.0, "pulse_width_us": 200.0,
            "frequency_hz": 50.0, "contact_set": "E1",
        },
        "plant": {
            "kind": "ecap",
            "ecap": {
                "slope_uV_per_mA_at_ref": 0.5,
                "threshold_mA_at_ref": 3.0,
                "distance_ref_mm": 4.0,
                "threshold_distance_coeff_mA_per_mm": 0.8,
                "slope_distance_coeff_per_mm": 0.0,
                "base_distance_mm": 4.0,
                "sensor_noise_sd_uV": 0.0,
            },
            "disturbances": [],
            "device": {
                "battery_v": 3.6, "eos_threshold_v": 3.0,
                "impedance_ohm": {"E1": 500.0},
                "compliance_v": 12.0, "amp_step_mA": 0.01,
                "amplifier_saturation_uV": 1000.0,
            },
        },
        "features": {"estimator": "identity"},
        "policy": {
            "kind": "EcapSetpoint", "target_uV": 1.0,
            "gain_mA_per_uV": 2.5, "deadband_uV": 0.0,
        },
        "limits": {
            "amp_min_mA": 0.0, "amp_max_mA": 10.0,
            "max_slew_mA_per_tick": 10.0, "max_charge_per_pulse_uC": 2.0,
        },
        "trust": {
            "checks": ["QualityOK", "EcapNonNegative", "BatteryAboveEos"],
            "exit_after_consecutive_fails": 3,
            "reenter_after_consecutive_passes": 5,
        },
        "fallback": {"kind": "LastKnownGood"},
        "budgets": {"max_therapies_per_event": 5, "max_episodes_per_day": 1000},
        "magnet": [],
        "outputs": {"timeseries": True, "events": True, "summary": True},
        "metrics": {"range": [0.95, 1.05]},
    }
    return deep_merge(raw, overrides)


def ieeg_raw(**overrides):
    """A compact responsive-detection scenario dict."""
    raw = {
        "schema": 1,
        "name": "ieeg_test",
        "timebase": {"dt_s": 0.125, "duration_s": 60.0},
        "seed": 77,
        "baseline_dose": {
            "amplitude_mA": 0.0, "pulse_width_us": 160.0,
            "frequency_hz": 200.0, "contact_set": "D1",
        },
        "plant": {
            "kind": "ieeg",
            "ieeg": {
                "fs_hz": 256.0, "frame_len": 32, "background_sd_uV": 10.0,
                "ictal_amplitude_uV": 300.0, "ictal_hz": 10.0,
            },
            "seizures": {
                "rate_per_hour": 120.0, "base_duration_ticks": 40,
                "suppression_prob": 0.5, "response_window_ticks": 20,
            },
            "disturbances": [],
            "device": {
                "battery_v": 3.6, "eos_threshold_v": 3.0,
                "impedance_ohm": {"D1": 800.0},
                "compliance_v": 12.0, "amp_step_mA": 0.1,
                "amplifier_saturation_uV": 5000.0,
            },
        },
        "features": {
            "tools": [
                {"feature": "line_length",
                 "threshold": {"mode": "adaptive", "multiplier": 2.0,
                               "long_window_ticks": 80, "short_window_ticks": 4}},
            ],
            "combinator": "OR",
        },
        "policy": {
            "kind": "BangBangResponsive",
            "burst": {"amplitude_mA": 2.0, "pulse_width_us": 160.0,
                      "frequency_hz": 200.0, "contact_set": "D1"},
            "bursts_per_therapy": 1,
            "burst_duration_ticks": 1,
            "max_therapies_per_event": 5,
        },
        "limits": {
            "amp_min_mA": 0.0, "amp_max_mA": 10.0,
            "max_slew_mA_per_tick": 10.0, "max_charge_per_pulse_uC": 1.6,
        },
        "trust": {
            "checks": ["QualityOK", "BatteryAboveEos", "NoDcLeak"],
            "exit_after_consecutive_fails": 4,
            "reenter_after_consecutive_passes": 8,
        },
        "fallback": {"kind": "Off"},
        "budgets": {"max_therapies_per_event": 5, "max_episodes_per_day": 50},
        "magnet": [],
        "outputs": {"timeseries": True, "events": True, "summary": True},
        "metrics": {},
    }
    return deep_merge(raw, overrides)


def deep_merge(base: dict, overrides: dict) -> dict:
    """``base`` with ``overrides`` merged in; a section given another ``kind``
    is replaced, as the keys of the old kind are unknown to the new one."""
    out = copy.deepcopy(base)
    for k, v in overrides.items():
        if (isinstance(v, dict) and isinstance(out.get(k), dict)
                and v.get("kind", out[k].get("kind")) == out[k].get("kind")):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def reference_raw(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))


def clinician_reset(st: SupervisorState, tick: int = 0):
    """Oracle of "reset modes absorb": the explicit intervention that leaves one.

    Nothing in a run does this, so a reset mode latches for the rest of the
    run; the tests use it to show that leaving takes a new supervisor state
    from outside the tick loop.
    """
    if not st.in_reset:
        return st, []
    ev = EventRecord(
        tick, SEVERITY_ALERT, EVENT_MODE_AUTOMATED, {"from": st.mode, "clinician_reset": True}
    )
    return (
        SupervisorState(
            mode=MODE_AUTOMATED,
            magnet_prev=st.magnet_prev,
            dc_leak_prev=st.dc_leak_prev,
        ),
        [ev],
    )


@pytest.fixture
def make_ecap_raw():
    return ecap_raw


@pytest.fixture
def make_ieeg_raw():
    return ieeg_raw


@pytest.fixture
def reference_scenario_raw():
    return reference_raw

"""A stop is 0 mA at once.

A command of 0 mA stops stimulation. ``clamp_and_slew`` returns 0.0 for it
with no slew limit, no ``amp_min_mA`` floor, no charge clamp and no event,
so a stop is delivered on the tick it is commanded. Every forced off goes
through that one rule: magnet suspension, both resets, ``FallbackOff`` and a
budget deny. The runs here use the shipped ``ecap_scs`` limits (a slew of
2.0 mA per tick), where a slewed or floored stop shows; the conftest
fixture's slew equals its ``amp_max_mA``, which hides both.

The independent scan checks the rule from the stored columns alone: an
exact 0.0 is legal below ``amp_min_mA``, a step to 0.0 is exempt from the
slew check, and a magnet or reset tick that is not exactly 0.0 is a
``stop_not_zero`` violation.
Runtime budget (2-core host): under 2 s for the whole file.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import neuroloop.engine as engine
from neuroloop.cli import EXIT_FAULT, EXIT_OK, main
from neuroloop.core import DoseLimits
from neuroloop.engine import run_scenario
from neuroloop.metrics import CLAMP_CODES, scan_delivered_series, scan_run_series
from neuroloop.safety import (
    EVENT_BUDGET_DENY,
    MODE_DC_LEAK_RESET,
    MODE_FALLBACK,
    MODE_SUSPENDED_MAGNET,
    clamp_and_slew,
)
from neuroloop.scenario import scenario_from_dict

from conftest import deep_merge, reference_raw

MAGNET = {"magnet": [{"start_tick": 300, "end_tick": 400}]}
AMP_MIN_1 = {"limits": {"amp_min_mA": 1.0}}
DC_LEAK = {"plant": {"device": {"dc_leak_flag": True}},
           "trust": {"checks": ["QualityOK", "EcapNonNegative", "BatteryAboveEos", "NoDcLeak"]}}
# The biomarker leaves [0.45, 1.1] on tick 1, and the Off fallback holds it out.
FALLBACK_OFF = {"fallback": {"kind": "Off"},
                "trust": {"checks": ["QualityOK", "BiomarkerInPhysRange"],
                          "exit_after_consecutive_fails": 1,
                          "biomarker_min": 0.45, "biomarker_max": 1.1}}


def ecap_scs(*edits) -> dict:
    raw = reference_raw("ecap_scs")
    for edit in edits:
        raw = deep_merge(raw, edit)
    return raw


def budget_deny_raw() -> dict:
    # One therapy per event at 4.0 mA: the second therapy of an event is
    # denied on the tick after the first one's last burst tick.
    return deep_merge(reference_raw("rns_epilepsy"), {
        "limits": reference_raw("ecap_scs")["limits"],
        "policy": {"burst": {"amplitude_mA": 4.0}},
        "budgets": {"max_therapies_per_event": 1},
    })


def in_modes(*modes):
    return lambda r: np.isin(r.mode, modes)


def denied(r):
    off = np.zeros(r.n_ticks, dtype=bool)
    off[[e.tick for e in r.events if e.code == EVENT_BUDGET_DENY]] = True
    return off


# (raw, the forced-off ticks, their count, the first one). Before the rule,
# 2, 100, 1,500, 1,499 and 1 of these ticks delivered more than 0 mA.
STOPS = {
    "magnet": (ecap_scs(MAGNET), in_modes(MODE_SUSPENDED_MAGNET), 100, 300),
    "magnet-amp_min": (ecap_scs(MAGNET, AMP_MIN_1), in_modes(MODE_SUSPENDED_MAGNET), 100, 300),
    "dc_leak-amp_min": (ecap_scs(DC_LEAK, AMP_MIN_1), in_modes(MODE_DC_LEAK_RESET), 1500, 0),
    "fallback_off-amp_min": (ecap_scs(FALLBACK_OFF, AMP_MIN_1), in_modes(MODE_FALLBACK), 1499, 1),
    "budget_deny": (budget_deny_raw(), denied, 4, 3435),
}


@pytest.mark.parametrize("case", STOPS.values(), ids=STOPS.keys())
def test_every_forced_off_tick_delivers_0_mA_from_its_first(case):
    raw, forced_off, count, first = case
    r = run_scenario(scenario_from_dict(raw))
    off = forced_off(r)
    assert np.count_nonzero(off) == count and np.argmax(off) == first
    before = r.delivered_mA[first - 1] if first else r.initial_delivered_mA
    assert before >= 4.0   # more than two slew steps above 0
    assert r.commanded_mA[off].tolist() == r.delivered_mA[off].tolist() == [0.0] * count
    assert [e for e in r.events if e.code in CLAMP_CODES and off[e.tick]] == []
    assert scan_run_series(r.delivered_mA, r.mode, r.scenario, r.initial_delivered_mA).ok


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    amp_min=st.integers(0, 400).map(lambda k: k * 0.01),
    slew=st.integers(1, 1000).map(lambda k: k * 0.01),
    before=st.floats(0.0, 10.0),
    entry=st.integers(0, 49),
)
def test_a_magnet_stop_is_immediate_for_any_limits(amp_min, slew, before, entry):
    # A ManualFixed dose held at `before` from the start, then a magnet from
    # `entry` to the end of a 50-tick run.
    before = max(before, amp_min)
    dose = {**reference_raw("ecap_scs")["baseline_dose"], "amplitude_mA": before}
    raw = ecap_scs({"timebase": {"duration_s": 1.0}, "baseline_dose": dose,
                    "policy": {"kind": "ManualFixed", "dose": dose},
                    "limits": {"amp_min_mA": amp_min, "max_slew_mA_per_tick": slew},
                    "magnet": [{"start_tick": entry, "end_tick": 50}]})
    r = run_scenario(scenario_from_dict(raw))
    assert r.mode[entry:] == [MODE_SUSPENDED_MAGNET] * (50 - entry)
    assert r.delivered_mA[entry:].tolist() == [0.0] * (50 - entry)
    assert [e for e in r.events if e.code in CLAMP_CODES and e.tick >= entry] == []
    assert scan_run_series(r.delivered_mA, r.mode, r.scenario, r.initial_delivered_mA).ok


def test_scan_takes_a_stop_below_amp_min_and_at_once():
    limits = DoseLimits(1.0, 10.0, 2.0, 2.0)
    series = [5.0, 0.0, 0.0, 2.0, 0.0, 3.0, 1.5, 0.5]
    scan = scan_delivered_series(series, limits, 200.0, 5.0)
    # Steps to 0.0 and 0.0 below amp_min pass; steps up from 0.0 stay checked.
    assert scan.violations == ((5, "slew_exceeded", 3.0), (7, "amp_below_min", 0.5))


def test_scan_flags_a_magnet_or_reset_tick_that_is_not_0_mA():
    scenario = scenario_from_dict(ecap_scs(MAGNET, AMP_MIN_1))
    modes = ["Automated", "SuspendedMagnet", "EosReset", "DcLeakReset", "Fallback", "DcLeakReset"]
    scan = scan_run_series([4.0, 3.0, 1.0, 0.0, 1.0, -0.0], modes, scenario, 4.0)
    assert scan.violations == ((1, "stop_not_zero", 3.0), (2, "stop_not_zero", 1.0))


def write_rows(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def test_replay_names_a_nonzero_reset_tick(tmp_path, capsys):
    # The DC-leak reset with amp_min 1.0 once delivered 1.0 mA on every tick,
    # and replay's scan passed it: 1.0 mA lies in range.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ecap_scs(DC_LEAK, AMP_MIN_1)))
    out = tmp_path / "r"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_FAULT   # the reset's Fault event
    assert main(["replay", str(out)]) == EXIT_OK
    ts = out / "timeseries.csv"
    rows = [line.split(",") for line in ts.read_text().splitlines()]
    col = rows[0].index("delivered_mA")
    assert rows[8][col:col + 2] == ["0.0", MODE_DC_LEAK_RESET]
    rows[8][col] = "1.0"
    write_rows(ts, rows)
    capsys.readouterr()
    assert main(["replay", str(out)]) == EXIT_FAULT
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [[7, "stop_not_zero", 1.0]]


def test_sweep_counts_nonzero_reset_ticks(tmp_path, monkeypatch):
    # With the stop rule reverted (a 0 mA command slewed and floored like any
    # other), each lane's 1,500 reset ticks deliver 2.0 or 1.0 mA.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ecap_scs(DC_LEAK, AMP_MIN_1)))

    def violations(out) -> int:
        assert main(["sweep", str(path), "--seeds", "2", "--out", str(out)]) == EXIT_FAULT
        return json.loads((out / "aggregate.json").read_text())["safety_violations_total"]

    assert violations(tmp_path / "rule") == 0
    monkeypatch.setattr(engine, "clamp_and_slew",
                        lambda cmd, *rest: clamp_and_slew(cmd or 5e-324, *rest))
    assert violations(tmp_path / "reverted") == 2 * 1500

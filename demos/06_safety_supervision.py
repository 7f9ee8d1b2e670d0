"""Safety supervision: trust failures, fallback, magnet suspend, end of service.

Three short runs built on the evoked-response scenario, each exercising one
risk-mitigation path:

  1. A magnet interval suspends therapy and restores the previous mode on
     removal.
  2. A trust configuration whose physiologic-range check must fail as the
     loop converges, driving the supervisor into a FixedSafe fallback whose
     dose never varies with the biomarker.
  3. A battery drain that crosses the end-of-service threshold mid-run,
     latching the device into a reset that suspends therapy, detections,
     and all measurements.

Run:  python demos/06_safety_supervision.py
"""

import json
from pathlib import Path

import numpy as np

from neuroloop import run_scenario, scenario_from_dict

BASE = json.loads(
    (Path(__file__).resolve().parent.parent / "scenarios" / "ecap_scs.json").read_text()
)
BASE["plant"]["disturbances"] = []
BASE["timebase"]["duration_s"] = 10.0


def narrate(title, raw, max_lines=12):
    r = run_scenario(scenario_from_dict(raw))
    dt = r.scenario.timebase.dt_s
    print(f"\n=== {title} ===")
    changes = [(0, r.mode[0])] + [
        (t, r.mode[t]) for t in range(1, r.n_ticks) if r.mode[t] != r.mode[t - 1]
    ]
    for t, mode in changes[:max_lines]:
        print(f"  t={t * dt:5.2f}s  mode -> {mode:15s} delivered {r.delivered_mA[t]:.2f} mA")
    if len(changes) > max_lines:
        print(f"  ... {len(changes) - max_lines} more mode changes")
    for ev in list(r.events)[:max_lines]:
        print(f"  event t={ev.tick * dt:5.2f}s  {ev.severity:5s} {ev.code} {dict(ev.payload)}")
    if len(r.events) > max_lines:
        print(f"  ... {len(r.events) - max_lines} more events")
    return r


magnet = json.loads(json.dumps(BASE))
magnet["magnet"] = [{"start_tick": 150, "end_tick": 250}]
r = narrate("magnet suspend and resume", magnet)
# A suspension commands 0 mA, a stop: it is delivered on the first suspended
# pulse, not ramped down under the 2 mA/pulse slew limit from ~5 mA.
print(f"  stop: {list(r.delivered_mA[149:153])}")
assert np.all(r.delivered_mA[150:250] == 0.0)
print("  -> 0 mA from the first pulse of magnet application, resumed after removal")

# The range check tops out at 0.9 uV, below the 1.0 uV setpoint, so the
# converging loop must trip it; the FixedSafe dose (6 mA -> 1.5 uV) keeps
# violating it, so re-entry criteria are never met and the fallback latches.
fallback = json.loads(json.dumps(BASE))
fallback["trust"] = {
    "checks": ["QualityOK", "BiomarkerInPhysRange"],
    "exit_after_consecutive_fails": 3,
    "reenter_after_consecutive_passes": 5,
    "biomarker_min": -1.0,
    "biomarker_max": 0.9,
}
fallback["fallback"] = {
    "kind": "FixedSafe",
    "dose": {"amplitude_mA": 6.0, "pulse_width_us": 200.0,
             "frequency_hz": 50.0, "contact_set": "E1"},
}
r = narrate("trust failure into a latched FixedSafe fallback", fallback)
fb = [t for t, mode in enumerate(r.mode) if mode == "Fallback"]
doses_seen = sorted({float(x) for x in r.delivered_mA[fb[2:]]})
print(f"  -> {len(fb)} fallback ticks, every one at the configured 6.0 mA "
      f"(doses seen: {doses_seen}), independent of the biomarker")

eos = json.loads(json.dumps(BASE))
eos["plant"]["device"]["battery_v"] = 3.05
eos["plant"]["device"]["drain_v_per_uC"] = 2e-4
r = narrate("battery end-of-service reset", eos)
first = r.mode.index("EosReset")
print(f"  -> latched at t={first * r.scenario.timebase.dt_s:.2f}s; "
      f"measurements blank afterwards: "
      f"{np.all(np.isnan(r.biomarker[first + 1:]))}; "
      f"delivery zero after the 3-pulse slew ramp: "
      f"{np.all(r.delivered_mA[first + 3:] == 0.0)}")
print(
    "\nEvery transition is a logged event, so replaying the event stream"
    "\nreconstructs the mode trajectory exactly; the reset states admit no"
    "\nexit other than an explicit clinician reset."
)

"""Trust paths: pinned outputs of runs whose trust checks fail.

The reference scenarios emit no trust or mode events, so the golden digests
never see a trust check fail. For each plant kind, five variants do:

- ``fallback``: a physiologic range the biomarker leaves enters Fallback and
  re-enters Automated;
- ``magnet``: the same, with magnet intervals that suspend therapy;
- ``eos``: a battery that drains to an end-of-service reset;
- ``dc_leak``: a DC leak and an impedance out of range from the start,
  reset at once, with a magnet interval the reset suppresses;
- ``impedance``: an impedance ramp that leaves the trusted range.

Each variant's three outputs are pinned by sha256 (pinned before the trust
checks became lane counters and bit masks, and unchanged by it), each
variant is checked to take the path it is named after, and a 3-lane sweep
of each equals its serial runs. A Hypothesis property then recomputes every
tick's verdict of an ecap run from its biomarker and quality columns and
checks the exit and entry dwell rules against the mode column. Runtime
budget (2-core host): under 10 s for the whole file.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from neuroloop.core import teed_rate
from neuroloop.engine import run_scenario, sweep
from neuroloop.outputs import events_jsonl_text, summary_json_text, timeseries_csv_text
from neuroloop.scenario import scenario_from_dict

from conftest import deep_merge, ecap_raw, ieeg_raw, reference_raw

RENDERERS = (timeseries_csv_text, events_jsonl_text, summary_json_text)


def base_raw(kind: str) -> dict:
    if kind == "ecap":
        return ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.05}})
    if kind == "beta":
        return deep_merge(reference_raw("adbs_parkinsons"), {"timebase": {"duration_s": 60.0}})
    return ieeg_raw()


# Per plant kind: the trust section that fails on the biomarker, the device
# drain that crosses end of service mid-run, and the impedance ramp that
# leaves [impedance_min_ohm, impedance_max_ohm].
RANGE_TRUST = {
    "ecap": {"checks": ["QualityOK", "EcapNonNegative", "BiomarkerInPhysRange"],
             "exit_after_consecutive_fails": 2, "reenter_after_consecutive_passes": 4,
             "biomarker_min": 0.9, "biomarker_max": 1.1},
    "beta": {"checks": ["QualityOK", "BiomarkerInPhysRange"],
             "exit_after_consecutive_fails": 2, "reenter_after_consecutive_passes": 3,
             "biomarker_min": 0.25, "biomarker_max": 0.55},
    "ieeg": {"checks": ["QualityOK", "BiomarkerInPhysRange"],
             "exit_after_consecutive_fails": 2, "reenter_after_consecutive_passes": 3,
             "biomarker_min": 0.0, "biomarker_max": 380.0},
}
DRAIN = {
    "ecap": {"battery_v": 3.0004, "eos_threshold_v": 3.0, "drain_v_per_uC": 1e-5},
    "beta": {"battery_v": 3.2024, "eos_threshold_v": 3.2, "drain_v_per_uC": 1e-5},
    "ieeg": {"battery_v": 3.0004, "eos_threshold_v": 3.0, "drain_v_per_uC": 1e-4},
}
RAMP = {   # (ohm per tick, impedance_max_ohm)
    "ecap": (2.0, 1000.0),
    "beta": (10.0, 2000.0),
    "ieeg": (3.0, 1500.0),
}
# Listed against the order of the check bits, so the TRUST_FAIL payload order shows.
DEVICE_CHECKS = ["NoDcLeak", "ImpedanceInRange", "BatteryAboveEos", "QualityOK"]


def variant_raw(kind: str, path: str) -> dict:
    raw = base_raw(kind)
    n = round(raw["timebase"]["duration_s"] / raw["timebase"]["dt_s"])
    device_trust = {"checks": DEVICE_CHECKS, "exit_after_consecutive_fails": 3,
                    "reenter_after_consecutive_passes": 5}
    if path == "fallback":
        edit = {"trust": RANGE_TRUST[kind]}
    elif path == "magnet":
        edit = {"trust": RANGE_TRUST[kind],
                "magnet": [{"start_tick": n // 5, "end_tick": n // 5 + 20},
                           {"start_tick": n // 2, "end_tick": n // 2 + 15}]}
    elif path == "eos":
        edit = {"trust": device_trust, "plant": {"device": DRAIN[kind]}}
    elif path == "dc_leak":
        # The device's impedance is also out of range: two checks fail at once.
        edit = {"trust": {**device_trust, "impedance_max_ohm": 100.0},
                "plant": {"device": {"dc_leak_flag": True}},
                "magnet": [{"start_tick": 10, "end_tick": 20}]}
    else:
        ramp, z_max = RAMP[kind]
        edit = {"trust": {**device_trust, "impedance_max_ohm": z_max},
                "plant": {"device": {"impedance_ramp_ohm_per_tick": ramp}}}
    return deep_merge(raw, {"name": f"{kind}_{path}", **edit})


# What each path must show in the event log and the mode column.
EXPECTED = {
    "fallback": ({"TRUST_FAIL", "MODE_FALLBACK", "TRUST_REENTER", "MODE_AUTOMATED"}, "Fallback"),
    "magnet": ({"TRUST_FAIL", "MODE_FALLBACK", "MODE_SUSPEND_MAGNET"}, "SuspendedMagnet"),
    "eos": ({"TRUST_FAIL", "MODE_EOS_RESET"}, "EosReset"),
    "dc_leak": ({"TRUST_FAIL", "MODE_DC_LEAK_RESET", "MODE_SUSPEND_MAGNET"}, "DcLeakReset"),
    "impedance": ({"TRUST_FAIL", "MODE_FALLBACK"}, "Fallback"),
}

# sha256 of (timeseries.csv, events.jsonl, summary.json), first 16 hex digits.
PINNED = {
    "ecap_fallback": ('e45c9959dfacc2b8', '7109532ddc589a18', '186c1a4f8df822cc'),
    "ecap_magnet": ('e37a2e187363a0d3', 'd10bda55b3bcfeea', 'e8708e378ec34086'),
    "ecap_eos": ('3458f3a9cce6d4b5', '4f1fc1681d1d54a6', '90ce50d2d63dbb73'),
    "ecap_dc_leak": ('84b9b812f4f8fd29', '8e77cb96474d3580', 'dc1df73dc78277e3'),
    "ecap_impedance": ('87291feac3cf7091', 'd75778959852f45a', 'ef115784e5ac9c1a'),
    "beta_fallback": ('b4915b43af32da9a', '1a3a1aa83bce5556', '2da0337d5379c5ee'),
    "beta_magnet": ('7410ce77ed5d04bb', '6ae4136ea4f247e5', '924c07bd18e23811'),
    "beta_eos": ('cb26728b11b76349', 'c320e617d2bad291', '94f33e114bf9ded4'),
    "beta_dc_leak": ('b868a1021f30a721', '167b7d5a1ff5d08b', 'df6eb6b9b1ee32e4'),
    "beta_impedance": ('c9fb8d5e675cc3d5', '4e24dcfa5eb1ee84', '4eacc8793f147243'),
    "ieeg_fallback": ('5850453f7125220b', '1bf1aedc5e8df3a5', 'c1adf52d4c8173b0'),
    "ieeg_magnet": ('079033c3e60d337d', 'dba629667de42242', '43f15d17ed6a177d'),
    "ieeg_eos": ('9828730db863beb5', 'd6d9aa30cdca1ec2', '1290161dbab93ef9'),
    "ieeg_dc_leak": ('abfc27aa1a2bf8ae', '8e77cb96474d3580', 'ea433cf3588b928c'),
    "ieeg_impedance": ('0f039fea3da3ed5a', 'd7c62fd3a880304c', '8d917ca49d3e44ff'),
}

CASES = [(kind, path) for kind in ("ecap", "beta", "ieeg") for path in EXPECTED]


def digests(result) -> tuple:
    return tuple(
        hashlib.sha256(render(result).encode("utf-8")).hexdigest()[:16] for render in RENDERERS
    )


@pytest.mark.parametrize("kind, path", CASES)
def test_trust_path_outputs_are_pinned(kind, path):
    result = run_scenario(scenario_from_dict(variant_raw(kind, path)))
    codes, mode = EXPECTED[path]
    assert codes <= {e.code for e in result.events}
    assert mode in result.mode and not result.aborted
    assert digests(result) == PINNED[f"{kind}_{path}"]


@pytest.mark.parametrize("kind, path", CASES)
def test_trust_path_lanes_equal_serial_runs(kind, path):
    scenario = scenario_from_dict(variant_raw(kind, path))
    for i, lane in enumerate(sweep(scenario, 3)):
        assert digests(lane) == digests(run_scenario(scenario.with_seed(scenario.seed + i)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    k_exit=st.integers(1, 5),
    k_enter=st.integers(1, 8),
    lo=st.floats(0.5, 1.05),
    width=st.floats(0.02, 0.5),
    noise_sd=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_dwell_rules_hold_end_to_end(k_exit, k_enter, lo, width, noise_sd, seed):
    """The mode leaves Automated on the tick the fail streak reaches K_exit,
    and re-enters only after K_enter passes in a row.

    The checks are QualityOK, EcapNonNegative and BiomarkerInPhysRange, so
    each tick's verdict follows from the ``quality`` and ``biomarker``
    columns alone. Of the 60 examples, 50 enter Fallback and 17 re-enter
    Automated. Runtime budget: under 5 s for all examples (about 0.4 s
    measured on a 2-core host).
    """
    hi = lo + width
    raw = ecap_raw(
        seed=seed,
        timebase={"duration_s": 4.0},
        plant={"ecap": {"sensor_noise_sd_uV": noise_sd}},
        trust={"checks": ["QualityOK", "EcapNonNegative", "BiomarkerInPhysRange"],
               "exit_after_consecutive_fails": k_exit,
               "reenter_after_consecutive_passes": k_enter,
               "biomarker_min": lo, "biomarker_max": hi},
    )
    r = run_scenario(scenario_from_dict(raw))
    fails = passes = 0
    prev = "Automated"
    for t in range(r.n_ticks):
        x = float(r.biomarker[t])
        if r.quality[t] == "OK" and x >= 0.0 and lo <= x <= hi:
            fails, passes = 0, passes + 1
        else:
            fails, passes = fails + 1, 0
        if prev == "Automated":
            assert r.mode[t] == ("Fallback" if fails >= k_exit else "Automated"), t
        else:
            assert prev == "Fallback"
            assert r.mode[t] == ("Automated" if passes >= k_enter else "Fallback"), t
        prev = r.mode[t]


def test_regulating_policy_returns_to_the_baseline_timing():
    # A FixedSafe fallback at the baseline amplitude with a wider pulse. Once
    # the loop re-entered Automated, the policy kept delivering with the
    # fallback's pulse width; every tick's energy shows the timing in effect.
    raw = variant_raw("beta", "fallback")
    raw["fallback"] = {"kind": "FixedSafe",
                       "dose": {**raw["baseline_dose"], "pulse_width_us": 90.0}}
    scenario = scenario_from_dict(raw)
    result = run_scenario(scenario)
    reentry = result.mode.index("Automated", result.mode.index("Fallback"))
    assert reentry < result.n_ticks - 1
    template = {"Automated": scenario.baseline_dose, "Fallback": scenario.fallback.dose}
    teed, expected = 0.0, []
    for mode, delivered in zip(result.mode, result.delivered_mA.tolist()):
        teed += teed_rate(delivered, template[mode]) * scenario.timebase.dt_s
        expected.append(teed)
    assert result.teed_cum.tolist() == expected

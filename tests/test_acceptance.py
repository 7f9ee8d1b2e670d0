"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one ``ACCEPTANCE`` PASS/FAIL line (visible with ``pytest -s``
or in captured output) and asserts its own runtime budget. Expected values
come from independent oracles: exactly rounded brute-force arithmetic,
closed-form fixed points and step responses computed by hand, binomial
statistics, and exhaustive enumeration of small input spaces.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from neuroloop.cli import EXIT_OK, main
from neuroloop.control import BangBangResponsive, PolicyState, bang_bang_responsive_step
from neuroloop.core import Dose, QUALITY_IMPOSSIBLE, QUALITY_OK
from neuroloop.engine import compare_modes, run_scenario, sweep
from neuroloop.features import (
    Detector,
    area_under_curve,
    band_power,
    line_length,
)
from neuroloop.metrics import scan_delivered_series
from neuroloop.outputs import replay_run, scan_pulse_width_us
from neuroloop.plant import (
    BetaSuppression,
    DeviceState,
    NoisyNonMonotonic,
    OffsetGain,
    SeizureGenState,
    dose_response_eval,
    seizure_step,
)
from neuroloop.safety import (
    CHECK_QUALITY_OK,
    MODE_AUTOMATED,
    MODE_EOS_RESET,
    MODE_FALLBACK,
    MODE_SUSPENDED_MAGNET,
    FixedSafe,
    SupervisorState,
    TrustConfig,
    failed_device_checks,
    supervisor_step,
    trust_check_step,
)
from neuroloop.scenario import ToolSpec, scenario_from_dict, validate_scenario

from conftest import clinician_reset, ecap_raw, reference_raw


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, (
        f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s >= {budget_s}s"
    )
    print(f"ACCEPTANCE {num:>2} {name}: PASS ({elapsed:.2f}s)")


def test_c01_feature_oracle_equivalence():
    with criterion(1, "feature-oracle-equivalence", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            xs = rng.normal(scale=40.0, size=64)
            # Brute-force oracles: hand-enumerated terms, exactly rounded.
            ll_terms = [abs(xs[i] - xs[i - 1]) for i in range(1, 64)]
            assert line_length(xs) == math.fsum(ll_terms)
            assert area_under_curve(xs) == math.fsum(abs(x) for x in xs)
            det = Detector(ToolSpec(feature="line_length", threshold_mode="adaptive",
                                    multiplier=2.0, long_window_ticks=64))
            for x in xs:
                det.observe(float(x))
            s = sorted(xs)
            oracle_median = (s[31] + s[32]) / 2.0
            assert det.threshold == 2.0 * oracle_median


def test_c02_band_power_parseval():
    with criterion(2, "band-power-parseval", 1.0):
        fs = 250.0
        t = np.arange(250) / fs
        tone = np.sin(2 * np.pi * 20.0 * t)
        beta = band_power(tone, 13.0, 30.0, fs)
        assert beta == pytest.approx(0.5, rel=0.05)
        leak = band_power(tone, 55.0, 75.0, fs)
        assert leak < 0.02 * 0.5


def test_c03_ecap_analytic_fixed_point():
    with criterion(3, "ecap-analytic-fixed-point", 10.0):
        raw = reference_raw("ecap_scs")
        assert validate_scenario(raw).ok
        scenario = scenario_from_dict(raw)
        r = run_scenario(scenario)
        step = scenario.device.amp_step_mA

        # Oracle: A* = I_th + target/k = 3.0 + 1.0/0.5 = 5.0 mA at reference
        # distance; the +1 mm posture step (0.8 mA/mm) moves it to 5.8 mA.
        pre = float(r.delivered_mA[400:740].mean())
        assert abs(pre - 5.0) <= step + 1e-9
        post = float(r.delivered_mA[1100:].mean())
        assert abs(post - 5.8) <= step + 1e-9

        sr = r.metrics.step_response
        assert sr is not None and sr.attained
        assert sr.settling_time_s is not None and sr.settling_time_s < 2.0
        # Settled means the measured response stays within 5% of target.
        settled_from = 750 + int(round(sr.settling_time_s / scenario.timebase.dt_s))
        assert np.all(np.abs(r.biomarker[settled_from:] - 1.0) <= 0.05 + 1e-12)


def test_c04_fixed_versus_automated_variance():
    with criterion(4, "automated-beats-fixed-variance", 20.0):
        scenario = scenario_from_dict(reference_raw("ecap_scs"))
        cmp = compare_modes(scenario)
        assert np.array_equal(cmp.automated.distance_mm, cmp.fixed.distance_mm)
        assert cmp.automated_variance_about_target < cmp.fixed_variance_about_target


def test_c05_therapy_budget_exhaustive():
    with criterion(5, "therapy-budget-exhaustive", 5.0):
        cfg = BangBangResponsive(
            burst_dose=Dose(2.0, 160.0, 200.0), max_therapies_per_event=5
        )
        for length in range(1, 13):
            for bits in itertools.product((False, True), repeat=length):
                st = PolicyState()
                for detected in bits:
                    before = st.therapies_delivered_this_event
                    st, amp, started = bang_bang_responsive_step(detected, st, cfg)
                    if detected:
                        if started:
                            # Re-arming rule: a therapy may start only while
                            # the per-event budget still has room.
                            assert before < 5
                        else:
                            # Exhausted: off until the flag resets and a new
                            # detection occurs.
                            assert before >= 5
                            assert amp == 0.0
                    else:
                        # Flag reset: counter re-arms, nothing delivered.
                        assert st.therapies_delivered_this_event == 0
                        assert amp == 0.0
                    assert st.therapies_delivered_this_event <= 5


def _supervisor_transition_table(k_exit: int, k_enter: int):
    """(mode, fail, pass) x verdict -> next, built from the real step functions.

    Streaks are capped at their K: the machine only ever tests
    ``streak >= K``, so the cap is an exact abstraction.
    """
    trust = TrustConfig(
        checks=(CHECK_QUALITY_OK,),
        exit_after_consecutive_fails=k_exit,
        reenter_after_consecutive_passes=k_enter,
    )
    fb = FixedSafe(dose=Dose(2.0, 200.0, 50.0, "E1"))
    device = DeviceState(
        battery_v=3.6, eos_threshold_v=3.0,
        impedance_ohm_per_contact={"E1": 500.0},
        compliance_v=10.0, amp_step_mA=0.1,
    )
    ok = frozenset({QUALITY_OK})
    bad = frozenset({QUALITY_IMPOSSIBLE})
    device_fails = failed_device_checks(trust, device, "E1")

    table = {}
    for mode in (MODE_AUTOMATED, MODE_FALLBACK):
        for f in range(k_exit + 1):
            for p in range(k_enter + 1):
                for verdict_pass in (False, True):
                    quality = ok if verdict_pass else bad
                    f2, p2, failed = trust_check_step(
                        trust, quality, None, device_fails, f, p
                    )
                    assert (failed == 0) == verdict_pass
                    st = supervisor_step(
                        SupervisorState(mode=mode), f2, p2, False, device, trust, fb, []
                    )
                    key = (mode, f, p, verdict_pass)
                    table[key] = (
                        st.mode,
                        min(f2, k_exit),
                        min(p2, k_enter),
                        f2 >= k_exit,
                    )
    return table


def test_c06_supervisor_model_check():
    with criterion(6, "supervisor-model-check", 30.0):
        # Exhaustive: every trust-verdict string of length 16 (which contains
        # every shorter string as a prefix; properties are asserted at every
        # step) for each K_exit, K_enter in {1,2,3}.
        for k_exit in (1, 2, 3):
            for k_enter in (1, 2, 3):
                table = _supervisor_transition_table(k_exit, k_enter)
                for word in range(1 << 16):
                    mode, f, p = MODE_AUTOMATED, 0, 0
                    run_of_passes = 0
                    for i in range(16):
                        verdict = bool((word >> i) & 1)
                        prev_mode = mode
                        mode, f, p, fail_hit_k = table[(mode, f, p, verdict)]
                        run_of_passes = run_of_passes + 1 if verdict else 0
                        # Exit dwell: K_exit consecutive fails while Automated
                        # means the effective mode this tick is not Automated.
                        if prev_mode == MODE_AUTOMATED and fail_hit_k:
                            assert mode != MODE_AUTOMATED
                        # Entrance dwell: re-entry needs >= K_enter passes.
                        if prev_mode == MODE_FALLBACK and mode == MODE_AUTOMATED:
                            assert run_of_passes >= k_enter

        # Reset states absorb until clinician_reset.
        trust = TrustConfig(checks=(CHECK_QUALITY_OK,),
                            exit_after_consecutive_fails=1,
                            reenter_after_consecutive_passes=1)
        fb = FixedSafe(dose=Dose(2.0, 200.0, 50.0, "E1"))
        dead = DeviceState(battery_v=2.0, eos_threshold_v=3.0,
                           impedance_ohm_per_contact={"E1": 500.0},
                           compliance_v=10.0, amp_step_mA=0.1)
        healthy = DeviceState(battery_v=3.6, eos_threshold_v=3.0,
                              impedance_ohm_per_contact={"E1": 500.0},
                              compliance_v=10.0, amp_step_mA=0.1)
        st = supervisor_step(SupervisorState(), 0, 1, False, dead, trust, fb, [])
        assert st.mode == MODE_EOS_RESET
        for streaks, magnet in itertools.product(((0, 1), (1, 0)), (False, True)):
            st2 = st
            for _ in range(5):
                st2 = supervisor_step(st2, *streaks, magnet, healthy, trust, fb, [])
                assert st2.mode == MODE_EOS_RESET
        st3, _ = clinician_reset(st)
        assert st3.mode == MODE_AUTOMATED

        # Magnet: 0 mA delivered while suspended, prior mode restored after.
        raw = ecap_raw(magnet=[{"start_tick": 100, "end_tick": 140}])
        r = run_scenario(scenario_from_dict(raw))
        assert all(m == MODE_SUSPENDED_MAGNET for m in r.mode[100:140])
        assert np.all(r.delivered_mA[100:140] == 0.0)
        assert r.mode[99] == MODE_AUTOMATED and r.mode[140] == MODE_AUTOMATED


def test_c07_safety_universal_sweep():
    with criterion(7, "safety-universal-scan", 120.0):
        for name in ("rns_epilepsy", "adbs_parkinsons", "ecap_scs"):
            scenario = scenario_from_dict(reference_raw(name))
            pw = scan_pulse_width_us(scenario)
            for r in [run_scenario(scenario)] + sweep(scenario, 100):
                scan = scan_delivered_series(
                    r.delivered_mA, r.scenario.limits, pw,
                    initial_mA=r.initial_delivered_mA,
                )
                assert scan.ok, (name, r.scenario.seed, scan.violations[:3])


def test_c08_seizure_suppression_statistics():
    with criterion(8, "seizure-suppression-statistics", 60.0):
        p = 0.6
        s = SeizureGenState(
            rate_per_hour=1800.0,       # hazard 0.05 per 0.1 s tick
            base_duration_ticks=30,
            suppression_prob=p,
            response_window_ticks=10,
        )
        rng = np.random.default_rng(60486)
        t = 0
        while s.onset_count < 10_000:
            s, _ = seizure_step(s, True, t, 0.1, rng)
            t += 1
        frac = s.early_termination_count / s.onset_count
        sigma = math.sqrt(p * (1 - p) / s.onset_count)
        assert abs(frac - p) <= 3 * sigma, (frac, 3 * sigma)


def test_c09_adbs_energy_direction():
    with criterion(9, "adbs-energy-direction", 30.0):
        scenario = scenario_from_dict(reference_raw("adbs_parkinsons"))
        cmp = compare_modes(scenario)
        adaptive, continuous = cmp.automated.metrics, cmp.fixed.metrics
        assert adaptive.teed_total < continuous.teed_total
        assert adaptive.time_in_range_frac >= continuous.time_in_range_frac


def test_c10_determinism_and_replay(tmp_path):
    with criterion(10, "determinism-and-replay", 30.0):
        scenario_path = str(
            (tmp_path / "ecap_scs.json")
        )
        (tmp_path / "ecap_scs.json").write_text(json.dumps(reference_raw("ecap_scs")))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["run", scenario_path, "--out", str(out1)]) == EXIT_OK
        assert main(["run", scenario_path, "--out", str(out2)]) == EXIT_OK
        for fname in ("timeseries.csv", "events.jsonl", "summary.json"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), fname
        assert main(["replay", str(out1)]) == EXIT_OK
        assert replay_run(out2).ok


def test_c11_dose_response_shapes():
    with criterion(11, "dose-response-shapes", 5.0):
        curve = BetaSuppression(
            baseline=2.0, max_suppression_fraction=0.8, knee_mA=1.75, softness_mA=0.5
        )
        h = 1e-5

        def slope_mag(a):
            lo = dose_response_eval(curve, a - h)
            hi = dose_response_eval(curve, a + h)
            return abs(hi - lo) / (2 * h)

        grid = np.arange(1.75, 5.0, 0.1)
        mags = [slope_mag(a) for a in grid]
        assert all(m2 < m1 for m1, m2 in zip(mags, mags[1:]))

        og = OffsetGain(gain=2.0, offset_mA=1.0)
        for a in np.linspace(0.0, 1.0, 101):
            assert dose_response_eval(og, float(a)) == 0.0

        nm = NoisyNonMonotonic(gain=2.0, offset_mA=1.0, peak_mA=3.0, noise_sd=0.0)
        for a in np.linspace(0.0, 3.0, 301):
            assert dose_response_eval(nm, float(a)) == dose_response_eval(og, float(a))

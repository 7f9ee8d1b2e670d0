"""Scenario validation, the engine loop, metrics, outputs, and replay."""

import json
from collections import Counter

import numpy as np
import pytest

from neuroloop.engine import compare_modes, fixed_arm_scenario, run_scenario, sweep
from neuroloop.core import InvalidPlantError
from neuroloop.features import Detector, line_length
from neuroloop.metrics import (
    pulse_widths_us,
    scan_delivered_series,
    scan_timeseries_csv,
    step_response_metrics,
)
from neuroloop.core import DoseLimits
from neuroloop.outputs import (
    events_jsonl_text,
    replay_run,
    summary_json_text,
    timeseries_csv_text,
    write_run,
)
from neuroloop.safety import (
    MODE_AUTOMATED,
    MODE_EOS_RESET,
    MODE_FALLBACK,
    MODE_SUSPENDED_MAGNET,
)
from neuroloop.scenario import (
    ScenarioParseError,
    CHECKLIST_DEVICE_STATE,
    CHECKLIST_FALLBACK,
    CHECKLIST_LIMITS,
    CHECKLIST_SENSOR,
    CHECKLIST_VARIABLES,
    load_scenario_file,
    scenario_from_dict,
    validate_scenario,
)

from conftest import deep_merge, ecap_raw, ieeg_raw, reference_raw

RENDERS = (timeseries_csv_text, events_jsonl_text, summary_json_text)


class TestValidation:
    @pytest.mark.parametrize("name", ["ecap_scs", "adbs_parkinsons", "rns_epilepsy"])
    def test_reference_scenarios_validate(self, name):
        report = validate_scenario(reference_raw(name))
        assert report.ok, report.findings

    def test_inverted_limits_tagged_actuator_limits(self):
        raw = ecap_raw(limits={"amp_min_mA": 7.0, "amp_max_mA": 6.0,
                               "max_slew_mA_per_tick": 1.0,
                               "max_charge_per_pulse_uC": 2.0})
        report = validate_scenario(raw)
        assert not report.ok
        assert any(f.checklist_item == CHECKLIST_LIMITS for f in report.findings)

    def test_missing_fallback_tagged(self):
        raw = ecap_raw()
        del raw["fallback"]
        report = validate_scenario(raw)
        assert not report.ok
        assert any(f.checklist_item == CHECKLIST_FALLBACK for f in report.findings)

    def test_policy_plant_mismatch(self):
        raw = ecap_raw(policy={"kind": "DualThreshold", "lower": 1.0, "upper": 2.0,
                               "step_up_mA": 0.1, "step_down_mA": 0.1})
        report = validate_scenario(raw)
        assert not report.ok
        assert any(f.checklist_item == CHECKLIST_VARIABLES for f in report.findings)

    def test_ecap_trust_check_needs_ecap_plant(self):
        raw = ieeg_raw(trust={"checks": ["QualityOK", "EcapNonNegative"],
                              "exit_after_consecutive_fails": 2,
                              "reenter_after_consecutive_passes": 2})
        report = validate_scenario(raw)
        assert not report.ok
        assert any(f.checklist_item == CHECKLIST_SENSOR for f in report.findings)

    def test_unreachable_target_flagged(self):
        raw = ecap_raw(limits={"amp_min_mA": 0.0, "amp_max_mA": 4.0,
                               "max_slew_mA_per_tick": 10.0,
                               "max_charge_per_pulse_uC": 2.0})
        # Target needs I_th + target/k = 5.0 mA but amp_max is 4.0.
        report = validate_scenario(raw)
        assert not report.ok

    def test_parse_error_carries_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1,\n  "name": oops}\n', encoding="utf-8")
        with pytest.raises(ScenarioParseError, match=r"line 2"):
            load_scenario_file(bad)

    def test_validating_scenario_builds_and_runs(self):
        # Soundness: whatever validates must run without configuration errors.
        raw = ecap_raw(timebase={"dt_s": 0.02, "duration_s": 2.0})
        assert validate_scenario(raw).ok
        result = run_scenario(scenario_from_dict(raw))
        assert "" not in result.mode   # every tick recorded its mode

    def test_unphysical_plant_range_caught_for_any_policy(self):
        # A slope that collapses to zero inside the distance trajectory must
        # fail validation even when the policy never reads the response.
        raw = ecap_raw(
            policy={"kind": "ManualFixed",
                    "dose": {"amplitude_mA": 4.0, "pulse_width_us": 200.0,
                             "frequency_hz": 50.0, "contact_set": "E1"}},
            plant={"ecap": {"slope_distance_coeff_per_mm": -0.4},
                   "disturbances": [{"kind": "PostureStep", "start_tick": 10,
                                     "delta_mm": 3.0}]},
        )
        report = validate_scenario(raw)
        assert not report.ok
        assert any("slope" in f.message for f in report.findings)

    @pytest.mark.parametrize("ramp", [-5.0, -0.3334])
    def test_impedance_ramped_to_zero_is_a_device_state_finding(self, ramp):
        # 500 ohm over 1,500 ticks: the impedance reaches zero on the device
        # built at tick 99 (-5) or at the last tick, 1499 (-0.3334).
        raw = deep_merge(reference_raw("ecap_scs"),
                         {"plant": {"device": {"impedance_ramp_ohm_per_tick": ramp}}})
        report = validate_scenario(raw)
        assert [f.checklist_item for f in report.findings] == [CHECKLIST_DEVICE_STATE]
        assert "impedance of contact 'E1' must be positive" in report.findings[0].message

    @pytest.mark.parametrize("ramp", [-1 / 3, -0.33333333333333337])
    def test_impedance_ramp_is_judged_by_sequential_sums(self, ramp):
        # 500 + ramp * 1500 reads 0.0 and -5.7e-14, but 1,500 additions of
        # the ramp, as device_step makes them, leave about 1.1e-11 ohm.
        raw = deep_merge(reference_raw("ecap_scs"),
                         {"plant": {"device": {"impedance_ramp_ohm_per_tick": ramp}}})
        assert 500.0 + ramp * 1500 <= 0.0
        report = validate_scenario(raw)
        assert report.ok, report.findings
        r = run_scenario(report.scenario)
        assert r.n_ticks == len(r.mode) == 1500

    def test_unknown_contact_set_caught_before_running(self):
        raw = ecap_raw(baseline_dose={"amplitude_mA": 4.0, "pulse_width_us": 200.0,
                                      "frequency_hz": 50.0, "contact_set": "E9"})
        report = validate_scenario(raw)
        assert not report.ok
        assert any("contact set" in f.message for f in report.findings)


class TestEngineBasics:
    def test_same_seed_bitwise_identical_outputs(self):
        raw = ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.01}})
        r1 = run_scenario(scenario_from_dict(raw))
        r2 = run_scenario(scenario_from_dict(raw))
        assert timeseries_csv_text(r1) == timeseries_csv_text(r2)
        assert events_jsonl_text(r1) == events_jsonl_text(r2)
        assert summary_json_text(r1) == summary_json_text(r2)

    def test_different_seeds_differ(self):
        raw = ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.01}})
        r1 = run_scenario(scenario_from_dict(raw))
        r2 = run_scenario(scenario_from_dict(raw).with_seed(999))
        assert timeseries_csv_text(r1) != timeseries_csv_text(r2)

    def test_manual_fixed_no_noise_constant_delivery(self):
        raw = ecap_raw(policy={"kind": "ManualFixed",
                               "dose": {"amplitude_mA": 4.0, "pulse_width_us": 200.0,
                                        "frequency_hz": 50.0, "contact_set": "E1"}})
        r = run_scenario(scenario_from_dict(raw))
        assert np.all(r.delivered_mA == 4.0)

    def test_ecap_reference_converges_to_analytic_fixed_point(self):
        raw = ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.005}})
        r = run_scenario(scenario_from_dict(raw))
        settled = r.delivered_mA[200:]
        assert abs(float(settled.mean()) - 5.0) <= 0.01 + 1e-9

    def test_noise_free_run_is_exactly_reproducible(self):
        raw = ecap_raw()
        r1 = run_scenario(scenario_from_dict(raw))
        r2 = run_scenario(scenario_from_dict(raw).with_seed(4321))
        # No stochastic element anywhere: seed cannot matter.
        assert np.array_equal(r1.delivered_mA, r2.delivered_mA)
        assert np.array_equal(r1.biomarker, r2.biomarker)

    def test_held_dose_builds_no_dose_objects(self, monkeypatch):
        # The deadband covers every error the loop sees, so the policy holds
        # the baseline dose: past set-up, a tick builds no Dose at all.
        from neuroloop.core import Dose

        built = []
        monkeypatch.setattr(Dose, "__post_init__", lambda self: built.append(self))
        counts = []
        for duration_s in (2.0, 4.0):
            raw = ecap_raw(timebase={"duration_s": duration_s},
                           plant={"ecap": {"sensor_noise_sd_uV": 0.01}},
                           policy={"deadband_uV": 100.0})
            scenario = scenario_from_dict(raw)
            built.clear()
            r = run_scenario(scenario)
            assert np.all(r.delivered_mA == 4.0) and r.mode == ["Automated"] * r.n_ticks
            counts.append(len(built))
        assert counts[0] == counts[1] <= 1

    def test_beta_tick_blocks_built_once_per_64_ticks_for_all_lanes(self, monkeypatch):
        # Budget: 1.5 s. The tick-only frame terms are built per block of 64
        # ticks, shared by every lane: 1,000 ticks are 16 blocks at any width.
        from neuroloop.plant import BetaTickTable

        built = []
        build = BetaTickTable._build

        def counting_build(self, start):
            built.append(start)
            build(self, start)

        monkeypatch.setattr(BetaTickTable, "_build", counting_build)
        raw = reference_raw("adbs_parkinsons")
        raw["timebase"]["duration_s"] = 250.0   # 1,000 ticks
        scenario = scenario_from_dict(raw)
        counts = []
        for lanes in (1, 16):
            built.clear()
            results = sweep(scenario, lanes)
            assert all(r.n_ticks == 1000 and not np.isnan(r.biomarker).any() for r in results)
            counts.append(len(built))
        assert counts == [16, 16]
        assert built == list(range(0, 1000, 64))

    def test_quiet_run_builds_no_supervisor_states(self, monkeypatch):
        # No mode change and no magnet or DC-leak edge: the dwell streaks
        # are lane counters, so a tick builds no SupervisorState and a run
        # twice as long builds as many.
        from neuroloop.safety import SupervisorState

        built = []
        init = SupervisorState.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SupervisorState, "__init__", counting_init)
        counts = []
        for duration_s in (4.0, 8.0):   # 200 and 400 ticks
            scenario = scenario_from_dict(ecap_raw(timebase={"duration_s": duration_s}))
            built.clear()
            r = run_scenario(scenario)
            assert r.mode == ["Automated"] * r.n_ticks and not r.events
            counts.append(len(built))
        assert counts[0] == counts[1] <= 1

    def test_events_sorted_by_tick(self):
        raw = ieeg_raw()
        r = run_scenario(scenario_from_dict(raw))
        ticks = [e.tick for e in r.events]
        assert ticks == sorted(ticks)

    def test_teed_total_matches_csv_recompute(self):
        raw = ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.01}})
        scenario = scenario_from_dict(raw)
        r = run_scenario(scenario)
        # Independent second pass over the rendered CSV.
        text = timeseries_csv_text(r)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        i_del = header.index("delivered_mA")
        dt = scenario.timebase.dt_s
        pw = scenario.baseline_dose.pulse_width_us
        f = scenario.baseline_dose.frequency_hz
        total = 0.0
        for line in lines[1:]:
            a = float(line.split(",")[i_del])
            total += a * a * pw * f * dt
        assert total == pytest.approx(r.metrics.teed_total, rel=1e-9)
        assert total == pytest.approx(float(r.teed_cum[-1]), rel=1e-9)


class TestStepResponseMetrics:
    def test_identically_on_setpoint(self):
        series = np.full(100, 2.0)
        sr = step_response_metrics(series, 2.0, 10, 0.05, dt_s=0.1)
        assert sr.attained
        assert sr.response_time_s == 0.0
        assert sr.settling_time_s == 0.0
        assert sr.overshoot_frac == 0.0
        assert sr.steady_state_dev == 0.0

    def test_exponential_settles_at_three_tau(self):
        # x(t) = sp * (1 - exp(-t / tau)) crosses within 5% at t = tau*ln(20),
        # about 3 tau, and stays there.
        tau_ticks = 50
        t = np.arange(500)
        series = 1.0 - np.exp(-t / tau_ticks)
        sr = step_response_metrics(series, 1.0, 0, 0.05, dt_s=1.0)
        expected = tau_ticks * np.log(20.0)
        assert sr.attained
        assert abs(sr.settling_time_s - np.ceil(expected)) <= 1.0
        assert sr.response_time_s == sr.settling_time_s

    def test_damped_overshoot_exact(self):
        sp = 10.0
        series = np.full(200, sp)
        series[:40] = np.linspace(0, 12.0, 40)  # peaks at 1.2 * setpoint
        sr = step_response_metrics(series, sp, 0, 0.05, dt_s=1.0)
        assert sr.overshoot_frac == pytest.approx(0.2)

    def test_never_attained_marked_not_fabricated(self):
        series = np.zeros(50)
        sr = step_response_metrics(series, 1.0, 0, 0.05, dt_s=1.0)
        assert not sr.attained
        assert sr.response_time_s is None and sr.settling_time_s is None


def compare_variants():
    """240-tick variants of each reference file: as shipped, with a magnet
    interval, and entering and leaving LastKnownGood Fallback (a biomarker
    bound near the median, K_exit 1) with the magnet inside a Fallback spell."""
    magnet = {"magnet": [{"start_tick": 100, "end_tick": 130}]}
    for name, biomarker_max in (("ecap_scs", 1.0), ("adbs_parkinsons", 0.4),
                                ("rns_epilepsy", 350.0)):
        raw = reference_raw(name)
        raw["timebase"]["duration_s"] = 240 * raw["timebase"]["dt_s"]
        yield name, raw
        yield f"{name}-magnet", deep_merge(raw, magnet)
        fallback = {"fallback": {"kind": "LastKnownGood"}, "trust": {
            "checks": raw["trust"]["checks"] + ["BiomarkerInPhysRange"],
            "biomarker_max": biomarker_max, "exit_after_consecutive_fails": 1,
            "reenter_after_consecutive_passes": 2,
        }}
        yield f"{name}-fallback", deep_merge(raw, {**magnet, **fallback})


class TestCompareModes:
    @pytest.mark.parametrize("name, raw", list(compare_variants()),
                             ids=[name for name, _ in compare_variants()])
    def test_each_arm_equals_its_serial_run(self, name, raw):
        # Budget: under 1 s for all nine. The arms are two lanes of one loop.
        scenario = scenario_from_dict(raw)
        cmp = compare_modes(scenario)
        arms = ((cmp.automated, scenario), (cmp.fixed, fixed_arm_scenario(scenario)))
        for arm, arm_scenario in arms:
            serial = run_scenario(arm_scenario)
            assert [render(arm) for render in RENDERS] == [render(serial) for render in RENDERS]
            if name.endswith("-fallback"):
                assert MODE_FALLBACK in arm.mode and MODE_SUSPENDED_MAGNET in arm.mode

    def test_arms_share_disturbance_realizations(self):
        raw = ecap_raw(
            plant={"ecap": {"sensor_noise_sd_uV": 0.01},
                   "disturbances": [{"kind": "PostureStep", "start_tick": 200,
                                     "delta_mm": 1.0}]},
        )
        cmp = compare_modes(scenario_from_dict(raw))
        assert np.array_equal(cmp.automated.distance_mm, cmp.fixed.distance_mm)

    def test_automated_tracks_disturbances_better(self):
        raw = ecap_raw(
            plant={"ecap": {"sensor_noise_sd_uV": 0.005}},
        )
        raw["plant"]["disturbances"] = [
            {"kind": "PostureStep", "start_tick": 200, "delta_mm": 1.0}
        ]
        cmp = compare_modes(scenario_from_dict(raw))
        assert cmp.automated_variance_about_target < cmp.fixed_variance_about_target

    def test_degenerate_comparison_matches_at_fixed_point(self):
        # Noise-free, disturbance-free, baseline already at the automated
        # steady state: both arms sit at the same fixed point.
        raw = ecap_raw(baseline_dose={"amplitude_mA": 5.0, "pulse_width_us": 200.0,
                                      "frequency_hz": 50.0, "contact_set": "E1"})
        cmp = compare_modes(scenario_from_dict(raw))
        step = 0.01
        assert abs(
            cmp.automated.metrics.teed_total - cmp.fixed.metrics.teed_total
        ) <= cmp.fixed.metrics.teed_total * (2 * step / 5.0) + 1e-9
        assert np.max(np.abs(cmp.automated.delivered_mA - cmp.fixed.delivered_mA)) <= step

    def test_manual_policy_rejected(self):
        raw = ecap_raw(policy={"kind": "ManualFixed",
                               "dose": {"amplitude_mA": 4.0, "pulse_width_us": 200.0,
                                        "frequency_hz": 50.0, "contact_set": "E1"}})
        with pytest.raises(ValueError):
            compare_modes(scenario_from_dict(raw))

    def test_comparison_target_per_policy(self):
        raw = ecap_raw()
        assert scenario_from_dict(raw).policy.target == 1.0


class TestSupervisedRuns:
    def test_fallback_fixed_safe_is_seed_invariant(self):
        # Trust is configured so the converging loop must violate the
        # physiologic range, and the fallback dose keeps violating it, so
        # the run latches into Fallback. Different sensor-noise seeds must
        # deliver identical doses on every tick where both runs are fallen
        # back ("does not change with the biomarker").
        overrides = dict(
            plant={"ecap": {"sensor_noise_sd_uV": 0.02}},
            trust={"checks": ["QualityOK", "BiomarkerInPhysRange"],
                   "exit_after_consecutive_fails": 3,
                   "reenter_after_consecutive_passes": 5,
                   "biomarker_min": -1.0, "biomarker_max": 0.9},
            fallback={"kind": "FixedSafe",
                      "dose": {"amplitude_mA": 6.0, "pulse_width_us": 200.0,
                               "frequency_hz": 50.0, "contact_set": "E1"}},
        )
        r1 = run_scenario(scenario_from_dict(ecap_raw(seed=1, **overrides)))
        r2 = run_scenario(scenario_from_dict(ecap_raw(seed=2, **overrides)))
        both = [
            t for t in range(min(r1.n_ticks, r2.n_ticks))
            if r1.mode[t] == MODE_FALLBACK and r2.mode[t] == MODE_FALLBACK
        ]
        assert len(both) > 50
        for t in both:
            assert r1.delivered_mA[t] == r2.delivered_mA[t] == 6.0
        assert MODE_FALLBACK in r1.mode and MODE_FALLBACK in r2.mode

    def test_magnet_interval_suspends_and_resumes(self):
        raw = ecap_raw(magnet=[{"start_tick": 100, "end_tick": 150}])
        r = run_scenario(scenario_from_dict(raw))
        assert all(m == MODE_SUSPENDED_MAGNET for m in r.mode[100:150])
        assert np.all(r.delivered_mA[100:150] == 0.0)
        assert r.mode[150] == MODE_AUTOMATED
        # therapy resumes: the loop climbs back toward the setpoint
        assert r.delivered_mA[200] > 4.0

    def test_magnet_suspends_therapy_but_not_detection(self):
        # Contrast with a reset: under the magnet the sensing chain keeps
        # producing measurements (and the detectors keep running); only the
        # stimulation output is forced off.
        raw = ieeg_raw(magnet=[{"start_tick": 50, "end_tick": 150}])
        r = run_scenario(scenario_from_dict(raw))
        assert all(m == MODE_SUSPENDED_MAGNET for m in r.mode[50:150])
        assert np.all(r.delivered_mA[50:150] == 0.0)
        assert not np.any(np.isnan(r.biomarker[50:150]))

    def test_eos_reset_suspends_everything(self):
        # ~1 uC per tick at 5 mA; 1e-3 V/uC crosses the 0.2 V margin mid-run.
        raw = ecap_raw(plant={"device": {"battery_v": 3.2, "drain_v_per_uC": 1e-3}})
        r = run_scenario(scenario_from_dict(raw))
        reset_ticks = [t for t, m in enumerate(r.mode) if m == MODE_EOS_RESET]
        assert reset_ticks, "battery never crossed the end-of-service threshold"
        first = reset_ticks[0]
        assert all(m == MODE_EOS_RESET for m in r.mode[first:])
        assert np.all(r.delivered_mA[first:] == 0.0)
        assert np.all(np.isnan(r.biomarker[first + 1:]))  # measurements suspended
        assert any(e.code == "MODE_EOS_RESET" and e.severity == "Fault" for e in r.events)

    def test_daily_episode_budget_denies_later_events(self):
        raw = ieeg_raw(
            timebase={"dt_s": 0.125, "duration_s": 240.0},
            plant={"seizures": {"rate_per_hour": 240.0, "base_duration_ticks": 40,
                                "suppression_prob": 0.0,
                                "response_window_ticks": 20}},
            budgets={"max_therapies_per_event": 5, "max_episodes_per_day": 1},
        )
        r = run_scenario(scenario_from_dict(raw))
        assert r.metrics.seizure_count >= 2
        denies = [e for e in r.events if e.code == "BUDGET_DENY"]
        assert denies, "second event of the day should have been denied therapy"
        # Stimulation only happened for the first (budgeted) episode.
        first_deny = denies[0].tick
        assert np.all(r.delivered_mA[first_deny:] == 0.0)

    def test_charge_limit_enforced_through_engine(self):
        # 0.7 uC at 200 us caps the current at 3.5 mA (still above the 3.0 mA
        # activation threshold, so the measurement stays trustworthy); the
        # manual 4.0 mA command must be charge-clamped every tick.
        raw = ecap_raw(
            policy={"kind": "ManualFixed",
                    "dose": {"amplitude_mA": 4.0, "pulse_width_us": 200.0,
                             "frequency_hz": 50.0, "contact_set": "E1"}},
            baseline_dose={"amplitude_mA": 3.5, "pulse_width_us": 200.0,
                           "frequency_hz": 50.0, "contact_set": "E1"},
            limits={"amp_min_mA": 0.0, "amp_max_mA": 10.0,
                    "max_slew_mA_per_tick": 10.0, "max_charge_per_pulse_uC": 0.7},
        )
        r = run_scenario(scenario_from_dict(raw))
        assert all(m == MODE_AUTOMATED for m in r.mode)
        assert np.all(r.delivered_mA == 3.5)
        assert Counter(e.code for e in r.events)["CHARGE_CLAMP"] == r.n_ticks
        assert r.metrics.limit_clamp_count == r.n_ticks
        scan = scan_delivered_series(
            r.delivered_mA, scenario_from_dict(raw).limits, 200.0, initial_mA=3.5
        )
        assert scan.ok

    def test_fallback_frac_is_the_share_of_fallback_ticks(self):
        # The impedance falls below impedance_min_ohm mid-run, so trust fails
        # and the loop falls back for the rest of the run.
        raw = reference_raw("ecap_scs")
        raw["plant"]["device"]["impedance_ramp_ohm_per_tick"] = -0.3
        raw["trust"]["checks"].append("ImpedanceInRange")
        raw["trust"]["impedance_min_ohm"] = 300.0
        r = run_scenario(scenario_from_dict(raw))
        fallback = r.mode.count(MODE_FALLBACK)
        assert 0 < fallback < r.n_ticks == 1500
        assert r.metrics.fallback_frac == fallback / 1500

    def test_device_checks_read_the_delivering_contact(self):
        # The baseline dose is on E1 (500 ohm); the policy delivers on E2
        # (50 kohm, above impedance_max_ohm) from tick 0, so tick 1 fails.
        raw = reference_raw("ecap_scs")
        raw["plant"]["device"]["impedance_ohm"]["E2"] = 50_000.0
        raw["policy"] = {"kind": "ManualFixed",
                         "dose": {**raw["baseline_dose"], "contact_set": "E2"}}
        raw["trust"]["checks"].append("ImpedanceInRange")
        raw["trust"]["impedance_max_ohm"] = 10_000.0
        r = run_scenario(scenario_from_dict(raw))
        fails = [e for e in r.events if e.code == "TRUST_FAIL"]
        assert fails[0].tick == 1 and "ImpedanceInRange" in fails[0].payload["checks"]
        assert r.mode.count(MODE_FALLBACK) == 1497

    @pytest.mark.parametrize("raw", [raw for name, raw in compare_variants()
                                     if name.endswith("-fallback")], ids=["ecap", "beta", "ieeg"])
    def test_last_known_good_holds_the_last_automated_dose(self, raw):
        # LastKnownGood commands the dose delivered on the last Automated
        # tick that passed trust, through a magnet suspension too. A tick
        # passes when its quality is OK and its biomarker is in range (and,
        # on ecap, not negative); the device checks pass on these runs.
        r = run_scenario(scenario_from_dict(raw))
        ecap = raw["plant"]["kind"] == "ecap"
        held, commanded = r.initial_delivered_mA, set()
        for t, mode in enumerate(r.mode):
            value = r.biomarker[t]
            passed = (r.quality[t] == "OK" and value <= raw["trust"]["biomarker_max"]
                      and not (ecap and value < 0.0))
            if mode == MODE_AUTOMATED and passed:
                held = r.delivered_mA[t]
            elif mode == MODE_FALLBACK:
                assert r.commanded_mA[t] == held
                commanded.add(held)
        assert MODE_SUSPENDED_MAGNET in r.mode and commanded

    def test_certain_suppression_terminates_every_event(self):
        raw = ieeg_raw(
            timebase={"dt_s": 0.125, "duration_s": 120.0},
            plant={"seizures": {"rate_per_hour": 240.0, "base_duration_ticks": 40,
                                "suppression_prob": 1.0,
                                "response_window_ticks": 20}},
        )
        r = run_scenario(scenario_from_dict(raw))
        assert r.metrics.seizure_count >= 3
        assert r.metrics.early_termination_count == r.metrics.seizure_count

    @pytest.mark.parametrize("error", [InvalidPlantError, TypeError])
    @pytest.mark.parametrize("stage", ["ecap_true", "clamp_and_slew"])
    def test_programming_error_escapes_the_run(self, monkeypatch, stage, error):
        # A run cannot fault, so an error a stage raises, a simulation error
        # included, is a bug: it fails loudly and is never an event.
        import neuroloop.engine as engine_mod

        def broken(*a, **kw):
            raise error("synthetic programming error")

        monkeypatch.setattr(engine_mod, stage, broken)
        with pytest.raises(error, match="synthetic programming error"):
            run_scenario(scenario_from_dict(ecap_raw()))

    def test_mode_trajectory_reconstructible_from_events(self):
        raw = ecap_raw(magnet=[{"start_tick": 100, "end_tick": 150}],
                       plant={"ecap": {"sensor_noise_sd_uV": 0.01}})
        r = run_scenario(scenario_from_dict(raw))
        mode_codes = {
            "MODE_AUTOMATED": MODE_AUTOMATED,
            "MODE_FALLBACK": MODE_FALLBACK,
            "MODE_SUSPEND_MAGNET": MODE_SUSPENDED_MAGNET,
            "MODE_EOS_RESET": MODE_EOS_RESET,
            "MODE_DC_LEAK_RESET": "DcLeakReset",
        }
        current = MODE_AUTOMATED
        replayed = []
        events = [e for e in r.events
                  if e.code in mode_codes and e.severity in ("Alert", "Fault")]
        idx = 0
        for t in range(r.n_ticks):
            while idx < len(events) and events[idx].tick == t:
                current = mode_codes[events[idx].code]
                idx += 1
            replayed.append(current)
        assert replayed == r.mode


class TestDetectorToolEquivalence:
    def test_streaming_threshold_matches_window_implementation(self):
        # The streaming detector against a plain list window and a full sort.
        from neuroloop.scenario import ToolSpec

        spec = ToolSpec(feature="line_length", threshold_mode="adaptive",
                        multiplier=2.0, long_window_ticks=30, short_window_ticks=3)
        det = Detector(spec)
        values = []
        rng = np.random.default_rng(8)
        for t in range(200):
            frame = rng.normal(scale=10.0, size=32)
            smoothed, threshold, flag = det.observe(line_length(frame))
            if values:
                s = sorted(values[-30:])
                mid = len(s) // 2
                median = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0
                assert threshold == 2.0 * median
            else:
                assert threshold is None
            values.append(line_length(frame))
            assert smoothed == sum(values[-3:]) / len(values[-3:])
            assert flag == (threshold is not None and smoothed > threshold)


class TestOutputsAndReplay:
    def test_write_and_replay_roundtrip(self, tmp_path):
        raw = ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.01}})
        r = run_scenario(scenario_from_dict(raw))
        outdir = write_run(r, tmp_path / "run1")
        for fname in ("scenario.json", "timeseries.csv", "events.jsonl", "summary.json"):
            assert (outdir / fname).exists()
        report = replay_run(outdir)
        assert report.ok, report.to_dict()

    def test_replay_detects_tampering(self, tmp_path):
        raw = ecap_raw()
        r = run_scenario(scenario_from_dict(raw))
        outdir = write_run(r, tmp_path / "run2")
        ts = outdir / "timeseries.csv"
        lines = ts.read_text().splitlines()
        cols = lines[5].split(",")
        cols[6] = "99.0"  # delivered_mA forged
        lines[5] = ",".join(cols)
        ts.write_text("\n".join(lines) + "\n")
        report = replay_run(outdir)
        assert not report.ok
        assert report.files_matched["timeseries.csv"] is False
        assert not report.safety_scan.ok  # 99 mA also breaks the limit scan

    def test_clamp_events_serialize_with_noisy_measurements(self, tmp_path):
        # Noisy measurements flow into command amplitudes and from there into
        # clamp-event payloads; the whole chain must stay JSON-serializable
        # and replayable.
        raw = ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.01}},
                       limits={"amp_min_mA": 0.0, "amp_max_mA": 10.0,
                               "max_slew_mA_per_tick": 0.25,
                               "max_charge_per_pulse_uC": 2.0})
        r = run_scenario(scenario_from_dict(raw))
        assert Counter(e.code for e in r.events)["SLEW_CLAMP"] > 0
        text = events_jsonl_text(r)
        for line in text.strip().splitlines():
            json.loads(line)
        assert replay_run(write_run(r, tmp_path / "noisy")).ok

    @pytest.mark.parametrize("fname", ["timeseries.csv", "events.jsonl", "summary.json"])
    def test_replay_reports_missing_output(self, tmp_path, fname):
        r = run_scenario(scenario_from_dict(ecap_raw()))
        outdir = write_run(r, tmp_path / "run3")
        (outdir / fname).unlink()
        report = replay_run(outdir)
        assert not report.ok
        assert report.files_matched[fname] is False

    def test_replay_skips_outputs_the_scenario_disables(self, tmp_path):
        raw = ecap_raw(outputs={"timeseries": True, "events": True, "summary": False})
        outdir = write_run(run_scenario(scenario_from_dict(raw)), tmp_path / "run4")
        assert not (outdir / "summary.json").exists()
        report = replay_run(outdir)
        assert report.ok, report.to_dict()
        assert "summary.json" not in report.files_matched

    def test_csv_schema(self, tmp_path):
        raw = ieeg_raw(timebase={"dt_s": 0.125, "duration_s": 5.0})
        r = run_scenario(scenario_from_dict(raw))
        text = timeseries_csv_text(r)
        header = text.splitlines()[0]
        assert header == (
            "tick,time_s,biomarker_value,biomarker_quality,setpoint_or_threshold,"
            "commanded_mA,delivered_mA,supervisor_mode,distance_mm_or_blank,"
            "seizing_flag_or_blank,teed_cum"
        )
        row = text.splitlines()[1].split(",")
        assert row[0] == "0" and row[8] == "" and row[9] in ("0", "1")


class TestSafetyScan:
    LIMITS = DoseLimits(0.0, 6.0, 1.0, 2.0)

    def test_clean_series_passes(self):
        series = [0.0, 1.0, 2.0, 2.5, 2.5]
        scan = scan_delivered_series(series, self.LIMITS, 200.0, initial_mA=0.0)
        assert scan.ok

    def test_detects_each_violation_kind(self):
        series = [0.0, 7.0, 7.0, 2.0, 2.0]
        scan = scan_delivered_series(series, self.LIMITS, 400.0, initial_mA=0.0)
        kinds = {v[1] for v in scan.violations}
        assert "amp_above_max" in kinds       # 7.0 > 6.0
        assert "slew_exceeded" in kinds       # 0 -> 7 jump
        assert "charge_exceeded" in kinds     # 7 mA * 400 us = 2.8 uC > 2.0

    def test_nan_amplitude_is_a_violation(self):
        # Once passed: NaN fails every limit comparison, so none flagged it.
        scan = scan_delivered_series([1.0, float("nan"), 1.0], self.LIMITS, 200.0,
                                     initial_mA=1.0)
        assert not scan.ok
        assert [v[:2] for v in scan.violations] == [(1, "amp_not_a_number")]

    @pytest.mark.parametrize("fallback, width", [
        ({"kind": "Off"}, 200.0),
        ({"kind": "FixedSafe", "dose": {**ecap_raw()["baseline_dose"], "pulse_width_us": 100.0}},
         100.0),
        ({"kind": "ManualLoop", "dose": {**ecap_raw()["baseline_dose"], "pulse_width_us": 100.0}},
         100.0),
        ({"kind": "LastKnownGood"}, 300.0),
    ], ids=lambda v: v["kind"] if isinstance(v, dict) else None)
    def test_each_ticks_width_follows_its_mode(self, fallback, width):
        # Automated delivers the policy's 300 µs dose; magnet and reset ticks hold
        # the previous tick's width, the 200 µs baseline's before the first.
        raw = ecap_raw(fallback=fallback)
        raw["policy"] = {"kind": "ManualFixed",
                         "dose": {**raw["baseline_dose"], "pulse_width_us": 300.0}}
        modes = ["SuspendedMagnet", "Automated", "Fallback", "SuspendedMagnet", "EosReset"]
        widths = pulse_widths_us(scenario_from_dict(raw), modes)
        assert widths == [200.0, 300.0, width, width, width]
        with pytest.raises(KeyError):
            pulse_widths_us(scenario_from_dict(raw), ["Autonomous"])

    def test_csv_scan_matches_series_scan(self, tmp_path):
        raw = ecap_raw()
        scenario = scenario_from_dict(raw)
        r = run_scenario(scenario)
        outdir = write_run(r, tmp_path / "scan")
        scan = scan_timeseries_csv(outdir / "timeseries.csv", scenario, r.initial_delivered_mA)
        assert scan.ok
        assert scan == scan_delivered_series(r.delivered_mA, scenario.limits,
                                             pulse_widths_us(scenario, r.mode),
                                             r.initial_delivered_mA)


class TestSweep:
    def test_distinct_seeds_and_results(self):
        raw = ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.02}},
                       timebase={"dt_s": 0.02, "duration_s": 2.0})
        results = sweep(scenario_from_dict(raw), 4)
        seeds = [r.scenario.seed for r in results]
        assert seeds == [1234, 1235, 1236, 1237]
        series = {tuple(r.biomarker[:20]) for r in results}
        assert len(series) == 4

    def test_aggregate_handles_unconfigured_metrics(self):
        from neuroloop.outputs import aggregate_summaries

        # No metrics.range configured: time-in-range is null in the aggregate
        # while the other fields still summarize.
        raw = ieeg_raw(timebase={"dt_s": 0.125, "duration_s": 5.0})
        agg = aggregate_summaries(sweep(scenario_from_dict(raw), 2))
        assert agg["n_runs"] == 2
        assert agg["time_in_range_frac"] is None
        assert agg["teed_total"]["min"] >= 0.0

    def test_manual_loop_fallback_parses(self):
        raw = ecap_raw(fallback={"kind": "ManualLoop",
                                 "dose": {"amplitude_mA": 3.0, "pulse_width_us": 200.0,
                                          "frequency_hz": 50.0, "contact_set": "E1"}})
        assert validate_scenario(raw).ok
        scenario = scenario_from_dict(raw)
        from neuroloop.safety import ManualLoop
        assert isinstance(scenario.fallback, ManualLoop)

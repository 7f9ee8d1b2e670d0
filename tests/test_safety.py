"""Safety layer: clamps, trust checks, supervisor, budgets, event log."""

import itertools
import math

import pytest

from neuroloop.core import (
    ConfigurationError,
    Dose,
    DoseLimits,
    EventRecord,
    QUALITY_EXTERNAL_NOISE,
    QUALITY_FLATLINE,
    QUALITY_IMPOSSIBLE,
    QUALITY_OK,
    QUALITY_SATURATED,
    SEVERITY_ALERT,
    SEVERITY_FAULT,
    SEVERITY_INFO,
)
from neuroloop.plant import DeviceState
from neuroloop.safety import (
    Budgets,
    CHECK_BATTERY_ABOVE_EOS,
    CHECK_BIOMARKER_IN_PHYS_RANGE,
    CHECK_ECAP_NONNEGATIVE,
    CHECK_FAILS,
    CHECK_IMPEDANCE_IN_RANGE,
    CHECK_NO_DC_LEAK,
    CHECK_QUALITY_OK,
    EVENT_BUDGET_DENY,
    EVENT_CHARGE_CLAMP,
    EVENT_DAY_ROLLOVER,
    EVENT_LIMIT_CLAMP,
    EVENT_MODE_AUTOMATED,
    EVENT_MODE_EOS_RESET,
    EVENT_MODE_FALLBACK,
    EVENT_SLEW_CLAMP,
    EventLog,
    FallbackOff,
    FixedSafe,
    LastKnownGood,
    MODE_AUTOMATED,
    MODE_DC_LEAK_RESET,
    MODE_EOS_RESET,
    MODE_FALLBACK,
    MODE_SUSPENDED_MAGNET,
    SupervisorState,
    TrustConfig,
    TrustInputs,
    clamp_and_slew,
    fallback_dose,
    supervisor_step,
    therapy_and_episode_budget_step,
    trust_check_step,
)

from conftest import clinician_reset

LIMITS = DoseLimits(
    amp_min_mA=0.0, amp_max_mA=6.0, max_slew_mA_per_tick=5.0,
    max_charge_per_pulse_uC=2.0,
)

DEVICE = DeviceState(
    battery_v=3.6, eos_threshold_v=3.0,
    impedance_ohm_per_contact={"E1": 500.0},
    compliance_v=10.0, amp_step_mA=0.1,
)


def dose(amp, pw=200.0, f=50.0):
    return Dose(amp, pw, f, "E1")


class TestClampAndSlew:
    def test_slew_then_clamp_order(self):
        # 10 mA commanded from 2 mA: slew allows 7, then clamp to 6.
        out, events = clamp_and_slew(dose(10.0), LIMITS, dose(2.0))
        assert out.amplitude_mA == 6.0
        assert [e.code for e in events] == [EVENT_SLEW_CLAMP, EVENT_LIMIT_CLAMP]

    def test_within_limits_is_identity(self):
        out, events = clamp_and_slew(dose(3.0), LIMITS, dose(2.5))
        assert out == dose(3.0) and events == []

    def test_ramp_down_is_slew_limited(self):
        limits = DoseLimits(0.0, 6.0, 1.0, 2.0)
        out, events = clamp_and_slew(dose(0.0), limits, dose(4.0))
        assert out.amplitude_mA == 3.0
        assert [e.code for e in events] == [EVENT_SLEW_CLAMP]

    def test_charge_violation_reduces_amplitude_with_alert(self):
        limits = DoseLimits(0.0, 6.0, 10.0, 0.5)  # 0.5 uC cap
        out, events = clamp_and_slew(dose(5.0, pw=200.0), limits, dose(5.0))
        # 0.5 uC / (200 us * 1e-3) = 2.5 mA
        assert out.amplitude_mA == pytest.approx(2.5)
        assert [e.code for e in events] == [EVENT_CHARGE_CLAMP]
        assert events[0].severity == SEVERITY_ALERT

    def test_always_legal_never_raises(self):
        out, _ = clamp_and_slew(dose(1e9), LIMITS, dose(0.0))
        assert 0.0 <= out.amplitude_mA <= LIMITS.amp_max_mA


def ladder_check_fails(name: str, inputs: TrustInputs, cfg: TrustConfig) -> bool:
    """Oracle of ``CHECK_FAILS``: the string ladder it replaced."""
    if name == CHECK_QUALITY_OK:
        return inputs.quality != frozenset({QUALITY_OK})
    if name == CHECK_ECAP_NONNEGATIVE:
        return inputs.ecap_est_uV is not None and inputs.ecap_est_uV < 0.0
    if name == CHECK_BATTERY_ABOVE_EOS:
        return inputs.battery_v < inputs.eos_threshold_v
    if name == CHECK_IMPEDANCE_IN_RANGE:
        return not (cfg.impedance_min_ohm <= inputs.impedance_ohm <= cfg.impedance_max_ohm)
    if name == CHECK_NO_DC_LEAK:
        return inputs.dc_leak
    if name == CHECK_BIOMARKER_IN_PHYS_RANGE:
        return inputs.biomarker is not None and not (
            cfg.biomarker_min <= inputs.biomarker <= cfg.biomarker_max
        )
    raise ConfigurationError(f"unknown trust check {name!r}")


def boundary_inputs():
    """TrustInputs at each check's boundaries, one field varied at a time."""
    flags = (QUALITY_OK, QUALITY_SATURATED, QUALITY_FLATLINE, QUALITY_IMPOSSIBLE,
             QUALITY_EXTERNAL_NOISE)
    for subset in itertools.product((False, True), repeat=len(flags)):
        yield TrustInputs(quality=frozenset(f for f, on in zip(flags, subset) if on))
    for est in (-0.0, 0.0, -1e-9, None, 1e-9):
        yield TrustInputs(ecap_est_uV=est)
    for battery in (2.9999, 3.0, 3.0001):
        yield TrustInputs(battery_v=battery, eos_threshold_v=3.0)
    for ohm in (49.999, 50.0, 10_000.0, 10_000.001):
        yield TrustInputs(impedance_ohm=ohm)
    for leak in (False, True):
        yield TrustInputs(dc_leak=leak)
    for marker in (None, math.nan, math.inf, -math.inf, 0.0, 10.0, 10.000001):
        yield TrustInputs(biomarker=marker)


class TestCheckTable:
    CFGS = (
        TrustConfig(exit_after_consecutive_fails=1, reenter_after_consecutive_passes=1,
                    checks=tuple(CHECK_FAILS)),
        TrustConfig(exit_after_consecutive_fails=1, reenter_after_consecutive_passes=1,
                    checks=tuple(CHECK_FAILS), biomarker_min=0.0, biomarker_max=10.0),
    )

    def test_table_agrees_with_the_ladder(self):
        cases = 0
        for cfg in self.CFGS:
            for inputs in boundary_inputs():
                for name in cfg.checks:
                    assert bool(CHECK_FAILS[name](inputs, cfg)) == bool(
                        ladder_check_fails(name, inputs, cfg)
                    ), (name, inputs, cfg)
                    cases += 1
                _, passed, failed = trust_check_step(inputs, cfg, SupervisorState())
                assert failed == tuple(
                    c for c in cfg.checks if ladder_check_fails(c, inputs, cfg)
                )
                assert passed == (not failed)
        assert cases == 2 * 6 * (32 + 5 + 3 + 4 + 2 + 7)

    def test_table_names_every_check(self):
        assert set(CHECK_FAILS) == {
            CHECK_QUALITY_OK, CHECK_ECAP_NONNEGATIVE, CHECK_BATTERY_ABOVE_EOS,
            CHECK_IMPEDANCE_IN_RANGE, CHECK_NO_DC_LEAK, CHECK_BIOMARKER_IN_PHYS_RANGE,
        }

    @pytest.mark.parametrize("bad", ["Nope", [], {}, None, 1, True])
    def test_unknown_check_is_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="unknown trust check"):
            TrustConfig(exit_after_consecutive_fails=1, reenter_after_consecutive_passes=1,
                        checks=(bad,))


class TestTrustChecks:
    CFG = TrustConfig(
        checks=(CHECK_QUALITY_OK, CHECK_ECAP_NONNEGATIVE, CHECK_BATTERY_ABOVE_EOS),
        exit_after_consecutive_fails=3,
        reenter_after_consecutive_passes=5,
    )

    def test_all_pass_updates_streaks(self):
        st = SupervisorState(fail_streak=2)
        st, passed, failed = trust_check_step(TrustInputs(), self.CFG, st)
        assert passed and failed == ()
        assert st.pass_streak == 1 and st.fail_streak == 0

    def test_negative_ecap_estimate_fails(self):
        st, passed, failed = trust_check_step(
            TrustInputs(ecap_est_uV=-0.2), self.CFG, SupervisorState()
        )
        assert not passed and failed == (CHECK_ECAP_NONNEGATIVE,)
        assert st.fail_streak == 1 and st.pass_streak == 0

    def test_battery_below_eos_fails(self):
        st, passed, failed = trust_check_step(
            TrustInputs(battery_v=2.9, eos_threshold_v=3.0), self.CFG, SupervisorState()
        )
        assert not passed and CHECK_BATTERY_ABOVE_EOS in failed

    def test_bad_quality_fails(self):
        _, passed, failed = trust_check_step(
            TrustInputs(quality=frozenset({QUALITY_IMPOSSIBLE})),
            self.CFG,
            SupervisorState(),
        )
        assert not passed and CHECK_QUALITY_OK in failed


class TestSupervisor:
    TRUST = TrustConfig(
        checks=(CHECK_QUALITY_OK,),
        exit_after_consecutive_fails=3,
        reenter_after_consecutive_passes=5,
    )
    FB = FixedSafe(dose=dose(2.0))

    def step(self, st, verdict, magnet=False, device=DEVICE, tick=0, candidate=None):
        return supervisor_step(
            st, verdict, magnet, device, self.TRUST, self.FB, tick, candidate
        )

    def test_exit_dwell_rule(self):
        st = SupervisorState(fail_streak=3)
        st, events = self.step(st, False)
        assert st.mode == MODE_FALLBACK
        assert [e.code for e in events] == [EVENT_MODE_FALLBACK]

    def test_no_exit_below_dwell(self):
        st = SupervisorState(fail_streak=2)
        st, events = self.step(st, False)
        assert st.mode == MODE_AUTOMATED and events == []

    def test_reentry_dwell_rule(self):
        st = SupervisorState(mode=MODE_FALLBACK, pass_streak=5)
        st, events = self.step(st, True)
        assert st.mode == MODE_AUTOMATED
        assert EVENT_MODE_AUTOMATED in [e.code for e in events]

    def test_magnet_suspends_and_resumes_preserving_streaks(self):
        st = SupervisorState(fail_streak=2, pass_streak=0)
        st, _ = self.step(st, True, magnet=True)
        assert st.mode == MODE_SUSPENDED_MAGNET
        for _ in range(99):
            st, events = self.step(st, True, magnet=True)
            assert st.mode == MODE_SUSPENDED_MAGNET and events == []
        assert st.fail_streak == 2  # untouched by this layer
        st, events = self.step(st, True, magnet=False)
        assert st.mode == MODE_AUTOMATED
        assert st.fail_streak == 2

    def test_magnet_resumes_fallback_not_automated(self):
        st = SupervisorState(mode=MODE_FALLBACK)
        st, _ = self.step(st, True, magnet=True)
        assert st.mode == MODE_SUSPENDED_MAGNET and st.resume_mode == MODE_FALLBACK
        st, _ = self.step(st, True, magnet=False)
        assert st.mode == MODE_FALLBACK

    def test_eos_reset_fault_and_absorbing(self):
        dead = DeviceState(
            battery_v=2.5, eos_threshold_v=3.0,
            impedance_ohm_per_contact={"E1": 500.0},
            compliance_v=10.0, amp_step_mA=0.1,
        )
        st, events = self.step(SupervisorState(), True, device=dead)
        assert st.mode == MODE_EOS_RESET
        assert events[0].code == EVENT_MODE_EOS_RESET
        assert events[0].severity == SEVERITY_FAULT
        # Absorbing: magnet and passing verdicts cannot leave the reset.
        st, events = self.step(st, True, magnet=True, device=dead)
        assert st.mode == MODE_EOS_RESET
        assert all(e.severity == SEVERITY_INFO for e in events)
        st, _ = self.step(st, True, device=DEVICE)
        assert st.mode == MODE_EOS_RESET

    def test_dc_leak_takes_precedence_over_eos_and_magnet(self):
        broken = DeviceState(
            battery_v=2.5, eos_threshold_v=3.0,
            impedance_ohm_per_contact={"E1": 500.0},
            compliance_v=10.0, amp_step_mA=0.1, dc_leak_flag=True,
        )
        st, events = self.step(SupervisorState(), True, magnet=True, device=broken)
        assert st.mode == MODE_DC_LEAK_RESET
        assert events[0].severity == SEVERITY_FAULT

    def test_clinician_reset_is_only_exit(self):
        st = SupervisorState(mode=MODE_DC_LEAK_RESET)
        # The supervisor never leaves a reset mode by itself, whatever it sees.
        for verdict in (True, False):
            for magnet in (True, False):
                stayed, _ = self.step(st, verdict, magnet=magnet)
                assert stayed.mode == MODE_DC_LEAK_RESET
        st, events = clinician_reset(st, tick=7)
        assert st.mode == MODE_AUTOMATED
        assert events[0].payload["clinician_reset"] is True
        # No-op outside reset states.
        st2, events2 = clinician_reset(SupervisorState())
        assert st2.mode == MODE_AUTOMATED and events2 == []

    def test_fallback_captures_last_known_good(self):
        st = SupervisorState(fail_streak=3)
        good = dose(4.2)
        st, _ = self.step(st, False, candidate=good)
        assert st.last_known_good == good
        assert fallback_dose(LastKnownGood(), st, dose(1.0)) == good

    def test_fallback_dose_kinds(self):
        from neuroloop.safety import ManualLoop

        st = SupervisorState()
        assert fallback_dose(FixedSafe(dose=dose(2.0)), st, dose(1.0)) == dose(2.0)
        assert fallback_dose(FallbackOff(), st, dose(1.0)).is_off
        assert fallback_dose(ManualLoop(dose=dose(3.5)), st, dose(1.0)) == dose(3.5)
        # LastKnownGood with nothing captured falls back to the baseline.
        assert fallback_dose(LastKnownGood(), st, dose(1.0)) == dose(1.0)


class TestBudgets:
    def test_sixth_therapy_denied(self):
        b = Budgets(max_therapies_per_event=5, max_episodes_per_day=10, ticks_per_day=10_000)
        denies = 0
        for t in range(8):
            b, allow, events = therapy_and_episode_budget_step(b, True, True, t)
            if not allow:
                denies += 1
                assert any(e.code == EVENT_BUDGET_DENY for e in events)
        assert denies == 3  # ticks 5, 6, 7

    def test_third_episode_of_day_denied_entirely(self):
        b = Budgets(max_therapies_per_event=5, max_episodes_per_day=2, ticks_per_day=10_000)
        tick = 0
        for episode in range(3):
            # event onset + 3 therapy requests
            for i in range(3):
                b, allow, _ = therapy_and_episode_budget_step(b, True, True, tick)
                tick += 1
                if episode < 2:
                    assert allow
                else:
                    assert not allow
            # gap between events
            for _ in range(2):
                b, _, _ = therapy_and_episode_budget_step(b, False, False, tick)
                tick += 1

    def test_day_rollover_resets_episode_count(self):
        b = Budgets(max_therapies_per_event=5, max_episodes_per_day=1, ticks_per_day=100)
        b, allow, _ = therapy_and_episode_budget_step(b, True, True, 1)
        assert allow
        b, _, _ = therapy_and_episode_budget_step(b, False, False, 2)
        b, allow, _ = therapy_and_episode_budget_step(b, True, True, 3)
        assert not allow  # second episode same day
        b, _, _ = therapy_and_episode_budget_step(b, False, False, 4)
        b, allow, events = therapy_and_episode_budget_step(b, True, True, 100)
        assert allow  # new simulated day
        assert b.episodes_today == 1

    def test_rollover_emits_event(self):
        b = Budgets(ticks_per_day=50)
        b, _, events = therapy_and_episode_budget_step(b, False, False, 50)
        assert [e.code for e in events] == [EVENT_DAY_ROLLOVER]

    def test_episodes_today_never_exceeds_max(self):
        b = Budgets(max_therapies_per_event=5, max_episodes_per_day=2, ticks_per_day=10_000)
        tick = 0
        for _ in range(6):
            b, _, _ = therapy_and_episode_budget_step(b, True, False, tick); tick += 1
            b, _, _ = therapy_and_episode_budget_step(b, False, False, tick); tick += 1
            assert b.episodes_today <= 2


class TestEventLog:
    def test_append_to_empty(self):
        log = EventLog()
        log.append(EventRecord(0, SEVERITY_INFO, "DAY_ROLLOVER"))
        assert len(log) == 1

    def test_same_tick_order_preserved(self):
        log = EventLog()
        a = EventRecord(5, SEVERITY_INFO, "A")
        b = EventRecord(5, SEVERITY_INFO, "B")
        log.append(a)
        log.append(b)
        assert log.records == (a, b)

    def test_count(self):
        log = EventLog()
        for i in range(4):
            log.append(EventRecord(i, SEVERITY_ALERT, "LIMIT_CLAMP" if i % 2 else "SLEW_CLAMP"))
        assert log.count("LIMIT_CLAMP") == 2

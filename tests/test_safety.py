"""Safety layer: clamps, trust checks, supervisor, budgets."""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import pytest

from neuroloop.core import (
    ConfigurationError,
    Dose,
    DoseLimits,
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
    CHECK_BITS,
    CHECK_ECAP_NONNEGATIVE,
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
    clamp_and_slew,
    failed_device_checks,
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


def clamp(command_mA, template, limits, prev_delivered_mA):
    """One clamp_and_slew call on a fresh log: (amplitude, events)."""
    log = []
    return clamp_and_slew(command_mA, template, limits, prev_delivered_mA, log, 0), log


def budget_step(b, event_active, therapy_requested, tick):
    """One budget tick on a fresh log: (budgets, allow, events)."""
    log = []
    b, allow = therapy_and_episode_budget_step(b, event_active, therapy_requested, log, tick)
    return b, allow, log


class TestClampAndSlew:
    # clamp_and_slew(commanded amplitude, template dose, limits, previously
    # delivered amplitude, log): the template supplies the pulse width.
    def test_slew_then_clamp_order(self):
        # 10 mA commanded from 2 mA: slew allows 7, then clamp to 6.
        out, events = clamp(10.0, dose(10.0), LIMITS, 2.0)
        assert out == 6.0
        assert [e.code for e in events] == [EVENT_SLEW_CLAMP, EVENT_LIMIT_CLAMP]

    def test_within_limits_is_identity(self):
        out, events = clamp(3.0, dose(3.0), LIMITS, 2.5)
        assert out == 3.0 and events == []

    def test_ramp_down_is_slew_limited(self):
        limits = DoseLimits(0.5, 6.0, 1.0, 2.0)
        out, events = clamp(0.5, dose(0.5), limits, 4.0)
        assert out == 3.0
        assert [e.code for e in events] == [EVENT_SLEW_CLAMP]
        # 0 mA is a stop: no slew limit, no amp_min floor, no event.
        for stop in (0.0, -0.0, 0):
            out, events = clamp(stop, dose(0.0), limits, 4.0)
            assert repr(out) == "0.0" and events == []

    def test_charge_violation_reduces_amplitude_with_alert(self):
        limits = DoseLimits(0.0, 6.0, 10.0, 0.5)  # 0.5 uC cap
        out, events = clamp(5.0, dose(5.0, pw=200.0), limits, 5.0)
        # 0.5 uC / (200 us * 1e-3) = 2.5 mA
        assert out == pytest.approx(2.5)
        assert [e.code for e in events] == [EVENT_CHARGE_CLAMP]
        assert events[0].severity == SEVERITY_ALERT

    def test_always_legal_never_raises(self):
        out, _ = clamp(1e9, dose(1e9), LIMITS, 0.0)
        assert 0.0 <= out <= LIMITS.amp_max_mA


@dataclass
class TrustInputs:
    """Oracle: everything the enabled checks may look at on one tick.

    ``reading`` is the tick's one biomarker reading (None: none taken), which
    EcapNonNegative and BiomarkerInPhysRange both read.
    """

    quality: frozenset = frozenset({QUALITY_OK})
    reading: Optional[float] = None
    battery_v: float = float("inf")
    eos_threshold_v: float = 0.0
    impedance_ohm: float = 1000.0
    dc_leak: bool = False


_OK_ONLY = frozenset({QUALITY_OK})

# Oracle: each trust check's failure predicate, by check name: (inputs, cfg)
# -> True when the check fails this tick.
CHECK_FAILS = {
    CHECK_QUALITY_OK: lambda i, cfg: i.quality != _OK_ONLY,
    CHECK_ECAP_NONNEGATIVE: lambda i, cfg: i.reading is not None and i.reading < 0.0,
    CHECK_BATTERY_ABOVE_EOS: lambda i, cfg: i.battery_v < i.eos_threshold_v,
    CHECK_IMPEDANCE_IN_RANGE: lambda i, cfg: not (
        cfg.impedance_min_ohm <= i.impedance_ohm <= cfg.impedance_max_ohm
    ),
    CHECK_NO_DC_LEAK: lambda i, cfg: i.dc_leak,
    CHECK_BIOMARKER_IN_PHYS_RANGE: lambda i, cfg: i.reading is not None and not (
        cfg.biomarker_min <= i.reading <= cfg.biomarker_max
    ),
}


def ladder_check_fails(name: str, inputs: TrustInputs, cfg: TrustConfig) -> bool:
    """Oracle of ``CHECK_FAILS``: the string ladder it replaced."""
    if name == CHECK_QUALITY_OK:
        return inputs.quality != frozenset({QUALITY_OK})
    if name == CHECK_ECAP_NONNEGATIVE:
        return inputs.reading is not None and inputs.reading < 0.0
    if name == CHECK_BATTERY_ABOVE_EOS:
        return inputs.battery_v < inputs.eos_threshold_v
    if name == CHECK_IMPEDANCE_IN_RANGE:
        return not (cfg.impedance_min_ohm <= inputs.impedance_ohm <= cfg.impedance_max_ohm)
    if name == CHECK_NO_DC_LEAK:
        return inputs.dc_leak
    if name == CHECK_BIOMARKER_IN_PHYS_RANGE:
        return inputs.reading is not None and not (
            cfg.biomarker_min <= inputs.reading <= cfg.biomarker_max
        )
    raise ConfigurationError(f"unknown trust check {name!r}")


def check(inputs: TrustInputs, cfg: TrustConfig, fail_streak: int = 0, pass_streak: int = 0):
    """``trust_check_step`` as the engine calls it, on the oracle's inputs.

    Returns (fail_streak, pass_streak, passed, failed check names).
    """
    device = DeviceState(
        battery_v=inputs.battery_v, eos_threshold_v=inputs.eos_threshold_v,
        impedance_ohm_per_contact={"E1": inputs.impedance_ohm},
        compliance_v=10.0, amp_step_mA=0.1, dc_leak_flag=inputs.dc_leak,
    )
    fails, passes, mask = trust_check_step(
        cfg, inputs.quality, inputs.reading, failed_device_checks(cfg, device, "E1"),
        fail_streak, pass_streak,
    )
    return fails, passes, mask == 0, tuple(cfg.names(mask))


def boundary_inputs():
    """TrustInputs at each check's boundaries, one field varied at a time."""
    flags = (QUALITY_OK, QUALITY_SATURATED, QUALITY_FLATLINE, QUALITY_IMPOSSIBLE)
    for subset in itertools.product((False, True), repeat=len(flags)):
        yield TrustInputs(quality=frozenset(f for f, on in zip(flags, subset) if on))
    # EcapNonNegative's boundaries (-0.0 is not negative), then BiomarkerInPhysRange's.
    for reading in (-0.0, 0.0, -1e-9, None, 1e-9, math.nan, math.inf, -math.inf, 10.0,
                    10.000001):
        yield TrustInputs(reading=reading)
    for battery in (2.9999, 3.0, 3.0001):
        yield TrustInputs(battery_v=battery, eos_threshold_v=3.0)
    for ohm in (49.999, 50.0, 10_000.0, 10_000.001):
        yield TrustInputs(impedance_ohm=ohm)
    for leak in (False, True):
        yield TrustInputs(dc_leak=leak)


class TestCheckTable:
    CFGS = (
        TrustConfig(exit_after_consecutive_fails=1, reenter_after_consecutive_passes=1,
                    checks=tuple(CHECK_FAILS)),
        TrustConfig(exit_after_consecutive_fails=1, reenter_after_consecutive_passes=1,
                    checks=tuple(CHECK_FAILS), biomarker_min=0.0, biomarker_max=10.0),
    )

    def test_table_agrees_with_the_ladder(self):
        cases = 0
        outcomes = set()   # (check, fails) pairs seen
        for cfg in self.CFGS:
            for inputs in boundary_inputs():
                _, _, passed, failed = check(inputs, cfg)
                for name in cfg.checks:
                    expected = bool(ladder_check_fails(name, inputs, cfg))
                    assert bool(CHECK_FAILS[name](inputs, cfg)) == expected, (name, inputs)
                    assert (name in failed) == expected, (name, inputs)
                    outcomes.add((name, expected))
                    cases += 1
                assert failed == tuple(
                    c for c in cfg.checks if ladder_check_fails(c, inputs, cfg)
                )
                assert passed == (not failed)
        assert cases == 2 * 6 * (16 + 10 + 3 + 4 + 2)
        assert outcomes == {(name, fails) for name in CHECK_FAILS for fails in (False, True)}

    def test_each_check_alone_masks_the_others(self):
        # With one check enabled, only its own failure counts.
        for name in CHECK_BITS:
            cfg = TrustConfig(exit_after_consecutive_fails=1, reenter_after_consecutive_passes=1,
                              checks=(name,), biomarker_min=0.0, biomarker_max=10.0)
            for inputs in boundary_inputs():
                _, _, passed, failed = check(inputs, cfg)
                assert passed == (not CHECK_FAILS[name](inputs, cfg)), (name, inputs)
                assert failed == (() if passed else (name,))

    def test_table_names_every_check(self):
        assert set(CHECK_BITS) == set(CHECK_FAILS) == {
            CHECK_QUALITY_OK, CHECK_ECAP_NONNEGATIVE, CHECK_BATTERY_ABOVE_EOS,
            CHECK_IMPEDANCE_IN_RANGE, CHECK_NO_DC_LEAK, CHECK_BIOMARKER_IN_PHYS_RANGE,
        }
        bits = sorted(CHECK_BITS.values())
        assert bits == [1 << i for i in range(len(bits))]

    def test_failed_names_follow_the_configured_order(self):
        cfg = TrustConfig(exit_after_consecutive_fails=1, reenter_after_consecutive_passes=1,
                          checks=(CHECK_NO_DC_LEAK, CHECK_QUALITY_OK, CHECK_BATTERY_ABOVE_EOS))
        inputs = TrustInputs(quality=frozenset({QUALITY_SATURATED}), dc_leak=True,
                             battery_v=2.0, eos_threshold_v=3.0)
        assert check(inputs, cfg)[3] == (
            CHECK_NO_DC_LEAK, CHECK_QUALITY_OK, CHECK_BATTERY_ABOVE_EOS)

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
        fails, passes, passed, failed = check(TrustInputs(), self.CFG, fail_streak=2)
        assert passed and failed == ()
        assert passes == 1 and fails == 0

    def test_negative_ecap_estimate_fails(self):
        fails, passes, passed, failed = check(TrustInputs(reading=-0.2), self.CFG)
        assert not passed and failed == (CHECK_ECAP_NONNEGATIVE,)
        assert fails == 1 and passes == 0

    def test_battery_below_eos_fails(self):
        _, _, passed, failed = check(TrustInputs(battery_v=2.9, eos_threshold_v=3.0), self.CFG)
        assert not passed and CHECK_BATTERY_ABOVE_EOS in failed

    def test_bad_quality_fails(self):
        _, _, passed, failed = check(
            TrustInputs(quality=frozenset({QUALITY_IMPOSSIBLE})), self.CFG
        )
        assert not passed and CHECK_QUALITY_OK in failed


class TestSupervisor:
    TRUST = TrustConfig(
        checks=(CHECK_QUALITY_OK,),
        exit_after_consecutive_fails=3,
        reenter_after_consecutive_passes=5,
    )
    FB = FixedSafe(dose=dose(2.0))

    def step(self, st, streaks=(0, 1), magnet=False, device=DEVICE, tick=0):
        """One supervisor tick on a fresh log: (state, events); ``streaks`` is
        the lane's (fail, pass) streaks."""
        log = []
        return supervisor_step(st, *streaks, magnet, device, self.TRUST, self.FB, log, tick), log

    def test_exit_dwell_rule(self):
        st, events = self.step(SupervisorState(), (3, 0))
        assert st.mode == MODE_FALLBACK
        assert [e.code for e in events] == [EVENT_MODE_FALLBACK]
        assert events[0].payload["fail_streak"] == 3

    def test_no_exit_below_dwell(self):
        st, events = self.step(SupervisorState(), (2, 0))
        assert st.mode == MODE_AUTOMATED and events == []

    def test_reentry_dwell_rule(self):
        st, events = self.step(SupervisorState(mode=MODE_FALLBACK), (0, 5))
        assert st.mode == MODE_AUTOMATED
        assert EVENT_MODE_AUTOMATED in [e.code for e in events]

    def test_magnet_suspends_and_resumes_preserving_streaks(self):
        # The lane's streaks stand at 2 fails throughout the suspension; the
        # supervisor only reads them, so the third fail after removal exits.
        st, _ = self.step(SupervisorState(), (2, 0), magnet=True)
        assert st.mode == MODE_SUSPENDED_MAGNET
        for _ in range(99):
            st, events = self.step(st, (2, 0), magnet=True)
            assert st.mode == MODE_SUSPENDED_MAGNET and events == []
        assert not hasattr(st, "fail_streak")  # untouched by this layer
        st, events = self.step(st, (2, 0), magnet=False)
        assert st.mode == MODE_AUTOMATED
        st, events = self.step(st, (3, 0))
        assert st.mode == MODE_FALLBACK

    def test_magnet_resumes_fallback_not_automated(self):
        st = SupervisorState(mode=MODE_FALLBACK)
        st, _ = self.step(st, magnet=True)
        assert st.mode == MODE_SUSPENDED_MAGNET and st.resume_mode == MODE_FALLBACK
        st, _ = self.step(st, magnet=False)
        assert st.mode == MODE_FALLBACK

    def test_eos_reset_fault_and_absorbing(self):
        dead = DeviceState(
            battery_v=2.5, eos_threshold_v=3.0,
            impedance_ohm_per_contact={"E1": 500.0},
            compliance_v=10.0, amp_step_mA=0.1,
        )
        st, events = self.step(SupervisorState(), device=dead)
        assert st.mode == MODE_EOS_RESET
        assert events[0].code == EVENT_MODE_EOS_RESET
        assert events[0].severity == SEVERITY_FAULT
        # Absorbing: magnet and passing verdicts cannot leave the reset.
        st, events = self.step(st, magnet=True, device=dead)
        assert st.mode == MODE_EOS_RESET
        assert all(e.severity == SEVERITY_INFO for e in events)
        st, _ = self.step(st, device=DEVICE)
        assert st.mode == MODE_EOS_RESET

    def test_dc_leak_takes_precedence_over_eos_and_magnet(self):
        broken = DeviceState(
            battery_v=2.5, eos_threshold_v=3.0,
            impedance_ohm_per_contact={"E1": 500.0},
            compliance_v=10.0, amp_step_mA=0.1, dc_leak_flag=True,
        )
        st, events = self.step(SupervisorState(), magnet=True, device=broken)
        assert st.mode == MODE_DC_LEAK_RESET
        assert events[0].severity == SEVERITY_FAULT

    def test_clinician_reset_is_only_exit(self):
        st = SupervisorState(mode=MODE_DC_LEAK_RESET)
        # The supervisor never leaves a reset mode by itself, whatever it sees.
        for streaks in ((0, 5), (5, 0)):
            for magnet in (True, False):
                stayed, _ = self.step(st, streaks, magnet=magnet)
                assert stayed.mode == MODE_DC_LEAK_RESET
        st, events = clinician_reset(st, tick=7)
        assert st.mode == MODE_AUTOMATED
        assert events[0].payload["clinician_reset"] is True
        # No-op outside reset states.
        st2, events2 = clinician_reset(SupervisorState())
        assert st2.mode == MODE_AUTOMATED and events2 == []

    def test_fallback_captures_last_known_good(self):
        # LastKnownGood delivers the lane's register, an (amplitude, template
        # dose) pair; the supervisor's state holds no dose.
        good = (4.2, dose(1.0))
        st, _ = self.step(SupervisorState(), (3, 0))
        assert st.mode == MODE_FALLBACK and not hasattr(st, "last_known_good")
        assert fallback_dose(LastKnownGood(), good, dose(1.0)) == good

    def test_fallback_dose_kinds(self):
        from neuroloop.safety import ManualLoop

        good = (4.2, dose(1.0))
        assert fallback_dose(FixedSafe(dose=dose(2.0)), good, dose(1.0)) == (2.0, dose(2.0))
        assert fallback_dose(FallbackOff(), good, dose(1.0)) == (0.0, dose(1.0))
        assert fallback_dose(ManualLoop(dose=dose(3.5)), good, dose(1.0)) == (3.5, dose(3.5))
        # A FixedSafe under its own name, which is the fallback event's kind.
        assert repr(ManualLoop(dose=dose(3.5))) == f"ManualLoop(dose={dose(3.5)!r})"
        assert ManualLoop(dose=dose(3.5)) != FixedSafe(dose=dose(3.5))
        # LastKnownGood with nothing captured falls back to the baseline.
        assert fallback_dose(LastKnownGood(), None, dose(1.0)) == (1.0, dose(1.0))


class TestBudgets:
    def test_sixth_therapy_denied(self):
        b = Budgets(max_therapies_per_event=5, max_episodes_per_day=10, ticks_per_day=10_000)
        denies = 0
        for t in range(8):
            b, allow, events = budget_step(b, True, True, t)
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
                b, allow, _ = budget_step(b, True, True, tick)
                tick += 1
                if episode < 2:
                    assert allow
                else:
                    assert not allow
            # gap between events
            for _ in range(2):
                b, _, _ = budget_step(b, False, False, tick)
                tick += 1

    def test_day_rollover_resets_episode_count(self):
        b = Budgets(max_therapies_per_event=5, max_episodes_per_day=1, ticks_per_day=100)
        b, allow, _ = budget_step(b, True, True, 1)
        assert allow
        b, _, _ = budget_step(b, False, False, 2)
        b, allow, _ = budget_step(b, True, True, 3)
        assert not allow  # second episode same day
        b, _, _ = budget_step(b, False, False, 4)
        b, allow, events = budget_step(b, True, True, 100)
        assert allow  # new simulated day
        assert b.episodes_today == 1

    def test_rollover_emits_event(self):
        b = Budgets(ticks_per_day=50)
        b, _, events = budget_step(b, False, False, 50)
        assert [e.code for e in events] == [EVENT_DAY_ROLLOVER]

    def test_episodes_today_never_exceeds_max(self):
        b = Budgets(max_therapies_per_event=5, max_episodes_per_day=2, ticks_per_day=10_000)
        tick = 0
        for _ in range(6):
            b, _, _ = budget_step(b, True, False, tick); tick += 1
            b, _, _ = budget_step(b, False, False, tick); tick += 1
            assert b.episodes_today <= 2

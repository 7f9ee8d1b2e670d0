"""Control policies: worked examples, loop fixed points, exhaustive counters."""

import itertools
import time

import numpy as np
import pytest

from neuroloop.core import MAX_TICKS, OK_ONLY, ConfigurationError, Dose
from neuroloop.control import (
    BangBangResponsive,
    DualThreshold,
    EcapSetpoint,
    ManualFixed,
    PolicyState,
    Proportional,
    SingleThreshold,
    bang_bang_responsive_step,
    dual_threshold_step,
    ecap_setpoint_step,
    proportional_step,
    single_threshold_step,
)
from neuroloop.plant import EcapPlantParams, ecap_true

BURST = Dose(2.0, 160.0, 200.0)
CURRENT = Dose(2.0, 60.0, 130.0)
AMP = CURRENT.amplitude_mA   # the regulating steps take and return amplitudes


class TestManualFixed:
    def test_ignores_everything(self):
        cfg = ManualFixed(dose=CURRENT)
        for measured, quality, detected, amplitude in ((None, frozenset(), False, 0.0),
                                                       (9.0, OK_ONLY, True, 5.0)):
            assert cfg.step("st", measured, quality, detected, amplitude, BURST) == (
                "st", AMP, CURRENT, False)


class TestBangBangResponsive:
    def test_five_therapies_then_off_while_flag_active(self):
        cfg = BangBangResponsive(burst_dose=BURST, max_therapies_per_event=5)
        st = PolicyState()
        amps = []
        for _ in range(8):
            st, cmd, _ = bang_bang_responsive_step(True, st, cfg)
            amps.append(cmd)
        assert amps == [2.0] * 5 + [0.0] * 3
        assert st.therapies_delivered_this_event == 5

    def test_never_detected_stays_off(self):
        cfg = BangBangResponsive(burst_dose=BURST)
        st = PolicyState()
        for _ in range(20):
            st, cmd, started = bang_bang_responsive_step(False, st, cfg)
            assert cmd == 0.0 and not started
        assert st.therapies_delivered_this_event == 0

    def test_rearm_after_flag_clears(self):
        cfg = BangBangResponsive(burst_dose=BURST, max_therapies_per_event=5)
        st = PolicyState()
        for _ in range(6):
            st, _, _ = bang_bang_responsive_step(True, st, cfg)
        st, cmd, _ = bang_bang_responsive_step(False, st, cfg)
        assert cmd == 0.0 and st.therapies_delivered_this_event == 0
        # New detection: budget is fresh, five more therapies available.
        delivered = 0
        for _ in range(7):
            st, cmd, started = bang_bang_responsive_step(True, st, cfg)
            delivered += started
        assert delivered == 5

    def test_two_burst_therapy_shape(self):
        cfg = BangBangResponsive(
            burst_dose=BURST, bursts_per_therapy=2, burst_duration_ticks=2,
            max_therapies_per_event=1,
        )
        st = PolicyState()
        amps = []
        for _ in range(6):
            st, cmd, _ = bang_bang_responsive_step(True, st, cfg)
            amps.append(cmd)
        # One therapy = 2 bursts x 2 ticks back to back, then nothing.
        assert amps == [2.0, 2.0, 2.0, 2.0, 0.0, 0.0]

    def test_inter_burst_gap(self):
        cfg = BangBangResponsive(
            burst_dose=BURST, bursts_per_therapy=2, burst_duration_ticks=1,
            inter_burst_gap_ticks=1, max_therapies_per_event=1,
        )
        st = PolicyState()
        amps = []
        for _ in range(4):
            st, cmd, _ = bang_bang_responsive_step(True, st, cfg)
            amps.append(cmd)
        assert amps == [2.0, 0.0, 2.0, 0.0]

    def test_command_is_two_valued(self):
        rng = np.random.default_rng(1)
        cfg = BangBangResponsive(burst_dose=BURST, bursts_per_therapy=2,
                                 burst_duration_ticks=2)
        st = PolicyState()
        for flag in rng.integers(0, 2, size=500):
            st, cmd, _ = bang_bang_responsive_step(bool(flag), st, cfg)
            assert cmd in (0.0, BURST.amplitude_mA)

    def test_counter_invariant_exhaustive_length_12(self):
        cfg = BangBangResponsive(burst_dose=BURST, max_therapies_per_event=5)
        for length in range(1, 13):
            for bits in itertools.product((False, True), repeat=length):
                st = PolicyState()
                for detected in bits:
                    st, cmd, started = bang_bang_responsive_step(detected, st, cfg)
                    assert st.therapies_delivered_this_event <= cfg.max_therapies_per_event
                    if not detected:
                        assert st.therapies_delivered_this_event == 0

    def test_pure_function_of_inputs(self):
        cfg = BangBangResponsive(burst_dose=BURST)
        st = PolicyState(therapies_delivered_this_event=2)
        out1 = bang_bang_responsive_step(True, st, cfg)
        out2 = bang_bang_responsive_step(True, st, cfg)
        assert out1 == out2

    @pytest.mark.parametrize("bursts,burst,gap", [
        (1, 1, 0), (1, 3, 0), (1, 2, 4), (2, 1, 0), (2, 2, 0), (2, 1, 1), (2, 3, 2), (2, 2, 5),
    ])
    def test_cursor_matches_the_tuple_plan(self, bursts, burst, gap):
        cfg = BangBangResponsive(
            burst_dose=BURST, bursts_per_therapy=bursts, burst_duration_ticks=burst,
            inter_burst_gap_ticks=gap, max_therapies_per_event=3,
        )
        flags = np.random.default_rng(bursts * 100 + burst * 10 + gap).random(400) < 0.3
        st, oracle_st = PolicyState(), (0, ())
        for detected in flags.tolist():
            st, cmd, started = bang_bang_responsive_step(detected, st, cfg)
            oracle_st, oracle_on, oracle_started = tuple_plan_step(detected, oracle_st, cfg)
            assert (cmd, started) == (BURST.amplitude_mA * oracle_on, oracle_started)
            assert st.therapies_delivered_this_event == oracle_st[0]
            assert st.plan_remaining == len(oracle_st[1])

    def test_long_therapy_steps_in_constant_time(self):
        # Two MAX_TICKS bursts with a MAX_TICKS gap. With the plan held as a
        # tuple of on/off flags, each step copied the rest of it: 1,000 steps
        # took seconds. A cursor takes about a millisecond; the budget is 0.5 s.
        cfg = BangBangResponsive(
            burst_dose=BURST, bursts_per_therapy=2, burst_duration_ticks=MAX_TICKS,
            inter_burst_gap_ticks=MAX_TICKS, max_therapies_per_event=1,
        )
        st = PolicyState()
        start = time.perf_counter()
        for _ in range(1000):
            st, cmd, _ = bang_bang_responsive_step(True, st, cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
        assert cmd == BURST.amplitude_mA
        assert st.plan_remaining == 3 * MAX_TICKS - 1000


def tuple_plan_step(detected, st, cfg):
    """The responsive policy with the therapy held as a tuple of on/off flags.

    ``st`` is (therapies this event, unplayed tail of the plan); returns
    (state, burst on, therapy started). The reference for the cursor.
    """
    count, plan = st
    if plan:
        return (count, plan[1:]), plan[0], False
    if detected:
        if count < cfg.max_therapies_per_event:
            burst = (True,) * cfg.burst_duration_ticks
            gap = (False,) * cfg.inter_burst_gap_ticks
            full = burst + (gap + burst) * (cfg.bursts_per_therapy - 1)
            return (count + 1, full[1:]), full[0], True
        return st, False, False
    return (0, ()), False, False


class TestSingleThreshold:
    CFG = SingleThreshold(threshold=10.0, step_mA=0.1)

    def test_above_increases(self):
        cmd = single_threshold_step(12.0, AMP, self.CFG)
        assert cmd == pytest.approx(2.1)

    def test_below_decreases(self):
        cmd = single_threshold_step(8.0, AMP, self.CFG)
        assert cmd == pytest.approx(1.9)

    def test_tie_takes_decrease_branch(self):
        cmd = single_threshold_step(10.0, AMP, self.CFG)
        assert cmd == pytest.approx(1.9)

    def test_on_above_false_inverts(self):
        cfg = SingleThreshold(threshold=10.0, step_mA=0.1, on_above=False)
        assert single_threshold_step(12.0, AMP, cfg) == pytest.approx(1.9)


class TestDualThreshold:
    CFG = DualThreshold(lower=8.0, upper=12.0, step_up_mA=0.1, step_down_mA=0.2)

    def test_in_band_holds_exactly(self):
        assert dual_threshold_step(10.0, AMP, self.CFG) == AMP

    def test_above_steps_up(self):
        assert dual_threshold_step(13.0, AMP, self.CFG) == pytest.approx(2.1)

    def test_below_steps_down(self):
        assert dual_threshold_step(7.0, AMP, self.CFG) == pytest.approx(1.8)

    def test_hold_property_over_whole_band(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            b = float(rng.uniform(8.0, 12.0))
            assert dual_threshold_step(b, AMP, self.CFG) == AMP

    def test_band_edges_hold(self):
        assert dual_threshold_step(8.0, AMP, self.CFG) == AMP
        assert dual_threshold_step(12.0, AMP, self.CFG) == AMP

    def test_lower_must_be_below_upper(self):
        with pytest.raises(ConfigurationError):
            DualThreshold(lower=5.0, upper=5.0, step_up_mA=0.1, step_down_mA=0.1)


class TestProportional:
    CFG = Proportional(reference=5.0, gain_mA_per_unit=0.5)

    def test_scales_excess(self):
        assert proportional_step(9.0, self.CFG) == pytest.approx(2.0)

    def test_zero_at_reference(self):
        assert proportional_step(5.0, self.CFG) == 0.0

    def test_no_negative_command(self):
        assert proportional_step(4.0, self.CFG) == 0.0

    def test_nonnegative_and_lipschitz(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            b1, b2 = rng.uniform(-20, 40, size=2)
            a1 = proportional_step(float(b1), self.CFG)
            a2 = proportional_step(float(b2), self.CFG)
            assert a1 >= 0 and a2 >= 0
            assert abs(a1 - a2) <= self.CFG.gain_mA_per_unit * abs(b1 - b2) + 1e-12


class TestEcapSetpoint:
    def test_zero_error_holds(self):
        cfg = EcapSetpoint(target_uV=1.0, gain_mA_per_uV=0.5)
        assert ecap_setpoint_step(1.0, AMP, cfg) == AMP

    def test_incremental_update(self):
        cfg = EcapSetpoint(target_uV=1.0, gain_mA_per_uV=0.5, deadband_uV=0.0)
        cmd = ecap_setpoint_step(0.6, AMP, cfg)
        assert cmd == pytest.approx(AMP + 0.2)

    def test_deadband_holds(self):
        cfg = EcapSetpoint(target_uV=1.0, gain_mA_per_uV=0.5, deadband_uV=0.1)
        assert ecap_setpoint_step(0.95, AMP, cfg) == AMP

    def test_closed_loop_converges_to_analytic_fixed_point(self):
        # Hand-derived fixed point of the loop against the linear growth law:
        # A* = I_th + target / k = 3.0 + 1.0 / 0.5 = 5.0 mA.
        plant = EcapPlantParams(0.5, 3.0, 4.0)
        cfg = EcapSetpoint(target_uV=1.0, gain_mA_per_uV=1.0)
        amp = 4.0
        for _ in range(50):
            est = ecap_true(amp, 4.0, plant)
            amp = ecap_setpoint_step(est, amp, cfg)
        assert amp == pytest.approx(5.0, abs=1e-9)

    def test_converges_damped_for_any_stable_loop_gain(self):
        # 0 < g*k < 2 contracts the error by |1 - g*k| each pulse.
        plant = EcapPlantParams(0.5, 3.0, 4.0)
        for gk in (0.2, 0.5, 1.0, 1.5, 1.9):
            cfg = EcapSetpoint(target_uV=1.0, gain_mA_per_uV=gk / 0.5)
            amp = 4.0
            errs = []
            for _ in range(200):
                est = ecap_true(amp, 4.0, plant)
                errs.append(abs(1.0 - est))
                amp = ecap_setpoint_step(est, amp, cfg)
            assert errs[-1] < 1e-6
            assert amp == pytest.approx(5.0, abs=1e-5)

    def test_steady_state_within_deadband(self):
        plant = EcapPlantParams(0.5, 3.0, 4.0)
        cfg = EcapSetpoint(target_uV=1.0, gain_mA_per_uV=1.0, deadband_uV=0.05)
        amp = 4.0
        for _ in range(100):
            est = ecap_true(amp, 4.0, plant)
            amp = ecap_setpoint_step(est, amp, cfg)
        final = ecap_true(amp, 4.0, plant)
        assert abs(final - 1.0) <= cfg.deadband_uV + 1e-12

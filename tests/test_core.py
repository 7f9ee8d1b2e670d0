"""Core vocabulary: time base, dose arithmetic, event records."""

import numpy as np
import pytest

from neuroloop.core import (
    Dose,
    DomainError,
    EventRecord,
    InvalidTimebaseError,
    charge_per_pulse,
    charge_per_tick,
    make_timebase,
    teed_rate,
)


class TestMakeTimebase:
    def test_one_millisecond_ten_seconds(self):
        assert make_timebase(0.001, 10.0).n_ticks == 10_000

    def test_minimal_run(self):
        assert make_timebase(0.5, 0.5).n_ticks == 1

    def test_one_simulated_day(self):
        assert make_timebase(0.001, 86_400.0).n_ticks == 86_400_000

    def test_duration_is_product(self):
        tb = make_timebase(0.25, 10.0)
        assert tb.duration_s == pytest.approx(0.25 * tb.n_ticks)

    @pytest.mark.parametrize("dt,dur", [(0.0, 1.0), (-0.1, 1.0), (0.5, 0.25)])
    def test_invalid_inputs(self, dt, dur):
        with pytest.raises(InvalidTimebaseError):
            make_timebase(dt, dur)


class TestDose:
    def test_charge_three_ma_hundred_us(self):
        assert charge_per_pulse(Dose(3.0, 100.0, 130.0)) == pytest.approx(0.3)

    def test_charge_off_dose(self):
        assert charge_per_pulse(Dose(0.0, 200.0, 130.0)) == 0.0

    def test_charge_five_ma_five_hundred_us(self):
        assert charge_per_pulse(Dose(5.0, 500.0, 50.0)) == pytest.approx(2.5)

    def test_teed_rate_formula(self):
        assert teed_rate(Dose(2.0, 60.0, 130.0)) == pytest.approx(2**2 * 60 * 130)

    def test_teed_rate_off(self):
        assert teed_rate(Dose(0.0, 60.0, 130.0)) == 0.0

    def test_teed_zero_iff_any_factor_zero(self):
        assert teed_rate(Dose(1.0, 0.0, 130.0)) == 0.0
        assert teed_rate(Dose(1.0, 60.0, 0.0)) == 0.0
        assert teed_rate(Dose(1.0, 60.0, 1.0)) > 0.0

    def test_teed_strictly_increasing_in_amplitude(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a1, a2 = sorted(rng.uniform(0.01, 10.0, size=2))
            if a1 == a2:
                continue
            pw, f = rng.uniform(10, 500), rng.uniform(1, 500)
            assert teed_rate(Dose(a2, pw, f)) > teed_rate(Dose(a1, pw, f))

    def test_cumulative_teed_matches_independent_accumulator(self):
        # Oracle: a second, independent accumulation pass over the same doses.
        rng = np.random.default_rng(11)
        dt = 0.05
        doses = [Dose(rng.uniform(0, 5), 120.0, 90.0) for _ in range(500)]
        total = 0.0
        for d in doses:
            total += teed_rate(d) * dt
        oracle = sum(d.amplitude_mA**2 * d.pulse_width_us * d.frequency_hz * dt for d in doses)
        assert total == pytest.approx(oracle, rel=1e-12)

    def test_negative_fields_rejected(self):
        with pytest.raises(DomainError):
            Dose(-1.0, 100.0, 130.0)

    def test_charge_per_tick(self):
        # 0.3 uC/pulse at 100 Hz for 0.5 s -> 15 uC
        assert charge_per_tick(Dose(3.0, 100.0, 100.0), 0.5) == pytest.approx(15.0)

    def test_with_amplitude_floors_at_zero(self):
        assert Dose(2.0, 100.0, 130.0).with_amplitude(-0.5).amplitude_mA == 0.0

    def test_with_amplitude_unchanged_returns_the_dose_itself(self):
        d = Dose(2.0, 100.0, 130.0, "E1")
        assert d.with_amplitude(2.0) is d
        off = d.off()
        assert d.off() is off and off.off() is off and off.with_amplitude(-1.0) is off

    @pytest.mark.parametrize("old,new", [
        (-0.0, 0.0),    # sign of zero: repr "-0.0" becomes "0.0"
        (-0.0, -3.0),   # floored to 0.0
        (2, 2.0),       # int to float: repr and JSON "2" become "2.0"
        (2.0, 2.5),     # a changed value
    ])
    def test_with_amplitude_builds_a_new_dose_when_the_float_differs(self, old, new):
        d = Dose(old, 100.0, 130.0, "E1")
        out = d.with_amplitude(new)
        assert out is not d
        assert repr(out.amplitude_mA) == repr(max(0.0, new))
        assert (out.pulse_width_us, out.frequency_hz, out.contact_set) == (100.0, 130.0, "E1")


class TestEventRecord:
    def test_to_dict_round_trip_fields(self):
        r = EventRecord(5, "Alert", "LIMIT_CLAMP", {"requested_mA": 9.0})
        d = r.to_dict()
        assert d == {
            "tick": 5,
            "severity": "Alert",
            "code": "LIMIT_CLAMP",
            "payload": {"requested_mA": 9.0},
        }


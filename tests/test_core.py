"""Core vocabulary: time base, dose arithmetic, event records."""

import numpy as np
import pytest

from neuroloop.core import (
    MAX_TICKS,
    ConfigurationError,
    Dose,
    DomainError,
    EventRecord,
    InvalidTimebaseError,
    TimeBase,
    charge_per_pulse,
    charge_per_tick,
    teed_rate,
)

from test_dose_floats import switched_off, with_amplitude


class TestTimeBase:
    def test_one_millisecond_ten_seconds(self):
        assert TimeBase(0.001, 10.0).n_ticks == 10_000

    def test_minimal_run(self):
        assert TimeBase(0.5, 0.5).n_ticks == 1

    def test_one_simulated_day(self):
        assert TimeBase(0.1, 86_400.0).n_ticks == 864_000
        # At 1 ms a day is 86,400,000 ticks, beyond the bound on a run.
        with pytest.raises(ConfigurationError, match=f"more than the {MAX_TICKS} a run"):
            TimeBase(0.001, 86_400.0)

    def test_bound_is_inclusive(self):
        assert TimeBase(1.0, float(MAX_TICKS)).n_ticks == MAX_TICKS
        with pytest.raises(ConfigurationError):
            TimeBase(1.0, float(MAX_TICKS + 1))

    def test_duration_is_product(self):
        tb = TimeBase(0.25, 10.0)
        assert tb.dt_s * tb.n_ticks == pytest.approx(10.0)

    @pytest.mark.parametrize("dt,dur", [(0.0, 1.0), (-0.1, 1.0), (0.5, 0.25)])
    def test_invalid_inputs(self, dt, dur):
        with pytest.raises(InvalidTimebaseError):
            TimeBase(dt, dur)


class TestDose:
    # The dose arithmetic takes an amplitude and the template dose whose
    # pulse width and rate it is delivered with; the template's own
    # amplitude (9.0 here) is not read.
    def test_charge_three_ma_hundred_us(self):
        assert charge_per_pulse(3.0, Dose(9.0, 100.0, 130.0)) == pytest.approx(0.3)

    def test_charge_off_dose(self):
        assert charge_per_pulse(0.0, Dose(9.0, 200.0, 130.0)) == 0.0

    def test_charge_five_ma_five_hundred_us(self):
        assert charge_per_pulse(5.0, Dose(9.0, 500.0, 50.0)) == pytest.approx(2.5)

    def test_teed_rate_formula(self):
        assert teed_rate(2.0, Dose(9.0, 60.0, 130.0)) == pytest.approx(2**2 * 60 * 130)

    def test_teed_rate_off(self):
        assert teed_rate(0.0, Dose(9.0, 60.0, 130.0)) == 0.0

    def test_teed_zero_iff_any_factor_zero(self):
        assert teed_rate(1.0, Dose(9.0, 0.0, 130.0)) == 0.0
        assert teed_rate(1.0, Dose(9.0, 60.0, 0.0)) == 0.0
        assert teed_rate(1.0, Dose(9.0, 60.0, 1.0)) > 0.0

    def test_teed_strictly_increasing_in_amplitude(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a1, a2 = sorted(rng.uniform(0.01, 10.0, size=2))
            if a1 == a2:
                continue
            pw, f = rng.uniform(10, 500), rng.uniform(1, 500)
            template = Dose(0.0, pw, f)
            assert teed_rate(a2, template) > teed_rate(a1, template)

    def test_cumulative_teed_matches_independent_accumulator(self):
        # Oracle: a second, independent accumulation pass over the same doses.
        rng = np.random.default_rng(11)
        dt = 0.05
        doses = [Dose(rng.uniform(0, 5), 120.0, 90.0) for _ in range(500)]
        total = 0.0
        for d in doses:
            total += teed_rate(d.amplitude_mA, d) * dt
        oracle = sum(d.amplitude_mA**2 * d.pulse_width_us * d.frequency_hz * dt for d in doses)
        assert total == pytest.approx(oracle, rel=1e-12)

    def test_negative_fields_rejected(self):
        with pytest.raises(DomainError):
            Dose(-1.0, 100.0, 130.0)

    def test_charge_per_tick(self):
        # 0.3 uC/pulse at 100 Hz for 0.5 s -> 15 uC
        assert charge_per_tick(3.0, Dose(9.0, 100.0, 100.0), 0.5) == pytest.approx(15.0)

    # ``with_amplitude`` and ``switched_off`` are the dose-floats oracle's
    # helpers; the run loop floors a float amplitude instead.
    def test_with_amplitude_floors_at_zero(self):
        assert with_amplitude(Dose(2.0, 100.0, 130.0), -0.5).amplitude_mA == 0.0

    def test_with_amplitude_unchanged_returns_the_dose_itself(self):
        d = Dose(2.0, 100.0, 130.0, "E1")
        assert with_amplitude(d, 2.0) is d
        off = switched_off(d)
        assert switched_off(off) is off and with_amplitude(off, -1.0) is off

    @pytest.mark.parametrize("old,new", [
        (-0.0, 0.0),    # sign of zero: repr "-0.0" becomes "0.0"
        (-0.0, -3.0),   # floored to 0.0
        (2, 2.0),       # int to float: repr and JSON "2" become "2.0"
        (2.0, 2.5),     # a changed value
    ])
    def test_with_amplitude_builds_a_new_dose_when_the_float_differs(self, old, new):
        d = Dose(old, 100.0, 130.0, "E1")
        out = with_amplitude(d, new)
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


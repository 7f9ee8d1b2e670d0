"""The dose path on floats: every stage against its ``Dose``-taking oracle.

The loop carries a delivered amplitude as a float beside a template ``Dose``
(pulse width, rate, contact set). The oracle below is each stage written
on whole ``Dose`` objects, flooring with ``with_amplitude``. The float
stages must give the oracle's ``amplitude_mA`` with the same ``repr`` (so an
int stays an int and -0.0 becomes 0.0 exactly where the oracle's do) and
the same event payloads.
Runtime budget (2-core host): under 3 s for the whole file.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import neuroloop.plant as plant
from neuroloop.control import (
    BangBangResponsive,
    DualThreshold,
    EcapSetpoint,
    ManualFixed,
    PolicyState,
    Proportional,
    SingleThreshold,
    bang_bang_responsive_step,
)
from neuroloop.core import QUALITY_OK, SEVERITY_ALERT, Dose, DoseLimits, EventRecord
from neuroloop.engine import run_scenario, sweep
from neuroloop.plant import DeviceState, actuator_apply
from neuroloop.safety import (
    EVENT_CHARGE_CLAMP,
    EVENT_LIMIT_CLAMP,
    EVENT_SLEW_CLAMP,
    clamp_and_slew,
)
from neuroloop.scenario import scenario_from_dict

from conftest import ecap_raw, reference_raw

# ---------------------------------------------------------------------------
# The oracle: the Dose-taking stages
# ---------------------------------------------------------------------------

def with_amplitude(d: Dose, amplitude_mA: float) -> Dose:
    """``d`` with a different amplitude; floors at zero.

    Returns ``d`` itself when the floored amplitude is the same float (same
    type, value and sign of zero); -0.0 to 0.0 or an int to a float changes
    the repr and JSON form, so it builds a new dose.
    """
    amp = max(0.0, amplitude_mA)
    old = d.amplitude_mA
    if amp == old and type(amp) is type(old) and (amp or math.copysign(1.0, old) > 0):
        return d
    return Dose(amp, d.pulse_width_us, d.frequency_hz, d.contact_set)


def switched_off(d: Dose) -> Dose:
    """``d`` with stimulation off."""
    return with_amplitude(d, 0.0)


def clamp_and_slew_oracle(command: Dose, limits: DoseLimits, prev: Dose, tick: int = 0):
    events = []
    amp = command.amplitude_mA
    if amp == 0:   # a stop: delivered at once, whatever the limits
        return with_amplitude(command, 0.0), events
    lo = prev.amplitude_mA - limits.max_slew_mA_per_tick
    hi = prev.amplitude_mA + limits.max_slew_mA_per_tick
    slewed = min(max(amp, lo), hi)
    if slewed != amp:
        events.append(EventRecord(tick, SEVERITY_ALERT, EVENT_SLEW_CLAMP,
                                  {"requested_mA": amp, "slewed_mA": slewed}))
    clamped = min(max(slewed, limits.amp_min_mA), limits.amp_max_mA)
    if clamped != slewed:
        events.append(EventRecord(tick, SEVERITY_ALERT, EVENT_LIMIT_CLAMP,
                                  {"requested_mA": slewed, "clamped_mA": clamped}))
    result = with_amplitude(command, clamped)
    q = result.amplitude_mA * result.pulse_width_us * 1e-3
    if q > limits.max_charge_per_pulse_uC and result.pulse_width_us > 0:
        safe_amp = limits.max_charge_per_pulse_uC / (result.pulse_width_us * 1e-3)
        events.append(EventRecord(tick, SEVERITY_ALERT, EVENT_CHARGE_CLAMP,
                                  {"charge_uC": q, "reduced_to_mA": safe_amp}))
        result = with_amplitude(result, safe_amp)
    return result, events


def floor_to_step(x, step):
    return math.floor(round(x / step, 9)) * step


def actuator_apply_oracle(requested: Dose, dev: DeviceState) -> Dose:
    z = dev.impedance_ohm_per_contact[requested.contact_set]
    cap = floor_to_step(dev.compliance_v / z * 1000.0, dev.amp_step_mA)
    quantized = floor_to_step(requested.amplitude_mA, dev.amp_step_mA)
    return with_amplitude(requested, min(quantized, cap))


def policy_step_oracle(cfg, st_, measured, detected, current: Dose):
    """One policy tick on doses: (state, command dose, therapy_started)."""
    if isinstance(cfg, ManualFixed):
        return st_, cfg.dose, False
    if isinstance(cfg, BangBangResponsive):
        off = switched_off(cfg.burst_dose)
        left, count = st_.plan_remaining, st_.therapies_delivered_this_event
        if left:
            burst = cfg.burst_duration_ticks
            on_now = left <= burst or left > burst + cfg.inter_burst_gap_ticks
            return PolicyState(count, left - 1), cfg.burst_dose if on_now else off, False
        if detected:
            if count < cfg.max_therapies_per_event:
                return PolicyState(count + 1, cfg.therapy_ticks - 1), cfg.burst_dose, True
            return st_, off, False
        return (st_ if count == 0 else PolicyState()), off, False
    if measured is None:
        return st_, current, False
    if isinstance(cfg, SingleThreshold):
        above = measured > cfg.threshold
        increase = above if cfg.on_above else not above
        delta = cfg.step_mA if increase else -cfg.step_mA
        return st_, with_amplitude(current, current.amplitude_mA + delta), False
    if isinstance(cfg, DualThreshold):
        if measured > cfg.upper:
            return st_, with_amplitude(current, current.amplitude_mA + cfg.step_up_mA), False
        if measured < cfg.lower:
            return st_, with_amplitude(current, current.amplitude_mA - cfg.step_down_mA), False
        return st_, current, False
    if isinstance(cfg, Proportional):
        amp = cfg.gain_mA_per_unit * max(0.0, measured - cfg.reference)
        return st_, with_amplitude(current, amp), False
    error = cfg.target_uV - measured
    if abs(error) <= cfg.deadband_uV:
        return st_, current, False
    return st_, with_amplitude(current, current.amplitude_mA + cfg.gain_mA_per_uV * error), False


# ---------------------------------------------------------------------------
# Float stages against the oracle
# ---------------------------------------------------------------------------

OK = frozenset({QUALITY_OK})
# Amplitudes a dose can hold: -0.0, ints, the 3.1 / 0.1 floor case, values
# at the bounds drawn below, and any float in range.
AMPS = st.one_of(
    st.sampled_from([-0.0, 0.0, 0, 1, 3, 0.5, 3.1, 5.0, 6.0, 2.5, 4.8, 1e-9]),
    st.integers(0, 12),
    st.floats(0.0, 15.0),
)
LIMITS = st.builds(
    lambda lo, hi, slew, charge: DoseLimits(min(lo, hi), max(lo, hi), slew, charge),
    st.sampled_from([0.0, 0, 0.5, 1, 3.1]),
    st.sampled_from([6.0, 5, 3.1, 10.0, 1.0]),
    st.sampled_from([0.1, 0.5, 1, 2.5, 10.0, 0.01]),
    st.sampled_from([0.5, 1.0, 2, 0.62, 0.93]),
)
PULSE_WIDTHS = st.sampled_from([0.0, 0, 60.0, 200.0, 450.0, 160])
DEVICES = st.builds(
    lambda compliance, step: DeviceState(3.6, 3.0, {"E1": 500.0}, compliance, step),
    st.sampled_from([12.0, 1.0, 2.4, 2.55]),   # caps of 24, 2, 4.8 and 5.1 mA
    st.sampled_from([0.1, 0.01, 0.05, 1, 0.25]),
)


STEPS = st.sampled_from([0.1, 0.01, 0.05, 1, 0.25, 0.3, 7.0])
# The fraction of x / step above a whole number: on and around the fast
# path's cut-offs 0.999999 and 1 - 4e-10, and the 9-digit tie at 1 - 5e-10.
CUTOFFS = (0.999999, 1 - 4e-10, 1 - 5e-10)
FRACTIONS = st.one_of(
    st.sampled_from((0.0, 0.5) + CUTOFFS),
    st.builds(lambda c, d: c + d, st.sampled_from(CUTOFFS), st.floats(-2e-9, 2e-9)),
    st.floats(0.0, 1.0, exclude_max=True),
)


def grid_sum(step, k: int):
    """``k`` steps added one at a time, as 0.1 + 0.1 + ... drifts off the grid."""
    x = 0.0
    for _ in range(k):
        x += step
    return x


FLOOR_INPUTS = st.one_of(
    st.builds(lambda n, f, step: ((n + f) * step, step),
              st.integers(0, 2**31 - 1) | st.integers(0, 100), FRACTIONS, STEPS),
    st.builds(lambda step, k: (grid_sum(step, k), step), STEPS, st.integers(0, 400)),
    st.tuples(st.floats(2.0**31, 2.0**62) | st.sampled_from([2.0**31, 2.0**31 - 0.5]),
              st.just(1)),
    st.tuples(st.integers(-5, 10**6) | st.floats(-5.0, 0.0), STEPS),
    st.tuples(st.sampled_from([3.1, -0.0, 0, 7, math.nan, math.inf, -math.inf]), STEPS),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=FLOOR_INPUTS)
@example(case=(3.1, 0.1))
def test_floor_to_step_equals_the_rounding_definition(case):
    # Budget: under 1 s. The fast path must give the oracle's repr, and NaN
    # and inf must raise the oracle's exception type.
    x, step = case
    try:
        want = floor_to_step(x, step)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            plant._floor_to_step(x, step)
    else:
        assert repr(plant._floor_to_step(x, step)) == repr(want), (x, step)


def assert_same_amplitude(value, dose: Dose):
    assert repr(value) == repr(dose.amplitude_mA), (value, dose)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(cmd=AMPS, prev=AMPS, limits=LIMITS, pw=PULSE_WIDTHS, device=DEVICES,
       at=st.sampled_from(["free", "slew_up", "slew_down", "charge", "amp_min", "amp_max"]))
# An int command equal to a float slew bound is kept, as min and max keep it.
@example(cmd=3, prev=2.0, limits=DoseLimits(0.0, 6.0, 1, 1.0), pw=60.0,
         device=DeviceState(3.6, 3.0, {"E1": 500.0}, 12.0, 1), at="free")
@example(cmd=2, prev=3.0, limits=DoseLimits(0.0, 6.0, 1, 1.0), pw=60.0,
         device=DeviceState(3.6, 3.0, {"E1": 500.0}, 12.0, 1), at="free")
def test_clamp_charge_and_actuator_equal_the_oracle(cmd, prev, limits, pw, device, at):
    # Budget: under 1 s for all examples.
    if at == "slew_up":
        cmd = prev + limits.max_slew_mA_per_tick
    elif at == "slew_down":
        cmd = max(0.0, prev - limits.max_slew_mA_per_tick)
    elif at == "charge" and pw > 0:
        cmd = limits.max_charge_per_pulse_uC / (pw * 1e-3)
    elif at in ("amp_min", "amp_max"):
        cmd = getattr(limits, f"{at}_mA")
    command = Dose(cmd, pw, 130.0, "E1")
    # The float stages read only the template's pulse width and contact set.
    template = Dose(7.7, pw, 130.0, "E1")
    events = []
    legal = clamp_and_slew(cmd, template, limits, prev, events, 9)
    oracle, oracle_events = clamp_and_slew_oracle(command, limits, Dose(prev, pw, 130.0, "E1"), 9)
    assert_same_amplitude(legal, oracle)
    assert repr([e.to_dict() for e in events]) == repr([e.to_dict() for e in oracle_events])
    assert_same_amplitude(actuator_apply(legal, template, device),
                          actuator_apply_oracle(oracle, device))
    assert_same_amplitude(actuator_apply(cmd, template, device),
                          actuator_apply_oracle(command, device))


POLICIES = st.one_of(
    st.builds(ManualFixed, st.builds(Dose, AMPS, PULSE_WIDTHS, st.just(90.0), st.just("E1"))),
    st.builds(BangBangResponsive, st.builds(Dose, AMPS, PULSE_WIDTHS, st.just(200.0)),
              st.sampled_from([1, 2]), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2)),
    st.builds(SingleThreshold, st.floats(-2.0, 2.0), st.sampled_from([0.1, 1, 0.25]),
              st.booleans()),
    st.builds(DualThreshold, st.just(-0.5), st.just(0.5), st.sampled_from([0.1, 1, 2.0]),
              st.sampled_from([0.1, 1, 3.1])),
    st.builds(Proportional, st.floats(-1.0, 1.0), st.sampled_from([0.5, 2, 1.0])),
    st.builds(EcapSetpoint, st.floats(-1.0, 1.0), st.sampled_from([0.5, 2, 2.5]),
              st.sampled_from([0.0, 0, 0.3])),
)
READINGS = st.lists(
    st.tuples(st.one_of(st.none(), st.floats(-3.0, 3.0), st.integers(-3, 3)), st.booleans()),
    min_size=1, max_size=12,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cfg=POLICIES, start=AMPS, readings=READINGS)
# Holds keep -0.0 and an int as they are; a step floors both to a float.
@example(cfg=DualThreshold(-0.5, 0.5, 0.1, 0.1), start=-0.0, readings=[(0.0, False)])
@example(cfg=EcapSetpoint(0.0, 0.5, 0.3), start=-0.0, readings=[(0.1, False), (None, True)])
@example(cfg=EcapSetpoint(1.0, 0.5), start=3, readings=[(1.0, False), (2.0, False)])
@example(cfg=SingleThreshold(0.0, 0.1), start=-0.0, readings=[(-1.0, False)])
# Int arithmetic that lands on 0 floors to the float 0.0.
@example(cfg=DualThreshold(-0.5, 0.5, 0.1, 1), start=1, readings=[(-1.0, False)])
@example(cfg=EcapSetpoint(1, 1), start=1, readings=[(2, False)])
def test_policy_amplitudes_equal_the_oracle(cfg, start, readings):
    # Budget: under 1 s for all examples. Each reading's command becomes
    # the next tick's current dose, as a policy sees it in a quiet loop.
    template = Dose(start, 200.0, 50.0, "E1")
    amp, state = start, PolicyState()
    oracle, oracle_state = template, PolicyState()
    for measured, detected in readings:
        quality = OK if measured is not None else frozenset()
        state, amp, template, started = cfg.step(state, measured, quality, detected, amp, template)
        oracle_state, oracle, oracle_started = policy_step_oracle(
            cfg, oracle_state, measured, detected, oracle)
        assert_same_amplitude(amp, oracle)
        assert (template.pulse_width_us, template.frequency_hz, template.contact_set) == (
            oracle.pulse_width_us, oracle.frequency_hz, oracle.contact_set)
        assert (state, started) == (oracle_state, oracle_started)


def test_responsive_off_command_is_a_float_zero():
    # The oracle's off dose holds 0.0 even when the burst amplitude is an int.
    cfg = BangBangResponsive(Dose(2, 160.0, 200.0))
    _, amp, _ = bang_bang_responsive_step(False, PolicyState(), cfg)
    assert repr(amp) == repr(switched_off(cfg.burst_dose).amplitude_mA) == "0.0"


# ---------------------------------------------------------------------------
# What a tick builds and evaluates
# ---------------------------------------------------------------------------

def test_moving_amplitude_builds_no_dose_per_tick(monkeypatch):
    # Budget: 0.1 s. Deadband 0 and sensor noise: the amplitude moves on
    # every tick, and a run twice as long builds as many doses (none).
    built = []
    monkeypatch.setattr(Dose, "__post_init__", lambda self: built.append(self))
    counts = []
    for n_ticks in (100, 200):
        scenario = scenario_from_dict(ecap_raw(
            timebase={"duration_s": n_ticks * 0.02},
            plant={"ecap": {"sensor_noise_sd_uV": 0.05}},
            policy={"deadband_uV": 0.0},
        ))
        built.clear()
        r = run_scenario(scenario)
        assert r.n_ticks == n_ticks and len(set(r.delivered_mA.tolist())) > n_ticks // 4
        counts.append(len(built))
    assert counts[0] == counts[1] <= 1


def test_beta_curve_evaluated_once_per_delivered_amplitude(monkeypatch):
    # Budget: 0.5 s. 16 lanes x 480 ticks of frames; the curve's value is
    # kept per amplitude on the sweep's tick table.
    calls = []
    evaluate = plant.dose_response_eval

    def counting(curve, amplitude_mA, rng=None):
        calls.append(amplitude_mA)
        return evaluate(curve, amplitude_mA, rng)

    monkeypatch.setattr(plant, "dose_response_eval", counting)
    raw = reference_raw("adbs_parkinsons")
    raw["timebase"]["duration_s"] = 120.0   # 480 ticks
    results = sweep(scenario_from_dict(raw), 16)
    framed = {r.initial_delivered_mA for r in results}
    for r in results:
        framed.update(r.delivered_mA[:-1].tolist())
    assert 0 < len(calls) <= len(framed)
    assert sorted(calls) == sorted(set(calls))


def test_sensor_noise_drawn_ahead_equals_scalar_draws():
    # The ecap lanes draw their sensor noise in chunks: a bulk draw must
    # equal the same draws made one at a time, bit for bit.
    bulk = np.random.default_rng(7).normal(0.0, 0.05, 1000).tolist()
    rng = np.random.default_rng(7)
    assert bulk == [rng.normal(0.0, 0.05) for _ in range(1000)]

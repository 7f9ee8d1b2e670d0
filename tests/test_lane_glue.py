"""The lockstep tick's glue: supervisor oracle, lane caches, smoothing and noise views.

- ``supervisor_step`` equals the closure-based version it replaced (kept
  here as the oracle) on every combination of mode, resume mode, edge
  registers, battery, dwell streaks at K - 1 and K, and fallback kind: the
  same state, the same object exactly when the oracle keeps its input, and
  the same events.
- An engine lane caches ``in_reset`` and ``frequency_hz`` as attributes;
  after every tick of the trust-path runs they equal what they cache.
- ``BetaSensing`` smooths with ``np.add.reduce(tail, axis=-1) / count``
  and reads a framed tick's noise rows as a strided view of the block;
  both are bit-identical to ``mean`` and to the gather they replace.
Runtime budget (2-core host): about 5 s.
"""

import itertools
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neuroloop import engine
from neuroloop.core import Dose, EventRecord, SEVERITY_ALERT, SEVERITY_FAULT, SEVERITY_INFO
from neuroloop.plant import DeviceState
from neuroloop.safety import (
    EVENT_TRUST_REENTER,
    MODE_AUTOMATED,
    MODE_DC_LEAK_RESET,
    MODE_EOS_RESET,
    MODE_EVENT_CODES,
    MODE_FALLBACK,
    MODE_SUSPENDED_MAGNET,
    FallbackOff,
    FixedSafe,
    LastKnownGood,
    ManualLoop,
    SupervisorState,
    TrustConfig,
    supervisor_step,
)
from neuroloop.scenario import scenario_from_dict

from conftest import deep_merge, reference_raw
from test_trust_paths import variant_raw


def oracle_supervisor_step(st: SupervisorState, fail_streak: int, pass_streak: int,
                           magnet_applied: bool, device: DeviceState, trust: TrustConfig,
                           fallback, log: list, tick: int = 0) -> SupervisorState:
    """``supervisor_step`` as it was written with a nested ``emit`` and an edge tuple."""

    def emit(target_mode: str, severity: str, payload: Optional[dict] = None) -> None:
        log.append(EventRecord(tick, severity, MODE_EVENT_CODES[target_mode], payload or {}))

    def moved(mode, edges, resume_mode=None):
        return SupervisorState(mode, resume_mode or st.resume_mode, *edges)

    edges = (magnet_applied, device.dc_leak_flag)
    stay = st if (st.magnet_prev, st.dc_leak_prev) == edges else moved(st.mode, edges)

    if st.in_reset:
        if device.dc_leak_flag and not st.dc_leak_prev and st.mode != MODE_DC_LEAK_RESET:
            emit(MODE_DC_LEAK_RESET, SEVERITY_INFO, {"suppressed_by": st.mode})
        if magnet_applied and not st.magnet_prev:
            emit(MODE_SUSPENDED_MAGNET, SEVERITY_INFO, {"suppressed_by": st.mode})
        return stay
    if device.dc_leak_flag:
        emit(MODE_DC_LEAK_RESET, SEVERITY_FAULT, {"from": st.mode})
        return moved(MODE_DC_LEAK_RESET, edges)
    if device.battery_v < device.eos_threshold_v:
        emit(MODE_EOS_RESET, SEVERITY_FAULT, {"from": st.mode, "battery_v": device.battery_v})
        return moved(MODE_EOS_RESET, edges)
    if magnet_applied:
        if st.mode != MODE_SUSPENDED_MAGNET:
            emit(MODE_SUSPENDED_MAGNET, SEVERITY_ALERT, {"from": st.mode})
            return moved(MODE_SUSPENDED_MAGNET, edges, resume_mode=st.mode)
        return stay
    if st.mode == MODE_SUSPENDED_MAGNET:
        emit(st.resume_mode, SEVERITY_ALERT, {"from": MODE_SUSPENDED_MAGNET})
        return moved(st.resume_mode, edges)
    if st.mode == MODE_AUTOMATED:
        if fail_streak >= trust.exit_after_consecutive_fails:
            emit(MODE_FALLBACK, SEVERITY_ALERT,
                 {"kind": type(fallback).__name__, "fail_streak": fail_streak})
            return moved(MODE_FALLBACK, edges)
        return stay
    if st.mode == MODE_FALLBACK:
        if pass_streak >= trust.reenter_after_consecutive_passes:
            log.append(EventRecord(tick, SEVERITY_INFO, EVENT_TRUST_REENTER,
                                   {"pass_streak": pass_streak}))
            emit(MODE_AUTOMATED, SEVERITY_ALERT, {"from": MODE_FALLBACK})
            return moved(MODE_AUTOMATED, edges)
        return stay
    raise AssertionError(f"unknown supervisor mode {st.mode!r}")


MODES = (MODE_AUTOMATED, MODE_FALLBACK, MODE_SUSPENDED_MAGNET, MODE_EOS_RESET,
         MODE_DC_LEAK_RESET)
K_EXIT, K_ENTER = 3, 5
TRUST = TrustConfig(exit_after_consecutive_fails=K_EXIT,
                    reenter_after_consecutive_passes=K_ENTER, checks=("QualityOK",))
SAFE = Dose(2.0, 200.0, 50.0, "E1")
FALLBACKS = (FallbackOff(), FixedSafe(SAFE), LastKnownGood(), ManualLoop(SAFE))


def device(battery_v: float, dc_leak: bool) -> DeviceState:
    return DeviceState(battery_v=battery_v, eos_threshold_v=3.0,
                       impedance_ohm_per_contact={"E1": 500.0}, compliance_v=10.0,
                       amp_step_mA=0.1, dc_leak_flag=dc_leak)


def test_supervisor_step_equals_the_oracle_exhaustively():
    devices = [device(v, leak) for v in (2.9, 3.1) for leak in (False, True)]
    bools = (False, True)
    rows = 0
    for mode, resume, magnet_prev, leak_prev in itertools.product(MODES, MODES, bools, bools):
        st0 = SupervisorState(mode, resume, magnet_prev, leak_prev)
        for magnet, dev, fails, passes, fb in itertools.product(
                bools, devices, (K_EXIT - 1, K_EXIT), (K_ENTER - 1, K_ENTER), FALLBACKS):
            got_log, want_log = [], []
            got = supervisor_step(st0, fails, passes, magnet, dev, TRUST, fb, got_log, 7)
            want = oracle_supervisor_step(st0, fails, passes, magnet, dev, TRUST, fb, want_log, 7)
            where = (st0, magnet, dev.battery_v, dev.dc_leak_flag, fails, passes, fb)
            assert got == want, where
            assert (got is st0) == (want is st0), where
            assert got_log == want_log, where
            rows += 1
    assert rows == 5 * 5 * 2 * 2 * 2 * 4 * 2 * 2 * 4


# ---------------------------------------------------------------------------
# The lane's cached attributes
# ---------------------------------------------------------------------------

def lane_variant(kind: str, path: str) -> dict:
    """A trust-path scenario; the fallback path's fixed dose runs at another
    rate, so the lane's template and ``frequency_hz`` change with the mode."""
    raw = variant_raw(kind, path)
    if path == "fallback":
        safe = {**raw["baseline_dose"], "frequency_hz": raw["baseline_dose"]["frequency_hz"] + 7.0}
        raw = deep_merge(raw, {"fallback": {"kind": "FixedSafe", "dose": safe}})
    return raw


@pytest.mark.parametrize("lanes", (1, 4))
@pytest.mark.parametrize("kind", ("ecap", "beta", "ieeg"))
def test_cached_lane_attributes_track_their_sources(monkeypatch, kind, lanes):
    step = engine._Lane.step
    seen = {"in_reset": set(), "frequency_hz": set()}

    def checked(lane, t, *reading):
        step(lane, t, *reading)
        assert lane.in_reset == lane.sup.in_reset, (lane.index, t)
        assert lane.frequency_hz == lane.template.frequency_hz, (lane.index, t)
        seen["in_reset"].add(lane.in_reset)
        seen["frequency_hz"].add(lane.frequency_hz)

    monkeypatch.setattr(engine._Lane, "step", checked)
    for path in ("fallback", "magnet", "dc_leak", "eos"):
        engine.sweep(scenario_from_dict(lane_variant(kind, path)), lanes)
    # Both caches were refreshed at least once.
    assert seen["in_reset"] == {False, True}
    assert len(seen["frequency_hz"]) == 2


# ---------------------------------------------------------------------------
# Beta smoothing and noise rows
# ---------------------------------------------------------------------------

SMOOTH = engine.BetaSensing(scenario_from_dict(reference_raw("adbs_parkinsons")),
                            [[None, np.random.default_rng(0)]]).smooth
SPECIALS = (np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2e-308,
            np.finfo(float).max, -np.finfo(float).max)
VALUES = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(w=st.integers(1, SMOOTH), lanes=st.integers(1, 5), data=st.data())
def test_reduce_then_divide_is_mean_bit_for_bit(w, lanes, data):
    x = np.array(data.draw(st.lists(VALUES, min_size=w * lanes, max_size=w * lanes)))
    x = x.reshape(lanes, w)
    with np.errstate(all="ignore"):   # overflow to inf and inf - inf are cases too
        got, want = np.add.reduce(x, axis=-1) / w, x.mean(axis=-1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(lanes=st.integers(1, 6), n_ticks=st.integers(1, 3 * engine.NOISE_CHUNK),
       drops=st.lists(st.integers(0, 3 * engine.NOISE_CHUNK), max_size=6))
def test_strided_noise_rows_equal_the_gather(lanes, n_ticks, drops):
    """Lanes leave the framed set for good: reset modes latch."""
    def blocks():
        return engine._NoiseBlocks([np.random.default_rng(s) for s in range(lanes)], 3)

    gathered, viewed = blocks(), blocks()
    gone = {lane: tick for lane, tick in enumerate(drops)}
    for t in range(n_ticks):
        idx = [i for i in range(lanes) if gone.get(i, n_ticks) > t]
        if not idx:
            break
        rows, at = gathered.at(t, idx)
        got = viewed.rows_at(t, idx)
        assert np.array_equal(got.view(np.int64), rows[at].view(np.int64))
        if len(idx) * engine.NOISE_CHUNK == len(rows):
            assert np.shares_memory(got, viewed.rows)

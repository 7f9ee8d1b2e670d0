"""Lockstep lanes: every lane of a sweep equals a run of its seed alone.

``engine.sweep`` runs its seeds as lanes of one loop, with frames and frame
features computed for all lanes at once. These tests hold each lane to a
serial ``run_scenario`` of the same seed, byte for byte on all three output
files, and each batched feature or frame row to the same call on that row
alone. Runtime budgets (2-core host) are noted per test; the whole file
takes under 15 s.
"""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import neuroloop.engine as engine
from neuroloop.core import DomainError, Dose, InvalidPlantError
from neuroloop.engine import BetaSensing, _NoiseRows, run_scenario, sweep
from neuroloop.features import (
    HalfWaveConfig,
    SignalQualityLimits,
    area_under_curve,
    band_power,
    half_wave_count,
    line_length,
    signal_quality,
)
from neuroloop.outputs import events_jsonl_text, summary_json_text, timeseries_csv_text
from neuroloop.plant import BetaTickTable, IeegPlantConfig, beta_lfp_frame, ieeg_frame
from neuroloop.scenario import scenario_from_dict

from conftest import deep_merge, ecap_raw, ieeg_raw, reference_raw

RESET_MODES = ("EosReset", "DcLeakReset")


def texts(result) -> tuple:
    return tuple(
        render(result) for render in (timeseries_csv_text, events_jsonl_text, summary_json_text)
    )


def reset_tick(result):
    return next((t for t, m in enumerate(result.mode) if m in RESET_MODES), None)


# Each scenario drains its battery through end of service at a tick that
# depends on the seed, so lanes leave the frame batch at different ticks.
def ieeg_scenario(duration_s=30.0):
    return scenario_from_dict(ieeg_raw(
        timebase={"dt_s": 0.125, "duration_s": duration_s},
        plant={"device": {"battery_v": 3.0004, "eos_threshold_v": 3.0, "drain_v_per_uC": 1e-4}},
    ))


def beta_scenario(duration_s=30.0):
    # smooth_s / dt_s = 10 ticks: the smoothing mean takes numpy's pairwise path.
    return scenario_from_dict(deep_merge(reference_raw("adbs_parkinsons"), {
        "timebase": {"dt_s": 0.25, "duration_s": duration_s},
        "features": {"smooth_s": 2.5},
        "plant": {"device": {"battery_v": 3.2024, "eos_threshold_v": 3.2,
                             "drain_v_per_uC": 1e-5}},
        "magnet": [{"start_tick": 20, "end_tick": 30}],
    }))


def ecap_scenario(duration_s=10.0):
    return scenario_from_dict(ecap_raw(
        timebase={"dt_s": 0.02, "duration_s": duration_s},
        plant={"ecap": {"sensor_noise_sd_uV": 0.2},
               "device": {"battery_v": 3.0004, "eos_threshold_v": 3.0,
                          "drain_v_per_uC": 1e-5}},
        magnet=[{"start_tick": 100, "end_tick": 140}],
    ))


SCENARIOS = {"ecap": ecap_scenario, "beta": beta_scenario, "ieeg": ieeg_scenario}


def assert_lanes_match_serial(scenario, width: int) -> list:
    batch = sweep(scenario, width)
    assert [r.scenario.seed for r in batch] == [scenario.seed + i for i in range(width)]
    for r in batch:
        assert texts(r) == texts(run_scenario(r.scenario)), r.scenario.seed
    return batch


@pytest.mark.parametrize("kind", SCENARIOS)
def test_every_lane_equals_its_serial_run(kind):
    # Budget: 2 s per kind.
    batch = assert_lanes_match_serial(SCENARIOS[kind](), 6)
    resets = [reset_tick(r) for r in batch]
    assert len(set(resets)) > 1, resets   # lanes leave the batch at different ticks
    assert not any(r.aborted for r in batch)


def test_lane_columns_are_rows_of_one_batch_array():
    # Budget: 1 s.
    batch = sweep(ieeg_scenario(duration_s=5.0), 3)
    for name in ("biomarker", "setpoint", "commanded_mA", "delivered_mA", "teed_cum", "seizing"):
        bases = [getattr(r, name).base for r in batch]
        assert bases[0] is not None and all(b is bases[0] for b in bases), name
        assert bases[0].shape == (3, 40), name


def failing_on_call(fn, call: int):
    """``fn``, except that its ``call``-th call (counting from 0) raises."""
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        if next(calls) == call:
            raise InvalidPlantError("synthetic per-lane failure")
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("stage", ["seizure_step", "clamp_and_slew"])
def test_per_lane_fault_aborts_only_its_lane(monkeypatch, stage):
    # Budget: 2 s per stage. Both stages run once per lane per tick, lane by
    # lane, so call tick * width + lane is that lane's call at that tick.
    scenario = ieeg_scenario()
    width, lane, tick = 4, 2, 50
    original = getattr(engine, stage)
    monkeypatch.setattr(engine, stage, failing_on_call(original, tick * width + lane))
    batch = sweep(scenario, width)
    assert [r.aborted for r in batch] == [i == lane for i in range(width)]
    assert batch[lane].n_ticks == tick
    for i, r in enumerate(batch):
        monkeypatch.setattr(engine, stage, failing_on_call(original, tick if i == lane else -1))
        assert texts(r) == texts(run_scenario(r.scenario)), i


def test_batched_fault_aborts_every_framed_lane(monkeypatch):
    # Budget: 2 s. Lanes already in a reset mode take no frame and run on.
    tick = 50
    original = engine.ieeg_frame

    def failing(seizing, cfg, noise, t=0):
        if t == tick:
            raise DomainError("synthetic shared-configuration failure")
        return original(seizing, cfg, noise, t)

    monkeypatch.setattr(engine, "ieeg_frame", failing)
    batch = assert_lanes_match_serial(ieeg_scenario(), 6)
    for r in batch:
        in_reset = reset_tick(r) is not None and reset_tick(r) < tick
        assert r.aborted != in_reset
        assert r.n_ticks == (r.scenario.timebase.n_ticks if in_reset else tick)
    assert any(r.aborted for r in batch) and not all(r.aborted for r in batch)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(sorted(SCENARIOS)),
    width=st.integers(min_value=1, max_value=5),
    base=st.integers(min_value=0, max_value=2**32),
)
def test_any_batch_equals_serial_runs(kind, width, base):
    # Budget: 4 s for all examples; derandomized, so tier-1 stays deterministic.
    scenario = SCENARIOS[kind](duration_s=5.0 if kind != "ecap" else 1.6).with_seed(base)
    assert_lanes_match_serial(scenario, width)


# ---------------------------------------------------------------------------
# Batched building blocks, row by row against the single-frame call
# ---------------------------------------------------------------------------

def test_batched_features_equal_row_by_row():
    # Budget: 0.5 s.
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((7, 64)) * 20.0
    frames[2] = 5.0                 # flatline
    frames[3, 10] = 2500.0          # saturated and a jump
    limits = SignalQualityLimits(saturation_uV=2000.0, max_delta_uV_per_sample=150.0)
    hw = HalfWaveConfig(min_amplitude_uV=10.0, min_duration_ticks=1, max_duration_ticks=20)
    rows = list(frames)
    assert line_length(frames).tolist() == [line_length(x) for x in rows]
    assert area_under_curve(frames).tolist() == [area_under_curve(x) for x in rows]
    for band in ((13.0, 30.0), (4.0, 128.0), (20.0, 20.5)):
        assert band_power(frames, *band, 256.0).tolist() == [
            band_power(x, *band, 256.0) for x in rows
        ]
    assert signal_quality(frames, limits) == [signal_quality(x, limits) for x in rows]
    assert len(set(signal_quality(frames, limits))) == 3
    assert half_wave_count(frames, hw).tolist() == [half_wave_count(x, hw) for x in rows]


def test_batched_frames_equal_single_frames():
    # Budget: 0.5 s. The adbs plant has circadian, cardiac and gamma terms.
    table = BetaTickTable(scenario_from_dict(reference_raw("adbs_parkinsons")).plant.cfg)
    rng = np.random.default_rng(4)
    doses = [Dose(a, 60.0, f) for a, f in ((0.0, 130.0), (2.5, 130.0), (3.1, 0.0), (1.2, 90.0))]
    noise = rng.standard_normal((len(doses), table.cfg.frame_len))
    for tick in (0, 37, 500):
        batch = beta_lfp_frame(doses, tick, table, noise)
        for i, dose in enumerate(doses):
            assert np.array_equal(batch[i], beta_lfp_frame(dose, tick, table, noise[i]))

    icfg = IeegPlantConfig(256.0, 32, 10.0, 300.0, 10.0)
    seizing = np.array([True, False, True, False])
    noise = rng.standard_normal((4, 32))
    for tick in (0, 9):
        batch = ieeg_frame(seizing, icfg, noise, tick)
        for i in range(4):
            assert np.array_equal(batch[i], ieeg_frame(bool(seizing[i]), icfg, noise[i], tick))


def test_noise_rows_follow_each_lane_alone():
    # Budget: 0.5 s. Lanes take frames at different rates, across chunk edges.
    seeds, frame_len = (5, 6, 7), 8
    noise = _NoiseRows([np.random.default_rng(s) for s in seeds], frame_len)
    alone = [np.random.default_rng(s) for s in seeds]
    for t in range(3 * engine.NOISE_CHUNK + 5):
        lanes = np.array([i for i in range(3) if t % (i + 1) == 0])
        rows = noise.take(lanes)
        for row, i in zip(rows, lanes.tolist()):
            assert np.array_equal(row, alone[i].standard_normal(frame_len))


def test_smoothing_windows_of_unequal_fill_match_np_mean():
    # Budget: 0.5 s. A lane that skips ticks has a shorter window than the rest.
    scenario = beta_scenario()
    rngs = [[np.random.default_rng(s) for s in range(3)] for _ in range(3)]
    sensing = BetaSensing(scenario, rngs)
    windows = [deque(maxlen=sensing.smooth) for _ in range(3)]
    rng = np.random.default_rng(5)
    for t in range(25):
        idx = np.array([i for i in range(3) if i != 1 or t % 3 == 0])
        power = rng.random(len(idx)) * 3.0
        for i, p in zip(idx.tolist(), power.tolist()):
            windows[i].append(p)
        means = sensing._smoothed(idx, power).tolist()
        assert means == [float(np.mean(windows[i])) for i in idx.tolist()]

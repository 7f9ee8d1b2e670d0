"""Lockstep lanes: every lane of a sweep equals a run of its seed alone.

``engine.sweep`` runs each batch of its seeds as lanes of one loop, with
frames and frame features computed for all lanes at once; the tests of that
loop itself (shared columns, per-call counts) patch ``usable_cores`` to 1,
so the whole sweep is one batch in this process. These tests hold each lane
to a serial ``run_scenario`` of the same seed, byte for byte on all three
output files, and each batched feature or frame row to the same call on
that row alone. iEEG sensing, which frames and featurizes per noise block,
is held to a per-tick oracle, and the framed ticks of every lane to a prefix
of the run, which the shared noise-block cursor relies on. Runtime budgets
(2-core host) are noted per test; the whole file takes under 15 s.
"""

import itertools
from collections import deque
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import neuroloop.engine as engine
from neuroloop.core import (
    QUALITY_FLATLINE,
    QUALITY_SATURATED,
    DomainError,
    Dose,
    InvalidPlantError,
)
from neuroloop.engine import (
    NO_READING,
    BetaSensing,
    IeegSensing,
    _DrawsAhead,
    _framed,
    _NoiseBlocks,
    run_scenario,
    sweep,
)
from neuroloop.features import (
    HalfWaveConfig,
    area_under_curve,
    band_power,
    detect,
    half_wave_count,
    line_length,
    signal_quality,
    tool_feature,
)
from neuroloop.outputs import events_jsonl_text, summary_json_text, timeseries_csv_text
from neuroloop.plant import (
    BetaTickTable,
    IeegPlantConfig,
    beta_lfp_frame,
    ieeg_frame,
    seizure_step,
)
from neuroloop.scenario import IeegPlantSpec, scenario_from_dict

from conftest import deep_merge, ecap_raw, ieeg_raw, reference_raw
from test_trust_paths import EXPECTED as TRUST_PATHS, variant_raw

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
    assert all("" not in r.mode for r in batch)   # every tick of every lane recorded


def in_one_batch(monkeypatch) -> None:
    """Make ``sweep`` run all its lanes in this process, in one lockstep loop."""
    monkeypatch.setattr(engine, "usable_cores", lambda: 1)


def test_lane_columns_are_rows_of_one_batch_array(monkeypatch):
    # Budget: 1 s.
    in_one_batch(monkeypatch)
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


def failing_at_tick(fn, tick: int):
    """``ieeg_frame``-like ``fn``, except that a call framing ``tick`` raises."""
    def wrapper(seizing, cfg, noise, t):
        if tick in np.atleast_1d(t):   # one tick, or one per row
            raise DomainError("synthetic shared-configuration failure")
        return fn(seizing, cfg, noise, t)

    return wrapper


FAILING = {   # a sensing stage at tick 64, and two per-lane stages on their call 100
    "ieeg_frame": partial(failing_at_tick, tick=2 * engine.NOISE_CHUNK),
    "device_step": partial(failing_on_call, call=100),
    "clamp_and_slew": partial(failing_on_call, call=100),
}


@pytest.mark.parametrize("stage", FAILING)
@pytest.mark.parametrize("run", [partial(sweep, n_seeds=6), run_scenario],
                         ids=["sweep", "run_scenario"])
def test_stage_error_propagates(monkeypatch, run, stage):
    # Budget: 1 s per case. No stage raises a simulation error for a built
    # scenario, so one that does is a programming error: it escapes the run.
    monkeypatch.setattr(engine, stage, FAILING[stage](getattr(engine, stage)))
    with pytest.raises((DomainError, InvalidPlantError), match="synthetic"):
        run(ieeg_scenario())


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
    # Budget: 0.5 s. A batch of 512 rows sums through the batch kernel.
    for n_rows in (7, 512):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((n_rows, 64)) * 20.0
        frames[2] = 5.0                 # flatline
        frames[3, 10] = 2500.0          # saturated
        hw = HalfWaveConfig(min_amplitude_uV=10.0, min_duration_ticks=1, max_duration_ticks=20)
        rows = list(frames)
        assert line_length(frames).tolist() == [line_length(x) for x in rows]
        assert area_under_curve(frames).tolist() == [area_under_curve(x) for x in rows]
        for band in ((13.0, 30.0), (4.0, 128.0), (20.0, 20.5)):
            assert band_power(frames, *band, 256.0).tolist() == [
                band_power(x, *band, 256.0) for x in rows
            ]
        assert signal_quality(frames, 2000.0) == [signal_quality(x, 2000.0) for x in rows]
        assert len(set(signal_quality(frames, 2000.0))) == 3
        assert half_wave_count(frames, hw).tolist() == [half_wave_count(x, hw) for x in rows]


def test_batched_frames_equal_single_frames():
    # Budget: 0.5 s. The adbs plant has circadian, cardiac and gamma terms;
    # a beta frame alone is a batch of one row.
    table = BetaTickTable(scenario_from_dict(reference_raw("adbs_parkinsons")).plant.cfg)
    rng = np.random.default_rng(4)
    doses = [Dose(a, 60.0, f) for a, f in ((0.0, 130.0), (2.5, 130.0), (3.1, 0.0), (1.2, 90.0))]
    noise = rng.standard_normal((len(doses), table.cfg.frame_len))
    for tick in (0, 37, 500):
        batch = beta_lfp_frame(doses, tick, table, noise)
        for i, dose in enumerate(doses):
            assert np.array_equal(batch[i], beta_lfp_frame([dose], tick, table, noise[i:i + 1])[0])

    icfg = IeegPlantConfig(256.0, 32, 10.0, 300.0, 10.0)
    noise = rng.standard_normal((4, 32))
    for seizing, tick in itertools.product((False, True), (0, 9)):
        batch = ieeg_frame(seizing, icfg, noise, tick)
        for i in range(4):
            assert np.array_equal(batch[i], ieeg_frame(seizing, icfg, noise[i], tick))


def test_frames_at_per_row_ticks_equal_one_call_per_tick():
    # Budget: 0.1 s. Consecutive ticks (a lane's rows to a block's end) and
    # scattered ones, seizing and not.
    icfg = IeegPlantConfig(256.0, 32, 10.0, 300.0, 10.0)
    rng = np.random.default_rng(5)
    for ticks in (np.arange(37, 64), np.array([0, 9, 3, 10**6, 9, 41])):
        noise = rng.standard_normal((len(ticks), 32))
        for seizing in (True, False):
            batch = ieeg_frame(seizing, icfg, noise, ticks)
            for i, t in enumerate(ticks.tolist()):
                assert np.array_equal(batch[i], ieeg_frame(seizing, icfg, noise[i], t))
                assert np.array_equal(batch[i], ieeg_frame(seizing, icfg, noise[i:i + 1], t)[0])


def test_noise_blocks_follow_each_lane_alone():
    # Budget: 0.5 s. Lanes leave the frame batch at different ticks, across
    # chunk edges and on one; a block is drawn for the lanes framed at its start.
    seeds, frame_len, leave = (5, 6, 7), 8, (3 * engine.NOISE_CHUNK + 5, 40, engine.NOISE_CHUNK)
    noise = _NoiseBlocks([np.random.default_rng(s) for s in seeds], frame_len)
    alone = [np.random.default_rng(s) for s in seeds]
    for t in range(leave[0]):
        lanes = [i for i in range(3) if t < leave[i]]
        rows, at = noise.at(t, lanes)
        for row, i in zip(rows[at], lanes):
            assert np.array_equal(row, alone[i].standard_normal(frame_len))


def test_draws_ahead_follow_per_call_draws():
    # Budget: 0.1 s. Reads cross three chunk edges.
    uniforms = _DrawsAhead(np.random.default_rng(8).random)
    normals = _DrawsAhead(partial(np.random.default_rng(9).normal, 0.0, 0.3))
    alone_u, alone_n = np.random.default_rng(8), np.random.default_rng(9)
    for _ in range(3 * engine.NOISE_CHUNK + 5):
        assert uniforms.random() == alone_u.random()
        assert normals.random() == alone_n.normal(0.0, 0.3)


def test_smoothing_windows_match_np_mean():
    # Budget: 0.5 s. Lanes leave the frame batch at different ticks, before
    # and after their windows fill.
    scenario = beta_scenario()
    rngs = [[np.random.default_rng(s) for s in range(3)] for _ in range(3)]
    sensing = BetaSensing(scenario, rngs)
    assert sensing.smooth == 10
    windows = [deque(maxlen=sensing.smooth) for _ in range(3)]
    leave = (25, 6, 14)
    rng = np.random.default_rng(5)
    for t in range(25):
        idx = [i for i in range(3) if t < leave[i]]
        power = rng.random(len(idx)) * 3.0
        for i, p in zip(idx, power.tolist()):
            windows[i].append(p)
        means = sensing._smoothed(t, idx, power).tolist()
        assert means == [float(np.mean(windows[i])) for i in idx]


# ---------------------------------------------------------------------------
# iEEG sensing per noise block, against the per-tick path
# ---------------------------------------------------------------------------

class PerTickIeegSensing(IeegSensing):
    """Oracle of ``IeegSensing``: every framed lane is framed and featurized on
    each tick, from noise drawn one frame at a time, and the seizure process
    reads its Generator one draw at a time."""

    def __init__(self, scenario, rngs):
        super().__init__(scenario, rngs)
        self.plant_rngs = [lane_rngs[0] for lane_rngs in rngs]
        self.noise_rngs = [lane_rngs[1] for lane_rngs in rngs]

    def sense(self, t, lanes):
        readings = [NO_READING] * len(lanes)
        for lane in lanes:
            i = lane.index
            self.seizures[i], self.seizing[i, t] = seizure_step(
                self.seizures[i], lane.amplitude_mA != 0.0, t, self.dt_s, self.plant_rngs[i],
            )
        framed = _framed(lanes)
        if framed:
            idx = [lanes[j].index for j in framed]
            frames = np.array([
                ieeg_frame(bool(self.seizing[i, t]), self.cfg,
                           self.noise_rngs[i].standard_normal(self.cfg.frame_len), t)
                for i in idx])
            quals = signal_quality(frames, self.saturation_uV)
            values = [np.asarray(tool_feature(spec, frames), dtype=float).tolist()
                      for spec in self.tools]
            for row, j in enumerate(framed):
                steps = [det.observe(tool_values[row]) for det, tool_values
                         in zip(self.detectors[lanes[j].index], values)]
                flag = detect([flag for _, _, flag in steps], self.combinator)
                value, threshold, _ = steps[0]
                readings[j] = (value, quals[row], flag, threshold)
        return readings


HALF_WAVE_TOOLS = {"tools": [
    {"feature": "half_wave",
     "half_wave": {"min_amplitude_uV": 40.0, "min_duration_ticks": 2, "max_duration_ticks": 12},
     "threshold": {"mode": "fixed", "value": 2.5, "short_window_ticks": 2}},
    {"feature": "area",
     "threshold": {"mode": "adaptive", "multiplier": 1.5, "long_window_ticks": 40,
                   "short_window_ticks": 3}},
    {"feature": "line_length",
     "threshold": {"mode": "adaptive", "multiplier": 2.0, "long_window_ticks": 80,
                   "short_window_ticks": 4}},
], "combinator": "AND"}

def suppressed_recurring_scenario():
    """About one onset per ten ticks, each detected on its first tick and
    ended by the therapy that starts then, so seizures start mid-block and
    recur in it; the battery reaches end of service after a seed-dependent
    amount of therapy."""
    return scenario_from_dict(ieeg_raw(
        timebase={"dt_s": 0.125, "duration_s": 20.0},
        plant={"seizures": {"rate_per_hour": 3000.0, "base_duration_ticks": 40,
                            "suppression_prob": 1.0, "response_window_ticks": 20},
               "device": {"battery_v": 3.001, "eos_threshold_v": 3.0, "drain_v_per_uC": 1e-5}},
        features={"tools": [{"feature": "line_length", "threshold": {
            "mode": "fixed", "value": 800.0, "short_window_ticks": 1}}], "combinator": "OR"},
    ))


# In each, some lanes seize (the ictal term); in the reset cases lanes
# leave the frame batch at different ticks.
BLOCK_CASES = {
    "eos_drain": lambda: ieeg_scenario(),
    "suppressed_recurring": suppressed_recurring_scenario,
    "half_wave": lambda: scenario_from_dict(ieeg_raw(
        timebase={"dt_s": 0.125, "duration_s": 20.0}, features=HALF_WAVE_TOOLS)),
    # Ictal frames saturate and the background is flat.
    "saturated_flat": lambda: scenario_from_dict(ieeg_raw(
        timebase={"dt_s": 0.125, "duration_s": 20.0},
        plant={"ieeg": {"background_sd_uV": 0.0, "ictal_amplitude_uV": 6000.0}})),
    **{f"trust_{path}": partial(lambda p: scenario_from_dict(variant_raw("ieeg", p)), path)
       for path in TRUST_PATHS},
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_features_equal_the_per_tick_path(monkeypatch, case):
    # Budget: 1 s per case.
    scenario = BLOCK_CASES[case]()
    batch = sweep(scenario, 5)
    monkeypatch.setitem(engine.SENSING, IeegPlantSpec, PerTickIeegSensing)
    oracle = sweep(scenario, 5)
    assert [texts(r) for r in batch] == [texts(r) for r in oracle]
    assert any(r.seizing.any() for r in batch)
    if case == "saturated_flat":
        flags = {f for r in batch for q in r.quality for f in q.split("+")}
        assert {QUALITY_SATURATED, QUALITY_FLATLINE} <= flags, flags


PREFIX_CASES = {**{f"ieeg_{c}": (IeegSensing, BLOCK_CASES[c]) for c in BLOCK_CASES
                   if c != "half_wave"},
                "beta_eos_drain": (BetaSensing, lambda: beta_scenario()),
                **{f"beta_trust_{path}": (BetaSensing, partial(
                    lambda p: scenario_from_dict(variant_raw("beta", p)), path))
                   for path in TRUST_PATHS}}


@pytest.mark.parametrize("case", PREFIX_CASES)
def test_framed_ticks_are_a_prefix(monkeypatch, case):
    # Budget: 1 s per case. The framed lanes share one noise-block cursor,
    # t % NOISE_CHUNK, which holds because a lane framed on tick t was framed
    # on every tick before it: reset modes latch.
    sensing, make = PREFIX_CASES[case]
    framed = {}
    sense = sensing.sense

    def recording(self, t, lanes):
        for j in _framed(lanes):
            framed.setdefault(lanes[j].index, []).append(t)
        return sense(self, t, lanes)

    monkeypatch.setattr(sensing, "sense", recording)
    in_one_batch(monkeypatch)
    batch = sweep(make(), 5)
    for i, r in enumerate(batch):
        ticks = framed.get(i, [])
        assert ticks == list(range(len(ticks))), i
        resets = [t for t, m in enumerate(r.mode) if m in RESET_MODES]
        assert len(ticks) == (resets[0] + 1 if resets else r.n_ticks), i


def framed_ticks(result) -> int:
    """How many ticks a lane was framed: up to its first reset tick, inclusive."""
    reset = reset_tick(result)
    return result.n_ticks if reset is None else reset + 1


def seizure_runs(seizing) -> list:
    """(first, end) of each run of seizing ticks."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], seizing, [0])).astype(np.int8)))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def test_seizures_that_recur_in_a_block_and_a_reset_mid_block():
    # Budget: 1 s. A lane's ictal frames from its first seizing tick in a
    # block to the block's end serve every later seizure of that block.
    scenario = suppressed_recurring_scenario()
    batch = assert_lanes_match_serial(scenario, 4)
    base = scenario.plant.seizures.base_duration_ticks
    recurring = []   # (lane, first tick) of a suppressed seizure followed in its block
    for i, r in enumerate(batch):
        runs = seizure_runs(r.seizing[:framed_ticks(r)])
        recurring += [(i, a) for (a, b), (c, _) in zip(runs, runs[1:])
                      if a % engine.NOISE_CHUNK and b - a < base
                      and a // engine.NOISE_CHUNK == c // engine.NOISE_CHUNK]
    assert recurring
    resets = [reset_tick(r) for r in batch]
    assert any(t is not None and t % engine.NOISE_CHUNK for t in resets), resets
    assert None in resets, resets


def test_ieeg_frames_once_per_block_and_per_seizure_segment(monkeypatch):
    # Budget: 1.5 s. The 16 lanes perfbench traces on sweep_rns at base seed 0.
    calls = []   # (seizing, the ticks) of each call
    frame = engine.ieeg_frame

    def recording(seizing, cfg, noise, tick):
        calls.append((seizing, np.atleast_1d(tick).tolist()))
        return frame(seizing, cfg, noise, tick)

    monkeypatch.setattr(engine, "ieeg_frame", recording)
    in_one_batch(monkeypatch)
    batch = sweep(scenario_from_dict(reference_raw("rns_epilepsy")), 16)
    framed = [framed_ticks(r) for r in batch]
    firsts = {}   # (lane, block) -> the lane's first seizing tick in the block
    for i, r in enumerate(batch):
        for t in np.flatnonzero(r.seizing[:framed[i]]).tolist():
            firsts.setdefault((i, t // engine.NOISE_CHUNK), t)
    quiet = [ticks for ictal, ticks in calls if not ictal]
    segments = [ticks for ictal, ticks in calls if ictal]
    assert quiet == [[t] for t in range(0, max(framed), engine.NOISE_CHUNK)]
    assert sorted(segments) == sorted(list(range(t, (block + 1) * engine.NOISE_CHUNK))
                                      for (_, block), t in firsts.items())
    assert (len(quiet), len(segments)) == (120, 91)

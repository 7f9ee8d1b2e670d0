"""The deterministic run loop and the mode-comparison driver.

Each tick advances the loop in a fixed order:

    plant + features -> trust checks -> supervisor -> policy -> budgets
          -> clamp/slew -> actuator -> device

so a run's outputs are a pure function of (scenario, seed). The plant draws
its randomness from child streams spawned from the scenario seed — one for
the physiological process, one for signal synthesis, one for sensor noise —
so plant realizations do not shift when the controller behaves differently.

One loop runs S lanes in lockstep: scenarios that differ in seed and policy
only. ``sweep`` runs one lane per seed, ``compare_modes`` runs the automated
and the fixed arm as two lanes, and ``run_scenario`` is the case S = 1.
``sweep`` cuts its seeds into one contiguous batch per usable core: batch 0
runs here, each other batch in a forked child that pickles its results back.
With one batch, without ``os.fork`` or while another thread is alive, every
lane runs here in one loop.
Frames and features run at once for every lane not in a reset mode: beta
frames (``beta_lfp_frame``, ``signal_quality``, ``band_power``) each tick,
their tick-only terms from a ``BetaTickTable`` built per 64-tick block; iEEG
background frames (``ieeg_frame`` not seizing), their quality and tool
features once per NOISE_CHUNK-tick noise block, and a seizing lane's ictal
frames once per block it seizes in, from its first seizing tick there to the
block's end (``ieeg_frame`` seizing, at per-row ticks). Frame quality is
judged at the device's amplifier saturation. The other stages are per lane
and scalar: the seizure process, the detectors, evoked-response sensing
(which has no frames), trust checks, supervisor, policy, budgets,
clamp/slew, actuator and device. A lane's noise (frame rows, seizure
uniforms or evoked-response sensor draws) is drawn NOISE_CHUNK ahead from
its own stream, so every lane's outputs are bit-identical to a run of its
seed alone. Per-tick columns are (S, n_ticks) arrays; each lane's result
holds row views of them.
A lane carries its delivered dose as a float amplitude beside a template
``Dose`` (a policy, fallback or baseline dose) for the pulse width, rate and
contact set; the stages pass the amplitude, so a tick builds no ``Dose``.
The lane owns its run state: the event list the supervisor, budget and
clamp stages append to, and the last-good register LastKnownGood delivers.
Unchanged supervisor, policy, budget and device states are passed on as
they are, the dwell streaks are lane counters, and the device checks re-run
only when the lane's (frozen) device state is a new object or its
delivering contact set changes. The lane caches ``in_reset`` and
``frequency_hz`` as attributes, refreshed when its supervisor state or
template is a new object.

Plant and feature extraction together are one sensing object per plant kind
(``EcapSensing``, ``BetaSensing``, ``IeegSensing``) that reads only the
scenario's plant, which holds its ``features`` section too; every signal
trust check reads the one reading a lane senses. The policy is the
scenario's policy config, whose ``step`` holds the previous command on any
tick whose measurement quality is not OK. The supervisor separately decides
whether enough has gone wrong to leave Automated mode altogether.

A run cannot fault: a ``Scenario`` exists only when validation found nothing,
and its findings exclude every ``SimulationError`` a run reaches (the run
ledger, ``tests/test_run_ledger.py``, says why for each). So an exception from
any stage is a programming error, and it propagates.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .core import (
    EventRecord,
    OK_ONLY,
    SEVERITY_ALERT,
    charge_per_tick,
    teed_rate,
)
from .control import ManualFixed, PolicyState
from .features import (
    QUALITY_TEXT,
    Detector,
    band_power,
    detect,
    ecap_range_check,
    signal_quality,
    tool_feature,
)
from .metrics import CLAMP_CODES, Metrics, step_response_metrics
from .plant import (
    BetaTickTable,
    actuator_apply,
    beta_lfp_frame,
    device_step,
    distance_profile,
    ecap_true,
    ieeg_frame,
    seizure_step,
)
from .safety import (
    EVENT_TRUST_FAIL,
    MODE_AUTOMATED,
    MODE_FALLBACK,
    SupervisorState,
    clamp_and_slew,
    failed_device_checks,
    fallback_dose,
    supervisor_step,
    therapy_and_episode_budget_step,
    trust_check_step,
)
from .scenario import BetaPlantSpec, EcapPlantSpec, IeegPlantSpec, Scenario, scenario_from_dict

NO_READING = (None, OK_ONLY, False, None)   # what a lane in a reset mode senses

NOISE_CHUNK = 32   # frames (ecap: sensor draws) of noise drawn ahead per lane


@dataclass
class RunResult:
    """Everything one run produces: time series, event log, metrics."""

    scenario: Scenario
    biomarker: np.ndarray          # NaN where no measurement was taken
    quality: list
    setpoint: np.ndarray           # NaN where the policy has no setpoint yet
    commanded_mA: np.ndarray
    delivered_mA: np.ndarray
    mode: list
    distance_mm: Optional[np.ndarray]
    seizing: Optional[np.ndarray]
    teed_cum: np.ndarray
    events: list                   # EventRecord, in emission order
    metrics: Metrics
    initial_delivered_mA: float
    aborted = False   # a run cannot fault; summary.json keeps the key

    @property
    def n_ticks(self) -> int:
        return self.delivered_mA.size


class _NoiseBlocks:
    """Standard-normal frame noise for the framed lanes, NOISE_CHUNK frames ahead.

    Reset modes latch, so a lane framed on tick t was framed on every tick
    before it: the framed lanes share one cursor, ``t % NOISE_CHUNK``, and on
    a block's first tick each draws its next NOISE_CHUNK rows from its own
    stream, which equals drawing them one by one.
    """

    def __init__(self, rngs: list, frame_len: int) -> None:
        self.rngs = rngs
        self.frame_len = frame_len
        self.rows = None      # the block's rows, lane by lane: (lanes * NOISE_CHUNK, frame_len)
        self.first: dict = {}   # lane index -> its first row in the block

    def at(self, t: int, idx: list) -> tuple[np.ndarray, list]:
        """The block's rows, and the row at tick t of each of ``idx``, the lanes framed at t."""
        k = t % NOISE_CHUNK
        if k == 0:
            rows = np.empty((len(idx), NOISE_CHUNK, self.frame_len))
            for r, i in enumerate(idx):
                self.rngs[i].standard_normal(out=rows[r])
            self.rows = rows.reshape(-1, self.frame_len)
            self.first = {i: r * NOISE_CHUNK for r, i in enumerate(idx)}
        return self.rows, [self.first[i] + k for i in idx]

    def rows_at(self, t: int, idx: list) -> np.ndarray:
        """The row at tick t of each of ``idx``: a strided view of the block
        while every lane it was drawn for is framed, else a gather."""
        rows, at = self.at(t, idx)
        if len(at) * NOISE_CHUNK == len(rows):
            return rows[t % NOISE_CHUNK::NOISE_CHUNK]
        return rows[at]


class _DrawsAhead:
    """One lane's scalar draws, made NOISE_CHUNK at a time by the bulk call
    ``draw(n)`` on its own stream, which equals n calls. ``random()`` returns
    the next, so uniforms stand in for the Generator ``seizure_step`` reads."""

    def __init__(self, draw) -> None:
        self.draw = draw
        self.ahead: list = []   # next draw last

    def random(self) -> float:
        if not self.ahead:
            self.ahead = self.draw(NOISE_CHUNK)[::-1].tolist()
        return self.ahead.pop()


class _Lane:
    """One seed's loop state, and its rows of the batch's per-tick columns.

    ``step`` runs the per-lane stages of one tick, from the trust checks to
    the record.
    """

    def __init__(self, index: int, scenario: Scenario, columns: dict, magnet: list) -> None:
        n = scenario.timebase.n_ticks
        self.index = index
        self.scenario = scenario
        self.magnet = magnet
        self.sup = SupervisorState()
        self.in_reset = self.sup.in_reset   # refreshed when sup changes
        self.default_threshold = scenario.policy.setpoint   # recorded when sensing gives none
        self.fail_streak = self.pass_streak = 0
        self.checked_device = self.checked_contact = None   # what device_fails is for
        self.device_fails = 0
        self.pol_state = PolicyState()
        self.budgets = scenario.budgets
        self.device = scenario.device
        self.log: list = []
        # The delivered amplitude, and the dose whose timing and contacts it has.
        self.template = baseline = scenario.baseline_dose
        self.frequency_hz = baseline.frequency_hz   # the delivered rate, refreshed with template
        self.amplitude_mA = actuator_apply(baseline.amplitude_mA, baseline, scenario.device)
        self.initial_delivered = self.amplitude_mA
        self.last_good: Optional[tuple] = None   # (amplitude, template) for LastKnownGood
        self.teed = 0.0
        self.biomarker = columns["biomarker"][index]
        self.setpoint = columns["setpoint"][index]
        self.commanded_mA = columns["commanded_mA"][index]
        self.delivered_mA = columns["delivered_mA"][index]
        self.teed_cum = columns["teed_cum"][index]
        self.quality = [""] * n
        self.mode = [""] * n

    def step(self, t: int, measured, qual, detection, threshold_now) -> None:
        sc = self.scenario
        policy = sc.policy
        device = self.device
        baseline = sc.baseline_dose
        prev = self.amplitude_mA
        template = self.template
        log = self.log
        if threshold_now is None:
            threshold_now = self.default_threshold

        # ---- trust checks -----------------------------------------------
        trust = sc.trust
        if not self.in_reset:
            contact = template.contact_set
            if device is not self.checked_device or contact != self.checked_contact:
                self.checked_device, self.checked_contact = device, contact
                self.device_fails = failed_device_checks(trust, device, contact)
            self.fail_streak, self.pass_streak, failed = trust_check_step(
                trust, qual, measured, self.device_fails, self.fail_streak, self.pass_streak,
            )
            if failed and self.fail_streak == 1:
                log.append(EventRecord(t, SEVERITY_ALERT, EVENT_TRUST_FAIL,
                                       {"checks": trust.names(failed)}))

        # ---- supervisor -------------------------------------------------
        sup = supervisor_step(self.sup, self.fail_streak, self.pass_streak,
                              self.magnet[t], device, trust, sc.fallback, log, t)
        if sup is not self.sup:
            self.sup = sup
            self.in_reset = sup.in_reset
        mode = sup.mode

        # ---- policy -----------------------------------------------------
        therapy_started = False
        if mode == MODE_AUTOMATED:
            # A regulating policy keeps the baseline's timing and contacts,
            # never those of a fallback dose held before re-entry.
            self.pol_state, cmd, template, therapy_started = policy.step(
                self.pol_state, measured, qual, detection, prev, baseline
            )
        elif mode == MODE_FALLBACK:
            cmd, template = fallback_dose(sc.fallback, self.last_good, baseline)
        else:
            # Magnet suspension or a latched reset: a stop, 0 mA from this
            # tick on (clamp_and_slew delivers 0 mA at once, never slewed).
            cmd = 0.0

        # ---- budgets ----------------------------------------------------
        self.budgets, allowed = therapy_and_episode_budget_step(
            self.budgets, detection, therapy_started, log, t)
        if therapy_started and not allowed:
            cmd = 0.0
            self.pol_state = replace(self.pol_state, plan_remaining=0)

        # ---- safety clamps + actuator -----------------------------------
        legal = clamp_and_slew(cmd, template, sc.limits, prev, log, t)
        delivered = actuator_apply(legal, template, device) if legal else 0.0

        # A "known good" dose is one the automated loop chose while trust
        # passed; forced-off doses (suspend/reset) never qualify. It changes
        # only in Automated, so in Fallback it holds the dose held on entry.
        if mode == MODE_AUTOMATED and self.fail_streak == 0:
            self.last_good = (delivered, template)

        # ---- device -----------------------------------------------------
        # 0 mA delivers +0.0 charge and adds +0.0 energy, so a stopped lane
        # skips that arithmetic; the device still steps, so a ramp advances.
        if delivered:
            dt_s = sc.timebase.dt_s
            self.device = device_step(device, charge_per_tick(delivered, template, dt_s))
            self.teed += teed_rate(delivered, template) * dt_s
        else:
            self.device = device_step(device, 0.0)

        # ---- record -----------------------------------------------------
        if measured is not None:
            self.biomarker[t] = measured
            self.quality[t] = QUALITY_TEXT[qual]
        if threshold_now is not None:
            self.setpoint[t] = threshold_now
        self.commanded_mA[t] = cmd
        self.delivered_mA[t] = delivered
        self.mode[t] = mode
        self.teed_cum[t] = self.teed
        self.amplitude_mA = delivered
        if template is not self.template:
            self.template = template
            self.frequency_hz = template.frequency_hz

    def result(self, sensing: "_Sensing") -> RunResult:
        sc = self.scenario
        n = sc.timebase.n_ticks
        biomarker = self.biomarker

        mcfg = sc.metrics_cfg
        time_in_range: Optional[float] = None
        if mcfg.biomarker_range is not None:
            lo, hi = mcfg.biomarker_range
            in_range = (biomarker >= lo) & (biomarker <= hi)
            time_in_range = float(np.count_nonzero(in_range)) / n

        sr = None
        if mcfg.step_response is not None and n > mcfg.step_response.step_tick:
            target = sc.policy.target
            if target is not None and target != 0:
                sr = step_response_metrics(
                    biomarker, target, mcfg.step_response.step_tick,
                    mcfg.step_response.tol_frac, sc.timebase.dt_s,
                )

        seizure_count, early, seizure_ticks = sensing.seizure_counts(self.index)
        codes = Counter(e.code for e in self.log)
        run_metrics = Metrics(
            teed_total=self.teed,
            time_in_range_frac=time_in_range,
            seizure_count=seizure_count,
            seizure_ticks_total=seizure_ticks,
            early_termination_count=early,
            fallback_frac=self.mode.count(MODE_FALLBACK) / n,
            limit_clamp_count=sum(codes[c] for c in CLAMP_CODES),
            step_response=sr,
        )
        seizing = sensing.seizing
        return RunResult(
            scenario=sc,
            biomarker=biomarker,
            quality=self.quality,
            setpoint=self.setpoint,
            commanded_mA=self.commanded_mA,
            delivered_mA=self.delivered_mA,
            mode=self.mode,
            distance_mm=sensing.distance_mm,
            seizing=None if seizing is None else seizing[self.index],
            teed_cum=self.teed_cum,
            events=self.log,
            metrics=run_metrics,
            initial_delivered_mA=self.initial_delivered,
        )


class _Sensing:
    """Plant plus feature extraction for one plant kind, built once per batch.

    ``sense(t, lanes)`` advances the plant one tick for each of ``lanes``
    (every lane, in lane order, so ``lanes[i].index == i``) and returns one
    reading per lane: (measured, quality, detection, threshold), that is the
    biomarker or None when no measurement was taken (always None in a reset
    mode), its quality flags, the combined detection flag, and the detection
    threshold or None.
    """

    distance_mm: Optional[np.ndarray] = None   # (n_ticks,) column shared by all lanes
    seizing: Optional[np.ndarray] = None       # (S, n_ticks) column, one row per lane

    def seizure_counts(self, i: int) -> tuple[int, int, int]:
        """Lane i's (onsets, early terminations, seizing ticks)."""
        return 0, 0, 0


def _framed(lanes: list) -> list:
    """The indices of the lanes that take a frame this tick: those not in a reset mode."""
    return [i for i, lane in enumerate(lanes) if not lane.in_reset]


class EcapSensing(_Sensing):
    """Evoked-response amplitude at the last delivered dose, range-checked, per lane."""

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        plant = scenario.plant
        self.params = plant.params
        self.noise_sd = plant.sensor_noise_sd_uV
        self.saturation_uV = scenario.device.amplifier_saturation_uV
        self.noise = [_DrawsAhead(partial(lane_rngs[2].normal, 0.0, self.noise_sd))
                      for lane_rngs in rngs]   # sensor noise, from each lane's third stream
        self.distance_mm = distance_profile(plant.track, plant.base_distance_mm,
                                            scenario.timebase.n_ticks)

    def sense(self, t: int, lanes: list) -> list:
        distance = float(self.distance_mm[t])
        readings = []
        for lane in lanes:
            if lane.in_reset:
                readings.append(NO_READING)
                continue
            est = ecap_true(lane.amplitude_mA, distance, self.params)
            if self.noise_sd > 0:
                est += self.noise[lane.index].random()
            measured, qual = ecap_range_check(est, self.saturation_uV)
            readings.append((measured, qual, False, None))
        return readings


class BetaSensing(_Sensing):
    """Beta-band power of synthesized LFP frames, smoothed by a running mean."""

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        plant = scenario.plant
        self.cfg = plant.cfg
        self.table = BetaTickTable(self.cfg)
        self.band = (plant.band_lo_hz, plant.band_hi_hz)
        self.noise = _NoiseBlocks([lane_rngs[1] for lane_rngs in rngs], self.cfg.frame_len)
        self.saturation_uV = scenario.device.amplifier_saturation_uV
        # Each lane's last ``smooth`` band powers, oldest first, right-aligned.
        # A run never holds more than n_ticks of them.
        tb = scenario.timebase
        self.smooth = round(max(1, min(plant.smooth_s / tb.dt_s, tb.n_ticks)))
        self.window = np.zeros((len(rngs), self.smooth))

    def sense(self, t: int, lanes: list) -> list:
        readings = [NO_READING] * len(lanes)
        framed = _framed(lanes)
        if framed:
            frames = beta_lfp_frame([lanes[i] for i in framed], t, self.table,
                                    self.noise.rows_at(t, framed))
            quals = signal_quality(frames, self.saturation_uV)
            power = band_power(frames, *self.band, self.cfg.fs_hz)
            for i, value, qual in zip(framed, self._smoothed(t, framed, power).tolist(), quals):
                readings[i] = (value, qual, False, None)
        return readings

    def _smoothed(self, t: int, idx: list, power: np.ndarray) -> np.ndarray:
        """Push each framed lane's new power; the mean of each one's window.

        A framed lane was framed on every tick so far (see ``_NoiseBlocks``),
        so its window holds min(t + 1, smooth) powers. A window is
        right-aligned, so they are a slice of the row. A row sum along the
        last axis, then a division, is what ``np.mean`` does to a 1-D window.
        """
        w = self.window
        rows = idx if len(idx) < len(w) else slice(None)
        w[rows, :-1] = w[rows, 1:]
        w[rows, -1] = power
        fill = min(t + 1, self.smooth)
        return np.add.reduce(w[rows, -fill:], axis=-1) / fill


class IeegSensing(_Sensing):
    """Seizure process plus detection tools on synthesized iEEG frames.

    The seizure process and the detectors are per lane; the seizure process
    advances even in a reset mode, where no frame is recorded. Frames and
    their (quality, tool values) are computed ahead, per noise block: on its
    first tick, the background frames (nobody seizing) of every block row;
    on the first tick t at which a framed lane seizes with no ictal reading
    for its row, the ictal frames of that lane's rows from t to the block's
    end, in one call. An ictal row depends only on its tick and its noise
    row, so a seizure that ends early leaves rows unread, and one that
    recurs in the block reads them. The biomarker is the first tool's
    smoothed feature value.
    """

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        plant = scenario.plant
        self.cfg = plant.cfg
        self.dt_s = scenario.timebase.dt_s
        self.seizures = [plant.seizures] * len(rngs)
        self.uniforms = [_DrawsAhead(lane_rngs[0].random) for lane_rngs in rngs]
        self.noise = _NoiseBlocks([lane_rngs[1] for lane_rngs in rngs], self.cfg.frame_len)
        self.quiet: list = []   # per block row: its background (quality, tool values)
        self.ictal: list = []   # per block row: its ictal (quality, tool values), or None
        self.tools = plant.tools
        self.detectors = [[Detector(spec) for spec in self.tools] for _ in rngs]
        self.combinator = plant.combinator
        self.saturation_uV = scenario.device.amplifier_saturation_uV
        self.seizing = np.zeros((len(rngs), scenario.timebase.n_ticks), dtype=bool)

    def _features(self, frames: np.ndarray) -> list:
        """Each row's (quality, tool values), for an (m, frame_len) array."""
        values = [np.asarray(tool_feature(spec, frames), dtype=float).tolist()
                  for spec in self.tools]
        return list(zip(signal_quality(frames, self.saturation_uV), zip(*values)))

    def sense(self, t: int, lanes: list) -> list:
        readings = [NO_READING] * len(lanes)
        ictal = set()   # the lanes seizing at t
        for i, lane in enumerate(lanes):
            self.seizures[i], now = seizure_step(
                self.seizures[i], lane.amplitude_mA != 0.0, t, self.dt_s, self.uniforms[i],
            )
            if now:   # the column is False until a lane seizes
                self.seizing[i, t] = True
                ictal.add(i)
        framed = _framed(lanes)
        if not framed:
            return readings
        rows, at = self.noise.at(t, framed)
        k = t % NOISE_CHUNK
        if k == 0:
            quiet = ieeg_frame(False, self.cfg, rows, t)
            self.quiet = self._features(quiet)
            self.ictal = [None] * len(rows)
        more = range(1, len(self.tools))
        for i, r in zip(framed, at):
            if i in ictal:
                if self.ictal[r] is None:   # frame the lane's rows at ticks t .. the block's end
                    end = r + NOISE_CHUNK - k
                    frames = ieeg_frame(True, self.cfg, rows[r:end], np.arange(t, t + end - r))
                    self.ictal[r:end] = self._features(frames)
                qual, values = self.ictal[r]
            else:
                qual, values = self.quiet[r]
            dets = self.detectors[i]
            value, threshold, flag = dets[0].observe(values[0])
            flags = [flag]
            for m in more:
                flags.append(dets[m].observe(values[m])[2])
            readings[i] = (value, qual, detect(flags, self.combinator), threshold)
        return readings

    def seizure_counts(self, i: int) -> tuple[int, int, int]:
        s = self.seizures[i]
        return s.onset_count, s.early_termination_count, int(self.seizing[i].sum())


SENSING = {EcapPlantSpec: EcapSensing, BetaPlantSpec: BetaSensing, IeegPlantSpec: IeegSensing}

COLUMNS = {   # per-tick float columns and their value before a tick records
    "biomarker": np.nan,
    "setpoint": np.nan,
    "commanded_mA": 0.0,
    "delivered_mA": 0.0,
    "teed_cum": 0.0,
}


def _run_lanes(scenarios: list) -> list[RunResult]:
    """Run scenarios that differ in seed and policy only in lockstep, one lane each.

    Everything the batched sensing reads comes from the first scenario:
    plant (with its features), timebase, device and magnet schedule.
    """
    first = scenarios[0]
    n = first.timebase.n_ticks
    # Child streams per lane: physiological process, frame synthesis, measurement noise.
    rngs = [
        [np.random.default_rng(s) for s in np.random.SeedSequence(sc.seed).spawn(3)]
        for sc in scenarios
    ]
    sensing = SENSING[type(first.plant)](first, rngs)

    magnet = np.zeros(n, dtype=bool)
    for iv in first.magnet_intervals:
        magnet[iv.start_tick:min(iv.end_tick, n)] = True
    magnet = magnet.tolist()

    columns = {name: np.full((len(scenarios), n), fill) for name, fill in COLUMNS.items()}
    lanes = [_Lane(i, sc, columns, magnet) for i, sc in enumerate(scenarios)]

    for t in range(n):
        for lane, reading in zip(lanes, sensing.sense(t, lanes)):
            lane.step(t, *reading)
    return [lane.result(sensing) for lane in lanes]


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a validated scenario; outputs are determined by (scenario, seed).

    This is the lockstep loop with one lane. A run cannot fault, so any
    exception a stage raises is a programming error and propagates.
    """
    return _run_lanes([scenario])[0]


def fixed_arm_scenario(scenario: Scenario) -> Scenario:
    """The manual-loop twin: same plant and seed, policy pinned to the baseline dose."""
    raw = scenario.raw
    return scenario_from_dict({
        **raw,
        "name": scenario.name + "_fixed",
        "policy": {"kind": "ManualFixed", "dose": raw["baseline_dose"]},
    })


@dataclass
class ModeComparison:
    """Paired metrics: configured automated policy versus fixed-output baseline."""

    automated: RunResult
    fixed: RunResult
    target: Optional[float]
    automated_variance_about_target: Optional[float]
    fixed_variance_about_target: Optional[float]

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "automated": {
                "metrics": self.automated.metrics.to_dict(),
                "variance_about_target": self.automated_variance_about_target,
            },
            "fixed": {
                "metrics": self.fixed.metrics.to_dict(),
                "variance_about_target": self.fixed_variance_about_target,
            },
        }


def _variance_about(series: np.ndarray, target: float) -> float:
    """inf where the squares overflow; the CLI reports that as an output error."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = series - target
        return float(np.nanmean(dev * dev))


def compare_modes(scenario: Scenario) -> ModeComparison:
    """Run the scenario as configured and as a fixed-output manual loop.

    The arms are two lanes of one loop with the identical seed, so plant
    disturbance realizations match tick for tick; the only difference is
    who sets the dose. Each arm equals a ``run_scenario`` of it alone.
    """
    if isinstance(scenario.policy, ManualFixed):
        raise ValueError("compare_modes needs an automated policy to compare against")
    auto, fixed = _run_lanes([scenario, fixed_arm_scenario(scenario)])
    target = scenario.policy.target
    va = _variance_about(auto.biomarker, target) if target is not None else None
    vf = _variance_about(fixed.biomarker, target) if target is not None else None
    return ModeComparison(
        automated=auto,
        fixed=fixed,
        target=target,
        automated_variance_about_target=va,
        fixed_variance_about_target=vf,
    )


def usable_cores() -> int:
    """The cores this process may run on: the most batches ``sweep`` forms."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _ForkedBatch:
    """One batch of lanes run by ``_run_lanes`` in a forked child.

    The child pickles ``("ok", results)`` or ``("err", exception)`` into a
    pipe and exits; a child that cannot do so exits with status 1.
    """

    def __init__(self, scenarios: list) -> None:
        self.seeds = f"seeds {scenarios[0].seed}..{scenarios[-1].seed}"
        self.status = None   # exit status, once reaped
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:   # the child: never returns
            status = 1
            try:
                os.close(read)
                with os.fdopen(write, "wb") as fh:
                    try:
                        outcome = ("ok", _run_lanes(scenarios))
                    except BaseException as e:   # the parent re-raises it
                        outcome = ("err", e)
                    pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.fh = os.fdopen(read, "rb")

    def results(self) -> list[RunResult]:
        """The batch's results, or the child's exception with its seeds noted."""
        try:
            tag, payload = pickle.load(self.fh)
        except Exception as e:   # end of file, a cut stream or an object that cannot be rebuilt
            raise RuntimeError(f"sweep worker for {self.seeds} exited with status "
                               f"{self.reap()} without a result") from e
        if tag == "err":
            note = f"raised by the sweep worker for {self.seeds}"
            if not hasattr(payload, "add_note"):   # Python 3.10
                raise RuntimeError(note) from payload
            payload.add_note(note)
            raise payload
        return payload

    def reap(self, kill: bool = False) -> int:
        """Wait for the child (killing it first if ``kill``) once; its exit status."""
        if self.status is None:
            self.fh.close()
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


def sweep(scenario: Scenario, n_seeds: int) -> list[RunResult]:
    """Run ``n_seeds`` independent replicates seeded base, base+1, ...

    The seeds are split into ``min(usable_cores(), n_seeds)`` contiguous
    batches, each run in lockstep, one lane per seed. Batch 0 runs in this
    process; each other batch runs in a forked child that pickles its
    results, or its exception, back through a pipe. Every child is reaped
    before ``sweep`` returns or raises. With one batch, without ``os.fork``,
    or while another thread is alive (a fork would copy locks it may hold),
    every batch runs here. Each result equals a ``run_scenario`` of its
    seed, so the output does not depend on the split.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    scenarios = [scenario.with_seed(scenario.seed + i) for i in range(n_seeds)]
    k = min(usable_cores(), n_seeds)
    if k == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _run_lanes(scenarios)
    cuts = [n_seeds * b // k for b in range(k + 1)]
    batches = [scenarios[a:b] for a, b in zip(cuts, cuts[1:])]
    children = []
    try:
        for batch in batches[1:]:
            children.append(_ForkedBatch(batch))
        results = _run_lanes(batches[0])
        for child in children:
            results += child.results()
        return results
    finally:
        for child in children:
            child.reap(kill=True)

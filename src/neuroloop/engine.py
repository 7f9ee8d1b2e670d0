"""The deterministic run loop and the mode-comparison driver.

Each tick advances the loop in a fixed order:

    plant + features -> trust checks -> supervisor -> policy -> budgets
          -> clamp/slew -> actuator -> device

so a run's outputs are a pure function of (scenario, seed). The plant draws
its randomness from child streams spawned from the scenario seed — one for
the physiological process, one for signal synthesis, one for sensor noise —
so plant realizations do not shift when the controller behaves differently.

One loop runs S lanes in lockstep: the same scenario under S seeds.
``sweep`` runs one lane per seed and ``run_scenario`` is the case S = 1.
Each tick, frame synthesis (``beta_lfp_frame``/``ieeg_frame``) and the frame
features (``signal_quality``, ``band_power``, the detection tools' features)
run once on an (S, frame_len) array holding the frames of every lane that is
not in a reset mode. The beta frames' tick-only terms come from the sensing
object's ``BetaTickTable``, built once per 64-tick block for all lanes, so
their cost does not grow with the lane count. The other stages are per lane
and scalar: the seizure process, the detectors' windows and thresholds,
evoked-response sensing (which has no frames), trust checks, supervisor,
policy, budgets, clamp/slew, actuator and device. A lane's frame noise comes from its own
pre-drawn standard-normal rows, whose cursor moves only when that lane
takes a frame, so every lane's outputs are bit-identical to a run of its
seed alone. Per-tick columns are (S, n_ticks) arrays; each lane's result
holds row views of them. A lane-tick builds a state or dose object only
where a value changes: a held dose, an unchanged supervisor mode, an idle
policy or budget and a device that drains nothing are passed on as they are.
The trust dwell streaks are plain counters on the lane, and the device
checks re-run only when the lane's (frozen) device state is a new object.

Plant and feature extraction together are one sensing object per plant kind
(``EcapSensing``, ``BetaSensing``, ``IeegSensing``); the policy is the
scenario's policy config, whose ``step`` holds the previous command on any
tick whose measurement quality is not OK. The supervisor separately decides
whether enough has gone wrong to leave Automated mode altogether.

Aborts: a ``SimulationError`` raised by a per-lane stage aborts only that
lane, with a RUN_FAULT event at that tick and outputs truncated before it,
as a run of its seed alone would. One raised by a batched stage can only
come from configuration every lane shares, so it aborts every lane that
took part in that call. Any other exception is a programming error and
propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    Dose,
    EventRecord,
    QUALITY_OK,
    SEVERITY_ALERT,
    SEVERITY_FAULT,
    SimulationError,
    charge_per_tick,
    teed_rate,
)
from .control import ManualFixed, PolicyState
from .features import (
    Detector,
    SignalQualityLimits,
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
    EVENT_RUN_FAULT,
    EVENT_TRUST_FAIL,
    EventLog,
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

OK_ONLY = frozenset({QUALITY_OK})
NO_READING = (None, OK_ONLY, False, None)   # what a lane in a reset mode senses

NOISE_CHUNK = 32   # frames of noise drawn ahead per lane


@lru_cache(maxsize=32)   # one entry per subset of the five quality flags
def _quality_text(qual: frozenset) -> str:
    """A quality flag set as its timeseries.csv cell."""
    return "+".join(sorted(qual))


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
    events: EventLog
    metrics: Metrics
    initial_delivered_mA: float
    aborted: bool = False

    @property
    def n_ticks(self) -> int:
        return self.delivered_mA.size


class _NoiseRows:
    """Standard-normal frame noise for every lane, drawn NOISE_CHUNK frames ahead.

    Lane i has its own stream and cursor; the cursor moves only when lane i
    takes a frame. A bulk draw from a PCG64 stream equals the same draws made
    one frame at a time, so each lane reads exactly what a run of its seed
    alone would.
    """

    def __init__(self, rngs: list, frame_len: int) -> None:
        self.rngs = rngs
        self.rows = np.empty((len(rngs), NOISE_CHUNK, frame_len))
        self.cursor = np.full(len(rngs), NOISE_CHUNK)

    def take(self, lanes: np.ndarray) -> np.ndarray:
        """The next noise row of each of ``lanes``, as a (len(lanes), frame_len) array."""
        cursor = self.cursor[lanes]
        for i in lanes[cursor == NOISE_CHUNK].tolist():
            self.rngs[i].standard_normal(out=self.rows[i])
            self.cursor[i] = 0
        cursor = self.cursor[lanes]
        self.cursor[lanes] = cursor + 1
        return self.rows[lanes, cursor]


class _Lane:
    """One seed's loop state, and its rows of the batch's per-tick columns.

    ``step`` runs the per-lane stages of one tick, from the trust checks to
    the record. ``fault`` aborts the lane at a tick.
    """

    def __init__(self, index: int, scenario: Scenario, columns: dict, magnet: list,
                 measures_ecap: bool) -> None:
        n = scenario.timebase.n_ticks
        self.index = index
        self.scenario = scenario
        self.magnet = magnet
        self.measures_ecap = measures_ecap
        self.sup = SupervisorState()
        self.fail_streak = self.pass_streak = 0
        self.checked_device = None   # the device whose checks device_fails holds
        self.device_fails = 0
        self.pol_state = PolicyState()
        self.budgets = scenario.budgets
        self.device = scenario.device
        self.log = EventLog()
        self.prev_delivered = actuator_apply(scenario.baseline_dose, scenario.device)
        self.initial_delivered = self.prev_delivered.amplitude_mA
        self.last_good: Optional[Dose] = None
        self.teed = 0.0
        self.fallback_ticks = 0
        self.n = n               # ticks completed; the abort tick once aborted
        self.aborted = False
        self.biomarker = columns["biomarker"][index]
        self.setpoint = columns["setpoint"][index]
        self.commanded_mA = columns["commanded_mA"][index]
        self.delivered_mA = columns["delivered_mA"][index]
        self.teed_cum = columns["teed_cum"][index]
        self.quality = [""] * n
        self.mode = [""] * n

    @property
    def in_reset(self) -> bool:
        return self.sup.in_reset

    def fault(self, t: int, e: SimulationError) -> None:
        """Abort at tick t: an invariant breached, so stop, never corrupt."""
        self.log.append(
            EventRecord(t, SEVERITY_FAULT, EVENT_RUN_FAULT, {"error": f"{type(e).__name__}: {e}"})
        )
        self.aborted = True
        self.n = t
        del self.quality[t:], self.mode[t:]

    def step(self, t: int, measured, qual, detection, threshold_now) -> None:
        sc = self.scenario
        policy = sc.policy
        device = self.device
        baseline = sc.baseline_dose
        prev_delivered = self.prev_delivered
        log = self.log
        sup = self.sup
        in_reset = sup.in_reset
        if threshold_now is None:
            threshold_now = policy.setpoint

        # ---- trust checks -----------------------------------------------
        trust = sc.trust
        if not in_reset:
            if device is not self.checked_device:
                self.checked_device = device
                self.device_fails = failed_device_checks(trust, device, baseline.contact_set)
            self.fail_streak, self.pass_streak, failed = trust_check_step(
                trust, qual, measured if self.measures_ecap else None, measured,
                self.device_fails, self.fail_streak, self.pass_streak,
            )
            if failed and self.fail_streak == 1:
                log.append(EventRecord(t, SEVERITY_ALERT, EVENT_TRUST_FAIL,
                                       {"checks": trust.names(failed)}))

        # ---- supervisor -------------------------------------------------
        sup, sup_events = supervisor_step(
            sup, self.fail_streak, self.pass_streak, self.magnet[t], device, trust,
            sc.fallback, t, last_good_candidate=self.last_good,
        )
        self.sup = sup
        log.extend(sup_events)
        mode = sup.mode

        # ---- policy -----------------------------------------------------
        therapy_started = False
        if mode == MODE_AUTOMATED:
            self.pol_state, cmd, therapy_started = policy.step(
                self.pol_state, measured, qual, detection, prev_delivered
            )
        elif mode == MODE_FALLBACK:
            cmd = fallback_dose(sc.fallback, sup, baseline)
            self.fallback_ticks += 1
        else:
            # Magnet suspension or a latched reset: stimulation off.
            cmd = prev_delivered.with_amplitude(0.0)

        # ---- budgets ----------------------------------------------------
        self.budgets, allowed, budget_events = therapy_and_episode_budget_step(
            self.budgets, detection, therapy_started, t
        )
        log.extend(budget_events)
        if therapy_started and not allowed:
            cmd = cmd.off()
            self.pol_state = replace(self.pol_state, plan_remaining=0)

        # ---- safety clamps + actuator -----------------------------------
        legal, clamp_events = clamp_and_slew(cmd, sc.limits, prev_delivered, t)
        log.extend(clamp_events)
        delivered = actuator_apply(legal, device)

        # A "known good" dose is one the automated loop chose while trust
        # passed; forced-off doses (suspend/reset) never qualify.
        if mode == MODE_AUTOMATED and self.fail_streak == 0:
            self.last_good = delivered

        # ---- device -----------------------------------------------------
        self.device = device_step(device, charge_per_tick(delivered, sc.timebase.dt_s))
        self.teed += teed_rate(delivered) * sc.timebase.dt_s

        # ---- record -----------------------------------------------------
        if measured is not None:
            self.biomarker[t] = measured
            self.quality[t] = _quality_text(qual)
        if threshold_now is not None:
            self.setpoint[t] = threshold_now
        self.commanded_mA[t] = cmd.amplitude_mA
        self.delivered_mA[t] = delivered.amplitude_mA
        self.mode[t] = mode
        self.teed_cum[t] = self.teed
        self.prev_delivered = delivered

    def result(self, sensing: "_Sensing") -> RunResult:
        n = self.n
        sc = self.scenario
        biomarker = self.biomarker[:n]

        mcfg = sc.metrics_cfg
        time_in_range: Optional[float] = None
        if mcfg.biomarker_range is not None and n > 0:
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

        seizure_count, early, seizure_ticks = sensing.seizure_counts(self.index, n)
        run_metrics = Metrics(
            teed_total=self.teed,
            time_in_range_frac=time_in_range,
            seizure_count=seizure_count,
            seizure_ticks_total=seizure_ticks,
            early_termination_count=early,
            fallback_frac=self.fallback_ticks / n if n else 0.0,
            limit_clamp_count=sum(self.log.count(c) for c in CLAMP_CODES),
            step_response=sr,
        )
        distance = sensing.distance_mm
        seizing = sensing.seizing
        return RunResult(
            scenario=sc,
            biomarker=biomarker,
            quality=self.quality,
            setpoint=self.setpoint[:n],
            commanded_mA=self.commanded_mA[:n],
            delivered_mA=self.delivered_mA[:n],
            mode=self.mode,
            distance_mm=None if distance is None else distance[:n],
            seizing=None if seizing is None else seizing[self.index, :n],
            teed_cum=self.teed_cum[:n],
            events=self.log,
            metrics=run_metrics,
            initial_delivered_mA=self.initial_delivered,
            aborted=self.aborted,
        )


class _Sensing:
    """Plant plus feature extraction for one plant kind, built once per batch.

    ``sense(t, lanes)`` advances the plant one tick for each of ``lanes``
    (the lanes not aborted, in lane order) and returns one reading per lane:
    (measured, quality, detection, threshold), that is the biomarker or None
    when no measurement was taken (always None in a reset mode), its quality
    flags, the combined detection flag, and the detection threshold or None.
    A per-lane stage that raises a ``SimulationError`` aborts its lane, whose
    reading is then None; a batched stage lets the error propagate.
    """

    measures_ecap = False
    distance_mm: Optional[np.ndarray] = None   # (n_ticks,) column shared by all lanes
    seizing: Optional[np.ndarray] = None       # (S, n_ticks) column, one row per lane

    def seizure_counts(self, i: int, n: int) -> tuple[int, int, int]:
        """Lane i's (onsets, early terminations, seizing ticks) over its first n ticks."""
        return 0, 0, 0


def _framed(lanes: list) -> list:
    """Positions in ``lanes`` of the lanes that take a frame this tick: those
    neither aborted nor in a reset mode."""
    return [j for j, lane in enumerate(lanes) if not (lane.aborted or lane.in_reset)]


class EcapSensing(_Sensing):
    """Evoked-response amplitude at the last delivered dose, range-checked, per lane."""

    measures_ecap = True

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        plant = scenario.plant
        self.params = plant.params
        self.noise_sd = plant.sensor_noise_sd_uV
        self.saturation_uV = scenario.device.amplifier_saturation_uV
        self.sensor_rngs = [lane_rngs[2] for lane_rngs in rngs]
        self.distance_mm = distance_profile(
            plant.track, plant.base_distance_mm, scenario.timebase.n_ticks
        )
        self.params.validate_over_range(
            float(self.distance_mm.min()), float(self.distance_mm.max())
        )

    def sense(self, t: int, lanes: list) -> list:
        distance = float(self.distance_mm[t])
        readings = []
        for lane in lanes:
            if lane.in_reset:
                readings.append(NO_READING)
                continue
            try:
                est = ecap_true(lane.prev_delivered.amplitude_mA, distance, self.params)
                if self.noise_sd > 0:
                    est += self.sensor_rngs[lane.index].normal(0.0, self.noise_sd)
                measured, qual = ecap_range_check(est, self.saturation_uV)
            except SimulationError as e:
                lane.fault(t, e)
                readings.append(None)
                continue
            readings.append((measured, qual, False, None))
        return readings


class BetaSensing(_Sensing):
    """Beta-band power of synthesized LFP frames, smoothed by a running mean."""

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        f = scenario.features
        self.cfg = scenario.plant.cfg
        self.table = BetaTickTable(self.cfg)
        self.band = (f.band_lo_hz, f.band_hi_hz)
        self.noise = _NoiseRows([lane_rngs[1] for lane_rngs in rngs], self.cfg.frame_len)
        self.sq_limits = SignalQualityLimits(
            saturation_uV=scenario.device.amplifier_saturation_uV
        )
        # Each lane's last ``smooth`` band powers, oldest first, right-aligned.
        # A run never holds more than n_ticks of them.
        tb = scenario.timebase
        self.smooth = max(1, min(round(f.smooth_s / tb.dt_s), tb.n_ticks))
        self.window = np.zeros((len(rngs), self.smooth))
        self.filled = np.zeros(len(rngs), dtype=int)
        self.full = False   # every lane's window is full

    def sense(self, t: int, lanes: list) -> list:
        readings = [NO_READING] * len(lanes)
        framed = _framed(lanes)
        if framed:
            idx = np.array([lanes[j].index for j in framed])
            frames = beta_lfp_frame(
                [lanes[j].prev_delivered for j in framed], t, self.table, self.noise.take(idx)
            )
            quals = signal_quality(frames, self.sq_limits)
            power = band_power(frames, *self.band, self.cfg.fs_hz)
            for j, value, qual in zip(framed, self._smoothed(idx, power).tolist(), quals):
                readings[j] = (value, qual, False, None)
        return readings

    def _smoothed(self, idx: np.ndarray, power: np.ndarray) -> np.ndarray:
        """Push each lane's new power; the mean of each lane's window.

        A window is right-aligned, so its filled part is a slice of the
        row, and a row mean along the last axis sums in the order ``np.mean``
        sums a 1-D window. Once every window is full, a tick that frames
        every lane shifts and averages the whole window array.
        """
        w, m = self.window, self.smooth
        if self.full and len(idx) == len(w):
            w[:, :-1] = w[:, 1:]
            w[:, -1] = power
            return w.mean(axis=-1)
        w[idx, :-1] = w[idx, 1:]
        w[idx, -1] = power
        filled = np.minimum(self.filled[idx] + 1, m)
        self.filled[idx] = filled
        self.full = bool(self.filled.min() == m)
        means = np.empty(len(idx))
        for k in set(filled.tolist()):
            same = filled == k
            means[same] = w[idx[same], m - k:].mean(axis=-1)
        return means


class IeegSensing(_Sensing):
    """Seizure process plus detection tools on synthesized iEEG frames.

    The seizure process and the detectors are per lane; frames and their
    features are computed for all framed lanes at once. The seizure process
    advances even in a reset mode, where no frame is recorded. The biomarker
    is the first tool's smoothed feature value.
    """

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        plant = scenario.plant
        self.cfg = plant.cfg
        self.dt_s = scenario.timebase.dt_s
        self.seizures = [plant.seizures] * len(rngs)
        self.plant_rngs = [lane_rngs[0] for lane_rngs in rngs]
        self.noise = _NoiseRows([lane_rngs[1] for lane_rngs in rngs], self.cfg.frame_len)
        self.tools = scenario.features.tools
        self.detectors = [[Detector(spec) for spec in self.tools] for _ in rngs]
        self.combinator = scenario.features.combinator
        self.sq_limits = SignalQualityLimits(
            saturation_uV=scenario.device.amplifier_saturation_uV
        )
        self.seizing = np.zeros((len(rngs), scenario.timebase.n_ticks), dtype=bool)

    def sense(self, t: int, lanes: list) -> list:
        readings = [NO_READING] * len(lanes)
        for j, lane in enumerate(lanes):
            i = lane.index
            try:
                self.seizures[i], self.seizing[i, t] = seizure_step(
                    self.seizures[i], not lane.prev_delivered.is_off, t, self.dt_s,
                    self.plant_rngs[i],
                )
            except SimulationError as e:
                lane.fault(t, e)
                readings[j] = None
        framed = _framed(lanes)
        if framed:
            idx = np.array([lanes[j].index for j in framed])
            frames = ieeg_frame(self.seizing[idx, t], self.cfg, self.noise.take(idx), t)
            quals = signal_quality(frames, self.sq_limits)
            values = [
                np.asarray(tool_feature(spec, frames), dtype=float).tolist()
                for spec in self.tools
            ]
            for row, j in enumerate(framed):
                lane = lanes[j]
                try:
                    steps = [
                        det.observe(tool_values[row])
                        for det, tool_values in zip(self.detectors[lane.index], values)
                    ]
                    flag = detect([flag for _, _, flag in steps], self.combinator)
                except SimulationError as e:
                    lane.fault(t, e)
                    readings[j] = None
                    continue
                value, threshold, _ = steps[0]
                readings[j] = (value, quals[row], flag, threshold)
        return readings

    def seizure_counts(self, i: int, n: int) -> tuple[int, int, int]:
        s = self.seizures[i]
        return s.onset_count, s.early_termination_count, int(self.seizing[i, :n].sum())


SENSING = {EcapPlantSpec: EcapSensing, BetaPlantSpec: BetaSensing, IeegPlantSpec: IeegSensing}

COLUMNS = {   # per-tick float columns and their value before a tick records
    "biomarker": np.nan,
    "setpoint": np.nan,
    "commanded_mA": 0.0,
    "delivered_mA": 0.0,
    "teed_cum": 0.0,
}


def _run_lanes(scenarios: list) -> list[RunResult]:
    """Run scenarios that differ only in their seed in lockstep, one lane each."""
    first = scenarios[0]
    n = first.timebase.n_ticks
    # Child streams per lane: physiological process, frame synthesis, measurement noise.
    rngs = [
        [np.random.default_rng(s) for s in np.random.SeedSequence(sc.seed).spawn(3)]
        for sc in scenarios
    ]
    sensing = SENSING[type(first.plant)](first, rngs)

    magnet = np.zeros(n, dtype=bool)
    for start, end in first.magnet_intervals:
        magnet[start:min(end, n)] = True
    magnet = magnet.tolist()

    columns = {name: np.full((len(scenarios), n), fill) for name, fill in COLUMNS.items()}
    lanes = [
        _Lane(i, sc, columns, magnet, sensing.measures_ecap) for i, sc in enumerate(scenarios)
    ]

    live = lanes
    for t in range(n):
        try:
            readings = sensing.sense(t, live)
        except SimulationError as e:
            # A batched stage: configuration every framed lane shares.
            for j in _framed(live):
                live[j].fault(t, e)
            readings = [None if lane.aborted else NO_READING for lane in live]
        for lane, reading in zip(live, readings):
            if reading is None:
                continue
            try:
                lane.step(t, *reading)
            except SimulationError as e:
                lane.fault(t, e)
        if any(lane.aborted for lane in live):
            live = [lane for lane in live if not lane.aborted]
    return [lane.result(sensing) for lane in lanes]


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a validated scenario; outputs are determined by (scenario, seed).

    This is the lockstep loop with one lane. A ``SimulationError`` raised
    inside the tick loop aborts the run with a RUN_FAULT event and truncated
    outputs; any other exception is a programming error and propagates.
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
    dev = series - target
    return float(np.nanmean(dev * dev))


def compare_modes(scenario: Scenario) -> ModeComparison:
    """Run the scenario as configured and as a fixed-output manual loop.

    Both arms use the identical seed, so plant disturbance realizations
    match tick for tick; the only difference is who sets the dose.
    """
    if isinstance(scenario.policy, ManualFixed):
        raise ValueError("compare_modes needs an automated policy to compare against")
    auto = run_scenario(scenario)
    fixed = run_scenario(fixed_arm_scenario(scenario))
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


def sweep(scenario: Scenario, n_seeds: int) -> list[RunResult]:
    """Run ``n_seeds`` independent replicates seeded base, base+1, ...

    The replicates run in lockstep, one lane each; each result equals a
    ``run_scenario`` of its seed.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    return _run_lanes([scenario.with_seed(scenario.seed + i) for i in range(n_seeds)])

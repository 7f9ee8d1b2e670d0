"""The deterministic run loop and the mode-comparison driver.

Each tick advances the loop in a fixed order:

    plant + features -> trust checks -> supervisor -> policy -> budgets
          -> clamp/slew -> actuator -> device

so a run's outputs are a pure function of (scenario, seed). The plant draws
its randomness from child streams spawned from the scenario seed — one for
the physiological process, one for signal synthesis, one for sensor noise —
so plant realizations do not shift when the controller behaves differently.

Plant and feature extraction together are one sensing object per plant kind
(``EcapSensing``, ``BetaSensing``, ``IeegSensing``); the policy is the
scenario's policy config, whose ``step`` holds the previous command on any
tick whose measurement quality is not OK. The supervisor separately decides
whether enough has gone wrong to leave Automated mode altogether.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
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
)
from .metrics import CLAMP_CODES, Metrics, step_response_metrics
from .plant import (
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
    TrustInputs,
    clamp_and_slew,
    fallback_dose,
    supervisor_step,
    therapy_and_episode_budget_step,
    trust_check_step,
)
from .scenario import BetaPlantSpec, EcapPlantSpec, IeegPlantSpec, Scenario, scenario_from_dict

OK_ONLY = frozenset({QUALITY_OK})


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


class _Sensing:
    """Plant plus feature extraction for one plant kind, built once per run.

    ``sense(t, prev_delivered, in_reset)`` advances the plant one tick and
    returns (measured, quality, detection, threshold): the biomarker or None
    when no measurement was taken (always None in a reset mode), its quality
    flags, the combined detection flag, and the detection threshold or None.
    """

    measures_ecap = False
    distance_mm: Optional[np.ndarray] = None   # per-tick columns, None if n/a
    seizing: Optional[np.ndarray] = None

    def seizure_counts(self, n: int) -> tuple[int, int, int]:
        """(onsets, early terminations, seizing ticks) over the first n ticks."""
        return 0, 0, 0


class EcapSensing(_Sensing):
    """Evoked-response amplitude at the last delivered dose, range-checked."""

    measures_ecap = True

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        plant = scenario.plant
        self.params = plant.params
        self.noise_sd = plant.sensor_noise_sd_uV
        self.saturation_uV = scenario.device.amplifier_saturation_uV
        self.sensor_rng = rngs[2]
        self.distance_mm = distance_profile(
            plant.track, plant.base_distance_mm, scenario.timebase.n_ticks
        )
        self.params.validate_over_range(
            float(self.distance_mm.min()), float(self.distance_mm.max())
        )

    def sense(self, t: int, prev_delivered: Dose, in_reset: bool):
        if in_reset:
            return None, OK_ONLY, False, None
        est = ecap_true(prev_delivered.amplitude_mA, float(self.distance_mm[t]), self.params)
        if self.noise_sd > 0:
            est += self.sensor_rng.normal(0.0, self.noise_sd)
        measured, qual = ecap_range_check(est, self.saturation_uV)
        return measured, qual, False, None


class BetaSensing(_Sensing):
    """Beta-band power of a synthesized LFP frame, smoothed by a running mean."""

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        f = scenario.features
        self.cfg = scenario.plant.cfg
        self.band = (f.band_lo_hz, f.band_hi_hz)
        self.signal_rng = rngs[1]
        self.sq_limits = SignalQualityLimits(
            saturation_uV=scenario.device.amplifier_saturation_uV
        )
        self.smooth: deque = deque(
            maxlen=max(1, round(f.smooth_s / scenario.timebase.dt_s))
        )

    def sense(self, t: int, prev_delivered: Dose, in_reset: bool):
        if in_reset:
            return None, OK_ONLY, False, None
        frame = beta_lfp_frame(prev_delivered, t, self.cfg, self.signal_rng)
        qual = signal_quality(frame, self.sq_limits)
        self.smooth.append(band_power(frame, *self.band, self.cfg.fs_hz))
        return float(np.mean(self.smooth)), qual, False, None


class IeegSensing(_Sensing):
    """Seizure process plus detection tools on a synthesized iEEG frame.

    The seizure process advances even in a reset mode, where no frame is
    recorded. The biomarker is the first tool's smoothed feature value.
    """

    def __init__(self, scenario: Scenario, rngs: list) -> None:
        plant = scenario.plant
        self.cfg = plant.cfg
        self.seizures = plant.seizures
        self.dt_s = scenario.timebase.dt_s
        self.plant_rng, self.signal_rng = rngs[0], rngs[1]
        self.detectors = [Detector(spec) for spec in scenario.features.tools]
        self.combinator = scenario.features.combinator
        self.sq_limits = SignalQualityLimits(
            saturation_uV=scenario.device.amplifier_saturation_uV
        )
        self.seizing = np.zeros(scenario.timebase.n_ticks, dtype=bool)

    def sense(self, t: int, prev_delivered: Dose, in_reset: bool):
        self.seizures, seizing_now = seizure_step(
            self.seizures, not prev_delivered.is_off, t, self.dt_s, self.plant_rng
        )
        self.seizing[t] = seizing_now
        if in_reset:
            return None, OK_ONLY, False, None
        frame = ieeg_frame(seizing_now, self.cfg, self.signal_rng, t)
        qual = signal_quality(frame, self.sq_limits)
        steps = [d.step(frame) for d in self.detectors]
        value, threshold, _ = steps[0]
        return value, qual, detect([flag for _, _, flag in steps], self.combinator), threshold

    def seizure_counts(self, n: int) -> tuple[int, int, int]:
        s = self.seizures
        return s.onset_count, s.early_termination_count, int(self.seizing[:n].sum())


SENSING = {EcapPlantSpec: EcapSensing, BetaPlantSpec: BetaSensing, IeegPlantSpec: IeegSensing}


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a validated scenario; outputs are determined by (scenario, seed).

    A ``SimulationError`` raised inside the tick loop aborts the run with a
    RUN_FAULT event and truncated outputs; any other exception is a
    programming error and propagates.
    """
    tb = scenario.timebase
    n = tb.n_ticks
    dt = tb.dt_s
    limits = scenario.limits
    trust_cfg = scenario.trust
    fb_cfg = scenario.fallback
    policy = scenario.policy
    device = scenario.device
    baseline = scenario.baseline_dose

    # Child streams: physiological process, frame synthesis, measurement noise.
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(scenario.seed).spawn(3)]
    sensing = SENSING[type(scenario.plant)](scenario, rngs)

    magnet = np.zeros(n, dtype=bool)
    for start, end in scenario.magnet_intervals:
        magnet[start:min(end, n)] = True

    sup = SupervisorState()
    pol_state = PolicyState()
    budgets = scenario.budgets
    log = EventLog()

    prev_delivered = actuator_apply(baseline, device)
    initial_delivered = prev_delivered.amplitude_mA
    last_good: Optional[Dose] = None

    biomarker = np.full(n, np.nan)
    setpoint_col = np.full(n, np.nan)
    commanded = np.zeros(n)
    delivered_arr = np.zeros(n)
    teed_cum = np.zeros(n)
    quality_col: list = [""] * n
    mode_col: list = [""] * n

    teed = 0.0
    fallback_ticks = 0
    aborted = False

    try:
        for t in range(n):
            in_reset = sup.in_reset

            # ---- plant + features -------------------------------------
            measured, qual, detection, threshold_now = sensing.sense(
                t, prev_delivered, in_reset
            )
            if threshold_now is None:
                threshold_now = policy.setpoint

            # ---- trust checks -----------------------------------------
            verdict_pass = False
            if not in_reset:
                inputs = TrustInputs(
                    quality=qual,
                    ecap_est_uV=measured if sensing.measures_ecap else None,
                    battery_v=device.battery_v,
                    eos_threshold_v=device.eos_threshold_v,
                    impedance_ohm=device.impedance_of(baseline.contact_set),
                    dc_leak=device.dc_leak_flag,
                    biomarker=measured,
                )
                sup, verdict_pass, failed = trust_check_step(inputs, trust_cfg, sup)
                if not verdict_pass and sup.fail_streak == 1:
                    log.append(
                        EventRecord(
                            t, SEVERITY_ALERT, EVENT_TRUST_FAIL, {"checks": list(failed)}
                        )
                    )

            # ---- supervisor -------------------------------------------
            sup, sup_events = supervisor_step(
                sup,
                verdict_pass,
                bool(magnet[t]),
                device,
                trust_cfg,
                fb_cfg,
                t,
                last_good_candidate=last_good,
            )
            log.extend(sup_events)
            mode = sup.mode

            # ---- policy -----------------------------------------------
            therapy_started = False
            if mode == MODE_AUTOMATED:
                pol_state, cmd, therapy_started = policy.step(
                    pol_state, measured, qual, detection, prev_delivered
                )
            elif mode == MODE_FALLBACK:
                cmd = fallback_dose(fb_cfg, sup, baseline)
                fallback_ticks += 1
            else:
                # Magnet suspension or a latched reset: stimulation off.
                cmd = prev_delivered.with_amplitude(0.0)

            # ---- budgets ----------------------------------------------
            budgets, allowed, budget_events = therapy_and_episode_budget_step(
                budgets, detection, therapy_started, t
            )
            log.extend(budget_events)
            if therapy_started and not allowed:
                cmd = cmd.off()
                pol_state = replace(pol_state, plan_remaining=())

            # ---- safety clamps + actuator -----------------------------
            legal, clamp_events = clamp_and_slew(cmd, limits, prev_delivered, t)
            log.extend(clamp_events)
            delivered = actuator_apply(legal, device)

            # A "known good" dose is one the automated loop chose while trust
            # passed; forced-off doses (suspend/reset) never qualify.
            if mode == MODE_AUTOMATED and verdict_pass:
                last_good = delivered

            # ---- device -----------------------------------------------
            device = device_step(device, charge_per_tick(delivered, dt))
            teed += teed_rate(delivered) * dt

            # ---- record -----------------------------------------------
            if measured is not None:
                biomarker[t] = measured
                quality_col[t] = "+".join(sorted(qual))
            if threshold_now is not None:
                setpoint_col[t] = threshold_now
            commanded[t] = cmd.amplitude_mA
            delivered_arr[t] = delivered.amplitude_mA
            mode_col[t] = mode
            teed_cum[t] = teed
            prev_delivered = delivered
    except SimulationError as e:  # invariant breach: abort loudly, never corrupt
        log.append(
            EventRecord(
                t,
                SEVERITY_FAULT,
                EVENT_RUN_FAULT,
                {"error": f"{type(e).__name__}: {e}"},
            )
        )
        aborted = True
        n = t
    biomarker = biomarker[:n]
    distance = sensing.distance_mm
    seizing = sensing.seizing

    # ---- metrics ---------------------------------------------------------
    mcfg = scenario.metrics_cfg
    time_in_range: Optional[float] = None
    if mcfg.biomarker_range is not None and n > 0:
        lo, hi = mcfg.biomarker_range
        in_range = (biomarker >= lo) & (biomarker <= hi)
        time_in_range = float(np.count_nonzero(in_range)) / n

    sr = None
    if mcfg.step_response is not None and n > mcfg.step_response.step_tick:
        target = policy.target
        if target is not None and target != 0:
            sr = step_response_metrics(
                biomarker, target, mcfg.step_response.step_tick,
                mcfg.step_response.tol_frac, dt,
            )

    seizure_count, early, seizure_ticks = sensing.seizure_counts(n)
    run_metrics = Metrics(
        teed_total=teed,
        time_in_range_frac=time_in_range,
        seizure_count=seizure_count,
        seizure_ticks_total=seizure_ticks,
        early_termination_count=early,
        fallback_frac=fallback_ticks / n if n else 0.0,
        limit_clamp_count=sum(log.count(c) for c in CLAMP_CODES),
        step_response=sr,
    )

    return RunResult(
        scenario=scenario,
        biomarker=biomarker,
        quality=quality_col[:n],
        setpoint=setpoint_col[:n],
        commanded_mA=commanded[:n],
        delivered_mA=delivered_arr[:n],
        mode=mode_col[:n],
        distance_mm=None if distance is None else distance[:n],
        seizing=None if seizing is None else seizing[:n],
        teed_cum=teed_cum[:n],
        events=log,
        metrics=run_metrics,
        initial_delivered_mA=initial_delivered,
        aborted=aborted,
    )


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
    """Run ``n_seeds`` independent replicates seeded base, base+1, ..."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    return [run_scenario(scenario.with_seed(scenario.seed + i)) for i in range(n_seeds)]

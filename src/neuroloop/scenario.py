"""Scenario files: schema, parsing, and the pre-run design checklist.

A scenario is a complete, serializable run description: time base, seed,
plant, feature extraction, control policy, actuation limits, trust checks,
fallback behavior, budgets, and output selection. The on-disk format is
UTF-8 JSON with a top-level ``"schema": 1`` field; see the shipped files
under ``scenarios/`` for worked examples of each plant kind.

``validate_scenario`` is the only code that builds a ``Scenario``. It runs
the design checklist: every finding is tagged with the checklist item it
violates (variables identified, limits present and ordered, fallback defined
with entrance/exit criteria, monitoring enabled, operating region reachable).
Its report carries the scenario whenever the schema matches and every
section builds; cross-check findings make ``ok`` false but keep the scenario.
An ``ok`` scenario runs without configuration errors. A derived scenario
(another seed, a comparison's fixed arm) is an edit of ``raw``, rebuilt.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

from .core import (
    MAX_TICKS,
    ConfigurationError,
    Dose,
    DoseLimits,
    SimulationError,
    TimeBase,
    make_timebase,
)
from .control import (
    BangBangResponsive,
    DualThreshold,
    EcapSetpoint,
    ManualFixed,
    PolicyConfig,
    Proportional,
    SingleThreshold,
)
from .features import HalfWaveConfig, check_band
from .plant import (
    BetaPlantConfig,
    BetaSuppression,
    CardiacArtifact,
    CircadianSine,
    CoughTransient,
    DeviceState,
    DisturbanceTrack,
    EcapPlantParams,
    IeegPlantConfig,
    PostureStep,
    SeizureGenState,
    distance_profile,
)
from .safety import (
    CHECK_ECAP_NONNEGATIVE,
    Budgets,
    FallbackKind,
    FallbackOff,
    FixedSafe,
    LastKnownGood,
    ManualLoop,
    TrustConfig,
)

SCHEMA_VERSION = 1

# Checklist item tags used by validation findings.
CHECKLIST_VARIABLES = "Identify feedback, feedforward, auxiliary variables"
CHECKLIST_MENTAL_MODEL = "Define mental model"
CHECKLIST_SENSOR = "Sensor design accounts for physiological variation and artifacts"
CHECKLIST_LIMITS = "Stimulation actuator limits"
CHECKLIST_DEVICE_STATE = "Device state"
CHECKLIST_FALLBACK = "Fallback modes"
CHECKLIST_VALIDATION = "Validation and testing"


class ScenarioParseError(SimulationError):
    """The scenario file is not parseable JSON or not a JSON object."""


@dataclass(frozen=True)
class EcapPlantSpec:
    params: EcapPlantParams
    base_distance_mm: float
    sensor_noise_sd_uV: float
    track: DisturbanceTrack


@dataclass(frozen=True)
class BetaPlantSpec:
    cfg: BetaPlantConfig


@dataclass(frozen=True)
class IeegPlantSpec:
    cfg: IeegPlantConfig
    seizures: SeizureGenState


PlantSpec = Union[EcapPlantSpec, BetaPlantSpec, IeegPlantSpec]


@dataclass(frozen=True)
class EcapFeatures:
    """Amplitude-level estimator: identity plus range checks."""


@dataclass(frozen=True)
class BetaFeatures:
    band_lo_hz: float = 13.0
    band_hi_hz: float = 30.0
    smooth_s: float = 0.5


@dataclass(frozen=True)
class ToolSpec:
    """One detection tool: a feature plus its (fixed or adaptive) threshold."""

    feature: str                      # "line_length" | "area" | "half_wave"
    threshold_mode: str               # "adaptive" | "fixed"
    multiplier: float = 2.0
    long_window_ticks: int = 240
    short_window_ticks: int = 4
    fixed_value: float = 0.0
    half_wave: Optional[HalfWaveConfig] = None

    def __post_init__(self) -> None:
        if self.feature not in ("line_length", "area", "half_wave"):
            raise ConfigurationError(f"unknown detection feature {self.feature!r}")
        if self.threshold_mode not in ("adaptive", "fixed"):
            raise ConfigurationError(f"unknown threshold mode {self.threshold_mode!r}")
        if self.feature == "half_wave" and self.half_wave is None:
            raise ConfigurationError("half_wave tool needs a half_wave config block")
        if self.threshold_mode == "adaptive" and not (
            self.long_window_ticks > self.short_window_ticks > 0
        ):
            raise ConfigurationError(
                "adaptive threshold needs long_window_ticks > short_window_ticks > 0"
            )


@dataclass(frozen=True)
class IeegFeatures:
    tools: tuple = ()
    combinator: str = "OR"

    def __post_init__(self) -> None:
        if not self.tools:
            raise ConfigurationError("at least one detection tool is required")
        if self.combinator not in ("OR", "AND"):
            raise ConfigurationError("combinator must be OR or AND")


FeatureSpec = Union[EcapFeatures, BetaFeatures, IeegFeatures]


@dataclass(frozen=True)
class StepResponseSpec:
    step_tick: int
    tol_frac: float = 0.05

    def __post_init__(self) -> None:
        if self.step_tick < 0:
            raise ConfigurationError(f"step_tick must be >= 0, got {self.step_tick}")


@dataclass(frozen=True)
class MetricsConfig:
    biomarker_range: Optional[tuple] = None
    step_response: Optional[StepResponseSpec] = None


@dataclass(frozen=True)
class OutputFlags:
    timeseries: bool = True
    events: bool = True
    summary: bool = True


@dataclass(frozen=True)
class Scenario:
    name: str
    timebase: TimeBase
    seed: int
    baseline_dose: Dose
    plant: PlantSpec
    device: DeviceState
    features: FeatureSpec
    policy: PolicyConfig
    limits: DoseLimits
    trust: TrustConfig
    fallback: FallbackKind
    budgets: Budgets
    magnet_intervals: tuple = ()
    outputs: OutputFlags = OutputFlags()
    metrics_cfg: MetricsConfig = MetricsConfig()
    raw: dict = field(default_factory=dict, repr=False)

    def with_seed(self, seed: int) -> "Scenario":
        return scenario_from_dict({**self.raw, "seed": seed})

    @property
    def doses(self) -> dict:
        """Every configured dose by role: baseline, then policy and fallback if set."""
        doses = {"baseline": self.baseline_dose}
        for role, holder in (("policy", self.policy), ("fallback", self.fallback)):
            if getattr(holder, "dose", None) is not None:
                doses[role] = holder.dose
        return doses


# ---------------------------------------------------------------------------
# Section builders (called only by validate_scenario)
# ---------------------------------------------------------------------------

def _require(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigurationError(f"missing {key!r} in {where}")
    return raw[key]


def _object(value, where: str) -> dict:
    """``value`` itself, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {value!r}")
    return value


def _build_seed(raw: dict) -> int:
    seed = _require(raw, "seed", "scenario")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def _build_timebase(raw: dict) -> TimeBase:
    tb = _object(_require(raw, "timebase", "scenario"), "timebase")
    timebase = make_timebase(float(tb["dt_s"]), float(tb["duration_s"]))
    if timebase.n_ticks > MAX_TICKS:
        raise ConfigurationError(
            f"timebase has {timebase.n_ticks} ticks, more than the {MAX_TICKS} a run may have"
        )
    return timebase


def _build_dose(d, where: str) -> Dose:
    d = _object(d, where)
    return Dose(
        amplitude_mA=float(d["amplitude_mA"]),
        pulse_width_us=float(d["pulse_width_us"]),
        frequency_hz=float(d["frequency_hz"]),
        contact_set=str(d.get("contact_set", "default")),
    )


def _build_disturbances(segs: list) -> DisturbanceTrack:
    built = []
    for s in segs:
        kind = _object(s, "disturbance")["kind"]
        if kind == "PostureStep":
            built.append(PostureStep(int(s["start_tick"]), float(s["delta_mm"])))
        elif kind == "CoughTransient":
            built.append(
                CoughTransient(
                    int(s["start_tick"]),
                    float(s["delta_mm"]),
                    int(s["rise_ticks"]),
                    int(s["fall_ticks"]),
                )
            )
        elif kind == "CircadianSine":
            built.append(
                CircadianSine(
                    int(s["start_tick"]),
                    int(s["period_ticks"]),
                    float(s["amplitude"]),
                    float(s.get("phase", 0.0)),
                )
            )
        elif kind == "CardiacArtifact":
            built.append(
                CardiacArtifact(
                    int(s["start_tick"]),
                    float(s["rate_hz"]),
                    float(s["amplitude_uV"]),
                    float(s.get("pulse_width_s", 0.05)),
                )
            )
        else:
            raise ConfigurationError(f"unknown disturbance kind {kind!r}")
    return DisturbanceTrack(tuple(sorted(built, key=lambda x: x.start_tick)))


def _build_device(d) -> DeviceState:
    d = _object(d, "plant.device")
    return DeviceState(
        battery_v=float(d["battery_v"]),
        eos_threshold_v=float(d["eos_threshold_v"]),
        impedance_ohm_per_contact={
            str(k): float(v)
            for k, v in _object(d["impedance_ohm"], "plant.device.impedance_ohm").items()
        },
        compliance_v=float(d["compliance_v"]),
        amp_step_mA=float(d["amp_step_mA"]),
        amplifier_saturation_uV=float(d.get("amplifier_saturation_uV", float("inf"))),
        dc_leak_flag=bool(d.get("dc_leak_flag", False)),
        drain_v_per_uC=float(d.get("drain_v_per_uC", 0.0)),
        impedance_ramp_ohm_per_tick=float(d.get("impedance_ramp_ohm_per_tick", 0.0)),
    )


def _build_plant(raw: dict) -> tuple[PlantSpec, DeviceState]:
    p = _object(_require(raw, "plant", "scenario"), "plant")
    kind = _require(p, "kind", "plant")
    device = _build_device(_require(p, "device", "plant"))
    track = _build_disturbances(p.get("disturbances", []))

    if kind == "ecap":
        e = _object(_require(p, "ecap", "plant"), "plant.ecap")
        params = EcapPlantParams(
            slope_uV_per_mA_at_ref=float(e["slope_uV_per_mA_at_ref"]),
            threshold_mA_at_ref=float(e["threshold_mA_at_ref"]),
            distance_ref_mm=float(e["distance_ref_mm"]),
            threshold_distance_coeff=float(e.get("threshold_distance_coeff_mA_per_mm", 0.0)),
            slope_distance_coeff=float(e.get("slope_distance_coeff_per_mm", 0.0)),
        )
        return (
            EcapPlantSpec(
                params=params,
                base_distance_mm=float(e["base_distance_mm"]),
                sensor_noise_sd_uV=float(e.get("sensor_noise_sd_uV", 0.0)),
                track=track,
            ),
            device,
        )

    if kind == "beta":
        b = _object(_require(p, "beta", "plant"), "plant.beta")
        c = _object(_require(b, "curve", "beta plant"), "plant.beta.curve")
        curve = BetaSuppression(
            baseline=float(c["baseline_uV"]),
            max_suppression_fraction=float(c["max_suppression_fraction"]),
            knee_mA=float(c["knee_mA"]),
            softness_mA=float(c["softness_mA"]),
        )
        cfg = BetaPlantConfig(
            fs_hz=float(b["fs_hz"]),
            frame_len=int(b["frame_len"]),
            beta_hz=float(b["beta_hz"]),
            curve=curve,
            noise_rms_uV=float(b.get("noise_rms_uV", 1.0)),
            gamma_entrainment_uV=float(b.get("gamma_entrainment_uV", 0.0)),
            disturbances=track,
        )
        return BetaPlantSpec(cfg=cfg), device

    if kind == "ieeg":
        i = _object(_require(p, "ieeg", "plant"), "plant.ieeg")
        cfg = IeegPlantConfig(
            fs_hz=float(i["fs_hz"]),
            frame_len=int(i["frame_len"]),
            background_sd_uV=float(i["background_sd_uV"]),
            ictal_amplitude_uV=float(i["ictal_amplitude_uV"]),
            ictal_hz=float(i["ictal_hz"]),
        )
        s = _object(_require(p, "seizures", "plant"), "plant.seizures")
        seiz = SeizureGenState(
            rate_per_hour=float(s["rate_per_hour"]),
            base_duration_ticks=int(s["base_duration_ticks"]),
            suppression_prob=float(s.get("suppression_prob", 0.0)),
            response_window_ticks=int(s.get("response_window_ticks", 1)),
        )
        return IeegPlantSpec(cfg=cfg, seizures=seiz), device

    raise ConfigurationError(f"unknown plant kind {kind!r}")


def _build_features(raw: dict, plant: PlantSpec) -> FeatureSpec:
    f = _object(raw.get("features", {}), "features")
    if isinstance(plant, EcapPlantSpec):
        return EcapFeatures()
    if isinstance(plant, BetaPlantSpec):
        beta = BetaFeatures(
            band_lo_hz=float(f.get("band_lo_hz", 13.0)),
            band_hi_hz=float(f.get("band_hi_hz", 30.0)),
            smooth_s=float(f.get("smooth_s", 0.5)),
        )
        check_band(beta.band_lo_hz, beta.band_hi_hz, plant.cfg.fs_hz, plant.cfg.frame_len)
        return beta
    tools = []
    for t in _require(f, "tools", "features"):
        t = _object(t, "detection tool")
        th = _object(t.get("threshold", {}), "detection tool threshold")
        hw = None
        if t["feature"] == "half_wave":
            h = _object(_require(t, "half_wave", "half_wave tool"), "half_wave")
            hw = HalfWaveConfig(
                min_amplitude_uV=float(h["min_amplitude_uV"]),
                min_duration_ticks=int(h["min_duration_ticks"]),
                max_duration_ticks=int(h["max_duration_ticks"]),
                hysteresis_uV=float(h.get("hysteresis_uV", 0.0)),
            )
        tools.append(
            ToolSpec(
                feature=str(t["feature"]),
                threshold_mode=str(th.get("mode", "adaptive")),
                multiplier=float(th.get("multiplier", 2.0)),
                long_window_ticks=int(th.get("long_window_ticks", 240)),
                short_window_ticks=int(th.get("short_window_ticks", 4)),
                fixed_value=float(th.get("value", 0.0)),
                half_wave=hw,
            )
        )
    return IeegFeatures(tools=tuple(tools), combinator=str(f.get("combinator", "OR")))


def _build_policy(raw: dict) -> PolicyConfig:
    p = _object(_require(raw, "policy", "scenario"), "policy")
    kind = _require(p, "kind", "policy")
    if kind == "ManualFixed":
        return ManualFixed(dose=_build_dose(_require(p, "dose", "policy"), "policy.dose"))
    if kind == "BangBangResponsive":
        return BangBangResponsive(
            burst_dose=_build_dose(_require(p, "burst", "policy"), "policy.burst"),
            bursts_per_therapy=int(p.get("bursts_per_therapy", 1)),
            max_therapies_per_event=int(p.get("max_therapies_per_event", 5)),
            burst_duration_ticks=int(p.get("burst_duration_ticks", 1)),
            inter_burst_gap_ticks=int(p.get("inter_burst_gap_ticks", 0)),
        )
    if kind == "SingleThreshold":
        return SingleThreshold(
            threshold=float(p["threshold"]),
            step_mA=float(p["step_mA"]),
            on_above=bool(p.get("on_above", True)),
        )
    if kind == "DualThreshold":
        return DualThreshold(
            lower=float(p["lower"]),
            upper=float(p["upper"]),
            step_up_mA=float(p["step_up_mA"]),
            step_down_mA=float(p["step_down_mA"]),
        )
    if kind == "Proportional":
        return Proportional(
            reference=float(p["reference"]),
            gain_mA_per_unit=float(p["gain_mA_per_unit"]),
        )
    if kind == "EcapSetpoint":
        return EcapSetpoint(
            target_uV=float(p["target_uV"]),
            gain_mA_per_uV=float(p["gain_mA_per_uV"]),
            deadband_uV=float(p.get("deadband_uV", 0.0)),
        )
    raise ConfigurationError(f"unknown policy kind {kind!r}")


def _build_limits(raw: dict) -> DoseLimits:
    l = _object(_require(raw, "limits", "scenario"), "limits")
    return DoseLimits(
        amp_min_mA=float(l["amp_min_mA"]),
        amp_max_mA=float(l["amp_max_mA"]),
        max_slew_mA_per_tick=float(l["max_slew_mA_per_tick"]),
        max_charge_per_pulse_uC=float(l["max_charge_per_pulse_uC"]),
    )


def _build_trust(raw: dict) -> TrustConfig:
    t = _object(_require(raw, "trust", "scenario"), "trust")
    return TrustConfig(
        checks=tuple(t.get("checks", [])),
        exit_after_consecutive_fails=int(t["exit_after_consecutive_fails"]),
        reenter_after_consecutive_passes=int(t["reenter_after_consecutive_passes"]),
        impedance_min_ohm=float(t.get("impedance_min_ohm", 50.0)),
        impedance_max_ohm=float(t.get("impedance_max_ohm", 10_000.0)),
        biomarker_min=float(t.get("biomarker_min", float("-inf"))),
        biomarker_max=float(t.get("biomarker_max", float("inf"))),
    )


def _build_fallback(raw: dict) -> FallbackKind:
    f = _object(_require(raw, "fallback", "scenario"), "fallback")
    kind = _require(f, "kind", "fallback")
    if kind == "Off":
        return FallbackOff()
    if kind == "FixedSafe":
        return FixedSafe(dose=_build_dose(_require(f, "dose", "fallback"), "fallback.dose"))
    if kind == "LastKnownGood":
        return LastKnownGood()
    if kind == "ManualLoop":
        return ManualLoop(dose=_build_dose(_require(f, "dose", "fallback"), "fallback.dose"))
    raise ConfigurationError(f"unknown fallback kind {kind!r}")


def _build_budgets(raw: dict, timebase: TimeBase) -> Budgets:
    b = _object(raw.get("budgets", {}), "budgets")
    return Budgets(
        max_therapies_per_event=int(b.get("max_therapies_per_event", 5)),
        max_episodes_per_day=int(b.get("max_episodes_per_day", 1_000_000)),
        ticks_per_day=timebase.ticks_per_day(),
    )


def _build_magnet(raw: dict) -> tuple:
    out = []
    for iv in raw.get("magnet", []):
        iv = _object(iv, "magnet interval")
        start, end = int(iv["start_tick"]), int(iv["end_tick"])
        if not (0 <= start < end):
            raise ConfigurationError(
                f"magnet interval needs 0 <= start_tick < end_tick, got [{start}, {end})"
            )
        out.append((start, end))
    return tuple(out)


def _build_outputs(raw: dict) -> OutputFlags:
    o = _object(raw.get("outputs", {}), "outputs")
    return OutputFlags(
        timeseries=bool(o.get("timeseries", True)),
        events=bool(o.get("events", True)),
        summary=bool(o.get("summary", True)),
    )


def _build_metrics_cfg(raw: dict) -> MetricsConfig:
    m = _object(raw.get("metrics", {}), "metrics")
    rng = m.get("range")
    sr = m.get("step_response")
    if rng is not None:
        lo, hi = rng
        rng = (float(lo), float(hi))
    if sr is not None:
        sr = _object(sr, "metrics.step_response")
        sr = StepResponseSpec(int(sr["step_tick"]), float(sr.get("tol_frac", 0.05)))
    return MetricsConfig(biomarker_range=rng, step_response=sr)


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a typed Scenario from a parsed JSON object.

    This is ``validate_scenario``'s build: it returns the report's scenario,
    which checklist cross-check findings do not withhold, and raises
    ConfigurationError listing the findings when a section does not build.
    """
    report = validate_scenario(raw)
    if report.scenario is None:
        raise ConfigurationError("; ".join(f.message for f in report.findings))
    return report.scenario


def load_scenario_file(path) -> dict:
    """Read and JSON-parse a scenario file.

    Raises:
        ScenarioParseError: text that is not UTF-8, or malformed JSON with
            line/column.
        OSError: the file cannot be read.
    """
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ScenarioParseError(f"{path}: not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: scenario must be a JSON object")
    return raw


def load_scenario(path) -> Scenario:
    """Parse and build a scenario from a file path."""
    return scenario_from_dict(load_scenario_file(path))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    checklist_item: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Checklist findings, plus the scenario when every section built."""

    ok: bool
    findings: tuple
    scenario: Optional[Scenario] = None

    def to_dict(self) -> dict:
        return {"ok": self.ok, "findings": [asdict(f) for f in self.findings]}


def validate_scenario(raw: dict) -> ValidationReport:
    """Build a parsed scenario section by section and run the design checklist.

    Returns a report whose findings are each tagged with the checklist item
    they violate. When the schema matches and every section builds, the
    report carries the built scenario and the checklist's cross-checks run
    on it. A report that is ``ok`` has a scenario that runs without
    configuration errors.
    """
    findings: list[Finding] = []

    def found(item: str, message: str) -> None:
        findings.append(Finding(item, message))

    def attempt(item: str, builder):
        try:
            return builder()
        except (SimulationError, KeyError, TypeError, ValueError) as e:
            found(item, f"{type(e).__name__}: {e}")
            return None

    if raw.get("schema") != SCHEMA_VERSION:
        found(
            CHECKLIST_VALIDATION,
            f"scenario schema must be {SCHEMA_VERSION}, got {raw.get('schema')!r}",
        )

    timebase = attempt(CHECKLIST_VALIDATION, lambda: _build_timebase(raw))
    seed = attempt(CHECKLIST_VALIDATION, lambda: _build_seed(raw))
    baseline = attempt(
        CHECKLIST_MENTAL_MODEL,
        lambda: _build_dose(_require(raw, "baseline_dose", "scenario"), "baseline_dose"),
    )
    plant, device = attempt(CHECKLIST_VARIABLES, lambda: _build_plant(raw)) or (None, None)
    policy = attempt(CHECKLIST_VARIABLES, lambda: _build_policy(raw))
    limits = attempt(CHECKLIST_LIMITS, lambda: _build_limits(raw))
    trust = attempt(CHECKLIST_FALLBACK, lambda: _build_trust(raw))
    fallback = attempt(CHECKLIST_FALLBACK, lambda: _build_fallback(raw))
    features = attempt(CHECKLIST_VARIABLES, lambda: _build_features(raw, plant)) if plant else None
    budgets = attempt(CHECKLIST_FALLBACK, lambda: _build_budgets(raw, timebase)) if timebase else None
    magnet = attempt(CHECKLIST_DEVICE_STATE, lambda: _build_magnet(raw))
    outputs = attempt(CHECKLIST_DEVICE_STATE, lambda: _build_outputs(raw))
    metrics_cfg = attempt(CHECKLIST_VALIDATION, lambda: _build_metrics_cfg(raw))
    if findings:
        return ValidationReport(ok=False, findings=tuple(findings))

    s = Scenario(
        name=str(raw.get("name", "unnamed")),
        timebase=timebase,
        seed=seed,
        baseline_dose=baseline,
        plant=plant,
        device=device,
        features=features,
        policy=policy,
        limits=limits,
        trust=trust,
        fallback=fallback,
        budgets=budgets,
        magnet_intervals=magnet,
        outputs=outputs,
        metrics_cfg=metrics_cfg,
        raw=raw,
    )

    # Cross-checks on the built scenario.
    needed = {
        EcapSetpoint: EcapPlantSpec,
        SingleThreshold: BetaPlantSpec,
        DualThreshold: BetaPlantSpec,
        Proportional: BetaPlantSpec,
        BangBangResponsive: IeegPlantSpec,
    }
    want = needed.get(type(policy))
    if want is not None and not isinstance(plant, want):
        found(
            CHECKLIST_VARIABLES,
            f"policy {type(policy).__name__} needs a "
            f"{want.__name__.replace('PlantSpec', '').lower()} plant to produce "
            "its feedback variable",
        )

    if CHECK_ECAP_NONNEGATIVE in trust.checks and not isinstance(plant, EcapPlantSpec):
        found(CHECKLIST_SENSOR, "EcapNonNegative trust check requires an ecap plant")

    if not outputs.events:
        found(
            CHECKLIST_DEVICE_STATE,
            "event logging is disabled; monitoring/alerts require outputs.events",
        )

    # Baseline and fallback doses are delivered as configured, so they must
    # lie inside the actuation limits (policy commands are clamped). Every
    # dose must name a contact the device has, or the actuator faults.
    for role, d in s.doses.items():
        if role != "policy" and not limits.amp_min_mA <= d.amplitude_mA <= limits.amp_max_mA:
            found(
                CHECKLIST_FALLBACK if role == "fallback" else CHECKLIST_LIMITS,
                f"{role} dose {d.amplitude_mA} mA lies outside "
                f"[{limits.amp_min_mA}, {limits.amp_max_mA}] mA",
            )
        if d.contact_set not in device.impedance_ohm_per_contact:
            found(
                CHECKLIST_DEVICE_STATE,
                f"{role} dose uses contact set {d.contact_set!r} unknown to the "
                f"device ({sorted(device.impedance_ohm_per_contact)})",
            )

    # Operating region. The growth law must stay physical over the whole
    # distance trajectory (for any policy), and a setpoint target must be
    # reachable inside the actuation limits.
    if isinstance(plant, EcapPlantSpec):
        d = distance_profile(plant.track, plant.base_distance_mm, timebase.n_ticks)
        worst = float(d.max())
        try:
            plant.params.validate_over_range(float(d.min()), worst)
        except SimulationError as e:
            found(CHECKLIST_MENTAL_MODEL, str(e))
        else:
            if isinstance(policy, EcapSetpoint):
                need = (
                    plant.params.threshold_at(worst)
                    + policy.target_uV / plant.params.slope_at(worst)
                )
                if need > limits.amp_max_mA:
                    found(
                        CHECKLIST_MENTAL_MODEL,
                        f"target {policy.target_uV} µV needs {need:.2f} mA at distance "
                        f"{worst:.2f} mm, beyond amp_max {limits.amp_max_mA} mA",
                    )

    if isinstance(policy, DualThreshold) and isinstance(plant, BetaPlantSpec):
        peak_power = (plant.cfg.curve.baseline * 2.0) ** 2 / 2.0
        if policy.lower >= peak_power:
            found(
                CHECKLIST_MENTAL_MODEL,
                f"lower bound {policy.lower} is above any reachable band power "
                f"(< {peak_power:.3g})",
            )

    if isinstance(plant, (BetaPlantSpec, IeegPlantSpec)):
        frame_dt = plant.cfg.dt_s
        if abs(frame_dt - timebase.dt_s) > 1e-9:
            found(
                CHECKLIST_VALIDATION,
                f"timebase dt_s {timebase.dt_s} must equal the plant frame duration "
                f"frame_len/fs = {frame_dt}",
            )

    return ValidationReport(ok=not findings, findings=tuple(findings), scenario=s)

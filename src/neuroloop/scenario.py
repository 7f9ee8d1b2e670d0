"""Scenario files: schema, parsing, and the pre-run design checklist.

A scenario is a complete, serializable run description: time base, seed,
plant, feature extraction, control policy, actuation limits, trust checks,
fallback behavior, budgets, and output selection. The on-disk format is
UTF-8 JSON with a top-level ``"schema": 1`` field; see the shipped files
under ``scenarios/`` for worked examples of each plant kind. One reader,
``_read``, builds each section's dataclass from its key list (the schema
table below): a key the file omits keeps the dataclass default, a field
without a default is required, and each value must have the field's JSON
type: a number field takes a finite JSON number (an integer field a JSON
integer), never ``true``, ``false`` or a string.

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
import math
from dataclasses import MISSING, asdict, dataclass, field
from dataclasses import fields as dataclass_fields
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
    sensor_noise_sd_uV: float = 0.0
    track: DisturbanceTrack = field(default_factory=DisturbanceTrack)


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
    threshold_mode: str = "adaptive"  # "adaptive" | "fixed"
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
# Section readers (called only by validate_scenario)
# ---------------------------------------------------------------------------

def _require(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigurationError(f"missing {key!r} in {where}")
    return raw[key]


_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", bool: "true or false"}


def _object(value, where: str, kind: type = dict):
    """``value`` itself, which must be a JSON object (or of JSON type ``kind``)."""
    if not isinstance(value, kind):
        raise ConfigurationError(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _finite(value) -> float:
    """``float(value)``: ``value`` must be a finite JSON number. A bool or a
    string is not a number, and JSON parsing lets NaN, Infinity and 1e999 in."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"value must be a JSON number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _int(value) -> int:
    """``value`` itself, which must be a JSON integer: a float (even 2.0), a
    bool or a string is not one."""
    if isinstance(value, float):
        _finite(value)   # a non-finite float is reported as such
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"value must be a JSON integer, got {value!r}")
    return value


# Converter for each field annotation a key may name (annotations are strings
# under postponed evaluation). A number must be a JSON number (an int a JSON
# integer), a bool a JSON boolean and a tuple a JSON array. The one dict
# field is the device's impedance map, and a ``Dose`` field reads a nested
# dose object.
_CONVERT = {"float": _finite, "int": _int, "bool": lambda v: _object(v, "value", bool),
            "str": str, "tuple": lambda v: tuple(_object(v, "value", list)), "Dose": Dose,
            "dict": lambda m: {str(k): _finite(v) for k, v in
                               _object(m, "plant.device.impedance_ohm").items()}}


def _plan(cls, keys: str) -> tuple:
    """How ``_read`` builds ``cls``: (cls, defaults, field positions, entries).

    ``keys`` lists the fields read from the file, in read order, as ``field``
    or ``field=json_key``. A field without a dataclass default is required.
    A default factory runs once, here, so its value must be immutable.
    """
    init = [f for f in dataclass_fields(cls) if f.init]
    position = {f.name: i for i, f in enumerate(init)}
    defaults = tuple(f.default if f.default_factory is MISSING else f.default_factory()
                     for f in init)
    entries = []
    for entry in keys.split():
        name, _, key = entry.partition("=")
        f = init[position[name]]
        required = f.default is MISSING and f.default_factory is MISSING
        entries.append((position[name], key or name, _CONVERT[f.type], required))
    return cls, defaults, position, tuple(entries)


def _read(plan: tuple, obj, where: str, **given):
    """Build ``plan``'s class from the JSON object ``obj`` found at ``where``.

    An absent required key raises KeyError (a nested dose: ConfigurationError);
    an absent optional key keeps the default. ``given``: fields built by the caller.
    """
    cls, defaults, position, entries = plan
    if not isinstance(obj, dict):
        _object(obj, where)  # raises
    args = list(defaults)
    for i, key, convert, required in entries:
        if convert is Dose:
            args[i] = _read(DOSE, _require(obj, key, where), f"{where}.{key}")
        elif required or key in obj:
            args[i] = convert(obj[key])
    if given:
        for name, value in given.items():
            args[position[name]] = value
    return cls(*args)


# The file schema: each section's dataclass and the keys read into it.
DOSE = _plan(Dose, "amplitude_mA pulse_width_us frequency_hz contact_set")
DEVICE = _plan(DeviceState, "battery_v eos_threshold_v impedance_ohm_per_contact=impedance_ohm "
                            "compliance_v amp_step_mA amplifier_saturation_uV dc_leak_flag "
                            "drain_v_per_uC impedance_ramp_ohm_per_tick")
ECAP_PARAMS = _plan(EcapPlantParams, "slope_uV_per_mA_at_ref threshold_mA_at_ref distance_ref_mm "
                    "threshold_distance_coeff=threshold_distance_coeff_mA_per_mm "
                    "slope_distance_coeff=slope_distance_coeff_per_mm")
ECAP_PLANT = _plan(EcapPlantSpec, "base_distance_mm sensor_noise_sd_uV")
BETA_CURVE = _plan(BetaSuppression,
                   "baseline=baseline_uV max_suppression_fraction knee_mA softness_mA")
BETA_PLANT = _plan(BetaPlantConfig, "fs_hz frame_len beta_hz noise_rms_uV gamma_entrainment_uV")
IEEG_PLANT = _plan(IeegPlantConfig, "fs_hz frame_len background_sd_uV ictal_amplitude_uV ictal_hz")
SEIZURES = _plan(SeizureGenState,
                 "rate_per_hour base_duration_ticks suppression_prob response_window_ticks")
BETA_FEATURES = _plan(BetaFeatures, "band_lo_hz band_hi_hz smooth_s")
HALF_WAVE = _plan(HalfWaveConfig,
                  "min_amplitude_uV min_duration_ticks max_duration_ticks hysteresis_uV")
TOOL = _plan(ToolSpec, "threshold_mode=mode multiplier long_window_ticks short_window_ticks "
                       "fixed_value=value")
IEEG_FEATURES = _plan(IeegFeatures, "combinator")
LIMITS = _plan(DoseLimits, "amp_min_mA amp_max_mA max_slew_mA_per_tick max_charge_per_pulse_uC")
TRUST = _plan(TrustConfig, "checks exit_after_consecutive_fails reenter_after_consecutive_passes "
                           "impedance_min_ohm impedance_max_ohm biomarker_min biomarker_max")
BUDGETS = _plan(Budgets, "max_therapies_per_event max_episodes_per_day")
OUTPUTS = _plan(OutputFlags, "timeseries events summary")
STEP_RESPONSE = _plan(StepResponseSpec, "step_tick tol_frac")

# The sections that name their kind: kind -> plan.
DISTURBANCES = {
    "PostureStep": _plan(PostureStep, "start_tick delta_mm"),
    "CoughTransient": _plan(CoughTransient, "start_tick delta_mm rise_ticks fall_ticks"),
    "CircadianSine": _plan(CircadianSine, "start_tick period_ticks amplitude phase"),
    "CardiacArtifact": _plan(CardiacArtifact, "start_tick rate_hz amplitude_uV pulse_width_s"),
}
POLICIES = {
    "ManualFixed": _plan(ManualFixed, "dose"),
    "BangBangResponsive": _plan(BangBangResponsive, "burst_dose=burst bursts_per_therapy "
                                "max_therapies_per_event burst_duration_ticks "
                                "inter_burst_gap_ticks"),
    "SingleThreshold": _plan(SingleThreshold, "threshold step_mA on_above"),
    "DualThreshold": _plan(DualThreshold, "lower upper step_up_mA step_down_mA"),
    "Proportional": _plan(Proportional, "reference gain_mA_per_unit"),
    "EcapSetpoint": _plan(EcapSetpoint, "target_uV gain_mA_per_uV deadband_uV"),
}
FALLBACKS = {
    "Off": _plan(FallbackOff, ""),
    "FixedSafe": _plan(FixedSafe, "dose"),
    "LastKnownGood": _plan(LastKnownGood, ""),
    "ManualLoop": _plan(ManualLoop, "dose"),
}

# The plant that produces each closed-loop policy's feedback variable.
FEEDBACK_PLANTS = {EcapSetpoint: EcapPlantSpec, BangBangResponsive: IeegPlantSpec,
                   SingleThreshold: BetaPlantSpec, DualThreshold: BetaPlantSpec,
                   Proportional: BetaPlantSpec}


def _kind(registry: dict, kind, what: str) -> tuple:
    """The plan of ``kind``, which must be one of ``registry``'s names."""
    if not isinstance(kind, str) or kind not in registry:
        raise ConfigurationError(f"unknown {what} kind {kind!r}")
    return registry[kind]


def _read_section(raw: dict, section: str, plan: tuple):
    """The required top-level ``section``, read by ``plan``."""
    return _read(plan, _require(raw, section, "scenario"), section)


def _read_kind(raw: dict, section: str, registry: dict):
    """The required top-level ``section``, read as the class its kind names."""
    s = _object(_require(raw, section, "scenario"), section)
    return _read(_kind(registry, _require(s, "kind", section), section), s, section)


def _build_seed(raw: dict) -> int:
    seed = _require(raw, "seed", "scenario")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def _build_timebase(raw: dict) -> TimeBase:
    tb = _object(_require(raw, "timebase", "scenario"), "timebase")
    timebase = make_timebase(_finite(tb["dt_s"]), _finite(tb["duration_s"]))
    if timebase.n_ticks > MAX_TICKS:
        raise ConfigurationError(
            f"timebase has {timebase.n_ticks} ticks, more than the {MAX_TICKS} a run may have"
        )
    return timebase


def _build_plant(raw: dict) -> tuple[PlantSpec, DeviceState]:
    p = _object(_require(raw, "plant", "scenario"), "plant")
    kind = _require(p, "kind", "plant")
    device = _read(DEVICE, _require(p, "device", "plant"), "plant.device")
    track = DisturbanceTrack(tuple(sorted(
        (_read(_kind(DISTURBANCES, _object(d, "disturbance")["kind"], "disturbance"),
               d, "disturbance") for d in _object(p.get("disturbances", []),
                                                  "plant.disturbances", list)),
        key=lambda seg: seg.start_tick,
    )))

    if kind == "ecap":
        e = _require(p, "ecap", "plant")
        params = _read(ECAP_PARAMS, e, "plant.ecap")
        return _read(ECAP_PLANT, e, "plant.ecap", params=params, track=track), device

    if kind == "beta":
        b = _object(_require(p, "beta", "plant"), "plant.beta")
        curve = _read(BETA_CURVE, _require(b, "curve", "beta plant"), "plant.beta.curve")
        cfg = _read(BETA_PLANT, b, "plant.beta", curve=curve, disturbances=track)
        return BetaPlantSpec(cfg=cfg), device

    if kind == "ieeg":
        cfg = _read(IEEG_PLANT, _require(p, "ieeg", "plant"), "plant.ieeg")
        seizures = _read(SEIZURES, _require(p, "seizures", "plant"), "plant.seizures")
        return IeegPlantSpec(cfg=cfg, seizures=seizures), device

    raise ConfigurationError(f"unknown plant kind {kind!r}")


def _build_features(raw: dict, plant: PlantSpec) -> FeatureSpec:
    f = _object(raw.get("features", {}), "features")
    if isinstance(plant, EcapPlantSpec):
        return EcapFeatures()
    if isinstance(plant, BetaPlantSpec):
        beta = _read(BETA_FEATURES, f, "features")
        check_band(beta.band_lo_hz, beta.band_hi_hz, plant.cfg.fs_hz, plant.cfg.frame_len)
        return beta
    tools = []
    for t in _require(f, "tools", "features"):
        t = _object(t, "detection tool")
        th = _object(t.get("threshold", {}), "detection tool threshold")
        hw = None
        if t["feature"] == "half_wave":
            hw = _read(HALF_WAVE, _require(t, "half_wave", "half_wave tool"), "half_wave")
        tools.append(_read(TOOL, th, "detection tool threshold",
                           feature=str(t["feature"]), half_wave=hw))
    return _read(IEEG_FEATURES, f, "features", tools=tuple(tools))


def _build_magnet(raw: dict) -> tuple:
    out = []
    for iv in _object(raw.get("magnet", []), "magnet", list):
        iv = _object(iv, "magnet interval")
        start, end = _int(iv["start_tick"]), _int(iv["end_tick"])
        if not (0 <= start < end):
            raise ConfigurationError(
                f"magnet interval needs 0 <= start_tick < end_tick, got [{start}, {end})"
            )
        out.append((start, end))
    return tuple(out)


def _build_metrics_cfg(raw: dict) -> MetricsConfig:
    m = _object(raw.get("metrics", {}), "metrics")
    rng = m.get("range")
    sr = m.get("step_response")
    if rng is not None:
        lo, hi = rng
        rng = (_finite(lo), _finite(hi))
    if sr is not None:
        sr = _read(STEP_RESPONSE, sr, "metrics.step_response")
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
        except (SimulationError, KeyError, TypeError, ValueError, OverflowError) as e:
            found(item, f"{type(e).__name__}: {e}")
            return None

    if raw.get("schema") != SCHEMA_VERSION:
        found(
            CHECKLIST_VALIDATION,
            f"scenario schema must be {SCHEMA_VERSION}, got {raw.get('schema')!r}",
        )

    timebase = attempt(CHECKLIST_VALIDATION, lambda: _build_timebase(raw))
    seed = attempt(CHECKLIST_VALIDATION, lambda: _build_seed(raw))
    baseline = attempt(CHECKLIST_MENTAL_MODEL, lambda: _read_section(raw, "baseline_dose", DOSE))
    plant, device = attempt(CHECKLIST_VARIABLES, lambda: _build_plant(raw)) or (None, None)
    policy = attempt(CHECKLIST_VARIABLES, lambda: _read_kind(raw, "policy", POLICIES))
    limits = attempt(CHECKLIST_LIMITS, lambda: _read_section(raw, "limits", LIMITS))
    trust = attempt(CHECKLIST_FALLBACK, lambda: _read_section(raw, "trust", TRUST))
    fallback = attempt(CHECKLIST_FALLBACK, lambda: _read_kind(raw, "fallback", FALLBACKS))
    features = attempt(CHECKLIST_VARIABLES, lambda: _build_features(raw, plant)) if plant else None
    budgets = attempt(CHECKLIST_FALLBACK, lambda: _read(
        BUDGETS, raw.get("budgets", {}), "budgets", ticks_per_day=timebase.ticks_per_day(),
    )) if timebase else None
    magnet = attempt(CHECKLIST_DEVICE_STATE, lambda: _build_magnet(raw))
    outputs = attempt(CHECKLIST_DEVICE_STATE, lambda: _read(
        OUTPUTS, raw.get("outputs", {}), "outputs"))
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
    want = FEEDBACK_PLANTS.get(type(policy))
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

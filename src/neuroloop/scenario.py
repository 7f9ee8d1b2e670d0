"""Scenario files: schema, parsing, and the pre-run design checklist.

A scenario is a complete, serializable run description: time base, seed,
plant, feature extraction, control policy, actuation limits, trust checks,
fallback behavior, budgets, and output selection. The on-disk format is
UTF-8 JSON with a top-level ``"schema": 1`` field; see the shipped files
under ``scenarios/`` for worked examples of each plant kind. A plant kind is
one class (``PLANTS``) that reads the ``plant`` and ``features`` sections and
runs its own checks. One reader,
``_read``, builds each section's dataclass from its key list (the schema
table below): a key the file omits keeps the dataclass default, a field
without a default is required, any other key (but the top-level free-text
``_comment``) is an error, and each value must have the field's JSON type:
a number field takes a finite JSON number (an integer field a JSON integer),
a string field (``name`` too) a JSON string.

``validate_scenario`` is the only code that builds a ``Scenario``. It runs
the design checklist: every finding is tagged with the checklist item it
violates (variables identified, limits present and ordered, fallback defined
with entrance/exit criteria, monitoring enabled, operating region reachable).
Its report carries the scenario only when there is no finding, so every
``Scenario`` has passed the whole checklist and runs without configuration
errors. A derived scenario (another seed, a comparison's fixed arm) is an
edit of ``raw``, rebuilt and checked again.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    ConfigurationError,
    Dose,
    DoseLimits,
    SimulationError,
    TimeBase,
    charge_per_pulse,
    charge_per_tick,
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
from .features import COMBINATORS, FEATURES, THRESHOLD_MODES, HalfWaveConfig, check_band
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
    """The scenario file cannot be read, or is not a JSON object."""


class PlantSpec:
    """A plant kind: ``read(plant, features, track)`` builds it from those sections,
    whose disturbances must have one of its ``EFFECTS``, and ``check(scenario,
    found)`` reports its checklist findings on a built scenario."""

    EFFECTS = ()


@dataclass(frozen=True)
class EcapPlantSpec(PlantSpec):
    """Evoked-response amplitude; its estimator (``features.estimator``) is the identity."""

    params: EcapPlantParams
    base_distance_mm: float
    sensor_noise_sd_uV: float = 0.0
    track: DisturbanceTrack = field(default_factory=DisturbanceTrack)

    EFFECTS = ("distance",)

    @classmethod
    def read(cls, p: dict, f, track: DisturbanceTrack) -> "EcapPlantSpec":
        _known(p, "plant", PLANT_KEYS, ("ecap",))
        e = _require(p, "ecap", "plant")
        params = _read(ECAP_PARAMS, e, "plant.ecap", also=ECAP_PLANT[-1])
        spec = _read(ECAP_PLANT, e, "plant.ecap", also=ECAP_PARAMS[-1], params=params, track=track)
        _known(_object(f, "features"), "features", ("estimator",))
        if f.get("estimator", "identity") != "identity":
            raise ConfigurationError(
                f"features.estimator must be 'identity', got {f['estimator']!r}")
        return spec

    def check(self, s: "Scenario", found) -> None:
        # Operating region. The growth law must stay physical over the whole
        # distance trajectory (for any policy), and a setpoint target must be
        # reachable inside the actuation limits.
        d = distance_profile(self.track, self.base_distance_mm, s.timebase.n_ticks)
        worst = float(d.max())
        try:
            self.params.validate_over_range(float(d.min()), worst)
        except SimulationError as e:
            found(CHECKLIST_MENTAL_MODEL, str(e))
            return
        if isinstance(s.policy, EcapSetpoint):
            target, amp_max = s.policy.target_uV, s.limits.amp_max_mA
            need = self.params.threshold_at(worst) + target / self.params.slope_at(worst)
            if need > amp_max:
                found(CHECKLIST_MENTAL_MODEL, f"target {target} µV needs {need:.2f} mA at "
                      f"distance {worst:.2f} mm, beyond amp_max {amp_max} mA")
            # An estimate that is not positive holds the command, so gain * target
            # is the largest step up; the command must stay finite.
            if s.policy.gain_mA_per_uV * target == math.inf:
                found(CHECKLIST_MENTAL_MODEL, f"gain {s.policy.gain_mA_per_uV} mA/µV times "
                      f"target {target} µV overflows: the command is not finite")


class _FramedPlant(PlantSpec):
    """A plant kind that synthesizes one frame of ``cfg`` per tick."""

    def check(self, s: "Scenario", found) -> None:
        if abs(self.cfg.dt_s - s.timebase.dt_s) > 1e-9:
            found(CHECKLIST_VALIDATION, f"timebase dt_s {s.timebase.dt_s} must equal the plant "
                                        f"frame duration frame_len/fs = {self.cfg.dt_s}")


@dataclass(frozen=True)
class BetaPlantSpec(_FramedPlant):
    """Beta-band LFP, sensed as each frame's band power, smoothed."""

    cfg: BetaPlantConfig
    band_lo_hz: float = 13.0
    band_hi_hz: float = 30.0
    smooth_s: float = 0.5

    EFFECTS = ("circadian", "cardiac")

    def __post_init__(self) -> None:
        check_band(self.band_lo_hz, self.band_hi_hz, self.cfg.fs_hz, self.cfg.frame_len)

    @classmethod
    def read(cls, p: dict, f, track: DisturbanceTrack) -> "BetaPlantSpec":
        _known(p, "plant", PLANT_KEYS, ("beta",))
        cfg = _read(BETA_PLANT, _require(p, "beta", "plant"), "plant.beta", disturbances=track)
        return _read(BETA_FEATURES, f, "features", cfg=cfg)

    def check(self, s: "Scenario", found) -> None:
        try:
            peak_power = (self.cfg.curve.baseline * 2.0) ** 2 / 2.0
        except OverflowError:   # float ** raises where * gives inf
            peak_power = math.inf
        if isinstance(s.policy, DualThreshold) and s.policy.lower >= peak_power:
            found(CHECKLIST_MENTAL_MODEL, f"lower bound {s.policy.lower} is above any "
                                          f"reachable band power (< {peak_power:.3g})")
        super().check(s, found)


@dataclass(frozen=True)
class ToolSpec:
    """One detection tool: a feature plus its (fixed or adaptive) threshold."""

    feature: str                      # a key of features.FEATURES
    threshold_mode: str = "adaptive"  # a key of features.THRESHOLD_MODES
    multiplier: float = 2.0
    long_window_ticks: int = 240
    short_window_ticks: int = 4
    fixed_value: float = 0.0
    half_wave: Optional[HalfWaveConfig] = None

    def __post_init__(self) -> None:
        if self.feature not in FEATURES:
            raise ConfigurationError(f"unknown detection feature {self.feature!r}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigurationError(f"unknown threshold mode {self.threshold_mode!r}")
        if FEATURES[self.feature].needs_half_wave and self.half_wave is None:
            raise ConfigurationError(f"{self.feature} tool needs a half_wave config block")
        if THRESHOLD_MODES[self.threshold_mode] and not (
            self.long_window_ticks > self.short_window_ticks > 0
        ):
            raise ConfigurationError(
                "adaptive threshold needs long_window_ticks > short_window_ticks > 0"
            )
        if self.short_window_ticks < 1:   # every mode smooths over this window
            raise ConfigurationError("short_window_ticks must be at least 1")


@dataclass(frozen=True)
class IeegPlantSpec(_FramedPlant):
    """Intracranial EEG with a seizure process, sensed by detection tools."""

    cfg: IeegPlantConfig
    seizures: SeizureGenState
    tools: tuple = ()
    combinator: str = "OR"

    def __post_init__(self) -> None:
        if not self.tools:
            raise ConfigurationError("at least one detection tool is required")
        if self.combinator not in COMBINATORS:
            raise ConfigurationError(f"combinator must be {' or '.join(COMBINATORS)}")
        for t in self.tools:
            if self.cfg.frame_len < FEATURES[t.feature].min_frame_len:
                raise ConfigurationError(f"a {t.feature} tool needs frame_len of at least "
                                         f"{FEATURES[t.feature].min_frame_len} samples")

    @classmethod
    def read(cls, p: dict, f, track: DisturbanceTrack) -> "IeegPlantSpec":
        _known(p, "plant", PLANT_KEYS, ("ieeg", "seizures"))
        cfg = _read(IEEG_PLANT, _require(p, "ieeg", "plant"), "plant.ieeg")
        seizures = _read(SEIZURES, _require(p, "seizures", "plant"), "plant.seizures")
        tools = []
        for t in _require(_object(f, "features"), "tools", "features"):
            _known(_object(t, "detection tool"), "detection tool",
                   ("feature", "threshold", "half_wave"))
            th = _object(t.get("threshold", {}), "detection tool threshold")
            feature, hw = _object(t["feature"], "detection tool feature", str), None
            if feature in FEATURES and FEATURES[feature].needs_half_wave:
                hw = _read(HALF_WAVE, _require(t, "half_wave", f"{feature} tool"), "half_wave")
            tools.append(_read(TOOL, th, "detection tool threshold", feature=feature, half_wave=hw))
        return _read(IEEG_FEATURES, f, "features", also=("tools",), cfg=cfg,
                     seizures=seizures, tools=tuple(tools))


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
class MagnetInterval:
    """Ticks [start_tick, end_tick) during which the patient magnet is applied."""

    start_tick: int
    end_tick: int

    def __post_init__(self) -> None:
        if not (0 <= self.start_tick < self.end_tick):
            raise ConfigurationError(f"magnet interval needs 0 <= start_tick < end_tick, "
                                     f"got [{self.start_tick}, {self.end_tick})")


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


_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", bool: "true or false",
               str: "a JSON string"}


def _object(value, where: str, kind: type = dict):
    """``value`` itself, which must be a JSON object (or of JSON type ``kind``)."""
    if not isinstance(value, kind):
        raise ConfigurationError(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _known(obj: dict, where: str, *keys) -> None:
    """Raise unless each key of ``obj`` is in one of ``keys``: a misspelt key keeps its default."""
    unknown = sorted(k for k in obj if not any(k in known for known in keys))
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")


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
    """``value`` itself, which must be a JSON integer: a float (even 2.0), a bool,
    a string or one past 2**53 - 1 in magnitude, the range JSON readers agree
    on (RFC 8259, section 6), is not one."""
    if isinstance(value, float):
        _finite(value)   # a non-finite float is reported as such
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"value must be a JSON integer, got {value!r}")
    if abs(value) > 2**53 - 1:
        raise ConfigurationError(f"integer {value} lies outside [-(2**53 - 1), 2**53 - 1]")
    return value


def _range(value) -> tuple:
    """``(lo, hi)``: ``value`` must unpack into two finite JSON numbers."""
    lo, hi = value
    return _finite(lo), _finite(hi)


# Converter for each field annotation a key may name (annotations are strings
# under postponed evaluation). A number must be a JSON number (an int a JSON
# integer), a bool, str or tuple a JSON boolean, string or array. The one dict
# field is the device's impedance map, and the one optional tuple the metrics
# range. A plan (a tuple, added with the schema below) reads a nested object.
_CONVERT = {"float": _finite, "int": _int, "bool": lambda v: _object(v, "value", bool),
            "str": lambda v: _object(v, "value", str),
            "tuple": lambda v: tuple(_object(v, "value", list)), "Optional[tuple]": _range,
            "dict": lambda m: {str(k): _finite(v) for k, v in
                               _object(m, "plant.device.impedance_ohm").items()}}


def _plan(cls, keys: str) -> tuple:
    """How ``_read`` builds ``cls``: (cls, defaults, field positions, entries, keys).

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
    return cls, defaults, position, tuple(entries), frozenset(e[1] for e in entries)


def _read(plan: tuple, obj, where: str, also=(), **given):
    """Build ``plan``'s class from the JSON object ``obj`` found at ``where``.

    A key neither the plan's nor in ``also`` raises ConfigurationError, an absent
    required key KeyError (a nested object: ConfigurationError); an absent optional
    key keeps the default. A field whose converter is a plan reads a nested object
    at ``where.key``. ``given``: fields built by the caller.
    """
    cls, defaults, position, entries, keys = plan
    if not isinstance(obj, dict):
        _object(obj, where)  # raises
    _known(obj, where, keys, also)
    args = list(defaults)
    for i, key, convert, required in entries:
        if type(convert) is tuple:
            if required or key in obj:
                args[i] = _read(convert, _require(obj, key, where), f"{where}.{key}")
        elif required or key in obj:
            args[i] = convert(obj[key])
    if given:
        for name, value in given.items():
            args[position[name]] = value
    return cls(*args)


# The file schema: each section's dataclass and the keys read into it. A plan
# entered in _CONVERT reads each field of its class as a nested object.
DOSE = _CONVERT["Dose"] = _plan(Dose, "amplitude_mA pulse_width_us frequency_hz contact_set")
_CONVERT["BetaSuppression"] = _plan(
    BetaSuppression, "baseline=baseline_uV max_suppression_fraction knee_mA softness_mA")
_CONVERT["Optional[StepResponseSpec]"] = _plan(StepResponseSpec, "step_tick tol_frac")
TIMEBASE = _plan(TimeBase, "dt_s duration_s")
DEVICE = _plan(DeviceState, "battery_v eos_threshold_v impedance_ohm_per_contact=impedance_ohm "
                            "compliance_v amp_step_mA amplifier_saturation_uV dc_leak_flag "
                            "drain_v_per_uC impedance_ramp_ohm_per_tick")
ECAP_PARAMS = _plan(EcapPlantParams, "slope_uV_per_mA_at_ref threshold_mA_at_ref distance_ref_mm "
                    "threshold_distance_coeff=threshold_distance_coeff_mA_per_mm "
                    "slope_distance_coeff=slope_distance_coeff_per_mm")
ECAP_PLANT = _plan(EcapPlantSpec, "base_distance_mm sensor_noise_sd_uV")
BETA_PLANT = _plan(BetaPlantConfig,
                   "fs_hz frame_len beta_hz noise_rms_uV gamma_entrainment_uV curve")
IEEG_PLANT = _plan(IeegPlantConfig, "fs_hz frame_len background_sd_uV ictal_amplitude_uV ictal_hz")
SEIZURES = _plan(SeizureGenState,
                 "rate_per_hour base_duration_ticks suppression_prob response_window_ticks")
BETA_FEATURES = _plan(BetaPlantSpec, "band_lo_hz band_hi_hz smooth_s")
HALF_WAVE = _plan(HalfWaveConfig,
                  "min_amplitude_uV min_duration_ticks max_duration_ticks hysteresis_uV")
TOOL = _plan(ToolSpec, "threshold_mode=mode multiplier long_window_ticks short_window_ticks "
                       "fixed_value=value")
IEEG_FEATURES = _plan(IeegPlantSpec, "combinator")
LIMITS = _plan(DoseLimits, "amp_min_mA amp_max_mA max_slew_mA_per_tick max_charge_per_pulse_uC")
TRUST = _plan(TrustConfig, "checks exit_after_consecutive_fails reenter_after_consecutive_passes "
                           "impedance_min_ohm impedance_max_ohm biomarker_min biomarker_max")
BUDGETS = _plan(Budgets, "max_therapies_per_event max_episodes_per_day")
OUTPUTS = _plan(OutputFlags, "timeseries events summary")
METRICS = _plan(MetricsConfig, "biomarker_range=range step_response")
MAGNET = _plan(MagnetInterval, "start_tick end_tick")

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
PLANT_KEYS = ("kind", "device", "disturbances")   # and the kind's own sections
TOP_LEVEL_KEYS = ("schema", "name", "_comment", "timebase", "seed", "baseline_dose", "plant",
                  "features", "policy", "limits", "trust", "fallback", "budgets", "magnet",
                  "outputs", "metrics")
PLANTS = {"ecap": EcapPlantSpec, "beta": BetaPlantSpec, "ieeg": IeegPlantSpec}
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
    return _read(_kind(registry, _require(s, "kind", section), section), s, section, also=("kind",))


def _build_seed(raw: dict) -> int:
    seed = _require(raw, "seed", "scenario")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def _build_plant(raw: dict) -> tuple[PlantSpec, DeviceState]:
    """The plant kind's class, read from ``plant`` and ``features``, and the device."""
    p = _object(_require(raw, "plant", "scenario"), "plant")
    kind = _require(p, "kind", "plant")
    device = _read(DEVICE, _require(p, "device", "plant"), "plant.device")
    track = DisturbanceTrack(tuple(sorted(
        (_read(_kind(DISTURBANCES, _object(d, "disturbance")["kind"], "disturbance"),
               d, "disturbance", also=("kind",)) for d in _object(p.get("disturbances", []),
                                                  "plant.disturbances", list)),
        key=lambda seg: seg.start_tick,
    )))
    plant = _kind(PLANTS, kind, "plant")
    for seg in track.segments:
        if seg.effect not in plant.EFFECTS:
            raise ConfigurationError(
                f"a {kind} plant does not model {type(seg).__name__} disturbances")
    return plant.read(p, raw.get("features", {}), track), device


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a typed Scenario from a parsed JSON object.

    This is ``validate_scenario``'s build: it returns the report's scenario,
    and raises ConfigurationError listing every finding when there is one.
    """
    report = validate_scenario(raw)
    if report.scenario is None:
        raise ConfigurationError("; ".join(f.message for f in report.findings))
    return report.scenario


def load_scenario_file(path) -> dict:
    """Read and JSON-parse a scenario file.

    Raises:
        ScenarioParseError: a path that cannot be read (missing, a directory),
            text that is not UTF-8, malformed JSON with line/column, or JSON
            the parser refuses: nested past the recursion limit, or an
            integer longer than ``sys.get_int_max_str_digits()`` digits.
    """
    try:
        raw = json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as e:
        raise ScenarioParseError(f"{path}: cannot read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ScenarioParseError(f"{path}: not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except RecursionError as e:
        raise ScenarioParseError(f"{path}: JSON nested too deeply to parse") from e
    except ValueError as e:   # the one other refusal: int() of too many digits
        raise ScenarioParseError(f"{path}: a JSON integer has more than "
                                 f"{sys.get_int_max_str_digits()} digits") from e
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: scenario must be a JSON object")
    return raw


# The deepest a ``_comment`` may nest lists and objects. Writing scenario.json
# and pickling a scenario for a forked sweep worker recurse one or two frames
# a level, so deeper comments once validated and then hit the recursion limit
# (1,000 frames by default): sweep on 2 cores from 491 levels, run from 987.
MAX_COMMENT_DEPTH = 100


def _check_comment(comment) -> None:
    """Raise unless scenario.json can hold ``comment``: free text, but JSON
    (no NaN or Infinity) nested at most MAX_COMMENT_DEPTH deep."""
    depth, level = 0, [comment]
    while level := [x for x in level if isinstance(x, (list, dict))]:
        depth += 1
        if depth > MAX_COMMENT_DEPTH:
            raise ValueError(f"_comment nests lists and objects more than "
                             f"{MAX_COMMENT_DEPTH} deep")
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)]
    json.dumps(comment, allow_nan=False)


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
    """Checklist findings, or the scenario when there are none."""

    findings: tuple
    scenario: Optional[Scenario] = None

    @property
    def ok(self) -> bool:
        return self.scenario is not None

    def to_dict(self) -> dict:
        return {"ok": self.ok, "findings": [asdict(f) for f in self.findings]}


def validate_scenario(raw: dict) -> ValidationReport:
    """Build a parsed scenario section by section and run the design checklist.

    Returns a report whose findings are each tagged with the checklist item
    they violate. When the schema matches and every section builds, the
    checklist's cross-checks run on the built scenario, which the report
    carries only when they find nothing: then it is ``ok``, and the scenario
    runs without configuration errors.
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

    attempt(CHECKLIST_VALIDATION, lambda: _known(raw, "scenario", TOP_LEVEL_KEYS))
    name = attempt(CHECKLIST_VALIDATION, lambda: _object(raw.get("name", "unnamed"), "name", str))
    attempt(CHECKLIST_VALIDATION, lambda: _check_comment(raw.get("_comment")))
    timebase = attempt(CHECKLIST_VALIDATION, lambda: _read_section(raw, "timebase", TIMEBASE))
    seed = attempt(CHECKLIST_VALIDATION, lambda: _build_seed(raw))
    baseline = attempt(CHECKLIST_MENTAL_MODEL, lambda: _read_section(raw, "baseline_dose", DOSE))
    plant, device = attempt(CHECKLIST_VARIABLES, lambda: _build_plant(raw)) or (None, None)
    policy = attempt(CHECKLIST_VARIABLES, lambda: _read_kind(raw, "policy", POLICIES))
    limits = attempt(CHECKLIST_LIMITS, lambda: _read_section(raw, "limits", LIMITS))
    trust = attempt(CHECKLIST_FALLBACK, lambda: _read_section(raw, "trust", TRUST))
    fallback = attempt(CHECKLIST_FALLBACK, lambda: _read_kind(raw, "fallback", FALLBACKS))
    budgets = attempt(CHECKLIST_FALLBACK, lambda: _read(
        BUDGETS, raw.get("budgets", {}), "budgets", ticks_per_day=timebase.ticks_per_day(),
    )) if timebase else None
    magnet = attempt(CHECKLIST_DEVICE_STATE, lambda: tuple(_read(MAGNET, iv, "magnet interval")
                     for iv in _object(raw.get("magnet", []), "magnet", list)))
    outputs = attempt(CHECKLIST_DEVICE_STATE, lambda: _read(
        OUTPUTS, raw.get("outputs", {}), "outputs"))
    metrics_cfg = attempt(CHECKLIST_VALIDATION, lambda: _read(
        METRICS, raw.get("metrics", {}), "metrics"))
    if findings:
        return ValidationReport(tuple(findings))

    s = Scenario(
        name=name,
        timebase=timebase,
        seed=seed,
        baseline_dose=baseline,
        plant=plant,
        device=device,
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
    # dose must name a contact the device has an impedance for.
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

    # The actuator floors amplitudes to whole output steps (to the floor's
    # tolerance) after the clamp, so it breaks a floor or slew bound between two.
    for key in ("amp_min_mA", "max_slew_mA_per_tick"):
        if not round(getattr(limits, key) / device.amp_step_mA, 9).is_integer():
            found(CHECKLIST_LIMITS, f"limits.{key} {getattr(limits, key)} is not a whole "
                                    f"number of amp_step_mA {device.amp_step_mA} steps")

    # The charge clamp and the compliance cap (which shrinks as the impedance
    # ramps up) act after the range clamp, so either could break amp_min.
    if limits.amp_min_mA > 0:
        ramp = device.impedance_ramp_ohm_per_tick * timebase.n_ticks
        for role, d in s.doses.items():
            if charge_per_pulse(limits.amp_min_mA, d) > limits.max_charge_per_pulse_uC:
                found(CHECKLIST_LIMITS, f"{role} dose: amp_min {limits.amp_min_mA} mA at "
                                        f"{d.pulse_width_us} µs exceeds max_charge_per_pulse_uC "
                                        f"{limits.max_charge_per_pulse_uC}")
            z = device.impedance_ohm_per_contact.get(d.contact_set)
            if z is not None and device.compliance_cap(max(z, z + ramp)) < limits.amp_min_mA:
                found(CHECKLIST_LIMITS, f"{role} dose: the compliance cap on {d.contact_set!r} "
                                        f"lies below amp_min {limits.amp_min_mA} mA")

    # Each tick adds teed_rate(delivered) * dt_s to the energy total, delivering at most amp_max
    # or, while the impedance only grows, the compliance cap; summary.json needs a finite total.
    # Each tick also takes drain_v_per_uC times its charge off the battery, which never charges;
    # an end-of-service event reports a battery voltage that events.jsonl must hold as a number.
    drain = device.drain_v_per_uC
    if drain < 0:
        found(CHECKLIST_DEVICE_STATE, f"drain_v_per_uC {drain} is negative: the battery never "
                                      "charges")
    # device_step adds the ramp to each impedance once per tick, so a falling impedance is
    # least on the device built at the last tick, which must pass DeviceState's check too.
    falling, n = device.impedance_ramp_ohm_per_tick, timebase.n_ticks
    if falling < 0:   # np.add.accumulate adds one by one, so it gives the same floats
        ends = {c: float(np.add.accumulate(np.concatenate(([z], np.full(n, falling))))[-1])
                for c, z in device.impedance_ohm_per_contact.items()}
        try:
            replace(device, impedance_ohm_per_contact=ends)
        except ConfigurationError as e:
            found(CHECKLIST_DEVICE_STATE, f"impedance_ramp_ohm_per_tick {falling} over {n} "
                                          f"ticks: {e}")
    for role, d in s.doses.items():
        amp = limits.amp_max_mA
        z = device.impedance_ohm_per_contact.get(d.contact_set)
        if z is not None and device.impedance_ramp_ohm_per_tick >= 0:
            amp = min(amp, device.compliance_cap(z))
        if not math.isfinite(amp * amp * d.pulse_width_us * d.frequency_hz
                             * timebase.dt_s * timebase.n_ticks):
            found(CHECKLIST_LIMITS, f"{role} dose: the energy total at {amp} mA is not finite")
        elif drain >= 0 and not math.isfinite(device.battery_v - drain * charge_per_tick(
                amp, d, timebase.dt_s) * timebase.n_ticks):
            found(CHECKLIST_DEVICE_STATE, f"{role} dose: the battery drain at {amp} mA over "
                                          "the run is not finite")

    plant.check(s, found)

    return ValidationReport(tuple(findings), None if findings else s)

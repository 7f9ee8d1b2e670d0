"""Synthetic patient and device models.

This module is the "plant" side of the loop: dose-response curves with the
standard defect families (offset, gain error, noise, non-monotonicity,
saturating suppression), an evoked-potential generator driven by
electrode-to-cord distance, a beta-band field-potential synthesizer with
circadian modulation and artifact injection, a seizure generator with
therapy-dependent early termination, and the stimulator hardware model
(output quantization, voltage compliance, battery, impedance).

Randomness: every stochastic operation takes a ``numpy.random.Generator``,
except the frame synthesizers, which take their standard-normal draws as an
array so that one call can synthesize the frames of many lanes. The engine
derives one independent child stream per plant component from the scenario
seed, so runs are reproducible and plant noise realizations do not depend
on what the controller happens to do.

The beta synthesizer reads the terms of a frame that depend only on the
tick (sample times, carrier, circadian factor, cardiac train, entrained
gamma) from a ``BetaTickTable``, which builds them for 64 ticks at a time
and for every lane at once; each term is bit-identical to its per-tick
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import MAX_FRAME_LEN, ConfigurationError, DomainError, Dose, InvalidPlantError


# ---------------------------------------------------------------------------
# Dose-response curve library
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffsetGain:
    """Linear response with an activation offset: zero below ``offset_mA`` (0: the ideal line)."""

    gain: float  # biomarker units per mA
    offset_mA: float

    def value(self, amplitude_mA: float, rng) -> float:
        return self.gain * max(0.0, amplitude_mA - self.offset_mA)


@dataclass(frozen=True)
class NoisyNonMonotonic(OffsetGain):
    """Offset-linear response that peaks at ``peak_mA`` and then declines.

    With ``noise_sd == 0`` and amplitude at or below the peak this is exactly
    the underlying OffsetGain curve. Above the peak the response falls at
    ``decline_gain`` per mA (defaults to the rising gain).
    """

    peak_mA: float
    noise_sd: float = 0.0
    decline_gain: Optional[float] = None

    def __post_init__(self) -> None:
        if self.peak_mA <= self.offset_mA:
            raise ConfigurationError("peak_mA must lie above offset_mA")
        if self.noise_sd < 0:
            raise ConfigurationError("noise_sd must be nonnegative")

    def value(self, amplitude_mA: float, rng) -> float:
        if amplitude_mA <= self.peak_mA:
            value = super().value(amplitude_mA, rng)
        else:
            at_peak = self.gain * (self.peak_mA - self.offset_mA)
            down = self.decline_gain if self.decline_gain is not None else self.gain
            value = at_peak - down * (amplitude_mA - self.peak_mA)
        if self.noise_sd > 0:
            if rng is None:
                raise DomainError("NoisyNonMonotonic with noise_sd > 0 needs an rng")
            value += rng.normal(0.0, self.noise_sd)
        return value


@dataclass(frozen=True)
class BetaSuppression:
    """Saturating suppression of an oscillatory biomarker by stimulation.

    value(A) = baseline * (1 - max_suppression_fraction * sigma((A - knee_mA) / softness_mA))

    with sigma the logistic function, so the curve is nonincreasing in
    amplitude and its slope magnitude peaks at the knee and strictly
    diminishes above it. Output units are whatever ``baseline`` is in
    (the beta plant uses it as an envelope amplitude in µV).
    """

    baseline: float
    max_suppression_fraction: float
    knee_mA: float
    softness_mA: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.max_suppression_fraction <= 1.0):
            raise ConfigurationError("max_suppression_fraction must be in [0, 1]")
        if self.softness_mA <= 0:
            raise ConfigurationError("softness_mA must be positive")
        if self.baseline < 0:
            raise ConfigurationError("baseline must be nonnegative")

    def value(self, amplitude_mA: float, rng) -> float:
        s = _logistic((amplitude_mA - self.knee_mA) / self.softness_mA)
        return self.baseline * (1.0 - self.max_suppression_fraction * s)


DoseResponseCurve = Union[OffsetGain, NoisyNonMonotonic, BetaSuppression]


def _logistic(x: float) -> float:
    # Clamped to avoid overflow in exp for extreme arguments.
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    z = math.exp(max(x, -700.0))
    return z / (1.0 + z)


def dose_response_eval(
    curve: DoseResponseCurve,
    amplitude_mA: float,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Biomarker value produced by ``amplitude_mA`` under the given curve (its ``value``).

    ``rng`` is only consulted by NoisyNonMonotonic with ``noise_sd > 0``.

    Raises:
        DomainError: negative amplitude, or noise requested without an rng.
    """
    if amplitude_mA < 0:
        raise DomainError(f"amplitude must be nonnegative, got {amplitude_mA}")
    return curve.value(amplitude_mA, rng)


# ---------------------------------------------------------------------------
# Evoked-potential plant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EcapPlantParams:
    """Growth law of the evoked response versus amplitude and distance.

    Above an activation threshold the response grows linearly:

        E(A, d) = k(d) * max(0, A - I_th(d))

    where both the threshold and the recruitment slope shift with the
    electrode-to-cord distance ``d``:

        I_th(d) = threshold_mA_at_ref + threshold_distance_coeff * (d - distance_ref_mm)
        k(d)    = slope_uV_per_mA_at_ref * (1 + slope_distance_coeff * (d - distance_ref_mm))
    """

    slope_uV_per_mA_at_ref: float
    threshold_mA_at_ref: float
    distance_ref_mm: float
    threshold_distance_coeff: float = 0.0  # mA per mm
    slope_distance_coeff: float = 0.0      # fraction per mm

    def __post_init__(self) -> None:
        if self.slope_uV_per_mA_at_ref <= 0:
            raise InvalidPlantError("reference slope must be positive")
        if self.threshold_mA_at_ref < 0:
            raise InvalidPlantError("reference threshold must be nonnegative")

    def threshold_at(self, distance_mm: float) -> float:
        return self.threshold_mA_at_ref + self.threshold_distance_coeff * (
            distance_mm - self.distance_ref_mm
        )

    def slope_at(self, distance_mm: float) -> float:
        return self.slope_uV_per_mA_at_ref * (
            1.0 + self.slope_distance_coeff * (distance_mm - self.distance_ref_mm)
        )

    def validate_over_range(self, d_min_mm: float, d_max_mm: float) -> None:
        """Reject parameterizations that go unphysical anywhere in range, and a
        range that is not finite. The ends bound every distance between them:
        ``slope_at`` and ``threshold_at`` are monotone in distance, also in
        floating point, as each of their operations is."""
        if not (math.isfinite(d_min_mm) and math.isfinite(d_max_mm)):
            raise InvalidPlantError(f"distance range [{d_min_mm}, {d_max_mm}] mm is not finite")
        for d in (d_min_mm, d_max_mm):
            if self.slope_at(d) <= 0:
                raise InvalidPlantError(
                    f"recruitment slope is nonpositive at distance {d} mm"
                )
            if self.threshold_at(d) < 0:
                raise InvalidPlantError(
                    f"activation threshold is negative at distance {d} mm"
                )


def ecap_true(amplitude_mA: float, distance_mm: float, p: EcapPlantParams) -> float:
    """Noise-free evoked-response amplitude in µV for the given drive; the slope
    is positive over a run's distances (``validate_over_range``)."""
    drive = amplitude_mA - p.threshold_at(distance_mm)
    return p.slope_at(distance_mm) * (drive if drive > 0.0 else 0.0)


# ---------------------------------------------------------------------------
# Disturbance track
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PostureStep:
    """Persistent distance offset from ``start_tick`` onward."""

    start_tick: int
    delta_mm: float

    effect = "distance"

    def add_offset(self, d: np.ndarray, ticks: np.ndarray) -> None:
        """Add this segment's offset at each of ``ticks`` to the distances ``d``."""
        d[ticks >= self.start_tick] += self.delta_mm


@dataclass(frozen=True)
class CoughTransient:
    """Triangular distance excursion: up over ``rise_ticks``, back over ``fall_ticks``.

    The contribution is zero at onset, peaks at ``delta_mm`` after
    ``rise_ticks``, and returns exactly to zero after ``rise_ticks +
    fall_ticks``.
    """

    start_tick: int
    delta_mm: float
    rise_ticks: int
    fall_ticks: int

    effect = "distance"

    def __post_init__(self) -> None:
        if self.rise_ticks <= 0 or self.fall_ticks <= 0:
            raise ConfigurationError("rise_ticks and fall_ticks must be positive")

    def add_offset(self, d: np.ndarray, ticks: np.ndarray) -> None:
        """Add this segment's offset at each of ``ticks`` to the distances ``d``."""
        t = ticks - self.start_tick
        rising = (t >= 0) & (t <= self.rise_ticks)
        falling = (t > self.rise_ticks) & (t < self.rise_ticks + self.fall_ticks)
        d[rising] += self.delta_mm * t[rising] / self.rise_ticks
        d[falling] += self.delta_mm * (1.0 - (t[falling] - self.rise_ticks) / self.fall_ticks)


@dataclass(frozen=True)
class CircadianSine:
    """Slow sinusoidal modulation, applied multiplicatively to the beta envelope."""

    start_tick: int
    period_ticks: int
    amplitude: float
    phase: float = 0.0

    effect = "circadian"

    def __post_init__(self) -> None:
        if self.period_ticks <= 0:
            raise ConfigurationError("period_ticks must be positive")


@dataclass(frozen=True)
class CardiacArtifact:
    """Periodic biphasic pulse train contaminating the sensed signal."""

    start_tick: int
    rate_hz: float
    amplitude_uV: float
    pulse_width_s: float = 0.05

    effect = "cardiac"

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ConfigurationError("rate_hz must be positive")


@dataclass(frozen=True)
class DisturbanceTrack:
    """Scheduled disturbances, sorted by start tick."""

    segments: tuple = ()

    def __post_init__(self) -> None:
        starts = [s.start_tick for s in self.segments]
        if starts != sorted(starts):
            raise ConfigurationError("disturbance segments must be sorted by start_tick")

    def with_effect(self, effect: str) -> tuple:
        """The segments whose kind has this ``effect``, in start order: "distance"
        (``add_offset`` shifts the electrode-to-cord distance), "circadian" (the beta
        envelope's modulation) or "cardiac" (a pulse train on the sensed signal)."""
        return tuple(s for s in self.segments if s.effect == effect)


def distance_profile(track: DisturbanceTrack, base_mm: float, n_ticks: int) -> np.ndarray:
    """Electrode-to-cord distance at each tick of a run: base plus active contributions."""
    ticks = np.arange(n_ticks)
    d = np.full(n_ticks, base_mm, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # validate_over_range rejects inf, NaN
        for seg in track.with_effect("distance"):
            seg.add_offset(d, ticks)
    return d


def circadian_factor(track: DisturbanceTrack, tick: int) -> float:
    """Multiplicative envelope modulation at ``tick`` (1.0 with no segments)."""
    f = 1.0
    for seg in track.with_effect("circadian"):
        if tick >= seg.start_tick:
            f += seg.amplitude * math.sin(
                2.0 * math.pi * (tick - seg.start_tick) / seg.period_ticks + seg.phase
            )
    return f


# ---------------------------------------------------------------------------
# Seizure generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActiveSeizure:
    onset_tick: int
    end_tick: int
    suppression_decided: bool = False
    terminated_early: bool = False


@dataclass(frozen=True)
class SeizureGenState:
    """Hazard-driven seizure process with therapy-dependent early termination.

    Onsets are drawn per tick from ``rate_per_hour``; an untreated event
    lasts ``base_duration_ticks``. The first therapy delivered within
    ``response_window_ticks`` of onset terminates the event early with
    probability ``suppression_prob``, decided by a single draw at that
    moment; later therapies in the same event have no further effect.
    At most one seizure is active at a time.
    """

    rate_per_hour: float
    base_duration_ticks: int
    suppression_prob: float = 0.0
    response_window_ticks: int = 1
    current: Optional[ActiveSeizure] = None
    onset_count: int = 0
    early_termination_count: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.suppression_prob <= 1.0):
            raise ConfigurationError("suppression_prob must be in [0, 1]")
        if self.base_duration_ticks <= 0:
            raise ConfigurationError("base_duration_ticks must be positive")
        if self.response_window_ticks <= 0:
            raise ConfigurationError("response_window_ticks must be positive")
        if self.rate_per_hour < 0:
            raise ConfigurationError("rate_per_hour must be nonnegative")


def seizure_step(
    s: SeizureGenState,
    therapy_delivered: bool,
    tick: int,
    dt_s: float,
    rng: np.random.Generator,
) -> tuple[SeizureGenState, bool]:
    """Advance the seizure process one tick; returns (state, seizing now)."""
    cur = s.current
    onsets = s.onset_count
    early = s.early_termination_count

    if cur is None:
        hazard = s.rate_per_hour * dt_s / 3600.0
        if hazard > 0 and rng.random() < hazard:
            cur = ActiveSeizure(
                onset_tick=tick, end_tick=tick + s.base_duration_ticks
            )
            onsets += 1
    elif (
        therapy_delivered
        and not cur.suppression_decided
        and (tick - cur.onset_tick) <= s.response_window_ticks
    ):
        suppressed = rng.random() < s.suppression_prob
        cur = ActiveSeizure(cur.onset_tick, tick if suppressed else cur.end_tick, True, suppressed)
        if suppressed:
            early += 1

    seizing = cur is not None and tick < cur.end_tick
    if cur is not None and tick >= cur.end_tick:
        cur = None
    if cur is s.current and onsets == s.onset_count and early == s.early_termination_count:
        return s, seizing
    return (
        SeizureGenState(s.rate_per_hour, s.base_duration_ticks, s.suppression_prob,
                        s.response_window_ticks, cur, onsets, early),
        seizing,
    )


# ---------------------------------------------------------------------------
# Signal synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FrameConfig:
    """A synthesizer of one frame of ``frame_len`` samples at ``fs_hz`` per tick."""

    fs_hz: float
    frame_len: int

    def __post_init__(self) -> None:
        if self.frame_len < 2:
            raise ConfigurationError("frame_len must be at least 2")
        if self.frame_len > MAX_FRAME_LEN:
            raise ConfigurationError(f"frame_len {self.frame_len} is more than the "
                                     f"{MAX_FRAME_LEN} samples a frame may have")

    @property
    def dt_s(self) -> float:
        return self.frame_len / self.fs_hz


@dataclass(frozen=True)
class BetaPlantConfig(_FrameConfig):
    """Field-potential synthesizer around the beta rhythm.

    Each tick yields ``frame_len`` samples at ``fs_hz``. The beta envelope
    is the suppression curve evaluated at the active amplitude, scaled by
    the circadian factor; broadband sensor noise sits at ``noise_rms_uV``
    RMS. When gamma entrainment is enabled and stimulation is on, a
    component at half the stimulation frequency is added. Cardiac artifact
    segments contribute a biphasic pulse train that overlaps the beta band.
    """

    beta_hz: float
    curve: BetaSuppression
    noise_rms_uV: float = 1.0
    gamma_entrainment_uV: float = 0.0
    disturbances: DisturbanceTrack = field(default_factory=DisturbanceTrack)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0 < self.beta_hz < self.fs_hz / 2):
            raise ConfigurationError("beta_hz must lie below Nyquist")


BLOCK_TICKS = 64   # ticks per block of a BetaTickTable
ENVELOPES = 4096   # distinct amplitudes whose curve value a BetaTickTable keeps


class BetaTickTable:
    """The terms of ``beta_lfp_frame`` that depend only on the tick, built
    for a block of BLOCK_TICKS ticks at a time.

    For each tick of the block (row k): the sample times ``t[k]``, the beta
    carrier, the circadian factor and the summed cardiac pulse train (zero
    before a segment's start tick; None without cardiac segments); and, for
    each stimulation rate asked for in the block, the entrained gamma
    component (``gamma``). Every term is computed by the expression, in the
    operation order, that a per-tick computation would use, so frames built
    from the table are bit-identical to frames computed tick by tick.
    ``row(tick)`` builds the tick's block when the tick lies outside the
    current one. Memory: about 4 x BLOCK_TICKS x ``frame_len`` floats.
    ``envelope(a)`` is the curve's value at a, kept for ENVELOPES exact amplitudes.
    """

    def __init__(self, cfg: BetaPlantConfig) -> None:
        self.cfg = cfg
        self.cardiac_segments = cfg.disturbances.with_effect("cardiac")
        self.start = -BLOCK_TICKS   # first tick of the current block; none built yet
        self._envelopes: dict = {}

    def envelope(self, amplitude_mA: float) -> float:
        """``dose_response_eval(cfg.curve, amplitude_mA)``, evaluated once per amplitude."""
        value = self._envelopes.get(amplitude_mA)
        if value is None:
            if len(self._envelopes) == ENVELOPES:
                self._envelopes.clear()
            value = dose_response_eval(self.cfg.curve, amplitude_mA)
            self._envelopes[amplitude_mA] = value
        return value

    def row(self, tick: int) -> int:
        """The table row of ``tick``, building its block if need be."""
        k = tick - self.start
        if not 0 <= k < BLOCK_TICKS:
            self._build(tick - tick % BLOCK_TICKS)
            k = tick - self.start
        return k

    def _build(self, start: int) -> None:
        cfg = self.cfg
        n = cfg.frame_len
        ticks = np.arange(start, start + BLOCK_TICKS)
        self.start = start
        self.t = t = (ticks[:, None] * n + np.arange(n)) / cfg.fs_hz
        self.carrier = np.sin(2.0 * np.pi * cfg.beta_hz * t)
        self.circadian = [circadian_factor(cfg.disturbances, tick) for tick in ticks.tolist()]
        self.cardiac = None
        if self.cardiac_segments:
            self.cardiac = np.zeros_like(t)
            for seg in self.cardiac_segments:
                on = slice(max(0, seg.start_tick - start), BLOCK_TICKS)
                period = 1.0 / seg.rate_hz
                phase = np.mod(t[on], period)
                self.cardiac[on] += np.where(
                    phase < seg.pulse_width_s,
                    seg.amplitude_uV,
                    np.where(phase < 2 * seg.pulse_width_s, -seg.amplitude_uV, 0.0),
                )
        self._gamma = {}

    def gamma(self, rate_hz) -> np.ndarray:
        """The block's (BLOCK_TICKS, frame_len) gamma rows entrained by ``rate_hz``."""
        rows = self._gamma.get(rate_hz)
        if rows is None:
            rows = self._gamma[rate_hz] = self.cfg.gamma_entrainment_uV * np.sin(
                2.0 * np.pi * (rate_hz / 2.0) * self.t
            )
        return rows


def beta_lfp_frame(
    doses,
    tick: int,
    table: BetaTickTable,
    noise: np.ndarray,
) -> np.ndarray:
    """One tick's worth of synthesized field potential, in µV.

    ``table`` holds the tick-only terms of ``table.cfg``. ``noise`` holds
    standard-normal draws, ``frame_len`` per frame: a 1-D ``noise`` with one
    dose gives one frame, an (S, frame_len) ``noise`` with a sequence of S
    doses gives S frames, row i driven by dose i: anything with an
    ``amplitude_mA`` and a ``frequency_hz``, such as a ``Dose`` or an engine
    lane (its delivered amplitude and template). Frames are phase-coherent
    across ticks (the oscillators run on absolute time). A frame consumes
    exactly ``frame_len`` draws regardless of configuration, so paired runs
    with the same seed see identical noise.
    """
    single = noise.ndim == 1
    if single:
        doses = (doses,)
    cfg = table.cfg
    k = table.row(tick)

    circadian = table.circadian[k]
    envelope = np.array([table.envelope(d.amplitude_mA) * circadian for d in doses])
    frame = envelope[:, None] * table.carrier[k]

    frame += noise * cfg.noise_rms_uV

    if table.cardiac is not None:
        frame += table.cardiac[k]

    if cfg.gamma_entrainment_uV > 0:
        entrained: dict = {}   # stimulation rate -> the rows stimulated at it
        for i, d in enumerate(doses):
            if d.amplitude_mA > 0 and d.frequency_hz > 0:
                entrained.setdefault(d.frequency_hz, []).append(i)
        for rate, rows in entrained.items():
            if len(rows) == len(doses):
                frame += table.gamma(rate)[k]
            else:
                frame[rows] += table.gamma(rate)[k]
    return frame[0] if single else frame


@dataclass(frozen=True)
class IeegPlantConfig(_FrameConfig):
    """Intracranial EEG synthesizer: Gaussian background plus ictal rhythm."""

    background_sd_uV: float
    ictal_amplitude_uV: float
    ictal_hz: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0 < self.ictal_hz < self.fs_hz / 2):
            raise ConfigurationError("ictal_hz must lie below Nyquist")


def ieeg_frame(
    seizing,
    cfg: IeegPlantConfig,
    noise: np.ndarray,
    tick: int = 0,
) -> np.ndarray:
    """One tick of intracranial signal, in µV; rhythmic component when seizing.

    ``noise`` holds ``frame_len`` standard-normal draws per frame: 1-D with a
    bool ``seizing`` for one frame, (..., frame_len) with a flag array of
    shape (...) for many.
    """
    frame = noise * cfg.background_sd_uV
    seizing = np.asarray(seizing)
    if seizing.any():
        n = cfg.frame_len
        t = (tick * n + np.arange(n)) / cfg.fs_hz
        ictal = cfg.ictal_amplitude_uV * np.sin(2.0 * np.pi * cfg.ictal_hz * t)
        if frame.ndim == 1:
            frame += ictal
        else:
            frame[seizing] += ictal
    return frame


# ---------------------------------------------------------------------------
# Device / actuator model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceState:
    """Stimulator hardware state: supply, output stage, electrode interface.

    The output stage delivers current in multiples of ``amp_step_mA`` and
    cannot push more current than ``compliance_v`` allows across the active
    contact's impedance (minor-loop compliance limiting). Battery voltage
    never increases; optional deterministic drain and impedance ramp model
    depletion and tissue encapsulation.
    """

    battery_v: float
    eos_threshold_v: float
    impedance_ohm_per_contact: dict
    compliance_v: float
    amp_step_mA: float
    amplifier_saturation_uV: float = float("inf")
    dc_leak_flag: bool = False
    drain_v_per_uC: float = 0.0
    impedance_ramp_ohm_per_tick: float = 0.0
    # Compliance-limited current per contact set, filled in by actuator_apply.
    _caps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.amp_step_mA <= 0:
            raise ConfigurationError("amp_step_mA must be positive")
        if self.compliance_v <= 0:
            raise ConfigurationError("compliance_v must be positive")
        for contact, z in self.impedance_ohm_per_contact.items():
            if z <= 0 or math.isinf(self.compliance_v / z * 1000.0 / self.amp_step_mA):
                why = "positive" if z <= 0 else "large enough for a finite compliance current"
                raise ConfigurationError(f"impedance of contact {contact!r} must be {why}")

    def compliance_cap(self, z_ohm: float) -> float:
        """The most current the output stage drives across ``z_ohm``, in whole steps."""
        return _floor_to_step(self.compliance_v / z_ohm * 1000.0, self.amp_step_mA)

    def impedance_of(self, contact_set: str) -> float:
        try:
            return self.impedance_ohm_per_contact[contact_set]
        except KeyError:
            raise ConfigurationError(
                f"unknown contact set {contact_set!r}; device knows "
                f"{sorted(self.impedance_ohm_per_contact)}"
            ) from None


def _floor_to_step(x: float, step: float) -> float:
    """``x`` floored to whole multiples of ``step``, tolerating 9-digit noise.

    Defined as ``floor(round(x / step, 9)) * step``: the rounding keeps
    3.1 / 0.1 = 30.999... from flooring to 30. ``round`` with digits goes
    through a decimal string, so the usual cases skip it, with the same
    result. Let q = x / step with 0 <= q < 2**31, n = floor(q), and f = q - n,
    which is exact (Sterbenz). If f <= 0.999999, the 9-digit rounding d of q
    lies in [n, n + 0.9999990005], and converting d to a float moves it by at
    most half an ulp, under 2**-22 below 2**31, so floor(d) = n. If
    f >= 1 - 4e-10, q is nearer n + 1 than the half-unit 5e-10, so d = n + 1.
    The band between, other magnitudes, NaN and inf take the definition
    (which raises on NaN and inf).
    """
    q = x / step
    if 0.0 <= q < 2**31:
        n = math.floor(q)
        f = q - n
        if f <= 0.999999:
            return n * step
        if f >= 1 - 4e-10:
            return (n + 1) * step
    return math.floor(round(q, 9)) * step


def actuator_apply(amplitude_mA: float, template: Dose, dev: DeviceState) -> float:
    """Amplitude the output stage can actually deliver on ``template``'s contact set.

    Amplitude is quantized down to the output resolution, then capped at the
    compliance-limited current for the active contact (the cap itself is a
    whole number of steps, which makes the operation idempotent).

    Raises:
        ConfigurationError: unknown contact set.
    """
    cap = dev._caps.get(template.contact_set)
    if cap is None:
        z = dev.impedance_of(template.contact_set)
        cap = dev._caps[template.contact_set] = dev.compliance_cap(z)
    amp = _floor_to_step(amplitude_mA, dev.amp_step_mA)
    amp = cap if cap < amp else amp
    return amp if amp > 0.0 else 0.0


def device_step(dev: DeviceState, delivered_charge_uC: float) -> DeviceState:
    """Advance the hardware model one tick after delivering the given charge.

    A tick that drains nothing (no drain, or no charge) and ramps no
    impedance leaves the device as it is, and returns it unchanged.
    """
    drained_v = dev.drain_v_per_uC * delivered_charge_uC
    if drained_v == 0.0 and dev.impedance_ramp_ohm_per_tick == 0.0:
        return dev
    new_battery = dev.battery_v - drained_v
    if dev.impedance_ramp_ohm_per_tick != 0.0:
        new_z = {
            c: z + dev.impedance_ramp_ohm_per_tick
            for c, z in dev.impedance_ohm_per_contact.items()
        }
    else:
        new_z = dev.impedance_ohm_per_contact
    return DeviceState(new_battery, dev.eos_threshold_v, new_z, dev.compliance_v, dev.amp_step_mA,
                       dev.amplifier_saturation_uV, dev.dc_leak_flag, dev.drain_v_per_uC,
                       dev.impedance_ramp_ohm_per_tick)

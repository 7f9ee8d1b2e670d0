"""Control policies: pure step functions from biomarker inputs to dose commands.

Six policy families are provided:

  * ManualFixed         — constant dose, ignores every input.
  * BangBangResponsive  — burst delivery triggered by a detection flag,
                          capped at a maximum number of therapies per event,
                          re-armed only after the flag clears.
  * SingleThreshold     — step the amplitude up or down around one threshold.
  * DualThreshold       — hold inside a band, step only outside it.
  * Proportional        — amplitude proportional to the excess over a reference.
  * EcapSetpoint        — incremental regulation of an evoked response toward
                          a target, one update per pulse/tick.

Every policy config has the same tick interface: ``setpoint`` (the level
recorded beside the biomarker, or None), ``target`` (the level biomarker
deviations are measured against in mode comparisons, or None), and
``step(state, measured, quality, detected, amplitude, template) -> (state,
amplitude, template, therapy_started)``: the delivered amplitude (a float)
and the dose it is delivered with, in and out. Each but ManualFixed delegates
to the module-level ``*_step`` function of its family, which works on amplitudes.

Policies emit raw commands. Clamping, slew limiting, and charge limiting all
happen downstream in the safety module so that limit enforcement is testable
in one place. Tie-breaking at thresholds is strict: equality takes the
default/hold action, never the "above" action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import MAX_TICKS, OK_ONLY, ConfigurationError, Dose


class _Regulating:
    """Policies that move the dose according to a measured biomarker.

    On any tick without a usable measurement (none taken, or its quality
    not OK) the policy holds its previous command. Subclasses give
    ``setpoint`` and ``command``.
    """

    target = property(lambda self: self.setpoint)

    def step(self, st, measured, quality, detected, amplitude, template):
        if measured is None or quality != OK_ONLY:
            return st, amplitude, template, False
        return st, self.command(measured, amplitude), template, False


@dataclass(frozen=True)
class ManualFixed:
    """Fixed-output manual loop: the configured dose, every tick."""

    dose: Dose

    setpoint = target = None

    def step(self, st, measured, quality, detected, amplitude, template):
        return st, self.dose.amplitude_mA, self.dose, False


@dataclass(frozen=True)
class BangBangResponsive:
    """Two-state responsive output: burst sequence on detection, else off.

    A therapy is ``bursts_per_therapy`` bursts delivered back to back, each
    ``burst_duration_ticks`` of the burst dose (``inter_burst_gap_ticks`` of
    off-dose between bursts, zero by default). At most
    ``max_therapies_per_event`` therapies are delivered while the detection
    flag stays active; afterwards stimulation stays off until the flag
    clears and a new detection occurs.
    """

    burst_dose: Dose
    bursts_per_therapy: int = 1
    max_therapies_per_event: int = 5
    burst_duration_ticks: int = 1
    inter_burst_gap_ticks: int = 0

    def __post_init__(self) -> None:
        if self.bursts_per_therapy not in (1, 2):
            raise ConfigurationError("bursts_per_therapy must be 1 or 2")
        if self.max_therapies_per_event < 1:
            raise ConfigurationError("max_therapies_per_event must be >= 1")
        if not 1 <= self.burst_duration_ticks <= MAX_TICKS:
            raise ConfigurationError(f"burst_duration_ticks must be in [1, {MAX_TICKS}]")
        if not 0 <= self.inter_burst_gap_ticks <= MAX_TICKS:
            raise ConfigurationError(f"inter_burst_gap_ticks must be in [0, {MAX_TICKS}]")

    setpoint = target = None
    dose = property(lambda self: self.burst_dose)

    def step(self, st, measured, quality, detected, amplitude, template):
        st, amplitude, started = bang_bang_responsive_step(detected, st, self)
        return st, amplitude, self.burst_dose, started

    @property
    def therapy_ticks(self) -> int:
        """Length of one therapy: its bursts and the gap between them."""
        n = self.bursts_per_therapy
        return n * self.burst_duration_ticks + (n - 1) * self.inter_burst_gap_ticks


@dataclass(frozen=True)
class SingleThreshold(_Regulating):
    """Step the dose by ``step_mA`` against one threshold every tick.

    With ``on_above`` (the usual orientation for a biomarker elevated in the
    symptomatic state), a biomarker strictly above the threshold raises the
    amplitude and anything else lowers it.
    """

    threshold: float
    step_mA: float
    on_above: bool = True

    def __post_init__(self) -> None:
        if self.step_mA <= 0:
            raise ConfigurationError("step_mA must be positive")

    setpoint = property(lambda self: self.threshold)

    def command(self, biomarker: float, current: float) -> float:
        return single_threshold_step(biomarker, current, self)


@dataclass(frozen=True)
class DualThreshold(_Regulating):
    """Homeostatic band regulation: hold inside [lower, upper], step outside."""

    lower: float
    upper: float
    step_up_mA: float
    step_down_mA: float

    def __post_init__(self) -> None:
        if not (self.lower < self.upper):
            raise ConfigurationError("need lower < upper")
        if self.step_up_mA <= 0 or self.step_down_mA <= 0:
            raise ConfigurationError("steps must be positive")

    setpoint = property(lambda self: self.upper)

    target = property(lambda self: 0.5 * (self.lower + self.upper))

    def command(self, biomarker: float, current: float) -> float:
        return dual_threshold_step(biomarker, current, self)


@dataclass(frozen=True)
class Proportional(_Regulating):
    """Amplitude scaled to the biomarker's excess over a reference level."""

    reference: float
    gain_mA_per_unit: float

    def __post_init__(self) -> None:
        if self.gain_mA_per_unit <= 0:
            raise ConfigurationError("gain must be positive")

    setpoint = property(lambda self: self.reference)

    def command(self, biomarker: float, current: float) -> float:
        return proportional_step(biomarker, self)


@dataclass(frozen=True)
class EcapSetpoint(_Regulating):
    """Incremental regulation of the evoked response to a target.

    Each tick (one stimulus pulse) the amplitude moves by
    ``gain_mA_per_uV * (target - estimate)`` unless the error is inside the
    deadband. Stable against a linear plant of slope k whenever
    0 < gain * k < 2.
    """

    target_uV: float
    gain_mA_per_uV: float
    deadband_uV: float = 0.0

    def __post_init__(self) -> None:
        if self.gain_mA_per_uV <= 0:
            raise ConfigurationError("gain must be positive")
        if self.deadband_uV < 0:
            raise ConfigurationError("deadband must be nonnegative")

    setpoint = property(lambda self: self.target_uV)

    def command(self, biomarker: float, current: float) -> float:
        return ecap_setpoint_step(biomarker, current, self)


PolicyConfig = Union[
    ManualFixed,
    BangBangResponsive,
    SingleThreshold,
    DualThreshold,
    Proportional,
    EcapSetpoint,
]


@dataclass(frozen=True)
class PolicyState:
    """Counters for the responsive policy (other policies are stateless).

    ``plan_remaining`` counts the ticks of the current therapy still to
    play; ``therapies_delivered_this_event`` resets only after the detection
    flag has cleared.
    """

    therapies_delivered_this_event: int = 0
    plan_remaining: int = 0


def bang_bang_responsive_step(
    detected: bool, st: PolicyState, cfg: BangBangResponsive
) -> tuple[PolicyState, float, bool]:
    """One tick of responsive burst delivery.

    Returns (state, command amplitude, therapy_started); the command is the
    burst dose at its amplitude or at 0.0. A therapy in flight plays to
    completion; a new therapy starts only while the flag is active and the
    per-event budget has room. When the flag is down and nothing is in
    flight, the event is over and the therapy counter re-arms.
    """
    on = cfg.burst_dose.amplitude_mA
    left = st.plan_remaining
    count = st.therapies_delivered_this_event

    if left:
        # The last burst is the final burst_duration_ticks of the plan; in a
        # two-burst therapy the first burst ends a gap before that.
        burst = cfg.burst_duration_ticks
        on_now = left <= burst or left > burst + cfg.inter_burst_gap_ticks
        return PolicyState(count, left - 1), on if on_now else 0.0, False

    if detected:
        if count < cfg.max_therapies_per_event:
            # A therapy opens with a burst tick.
            return PolicyState(count + 1, cfg.therapy_ticks - 1), on, True
        return st, 0.0, False

    # Flag down, nothing in flight: event over, re-arm.
    return (st if count == 0 else PolicyState()), 0.0, False


def single_threshold_step(biomarker: float, current: float, cfg: SingleThreshold) -> float:
    """Step the amplitude against a single threshold (strictly-above triggers)."""
    above = biomarker > cfg.threshold
    increase = above if cfg.on_above else not above
    amp = current + (cfg.step_mA if increase else -cfg.step_mA)
    return amp if amp > 0.0 else 0.0


def dual_threshold_step(biomarker: float, current: float, cfg: DualThreshold) -> float:
    """Hold inside the band; step up above it, step down below it."""
    if biomarker > cfg.upper:
        amp = current + cfg.step_up_mA
    elif biomarker < cfg.lower:
        amp = current - cfg.step_down_mA
    else:
        return current
    return amp if amp > 0.0 else 0.0


def proportional_step(biomarker: float, cfg: Proportional) -> float:
    """Amplitude = gain * max(0, biomarker - reference)."""
    excess = biomarker - cfg.reference
    amp = cfg.gain_mA_per_unit * (excess if excess > 0.0 else 0.0)
    return amp if amp > 0.0 else 0.0


def ecap_setpoint_step(ecap_est: float, current: float, cfg: EcapSetpoint) -> float:
    """Move the amplitude one increment toward the evoked-response target."""
    error = cfg.target_uV - ecap_est
    if abs(error) <= cfg.deadband_uV:
        return current
    amp = current + cfg.gain_mA_per_uV * error
    return amp if amp > 0.0 else 0.0

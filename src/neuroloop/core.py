"""Shared vocabulary for the simulator: time base, doses, events.

Everything here is a plain value type, built only when its value changes:
``Dose.with_amplitude`` returns the dose itself for an unchanged amplitude,
and a dose builds its ``off()`` form once. The simulation advances on a
single global tick; all timestamps in the package are integer tick indices,
never wall-clock times. Dose arithmetic (charge, energy rate) lives here so
that the plant, the controllers, and the metrics all agree on one definition.

Units convention, used package-wide:
    amplitude   mA      (peak current of the stimulus pulse)
    pulse width µs
    frequency   Hz      (pulse repetition rate)
    charge      µC      (per pulse)
    signals     µV
    time        s, or integer ticks of ``TimeBase.dt_s`` seconds
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTimebaseError(SimulationError):
    """Nonpositive step or a duration shorter than one step."""


class DomainError(SimulationError):
    """An argument is outside the operation's mathematical domain."""


class InsufficientDataError(SimulationError):
    """Too few samples to evaluate a feature or threshold."""


class ConfigurationError(SimulationError):
    """Inconsistent or incomplete configuration."""


class InvalidPlantError(SimulationError):
    """Plant parameters that cannot produce a physical response."""


# Biomarker quality flags. Stored as frozensets of these strings so a sample
# can carry several defects at once; OK is only ever reported alone.
QUALITY_OK = "OK"
QUALITY_SATURATED = "Saturated"
QUALITY_FLATLINE = "Flatline"
QUALITY_IMPOSSIBLE = "Impossible"
QUALITY_EXTERNAL_NOISE = "ExternalNoise"

# Biomarker taxonomy tags: three reactive classes plus feedforward signals.
# The loop does not read them; they name each biomarker's class for reports.
KIND_REACTIVE_1 = "Reactive1"   # surrogate of the clinical outcome itself
KIND_REACTIVE_2 = "Reactive2"   # mechanism-of-action proxy
KIND_REACTIVE_3 = "Reactive3"   # delivered-energy measurement
KIND_PREDICTIVE = "Predictive"  # feedforward (posture, time of day, ...)

SEVERITY_INFO = "Info"
SEVERITY_ALERT = "Alert"
SEVERITY_FAULT = "Fault"


@dataclass(frozen=True)
class TimeBase:
    """Discrete time axis: ``n_ticks`` steps of ``dt_s`` seconds each."""

    dt_s: float
    n_ticks: int

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise InvalidTimebaseError(f"dt_s must be positive, got {self.dt_s}")
        if self.n_ticks < 0:
            raise InvalidTimebaseError(f"n_ticks must be >= 0, got {self.n_ticks}")

    @property
    def duration_s(self) -> float:
        return self.dt_s * self.n_ticks

    def ticks_per_day(self) -> int:
        """Ticks in 24 h of simulated time (for daily budget rollover)."""
        return max(1, round(86_400.0 / self.dt_s))


# The most ticks a scenario may run or hold one therapy for: far above every
# shipped scenario, and small enough for the per-tick columns to fit in memory.
MAX_TICKS = 1_000_000


def make_timebase(dt_s: float, duration_s: float) -> TimeBase:
    """Build a time base covering ``duration_s`` seconds at step ``dt_s``.

    The tick count is ``floor(duration_s / dt_s)``; a trailing fraction of a
    step is dropped.

    Raises:
        InvalidTimebaseError: if ``dt_s <= 0`` or ``duration_s < dt_s``.
    """
    if dt_s <= 0:
        raise InvalidTimebaseError(f"dt_s must be positive, got {dt_s}")
    if duration_s < dt_s:
        raise InvalidTimebaseError(
            f"duration_s ({duration_s}) must be at least one step ({dt_s})"
        )
    return TimeBase(dt_s=dt_s, n_ticks=math.floor(duration_s / dt_s))


@dataclass(frozen=True)
class Dose:
    """One stimulation command: intensity, waveform timing, and location.

    ``amplitude_mA == 0`` means stimulation off, whatever the other fields
    say. ``contact_set`` is an opaque label for the active electrode
    configuration; the device model maps it to an impedance.
    """

    amplitude_mA: float
    pulse_width_us: float
    frequency_hz: float
    contact_set: str = "default"

    def __post_init__(self) -> None:
        if self.amplitude_mA < 0 or self.pulse_width_us < 0 or self.frequency_hz < 0:
            raise DomainError(f"dose fields must be nonnegative: {self}")

    def with_amplitude(self, amplitude_mA: float) -> "Dose":
        """This dose with a different amplitude; floors at zero.

        Returns the dose itself when the floored amplitude is the same float
        (same type, value and sign of zero); -0.0 to 0.0 or an int to a float
        changes the repr and JSON form, so it builds a new dose.
        """
        amp = max(0.0, amplitude_mA)
        old = self.amplitude_mA
        if amp == old and type(amp) is type(old) and (amp or math.copysign(1.0, old) > 0):
            return self
        return Dose(amp, self.pulse_width_us, self.frequency_hz, self.contact_set)

    @property
    def is_off(self) -> bool:
        return self.amplitude_mA == 0.0

    def off(self) -> "Dose":
        """This dose switched off; built once per dose."""
        return self._off

    _off = cached_property(lambda self: self.with_amplitude(0.0))


def charge_per_pulse(d: Dose) -> float:
    """Charge of one rectangular pulse, in µC.

    charge [µC] = amplitude [mA] * pulse width [µs] * 1e-3
    """
    return d.amplitude_mA * d.pulse_width_us * 1e-3


def teed_rate(d: Dose) -> float:
    """Energy-delivery proxy per second of stimulation.

    rate = amplitude^2 * pulse_width_us * frequency_hz

    An impedance-normalized proxy: zero iff any factor is zero, strictly
    increasing in amplitude with the other fields fixed and positive. The
    electrode impedance is deliberately not folded in here; the device model
    owns impedance.
    """
    return d.amplitude_mA ** 2 * d.pulse_width_us * d.frequency_hz


def charge_per_tick(d: Dose, dt_s: float) -> float:
    """Total charge delivered during one tick, in µC (pulses/tick * µC/pulse)."""
    return charge_per_pulse(d) * d.frequency_hz * dt_s


@dataclass(frozen=True)
class DoseLimits:
    """Hard actuation limits, enforced on the delivered dose in every mode."""

    amp_min_mA: float
    amp_max_mA: float
    max_slew_mA_per_tick: float
    max_charge_per_pulse_uC: float

    def __post_init__(self) -> None:
        if not (0 <= self.amp_min_mA <= self.amp_max_mA):
            raise ConfigurationError(
                f"need 0 <= amp_min ({self.amp_min_mA}) <= amp_max ({self.amp_max_mA})"
            )
        if self.max_slew_mA_per_tick <= 0:
            raise ConfigurationError("max_slew_mA_per_tick must be positive")
        if self.max_charge_per_pulse_uC <= 0:
            raise ConfigurationError("max_charge_per_pulse_uC must be positive")


@dataclass(frozen=True)
class EventRecord:
    """One line of the append-only run log.

    Within a run, records are sorted by tick with ties broken by emission
    order; the log itself (see ``safety.EventLog``) enforces append-only.
    """

    tick: int
    severity: str
    code: str
    payload: Mapping = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "severity": self.severity,
            "code": self.code,
            "payload": dict(self.payload),
        }

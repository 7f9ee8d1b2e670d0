"""Shared vocabulary for the simulator: time base, doses, events.

Everything here is a plain value type. The run loop carries a delivered
amplitude as a float beside a template ``Dose`` for the pulse width, rate and
contact set, so the dose arithmetic takes both, and floors an amplitude with
``a if a > 0.0 else 0.0``: the same object as ``max(0.0, a)`` (ints stay
ints, -0.0 becomes 0.0) without a builtin call on the tick path. The
simulation advances on a single global tick; all timestamps in the package
are integer tick indices, never wall-clock times.
Dose arithmetic lives here so that the plant, the controllers, and the
metrics all agree on one definition.

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
OK_ONLY = frozenset({QUALITY_OK})   # the quality of a sample with no defect

SEVERITY_INFO = "Info"
SEVERITY_ALERT = "Alert"
SEVERITY_FAULT = "Fault"


# The most ticks a scenario may run or hold one therapy for: far above every
# shipped scenario, and small enough for the per-tick columns to fit in memory.
MAX_TICKS = 1_000_000
# The most samples a synthesized frame may hold: far above every shipped scenario (64), and
# small enough for a lane's engine.NOISE_CHUNK noise frames (2 MiB at it) to fit in memory.
MAX_FRAME_LEN = 8192


@dataclass(frozen=True)
class TimeBase:
    """Discrete time axis covering ``duration_s`` seconds in steps of ``dt_s``.

    The tick count ``n_ticks`` is ``floor(duration_s / dt_s)``; a trailing
    fraction of a step is dropped.

    Raises:
        InvalidTimebaseError: if ``dt_s <= 0`` or ``duration_s < dt_s``.
        ConfigurationError: if there are more than ``MAX_TICKS`` ticks.
    """

    dt_s: float
    duration_s: float
    n_ticks: int = field(init=False)

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise InvalidTimebaseError(f"dt_s must be positive, got {self.dt_s}")
        if self.duration_s < self.dt_s:
            raise InvalidTimebaseError(
                f"duration_s ({self.duration_s}) must be at least one step ({self.dt_s})"
            )
        n_ticks = math.floor(self.duration_s / self.dt_s)
        if n_ticks > MAX_TICKS:
            raise ConfigurationError(
                f"timebase has {n_ticks} ticks, more than the {MAX_TICKS} a run may have"
            )
        object.__setattr__(self, "n_ticks", n_ticks)

    def ticks_per_day(self) -> int:
        """Ticks in 24 h of simulated time (for daily budget rollover)."""
        return max(1, round(86_400.0 / self.dt_s))


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


def charge_per_pulse(amplitude_mA: float, d: Dose) -> float:
    """Charge of one rectangular pulse at ``amplitude_mA`` with ``d``'s pulse width, in µC.

    charge [µC] = amplitude [mA] * pulse width [µs] * 1e-3
    """
    return amplitude_mA * d.pulse_width_us * 1e-3


def teed_rate(amplitude_mA: float, d: Dose) -> float:
    """Energy-delivery proxy per second of stimulation at ``amplitude_mA`` with ``d``'s timing.

    rate = amplitude^2 * pulse_width_us * frequency_hz

    An impedance-normalized proxy: zero iff any factor is zero, strictly
    increasing in amplitude with the other fields fixed and positive. The
    electrode impedance is deliberately not folded in here; the device model
    owns impedance.
    """
    return amplitude_mA ** 2 * d.pulse_width_us * d.frequency_hz


def charge_per_tick(amplitude_mA: float, d: Dose, dt_s: float) -> float:
    """Total charge delivered during one tick, in µC (pulses/tick * µC/pulse)."""
    return charge_per_pulse(amplitude_mA, d) * d.frequency_hz * dt_s


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
    """One line of a run's event log, a list the loop only appends to.

    Within a run, records are sorted by tick with ties broken by emission order.
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

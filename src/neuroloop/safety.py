"""Risk-mitigation machinery: limits, trust checks, supervisor, budgets, log.

The safety layer sits between the control policy and the actuator. Every
command — whatever mode the loop is in — passes through ``clamp_and_slew``,
so amplitude bounds, slew limits, and charge limits hold unconditionally.
Trust checks watch the sensing and device assumptions; enough consecutive
failures drive the supervisor from Automated into a fallback mode, and only
enough consecutive passes let it back in. Each check is one bit of a
failed-check mask. The dwell streaks are the caller's counters, not
supervisor state, and the device checks need re-running only when the
(frozen) device state is a new object. Magnet application suspends
therapy and restores the previous mode on removal. End-of-service and
DC-leak conditions latch the device into reset states for the rest of the
run: nothing a scenario can express leaves them.

All transitions and limit interventions are recorded in an append-only
event log whose codes are stable strings (see EVENT_* constants); replaying
the MODE_* records reconstructs the mode trajectory exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .core import (
    ConfigurationError,
    Dose,
    DoseLimits,
    EventRecord,
    QUALITY_OK,
    SEVERITY_ALERT,
    SEVERITY_FAULT,
    SEVERITY_INFO,
    charge_per_pulse,
)
from .plant import DeviceState

# Supervisor modes (stable strings, used in the timeseries output).
MODE_AUTOMATED = "Automated"
MODE_FALLBACK = "Fallback"
MODE_SUSPENDED_MAGNET = "SuspendedMagnet"
MODE_EOS_RESET = "EosReset"
MODE_DC_LEAK_RESET = "DcLeakReset"

RESET_MODES = (MODE_EOS_RESET, MODE_DC_LEAK_RESET)

# Event codes (stable strings, emitted as JSON-lines records).
EVENT_MODE_AUTOMATED = "MODE_AUTOMATED"
EVENT_MODE_FALLBACK = "MODE_FALLBACK"
EVENT_MODE_SUSPEND_MAGNET = "MODE_SUSPEND_MAGNET"
EVENT_MODE_EOS_RESET = "MODE_EOS_RESET"
EVENT_MODE_DC_LEAK_RESET = "MODE_DC_LEAK_RESET"
EVENT_LIMIT_CLAMP = "LIMIT_CLAMP"
EVENT_SLEW_CLAMP = "SLEW_CLAMP"
EVENT_CHARGE_CLAMP = "CHARGE_CLAMP"
EVENT_TRUST_FAIL = "TRUST_FAIL"
EVENT_TRUST_REENTER = "TRUST_REENTER"
EVENT_BUDGET_DENY = "BUDGET_DENY"
EVENT_DAY_ROLLOVER = "DAY_ROLLOVER"
EVENT_RUN_FAULT = "RUN_FAULT"

MODE_EVENT_CODES = {
    MODE_AUTOMATED: EVENT_MODE_AUTOMATED,
    MODE_FALLBACK: EVENT_MODE_FALLBACK,
    MODE_SUSPENDED_MAGNET: EVENT_MODE_SUSPEND_MAGNET,
    MODE_EOS_RESET: EVENT_MODE_EOS_RESET,
    MODE_DC_LEAK_RESET: EVENT_MODE_DC_LEAK_RESET,
}

# Trust check names, and each check's bit in a mask of failed checks.
CHECK_QUALITY_OK = "QualityOK"
CHECK_ECAP_NONNEGATIVE = "EcapNonNegative"
CHECK_BATTERY_ABOVE_EOS = "BatteryAboveEos"
CHECK_IMPEDANCE_IN_RANGE = "ImpedanceInRange"
CHECK_NO_DC_LEAK = "NoDcLeak"
CHECK_BIOMARKER_IN_PHYS_RANGE = "BiomarkerInPhysRange"
_QUALITY_BIT, _ECAP_BIT, _BATTERY_BIT, _IMPEDANCE_BIT, _DC_LEAK_BIT, _BIOMARKER_BIT = (
    1, 2, 4, 8, 16, 32)
CHECK_BITS = {
    CHECK_QUALITY_OK: _QUALITY_BIT, CHECK_ECAP_NONNEGATIVE: _ECAP_BIT,
    CHECK_BATTERY_ABOVE_EOS: _BATTERY_BIT, CHECK_IMPEDANCE_IN_RANGE: _IMPEDANCE_BIT,
    CHECK_NO_DC_LEAK: _DC_LEAK_BIT, CHECK_BIOMARKER_IN_PHYS_RANGE: _BIOMARKER_BIT,
}


class EventLog:
    """Append-only run log, single writer, emission order preserved."""

    def __init__(self) -> None:
        self._records: list[EventRecord] = []

    def append(self, rec: EventRecord) -> None:
        self._records.append(rec)

    def extend(self, recs) -> None:
        self._records.extend(recs)

    @property
    def records(self) -> tuple:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def count(self, code: str) -> int:
        return sum(1 for r in self._records if r.code == code)


# ---------------------------------------------------------------------------
# Dose limiting
# ---------------------------------------------------------------------------

def clamp_and_slew(
    command: Dose,
    limits: DoseLimits,
    prev_delivered: Dose,
    tick: int = 0,
) -> tuple[Dose, list[EventRecord]]:
    """Legalize a dose command; never raises, always yields a compliant dose.

    Order is fixed: slew-limit the amplitude relative to the previously
    delivered dose, then clamp into [amp_min, amp_max] (clamping last so the
    result is always in range even when the slew alone would not reach it),
    then reduce the amplitude if the per-pulse charge limit is exceeded.
    Each intervention emits an Alert event.
    """
    events: list[EventRecord] = []
    amp = command.amplitude_mA

    lo = prev_delivered.amplitude_mA - limits.max_slew_mA_per_tick
    hi = prev_delivered.amplitude_mA + limits.max_slew_mA_per_tick
    slewed = min(max(amp, lo), hi)
    if slewed != amp:
        events.append(
            EventRecord(
                tick,
                SEVERITY_ALERT,
                EVENT_SLEW_CLAMP,
                {"requested_mA": amp, "slewed_mA": slewed},
            )
        )

    clamped = min(max(slewed, limits.amp_min_mA), limits.amp_max_mA)
    if clamped != slewed:
        events.append(
            EventRecord(
                tick,
                SEVERITY_ALERT,
                EVENT_LIMIT_CLAMP,
                {"requested_mA": slewed, "clamped_mA": clamped},
            )
        )

    result = command.with_amplitude(clamped)
    q = charge_per_pulse(result)
    if q > limits.max_charge_per_pulse_uC and result.pulse_width_us > 0:
        safe_amp = limits.max_charge_per_pulse_uC / (result.pulse_width_us * 1e-3)
        events.append(
            EventRecord(
                tick,
                SEVERITY_ALERT,
                EVENT_CHARGE_CLAMP,
                {"charge_uC": q, "reduced_to_mA": safe_amp},
            )
        )
        result = result.with_amplitude(safe_amp)
    return result, events


# ---------------------------------------------------------------------------
# Trust checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrustConfig:
    """Which loop assumptions to verify each tick, and the dwell criteria.

    ``exit_after_consecutive_fails`` (K_exit) failures in a row push the
    supervisor out of Automated; ``reenter_after_consecutive_passes``
    (K_enter) passes in a row let it back in. ``mask`` ORs the enabled
    checks' bits.
    """

    exit_after_consecutive_fails: int
    reenter_after_consecutive_passes: int
    checks: tuple = ()
    impedance_min_ohm: float = 50.0
    impedance_max_ohm: float = 10_000.0
    biomarker_min: float = float("-inf")
    biomarker_max: float = float("inf")
    mask: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.exit_after_consecutive_fails < 1:
            raise ConfigurationError("K_exit must be >= 1")
        if self.reenter_after_consecutive_passes < 1:
            raise ConfigurationError("K_enter must be >= 1")
        mask = 0
        for c in self.checks:
            if not isinstance(c, str) or c not in CHECK_BITS:
                raise ConfigurationError(f"unknown trust check {c!r}")
            mask |= CHECK_BITS[c]
        object.__setattr__(self, "mask", mask)

    def names(self, failed: int) -> list:
        """The enabled checks whose bits are set in ``failed``, in ``checks`` order."""
        return [c for c in self.checks if CHECK_BITS[c] & failed]


_OK_ONLY = frozenset({QUALITY_OK})


def failed_device_checks(cfg: TrustConfig, device: DeviceState, contact_set: str) -> int:
    """The mask of the device checks ``device`` fails, enabled or not.

    A ``DeviceState`` is frozen, so a lane runs this only when its device
    object changes; ``trust_check_step`` keeps the enabled checks' bits.
    """
    failed = 0
    if device.battery_v < device.eos_threshold_v:
        failed |= _BATTERY_BIT
    if not cfg.impedance_min_ohm <= device.impedance_of(contact_set) <= cfg.impedance_max_ohm:
        failed |= _IMPEDANCE_BIT
    if device.dc_leak_flag:
        failed |= _DC_LEAK_BIT
    return failed


# ---------------------------------------------------------------------------
# Fallback configuration
# ---------------------------------------------------------------------------

# Each fallback kind's ``dose_for(st, baseline)`` is the dose it delivers.

@dataclass(frozen=True)
class FallbackOff:
    """Stimulation off until re-entry."""

    def dose_for(self, st: "SupervisorState", baseline: Dose) -> Dose:
        return baseline.off()


@dataclass(frozen=True)
class FixedSafe:
    """A constant dose inside the safe therapeutic range."""

    dose: Dose

    def dose_for(self, st: "SupervisorState", baseline: Dose) -> Dose:
        return self.dose


@dataclass(frozen=True)
class LastKnownGood:
    """Hold the most recent dose delivered under a passing trust verdict."""

    def dose_for(self, st: "SupervisorState", baseline: Dose) -> Dose:
        return st.last_known_good if st.last_known_good is not None else baseline


@dataclass(frozen=True)
class ManualLoop:
    """Revert to fixed-output manual-loop stimulation at the given dose."""

    dose: Dose

    def dose_for(self, st: "SupervisorState", baseline: Dose) -> Dose:
        return self.dose


FallbackKind = Union[FallbackOff, FixedSafe, LastKnownGood, ManualLoop]


def fallback_dose(kind: FallbackKind, st: "SupervisorState", baseline: Dose) -> Dose:
    """The dose a fallback mode delivers, constant while the mode persists."""
    return kind.dose_for(st, baseline)


# ---------------------------------------------------------------------------
# Supervisor state machine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisorState:
    """Mode plus the capture registers that drive it.

    The dwell streaks are not here: they change on every tick, so each lane
    keeps them as plain counters and passes them to ``supervisor_step``.
    """

    mode: str = MODE_AUTOMATED
    last_known_good: Optional[Dose] = None
    resume_mode: str = MODE_AUTOMATED  # mode to restore when the magnet lifts
    magnet_prev: bool = False
    dc_leak_prev: bool = False

    @property
    def in_reset(self) -> bool:
        return self.mode in RESET_MODES

    def moved(self, mode: str, edges: tuple, resume_mode: Optional[str] = None,
              last_known_good: Optional[Dose] = None) -> "SupervisorState":
        """This state in ``mode`` with this tick's (magnet, DC leak) edge registers.

        A ``resume_mode`` or ``last_known_good`` of None keeps this state's.
        """
        return SupervisorState(mode, last_known_good or self.last_known_good,
                               resume_mode or self.resume_mode, *edges)


def trust_check_step(cfg: TrustConfig, quality: frozenset, ecap_est_uV: Optional[float],
                     biomarker: Optional[float], device_fails: int, fail_streak: int,
                     pass_streak: int) -> tuple[int, int, int]:
    """Evaluate the enabled checks and update the dwell streaks.

    The signal checks (QualityOK, EcapNonNegative, BiomarkerInPhysRange) read
    this tick's reading; ``device_fails`` is ``failed_device_checks`` of the
    lane's device. Returns (fail_streak, pass_streak, failed_mask): the tick
    passes when the mask is 0. A pass resets the fail streak and vice versa.
    """
    failed = device_fails
    if quality != _OK_ONLY:
        failed |= _QUALITY_BIT
    if ecap_est_uV is not None and ecap_est_uV < 0.0:
        failed |= _ECAP_BIT
    if biomarker is not None and not cfg.biomarker_min <= biomarker <= cfg.biomarker_max:
        failed |= _BIOMARKER_BIT
    failed &= cfg.mask
    if failed:
        return fail_streak + 1, 0, failed
    return 0, pass_streak + 1, 0


def supervisor_step(st: SupervisorState, fail_streak: int, pass_streak: int,
                    magnet_applied: bool, device: DeviceState, trust: TrustConfig,
                    fallback: FallbackKind, tick: int = 0,
                    last_good_candidate: Optional[Dose] = None,
                    ) -> tuple[SupervisorState, list[EventRecord]]:
    """Advance the mode machine one tick, given the lane's dwell streaks.

    Precedence, highest first: DC leak, end of service, magnet, trust
    dwell rules. Reset modes latch for the rest of the run: any transition
    that would otherwise fire is suppressed with an Info record. The
    streaks are read, never changed, so magnet suspension preserves them;
    removal restores the pre-suspension mode.
    """
    events: list[EventRecord] = []

    def emit(target_mode: str, severity: str, payload: Optional[dict] = None) -> None:
        events.append(
            EventRecord(tick, severity, MODE_EVENT_CODES[target_mode], payload or {})
        )

    # Every transition records this tick's magnet and DC-leak edges. Staying
    # in the same mode changes only those, and when they do not change the
    # state is returned as it is.
    edges = (magnet_applied, device.dc_leak_flag)
    stay = st if (st.magnet_prev, st.dc_leak_prev) == edges else st.moved(st.mode, edges)

    if st.in_reset:
        # Latched. Report (once, on the rising edge) anything that would
        # normally transition, then stay put.
        if device.dc_leak_flag and not st.dc_leak_prev and st.mode != MODE_DC_LEAK_RESET:
            emit(MODE_DC_LEAK_RESET, SEVERITY_INFO, {"suppressed_by": st.mode})
        if magnet_applied and not st.magnet_prev:
            emit(MODE_SUSPENDED_MAGNET, SEVERITY_INFO, {"suppressed_by": st.mode})
        return stay, events

    if device.dc_leak_flag:
        emit(MODE_DC_LEAK_RESET, SEVERITY_FAULT, {"from": st.mode})
        return st.moved(MODE_DC_LEAK_RESET, edges), events

    if device.battery_v < device.eos_threshold_v:
        emit(
            MODE_EOS_RESET,
            SEVERITY_FAULT,
            {"from": st.mode, "battery_v": device.battery_v},
        )
        return st.moved(MODE_EOS_RESET, edges), events

    if magnet_applied:
        if st.mode != MODE_SUSPENDED_MAGNET:
            emit(MODE_SUSPENDED_MAGNET, SEVERITY_ALERT, {"from": st.mode})
            return st.moved(MODE_SUSPENDED_MAGNET, edges, resume_mode=st.mode), events
        return stay, events

    if st.mode == MODE_SUSPENDED_MAGNET:
        emit(st.resume_mode, SEVERITY_ALERT, {"from": MODE_SUSPENDED_MAGNET})
        return st.moved(st.resume_mode, edges), events

    if st.mode == MODE_AUTOMATED:
        if fail_streak >= trust.exit_after_consecutive_fails:
            emit(MODE_FALLBACK, SEVERITY_ALERT,
                 {"kind": type(fallback).__name__, "fail_streak": fail_streak})
            return st.moved(MODE_FALLBACK, edges, last_known_good=last_good_candidate), events
        return stay, events

    if st.mode == MODE_FALLBACK:
        if pass_streak >= trust.reenter_after_consecutive_passes:
            events.append(EventRecord(tick, SEVERITY_INFO, EVENT_TRUST_REENTER,
                                      {"pass_streak": pass_streak}))
            emit(MODE_AUTOMATED, SEVERITY_ALERT, {"from": MODE_FALLBACK})
            return st.moved(MODE_AUTOMATED, edges), events
        return stay, events

    raise ConfigurationError(f"unknown supervisor mode {st.mode!r}")


# ---------------------------------------------------------------------------
# Therapy and episode budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Budgets:
    """Per-event therapy cap and per-day episode cap.

    An episode starts on the detection flag's rising edge. Episodes beyond
    the daily maximum get no therapies at all. The day boundary is every
    24 h of simulated time from run start.
    """

    max_therapies_per_event: int = 5
    max_episodes_per_day: int = 1_000_000
    ticks_per_day: int = 86_400_000
    therapies_this_event: int = 0
    episodes_today: int = 0
    event_active: bool = False
    current_event_budgeted: bool = True

    def __post_init__(self) -> None:
        if self.max_therapies_per_event < 0:
            raise ConfigurationError("max_therapies_per_event must be >= 0")
        if self.max_episodes_per_day < 0:
            raise ConfigurationError("max_episodes_per_day must be >= 0")
        if self.ticks_per_day < 1:
            raise ConfigurationError("ticks_per_day must be >= 1")
        if self.episodes_today > self.max_episodes_per_day:
            raise ConfigurationError("episodes_today exceeds max_episodes_per_day")

    def counted(self, therapies: int, episodes: int, active: bool, budgeted: bool) -> "Budgets":
        """These caps with the given counters and event flags."""
        return Budgets(self.max_therapies_per_event, self.max_episodes_per_day,
                       self.ticks_per_day, therapies, episodes, active, budgeted)


def therapy_and_episode_budget_step(
    b: Budgets, event_active: bool, therapy_requested: bool, tick: int
) -> tuple[Budgets, bool, list[EventRecord]]:
    """Advance budget bookkeeping one tick; returns (budgets, allow, events)."""
    events: list[EventRecord] = []

    if tick > 0 and tick % b.ticks_per_day == 0:
        events.append(
            EventRecord(
                tick, SEVERITY_INFO, EVENT_DAY_ROLLOVER, {"episodes": b.episodes_today}
            )
        )
        b = b.counted(b.therapies_this_event, 0, b.event_active, b.current_event_budgeted)

    if event_active and not b.event_active:
        if b.episodes_today < b.max_episodes_per_day:
            b = b.counted(0, b.episodes_today + 1, True, True)
        else:
            b = b.counted(0, b.episodes_today, True, False)
    elif not event_active and b.event_active:
        b = b.counted(0, b.episodes_today, False, b.current_event_budgeted)

    allow = False
    if therapy_requested:
        allow = (
            b.current_event_budgeted
            and b.therapies_this_event < b.max_therapies_per_event
        )
        if allow:
            b = b.counted(b.therapies_this_event + 1, b.episodes_today, b.event_active,
                          b.current_event_budgeted)
        else:
            events.append(
                EventRecord(
                    tick,
                    SEVERITY_INFO,
                    EVENT_BUDGET_DENY,
                    {
                        "therapies_this_event": b.therapies_this_event,
                        "episode_budgeted": b.current_event_budgeted,
                    },
                )
            )
    return b, allow, events

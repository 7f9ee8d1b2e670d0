"""Risk-mitigation machinery: limits, trust checks, supervisor, budgets.

The safety layer sits between the control policy and the actuator. Every
command — whatever mode the loop is in — passes through ``clamp_and_slew``,
so amplitude bounds, slew limits, and charge limits hold unconditionally.
Trust checks watch the sensing and device assumptions; enough consecutive
failures drive the supervisor from Automated into a fallback mode, and only
enough consecutive passes let it back in. Each check is one bit of a
failed-check mask. The dwell streaks are the caller's counters, not
supervisor state, and the device checks need re-running only when the
(frozen) device state is a new object or the delivering contact set
changes. Magnet application suspends therapy and restores the previous
mode on removal. End-of-service and DC-leak conditions latch the device
into reset states for the rest of the run: nothing a scenario can express
leaves them.

The supervisor, the budget step and ``clamp_and_slew`` append each
transition and limit intervention to the lane's event list (``log``, a plain
list of ``EventRecord``). Event codes are stable strings (see EVENT_*
constants); replaying the MODE_* records reconstructs the mode trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .core import (
    ConfigurationError,
    Dose,
    DoseLimits,
    EventRecord,
    OK_ONLY,
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


# ---------------------------------------------------------------------------
# Dose limiting
# ---------------------------------------------------------------------------

def clamp_and_slew(
    command_mA: float,
    template: Dose,
    limits: DoseLimits,
    prev_delivered_mA: float,
    log: list,
    tick: int = 0,
) -> float:
    """Legalize a commanded amplitude; never raises, always yields a compliant one.

    ``template`` is the commanded dose, whose pulse width the charge limit
    reads. Order is fixed: slew-limit the amplitude relative to the
    previously delivered one, then clamp into [amp_min, amp_max] (clamping
    last so the result is always in range even when the slew alone would not
    reach it), then reduce the amplitude if the per-pulse charge limit is
    exceeded. Each intervention appends an Alert event to ``log``.

    The clamps are comparisons with the semantics of builtin ``min`` and
    ``max`` (``max(a, b)`` is ``b if b > a else a``), without their call cost.
    """
    slew = limits.max_slew_mA_per_tick
    lo = prev_delivered_mA - slew
    hi = prev_delivered_mA + slew
    slewed = lo if lo > command_mA else command_mA
    slewed = hi if hi < slewed else slewed
    if slewed != command_mA:
        log.append(EventRecord(tick, SEVERITY_ALERT, EVENT_SLEW_CLAMP,
                               {"requested_mA": command_mA, "slewed_mA": slewed}))

    amp_min, amp_max = limits.amp_min_mA, limits.amp_max_mA
    clamped = amp_min if amp_min > slewed else slewed
    clamped = amp_max if amp_max < clamped else clamped
    if clamped != slewed:
        log.append(EventRecord(tick, SEVERITY_ALERT, EVENT_LIMIT_CLAMP,
                               {"requested_mA": slewed, "clamped_mA": clamped}))

    result = clamped if clamped > 0.0 else 0.0
    q = charge_per_pulse(result, template)
    if q > limits.max_charge_per_pulse_uC and template.pulse_width_us > 0:
        safe_amp = limits.max_charge_per_pulse_uC / (template.pulse_width_us * 1e-3)
        log.append(EventRecord(tick, SEVERITY_ALERT, EVENT_CHARGE_CLAMP,
                               {"charge_uC": q, "reduced_to_mA": safe_amp}))
        result = safe_amp if safe_amp > 0.0 else 0.0
    return result


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


def failed_device_checks(cfg: TrustConfig, device: DeviceState, contact_set: str) -> int:
    """The mask of the device checks ``device`` fails, enabled or not.

    A ``DeviceState`` is frozen, so a lane runs this only when its device
    object or ``contact_set`` (the delivering dose's) changes;
    ``trust_check_step`` keeps the enabled checks' bits.
    """
    failed = 0
    if device.battery_v < device.eos_threshold_v:
        failed |= _BATTERY_BIT
    z = device.impedance_ohm_per_contact[contact_set]   # validation keeps contact_set known
    if not cfg.impedance_min_ohm <= z <= cfg.impedance_max_ohm:
        failed |= _IMPEDANCE_BIT
    if device.dc_leak_flag:
        failed |= _DC_LEAK_BIT
    return failed


# ---------------------------------------------------------------------------
# Fallback configuration
# ---------------------------------------------------------------------------

# Each fallback kind's ``dose_for(last_good, baseline)`` is the (amplitude,
# template dose) it delivers. ``last_good`` is the lane's register of the last
# one the automated loop delivered under a passing verdict, or None.

@dataclass(frozen=True)
class FallbackOff:
    """Stimulation off until re-entry."""

    def dose_for(self, last_good: Optional[tuple], baseline: Dose) -> tuple:
        return 0.0, baseline


@dataclass(frozen=True)
class FixedSafe:
    """A constant dose inside the safe therapeutic range."""

    dose: Dose

    def dose_for(self, last_good: Optional[tuple], baseline: Dose) -> tuple:
        return self.dose.amplitude_mA, self.dose


@dataclass(frozen=True)
class LastKnownGood:
    """Hold the lane's last-good dose; the baseline dose before there is one."""

    def dose_for(self, last_good: Optional[tuple], baseline: Dose) -> tuple:
        return last_good if last_good is not None else (baseline.amplitude_mA, baseline)


class ManualLoop(FixedSafe):
    """Revert to fixed-output manual-loop stimulation at the given dose."""


FallbackKind = Union[FallbackOff, FixedSafe, LastKnownGood, ManualLoop]


def fallback_dose(kind: FallbackKind, last_good: Optional[tuple], baseline: Dose) -> tuple:
    """The (amplitude, template) a fallback mode delivers, constant while it persists."""
    return kind.dose_for(last_good, baseline)


# ---------------------------------------------------------------------------
# Supervisor state machine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisorState:
    """Mode, resume mode and the edge registers that drive them.

    The dwell streaks are not here: they change on every tick, so each lane
    keeps them as plain counters and passes them to ``supervisor_step``.
    """

    mode: str = MODE_AUTOMATED
    resume_mode: str = MODE_AUTOMATED  # mode to restore when the magnet lifts
    magnet_prev: bool = False
    dc_leak_prev: bool = False

    @property
    def in_reset(self) -> bool:
        return self.mode in RESET_MODES


def trust_check_step(cfg: TrustConfig, quality: frozenset, biomarker: Optional[float],
                     device_fails: int, fail_streak: int,
                     pass_streak: int) -> tuple[int, int, int]:
    """Evaluate the enabled checks and update the dwell streaks.

    The signal checks (QualityOK, EcapNonNegative, BiomarkerInPhysRange) read
    this tick's reading, ``biomarker`` (None when none was taken): validation
    keeps EcapNonNegative to ecap plants, and no other kind's biomarker is
    negative. ``device_fails`` is ``failed_device_checks`` of the lane's
    device. Returns (fail_streak, pass_streak, failed_mask): the tick passes
    when the mask is 0. A pass resets the fail streak and vice versa.
    """
    failed = device_fails
    if quality != OK_ONLY:
        failed |= _QUALITY_BIT
    if biomarker is not None:
        if biomarker < 0.0:
            failed |= _ECAP_BIT
        if not cfg.biomarker_min <= biomarker <= cfg.biomarker_max:
            failed |= _BIOMARKER_BIT
    failed &= cfg.mask
    if failed:
        return fail_streak + 1, 0, failed
    return 0, pass_streak + 1, 0


def supervisor_step(st: SupervisorState, fail_streak: int, pass_streak: int,
                    magnet_applied: bool, device: DeviceState, trust: TrustConfig,
                    fallback: FallbackKind, log: list, tick: int = 0) -> SupervisorState:
    """Advance the mode machine one tick, given the lane's dwell streaks.

    Precedence, highest first: DC leak, end of service, magnet, trust
    dwell rules. Reset modes latch for the rest of the run: any transition
    that would otherwise fire is suppressed with an Info record. The
    streaks are read, never changed, so magnet suspension preserves them;
    removal restores the pre-suspension mode. Events are appended to ``log``.
    """
    dc_leak = device.dc_leak_flag
    mode = st.mode
    to = None   # the mode a transition enters; None stays in ``mode``
    if mode in RESET_MODES:
        # Latched. Report (once, on the rising edge) anything that would
        # normally transition, then stay put.
        if dc_leak and not st.dc_leak_prev and mode != MODE_DC_LEAK_RESET:
            _mode_event(log, tick, MODE_DC_LEAK_RESET, SEVERITY_INFO, {"suppressed_by": mode})
        if magnet_applied and not st.magnet_prev:
            _mode_event(log, tick, MODE_SUSPENDED_MAGNET, SEVERITY_INFO, {"suppressed_by": mode})
    elif dc_leak:
        to = MODE_DC_LEAK_RESET
        _mode_event(log, tick, to, SEVERITY_FAULT, {"from": mode})
    elif device.battery_v < device.eos_threshold_v:
        to = MODE_EOS_RESET
        _mode_event(log, tick, to, SEVERITY_FAULT, {"from": mode, "battery_v": device.battery_v})
    elif magnet_applied:
        if mode != MODE_SUSPENDED_MAGNET:
            _mode_event(log, tick, MODE_SUSPENDED_MAGNET, SEVERITY_ALERT, {"from": mode})
            return SupervisorState(MODE_SUSPENDED_MAGNET, mode, magnet_applied, dc_leak)
    elif mode == MODE_SUSPENDED_MAGNET:
        to = st.resume_mode
        _mode_event(log, tick, to, SEVERITY_ALERT, {"from": MODE_SUSPENDED_MAGNET})
    elif mode == MODE_AUTOMATED:
        if fail_streak >= trust.exit_after_consecutive_fails:
            to = MODE_FALLBACK
            _mode_event(log, tick, to, SEVERITY_ALERT,
                        {"kind": type(fallback).__name__, "fail_streak": fail_streak})
    elif pass_streak >= trust.reenter_after_consecutive_passes:   # in Fallback
        to = MODE_AUTOMATED
        log.append(EventRecord(tick, SEVERITY_INFO, EVENT_TRUST_REENTER,
                               {"pass_streak": pass_streak}))
        _mode_event(log, tick, to, SEVERITY_ALERT, {"from": MODE_FALLBACK})

    # Every transition records this tick's magnet and DC-leak edges. Staying
    # changes only those, and when they do not change the state is returned
    # as it is.
    if to is None:
        if st.magnet_prev == magnet_applied and st.dc_leak_prev == dc_leak:
            return st
        to = mode
    return SupervisorState(to, st.resume_mode, magnet_applied, dc_leak)


def _mode_event(log: list, tick: int, mode: str, severity: str, payload: dict) -> None:
    """Append the event of a transition (or a suppressed one) into ``mode``."""
    log.append(EventRecord(tick, severity, MODE_EVENT_CODES[mode], payload))


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
    b: Budgets, event_active: bool, therapy_requested: bool, log: list, tick: int
) -> tuple[Budgets, bool]:
    """Advance budget bookkeeping one tick, appending to ``log``; returns (budgets, allow)."""
    if tick > 0 and tick % b.ticks_per_day == 0:
        log.append(EventRecord(tick, SEVERITY_INFO, EVENT_DAY_ROLLOVER,
                               {"episodes": b.episodes_today}))
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
        allow = b.current_event_budgeted and b.therapies_this_event < b.max_therapies_per_event
        if allow:
            b = b.counted(b.therapies_this_event + 1, b.episodes_today, b.event_active,
                          b.current_event_budgeted)
        else:
            log.append(EventRecord(tick, SEVERITY_INFO, EVENT_BUDGET_DENY, {
                "therapies_this_event": b.therapies_this_event,
                "episode_budgeted": b.current_event_budgeted,
            }))
    return b, allow

"""Run metrics: energy, time in range, seizure statistics, step response.

Also home of the post-hoc safety scan, a deliberately independent code path
that reads only the exported timeseries (or its CSV) and the scenario's
doses, and re-checks the amplitude, slew, and charge limits on every tick
without consulting any engine state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import DoseLimits
from .safety import EVENT_CHARGE_CLAMP, EVENT_LIMIT_CLAMP, EVENT_SLEW_CLAMP
from .safety import MODE_AUTOMATED, MODE_EVENT_CODES, MODE_FALLBACK


@dataclass(frozen=True)
class StepResponse:
    """Standard control metrics around a commanded or disturbance step.

    ``attained`` is False when the series never enters the tolerance band
    after the step; the time fields are then None rather than fabricated.
    ``steady_state_dev`` is the mean absolute deviation from the setpoint
    over the final 10% of the series, or None when that tail holds no sample.
    """

    attained: bool
    response_time_s: Optional[float]
    settling_time_s: Optional[float]
    overshoot_frac: float
    steady_state_dev: Optional[float]


def step_response_metrics(
    series,
    setpoint: float,
    step_tick: int,
    tol_frac: float,
    dt_s: float = 1.0,
) -> StepResponse:
    """Characterize how a biomarker series recovers after a step at ``step_tick``.

    response time: first time after the step within ``tol_frac`` of the
    setpoint. settling time: first time after which the series stays within
    tolerance for the rest of the run. overshoot: largest excursion past the
    setpoint (in the approach direction) as a fraction of it. NaN samples
    count as out of tolerance.
    """
    x = np.asarray(series, dtype=float)
    if setpoint == 0:
        raise ValueError("setpoint must be nonzero")
    if not (0 <= step_tick < x.size):
        raise ValueError(f"step_tick {step_tick} outside series of {x.size}")

    seg = x[step_tick:]
    tol = abs(setpoint) * tol_frac
    inside = np.abs(seg - setpoint) <= tol
    inside &= ~np.isnan(seg)

    tail_dev = np.abs(x[-max(1, x.size // 10):] - setpoint)
    ss = None if np.isnan(tail_dev).all() else float(np.nanmean(tail_dev))
    if not inside.any():
        return StepResponse(False, None, None, 0.0, ss)

    response_ticks = int(np.argmax(inside))
    outside_idx = np.nonzero(~inside)[0]
    if outside_idx.size == 0:
        settling_ticks: Optional[int] = 0
    elif outside_idx[-1] == seg.size - 1:
        settling_ticks = None  # exits tolerance at the very end: not settled
    else:
        settling_ticks = int(outside_idx[-1] + 1)

    # Overshoot is measured in the direction of approach; if the series
    # starts on the setpoint, take the largest excursion on either side.
    start = seg[0]
    if np.isnan(start) or start == setpoint:
        over = float(np.nanmax(np.abs(seg - setpoint)))
    elif start < setpoint:
        over = float(max(0.0, np.nanmax(seg) - setpoint))
    else:
        over = float(max(0.0, setpoint - np.nanmin(seg)))
    overshoot_frac = over / abs(setpoint)

    return StepResponse(
        True,
        response_ticks * dt_s,
        settling_ticks * dt_s if settling_ticks is not None else None,
        overshoot_frac,
        ss,
    )


@dataclass(frozen=True)
class Metrics:
    """Aggregate run statistics exported to summary.json."""

    teed_total: float
    time_in_range_frac: Optional[float]
    seizure_count: int
    seizure_ticks_total: int
    early_termination_count: int
    fallback_frac: float
    limit_clamp_count: int
    step_response: Optional[StepResponse] = None

    def to_dict(self) -> dict:
        return asdict(self)


CLAMP_CODES = (EVENT_LIMIT_CLAMP, EVENT_SLEW_CLAMP, EVENT_CHARGE_CLAMP)


@dataclass(frozen=True)
class SafetyScanResult:
    """Outcome of the independent post-hoc limit scan."""

    ok: bool
    violations: tuple  # (tick, kind, detail) triples


def scan_pulse_width_us(scenario) -> float:
    """Widest pulse any configured dose of ``scenario`` can deliver."""
    return max(d.pulse_width_us for d in scenario.doses.values())


def pulse_widths_us(scenario, modes) -> list:
    """Each tick's pulse width from its supervisor mode, which raises KeyError unless
    a supervisor has it. Automated: the policy's dose, else the baseline. Fallback:
    by kind, LastKnownGood the wider of those (all its doses), Off the baseline,
    FixedSafe and ManualLoop their dose. Magnet and reset modes deliver 0 mA on
    the previous tick's dose (the baseline before tick 0)."""
    doses = scenario.doses
    if scenario.raw["fallback"]["kind"] == "LastKnownGood":
        fallback = scan_pulse_width_us(scenario)
    else:
        fallback = doses.get("fallback", doses["baseline"]).pulse_width_us
    own = {**dict.fromkeys(MODE_EVENT_CODES), MODE_FALLBACK: fallback,   # every mode
           MODE_AUTOMATED: doses.get("policy", doses["baseline"]).pulse_width_us}
    width = doses["baseline"].pulse_width_us
    widths = []
    for mode in modes:
        w = own[mode]
        if w is not None:
            width = w
        widths.append(width)
    return widths


def scan_delivered_series(
    delivered_mA,
    limits: DoseLimits,
    pulse_width_us,
    initial_mA: Optional[float] = None,
) -> SafetyScanResult:
    """Re-check every delivered amplitude against the hard limits.

    Checks, per tick: amplitude a number, within [amp_min, amp_max]; step
    from the previous tick within the slew limit (the first tick is checked
    against ``initial_mA`` when given); per-pulse charge within the charge
    limit, at one ``pulse_width_us`` or each tick's (``pulse_widths_us``).
    A small epsilon absorbs float round-off only, never a real violation.
    """
    a = np.asarray(delivered_mA, dtype=float)
    eps = 1e-9
    violations: list[tuple] = []

    # NaN fails every comparison below, so it would pass them all.
    for i in np.nonzero(np.isnan(a))[0]:
        violations.append((int(i), "amp_not_a_number", float(a[i])))

    bad_lo = np.nonzero(a < limits.amp_min_mA - eps)[0]
    bad_hi = np.nonzero(a > limits.amp_max_mA + eps)[0]
    for i in bad_lo:
        violations.append((int(i), "amp_below_min", float(a[i])))
    for i in bad_hi:
        violations.append((int(i), "amp_above_max", float(a[i])))

    prev = np.empty_like(a)
    prev[1:] = a[:-1]
    prev[0] = initial_mA if initial_mA is not None else a[0]
    bad_slew = np.nonzero(np.abs(a - prev) > limits.max_slew_mA_per_tick + eps)[0]
    for i in bad_slew:
        violations.append((int(i), "slew_exceeded", float(a[i] - prev[i])))

    charge = a * np.asarray(pulse_width_us, dtype=float) * 1e-3
    bad_q = np.nonzero(charge > limits.max_charge_per_pulse_uC + eps)[0]
    for i in bad_q:
        violations.append((int(i), "charge_exceeded", float(charge[i])))

    violations.sort()
    return SafetyScanResult(ok=not violations, violations=tuple(violations))


def scan_timeseries_csv(path, scenario, initial_mA: Optional[float] = None) -> SafetyScanResult:
    """Run the safety scan against a stored timeseries.csv, at ``scenario``'s limits
    and the pulse widths of the file's own ``supervisor_mode`` column
    (``initial_mA`` as in ``scan_delivered_series``).

    Parses the CSV with plain text handling (no engine code) so the scan
    stays independent of the simulation path that produced the file. A file
    the scan cannot read (not UTF-8, no ``delivered_mA`` or ``supervisor_mode``
    column, a short row, a cell that is not a number or a mode no supervisor
    has) fails the scan with one ``unreadable`` violation, at the first row
    not read.
    """
    delivered: list = []
    modes: list = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().rstrip("\n").split(",")
            col, mode = header.index("delivered_mA"), header.index("supervisor_mode")
            for line in f:
                fields = line.rstrip("\n").split(",")
                modes.append(fields[mode])
                delivered.append(float(fields[col]))
        widths = pulse_widths_us(scenario, modes)
    except (ValueError, IndexError, KeyError) as e:   # UnicodeDecodeError is a ValueError
        tick = modes.index(e.args[0]) if isinstance(e, KeyError) else len(delivered)
        return SafetyScanResult(
            ok=False, violations=((tick, "unreadable", f"{type(e).__name__}: {e}"),))
    return scan_delivered_series(delivered, scenario.limits, widths, initial_mA)

"""Biomarker extraction from signal frames.

The detection features used by the responsive-epilepsy controller
(line length, area, half-wave counting, logical combination), band power
for the adaptive-DBS controller, and the evoked potential amplitude
estimator with its signal-quality checks.

All feature functions are stateless and take either one frame (a 1-D
array-like of samples) or a batch of frames (an (S, frame_len) array, one
row per lane of a seed sweep). A frame gives one value; a batch gives one
value per row, computed by the same operations along the last axis, so each
row's value is bit-identical to that row's value as a frame. ``Detector`` is
the only stateful piece: one detection tool with its smoothing window and
its fixed or adaptive threshold.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    QUALITY_EXTERNAL_NOISE,
    QUALITY_FLATLINE,
    QUALITY_IMPOSSIBLE,
    QUALITY_OK,
    QUALITY_SATURATED,
)

SampleSource = Union[Sequence[float], np.ndarray]


def _as_array(w: SampleSource) -> np.ndarray:
    return np.asarray(w, dtype=float)


def _fsum_rows(a: np.ndarray):
    """math.fsum of a 1-D array, or an array of the fsum of each row."""
    if a.ndim == 1:
        return math.fsum(a.tolist())
    return np.array([math.fsum(row) for row in a.tolist()])


def line_length(w: SampleSource):
    """Sum of absolute first differences, sum(|x[i] - x[i-1]|).

    Summed with math.fsum (exactly rounded), so the result is independent of
    accumulation order and bit-identical to any correctly rounded oracle.

    Raises:
        InsufficientDataError: fewer than 2 samples.
    """
    x = _as_array(w)
    if x.shape[-1] < 2:
        raise InsufficientDataError("line_length needs at least 2 samples")
    return _fsum_rows(np.abs(np.diff(x, axis=-1)))


def area_under_curve(w: SampleSource):
    """Sum of absolute sample values, sum(|x[i]|).

    Exactly rounded, as for ``line_length``.

    Raises:
        InsufficientDataError: empty input.
    """
    x = _as_array(w)
    if x.shape[-1] < 1:
        raise InsufficientDataError("area_under_curve needs at least 1 sample")
    return _fsum_rows(np.abs(x))


@dataclass(frozen=True)
class HalfWaveConfig:
    """Criteria for counting qualifying half-waves in a frame.

    A half-wave is the excursion between two consecutive signal extrema.
    ``hysteresis_uV`` sets how far the signal must retrace from a running
    extremum before the direction is considered reversed, which suppresses
    micro-reversals from noise. A segment counts when its peak-to-trough
    amplitude is at least ``min_amplitude_uV`` and its duration lies in
    ``[min_duration_ticks, max_duration_ticks]``.
    """

    min_amplitude_uV: float
    min_duration_ticks: int
    max_duration_ticks: int
    hysteresis_uV: float = 0.0

    def __post_init__(self) -> None:
        if self.min_amplitude_uV <= 0:
            raise ConfigurationError("min_amplitude_uV must be positive")
        if not (0 < self.min_duration_ticks <= self.max_duration_ticks):
            raise ConfigurationError(
                "need 0 < min_duration_ticks <= max_duration_ticks"
            )
        if self.hysteresis_uV < 0:
            raise ConfigurationError("hysteresis_uV must be nonnegative")


def half_wave_count(w: SampleSource, cfg: HalfWaveConfig):
    """Count amplitude- and duration-qualified half-waves in the frame.

    Segments the signal at local extrema (direction reversals beyond the
    hysteresis) and counts segments meeting the amplitude and duration
    criteria. Invariant under negation of the signal. A batch is counted
    row by row.

    Raises:
        InsufficientDataError: fewer than 3 samples.
    """
    x = _as_array(w)
    if x.ndim > 1:
        return np.array([half_wave_count(row, cfg) for row in x])
    if x.size < 3:
        raise InsufficientDataError("half_wave_count needs at least 3 samples")

    count = 0
    # Running extremum of the current segment and the index where the
    # segment started. direction: +1 rising, -1 falling, 0 undecided.
    direction = 0
    seg_start = 0
    extremum = x[0]
    extremum_idx = 0
    anchor = x[0]  # value at the segment's starting extremum

    for i in range(1, x.size):
        v = x[i]
        if direction >= 0 and v > extremum:
            extremum = v
            extremum_idx = i
            direction = +1
        elif direction <= 0 and v < extremum:
            extremum = v
            extremum_idx = i
            direction = -1
        elif direction != 0 and abs(v - extremum) > cfg.hysteresis_uV:
            # Confirmed reversal: the segment from seg_start to extremum_idx
            # is a completed half-wave.
            amplitude = abs(extremum - anchor)
            duration = extremum_idx - seg_start
            if (
                amplitude >= cfg.min_amplitude_uV
                and cfg.min_duration_ticks <= duration <= cfg.max_duration_ticks
            ):
                count += 1
            anchor = extremum
            seg_start = extremum_idx
            extremum = v
            extremum_idx = i
            direction = -direction

    # Close out the final (possibly unconfirmed) segment.
    amplitude = abs(extremum - anchor)
    duration = extremum_idx - seg_start
    if (
        direction != 0
        and amplitude >= cfg.min_amplitude_uV
        and cfg.min_duration_ticks <= duration <= cfg.max_duration_ticks
    ):
        count += 1
    return count


def check_band(f_lo: float, f_hi: float, fs: float, n: int) -> None:
    """Raise unless ``band_power`` can measure [f_lo, f_hi] Hz in n samples at fs.

    Raises:
        DomainError: band outside (0, fs/2].
        InsufficientDataError: window shorter than one period of f_lo.
    """
    if not (0 < f_lo < f_hi <= fs / 2):
        raise DomainError(
            f"band [{f_lo}, {f_hi}] must satisfy 0 < f_lo < f_hi <= fs/2 = {fs / 2}"
        )
    if n < fs / f_lo:
        raise InsufficientDataError(
            f"window of {n} samples is shorter than one period of {f_lo} Hz at fs={fs}"
        )


@lru_cache(maxsize=64)
def _band_bins(f_lo: float, f_hi: float, fs: float, n: int) -> tuple[int, int, bool]:
    """The band's rfft bins [lo, hi) of an n-sample frame, and whether they
    end at the Nyquist bin of an even n. Raises what ``check_band`` raises.

    Band edges are inclusive. check_band keeps f_lo above 0, so lo >= 1:
    the band never holds the DC bin.
    """
    check_band(f_lo, f_hi, fs, n)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    lo = int(np.searchsorted(freqs, f_lo, side="left"))
    hi = int(np.searchsorted(freqs, f_hi, side="right"))
    return lo, hi, n % 2 == 0 and hi == freqs.size


def band_power(w: SampleSource, f_lo: float, f_hi: float, fs: float):
    """Power of the signal inside [f_lo, f_hi] Hz, in µV².

    Plain rectangular-window periodogram with one-sided bin summation; no
    tapering, so Parseval holds exactly: summing over the full band
    [0, fs/2] returns mean(x²). Band edges are inclusive. Raises what
    ``check_band`` raises.
    """
    x = _as_array(w)
    n = x.shape[-1]
    lo, hi, nyquist = _band_bins(f_lo, f_hi, fs, n)
    # The band's bins are one contiguous run. A slice keeps each row's sum in
    # the order of a 1-D sum; a boolean mask on the last axis would not.
    spec = np.fft.rfft(x, axis=-1)[..., lo:hi]
    psd = (spec.real ** 2 + spec.imag ** 2) / (n * n)
    # One-sided: double everything except DC (never in the band) and (for
    # even n) Nyquist.
    psd *= 2.0
    if nyquist:
        psd[..., -1] /= 2.0
    power = psd.sum(axis=-1)
    return float(power) if x.ndim == 1 else power


class Detector:
    """One detection tool: a feature, its short smoothing window, its threshold.

    ``spec`` is a ``scenario.ToolSpec``. A fixed threshold is the configured
    value, and keeps no baseline; an adaptive one is ``multiplier * median``
    of the feature's last ``long_window_ticks`` values. The median is robust
    to contamination of the baseline by the events being detected, so values
    are pushed unconditionally; it comes from a bisect-maintained sorted copy
    of the baseline instead of a sort every tick, and is taken once per push,
    for the next value.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self.fixed = spec.threshold_mode == "fixed"
        # The current threshold; None while an adaptive baseline is empty.
        self.threshold: Optional[float] = spec.fixed_value if self.fixed else None
        self._long: deque = deque()
        self._long_sorted: list = []
        self._short: deque = deque(maxlen=spec.short_window_ticks)

    def observe(self, value: float) -> tuple[float, Optional[float], bool]:
        """Push one feature value; returns (smoothed value, threshold, flag).

        The threshold is taken from the baseline as it stood BEFORE this
        value, so a fresh event cannot inflate its own detection threshold.
        """
        threshold = self.threshold
        if not self.fixed:
            s, long = self._long_sorted, self._long
            if len(long) == self.spec.long_window_ticks:
                del s[bisect_left(s, long.popleft())]
            long.append(value)
            insort(s, value)
            mid = len(s) // 2
            median = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0
            self.threshold = self.spec.multiplier * median
        self._short.append(value)

        smoothed = sum(self._short) / len(self._short)
        return smoothed, threshold, threshold is not None and smoothed > threshold


def tool_feature(spec, frames: SampleSource):
    """The feature a ``scenario.ToolSpec`` names, of a frame or of each row of a batch."""
    if spec.feature == "line_length":
        return line_length(frames)
    if spec.feature == "area":
        return area_under_curve(frames)
    return half_wave_count(frames, spec.half_wave)


def detect(flags: Iterable[bool], combinator: str) -> bool:
    """Combine per-tool detection flags with AND or OR.

    Raises:
        ConfigurationError: empty flag list or unknown combinator.
    """
    flag_list = list(flags)
    if not flag_list:
        raise ConfigurationError("detect needs at least one flag")
    if combinator == "OR":
        return any(flag_list)
    if combinator == "AND":
        return all(flag_list)
    raise ConfigurationError(f"unknown combinator {combinator!r}")


# Every verdict of ``ecap_range_check``, indexed by 2*impossible + saturated.
_RANGE_VERDICTS = (
    frozenset({QUALITY_OK}),
    frozenset({QUALITY_SATURATED}),
    frozenset({QUALITY_IMPOSSIBLE}),
    frozenset({QUALITY_IMPOSSIBLE, QUALITY_SATURATED}),
)


def ecap_range_check(
    estimate: float, saturation_uV: float = float("inf")
) -> tuple[float, frozenset]:
    """Range checks for an amplitude-level evoked-potential estimate.

    Used when the simulation runs at amplitude level and the estimator is
    the identity: negative or zero estimates are physiologically impossible,
    estimates beyond the amplifier ceiling are saturated.
    """
    return estimate, _RANGE_VERDICTS[2 * (estimate <= 0.0) + (estimate >= saturation_uV)]


@dataclass(frozen=True)
class SignalQualityLimits:
    """Bounds used by ``signal_quality``."""

    saturation_uV: float
    flatline_eps_uV: float = 1e-9
    max_delta_uV_per_sample: float = float("inf")


# Every verdict of ``signal_quality``, indexed by 4*saturated + 2*flatline + noisy.
_QUALITY_VERDICTS = tuple(
    frozenset(
        flag
        for bit, flag in ((4, QUALITY_SATURATED), (2, QUALITY_FLATLINE), (1, QUALITY_EXTERNAL_NOISE))
        if code & bit
    ) or frozenset({QUALITY_OK})
    for code in range(8)
)


def signal_quality(w: SampleSource, limits: SignalQualityLimits):
    """Classify a window as OK / Saturated / Flatline / ExternalNoise.

    Saturated: any sample at or beyond the amplifier limit. Flatline:
    peak-to-peak below ``flatline_eps_uV``. ExternalNoise: any
    sample-to-sample jump above the configured rate bound. Multiple flags
    may apply; OK is returned only when none do. A frame gives a frozenset,
    a batch a list of them.
    """
    x = _as_array(w)
    if x.shape[-1] == 0:
        raise InsufficientDataError("signal_quality needs a nonempty window")
    code = 4 * np.any(np.abs(x) >= limits.saturation_uV, axis=-1)
    code += 2 * (x.max(axis=-1) - x.min(axis=-1) < limits.flatline_eps_uV)
    # No jump exceeds an infinite bound, so that pass is skipped.
    if x.shape[-1] >= 2 and limits.max_delta_uV_per_sample < math.inf:
        code += np.abs(np.diff(x, axis=-1)).max(axis=-1) > limits.max_delta_uV_per_sample
    if x.ndim == 1:
        return _QUALITY_VERDICTS[int(code)]
    return [_QUALITY_VERDICTS[c] for c in code.tolist()]

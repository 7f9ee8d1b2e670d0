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

Line length and area are sums of nonnegative terms, exactly rounded: each
equals math.fsum of its terms. A frame, or a batch of fewer than
``KERNEL_MIN_ROWS`` rows, is summed with math.fsum row by row. A larger
batch goes through ``_split_sums``, a numpy kernel that sums every row at
once and certifies each sum as the exactly rounded one; the few rows it
cannot certify (at a rounding tie, zero, non-finite or extreme) are summed
with math.fsum. Both routes give the same bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    OK_ONLY,
    QUALITY_EXTERNAL_NOISE,
    QUALITY_FLATLINE,
    QUALITY_IMPOSSIBLE,
    QUALITY_SATURATED,
)

SampleSource = Union[Sequence[float], np.ndarray]


def _as_array(w: SampleSource) -> np.ndarray:
    return np.asarray(w, dtype=float)


# From this many rows on, ``_fsum_rows`` sums a batch with ``_split_sums``
# and calls math.fsum only on the rows it does not certify. Measured on
# (m, 31) batches of iEEG line-length terms (Python 3.11, numpy 2.4, one
# x86-64 Xeon core): the kernel costs about 33 us plus 0.1 us a row and
# math.fsum about 1.25 us a row, so they break even near 29 rows.
# ``signal_quality`` classifies a batch of fewer rows one row at a time in
# Python. Measured the same way on (m, 32) and (m, 64) frames: the row loop
# costs about 3.6 us plus 0.3 us a row and the array checks about 9.2 us
# plus 0.15 us a row, so they break even between 28 and 40 rows.
KERNEL_MIN_ROWS = 30
# A row goes to math.fsum unless its float sum lies in [_TINY, _HUGE): then
# every grid, bound and rounding gap below is a normal float and nothing
# overflows.
_TINY, _HUGE = 2.0 ** -900, 2.0 ** 999


def _split_sums(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of an (m, n) array of nonnegative terms, and which are exact.

    Each row is split error-free on the grid of ulp(sigma), sigma =
    2**(e + 1) with the row's float sum below 2**e, so every term is below
    sigma / 2 (Rump, Ogita and Oishi, "Accurate floating-point summation,
    Part I", SIAM J. Sci. Comput. 31(1), 2008): q = (a + sigma) - sigma,
    r = a - q. Every partial sum of q is a multiple of that ulp below 2**52
    of them, so its sum is exact in any order; the float sum of r is off by
    at most gamma(n-1) * n * ulp(sigma) / 2 < n**2 * 2**-52 * ulp(sigma).
    TwoSum gives the split's sum as s + err exactly. A row is certified
    when err plus or minus that bound lies strictly inside half the gaps to
    s's neighbours: then the exact sum rounds to s under any tie rule, so s
    is what math.fsum returns. Rows outside the range (zero, non-finite,
    overflowing or extreme) read 0.0, are not certified and meet no further
    arithmetic.
    """
    m, n = a.shape
    with np.errstate(over="ignore"):          # an overflowing row reads inf
        total = np.einsum("ij->i", a)         # >= each term; NaN if one is
    inside = (total >= _TINY) & (total < _HUGE)
    every = inside.all()
    rows = a if every else a[inside]
    e = np.frexp(total if every else total[inside])[1] + 1
    sigma = np.ldexp(1.0, e)[:, None]
    q = rows + sigma
    q -= sigma
    hi = np.einsum("ij->i", q)
    np.subtract(rows, q, out=q)
    lo = np.einsum("ij->i", q)
    s = hi + lo                               # TwoSum: s + err == hi + lo
    z = s - hi
    err = (hi - (s - z)) + (lo - z)
    bound = np.ldexp(float(n * n), e - 104)
    up = np.nextafter(s, np.inf) - s
    down = s - np.nextafter(s, 0.0)
    exact = (err + bound < up / 2) & (err - bound > down / -2)
    if every:
        return s, exact
    sums, certified = np.zeros(m), np.zeros(m, dtype=bool)
    sums[inside], certified[inside] = s, exact
    return sums, certified


def _fsum_rows(a: np.ndarray):
    """math.fsum of a 1-D array, or an array of the fsum of each row.

    The terms must be nonnegative; ``_split_sums`` relies on it. A batch of
    fewer than ``KERNEL_MIN_ROWS`` rows is summed one row at a time with
    math.fsum; a larger one with ``_split_sums``, and with math.fsum only
    on the rows it does not certify. A certified sum is the exactly rounded
    sum of its row, which is what math.fsum returns, so both routes give
    every row bit-identical to math.fsum of that row. A row on which
    math.fsum raises for an overflowing partial sum reads inf (``_fsum``).
    """
    try:
        if a.ndim == 1:
            return math.fsum(a.tolist())
        if len(a) < KERNEL_MIN_ROWS:
            return np.array([math.fsum(row) for row in a.tolist()])
        sums, exact = _split_sums(a)
        for i in np.flatnonzero(~exact).tolist():
            sums[i] = math.fsum(a[i].tolist())
        return sums
    except OverflowError:   # a partial sum overflowed: redo the batch row by row
        return _fsum(a.tolist()) if a.ndim == 1 else np.array([_fsum(r) for r in a.tolist()])


def _fsum(terms: list) -> float:
    """math.fsum of nonnegative terms. Where a partial sum overflows, math.fsum
    raises; the exact sum is then at least that large and rounds to inf, the
    correctly rounded result (NaN if a term is NaN)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.nan if any(map(math.isnan, terms)) else math.inf


def line_length(w: SampleSource):
    """Sum of absolute first differences, sum(|x[i] - x[i-1]|).

    Exactly rounded, so the result is independent of accumulation order and
    bit-identical to math.fsum of the terms. The terms are nonnegative, so a
    large batch is summed by the ``_split_sums`` kernel, with math.fsum for
    the rows it does not certify; see ``_fsum_rows``.

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


# The detection features a tool may name: the function of this module that
# computes one (looked up at each call, so a rebinding of its name is the one
# called), the fewest samples a frame needs, and whether the tool needs a
# ``half_wave`` block (a ``HalfWaveConfig``, the function's second argument).
Feature = namedtuple("Feature", "function min_frame_len needs_half_wave")
FEATURES = {"line_length": Feature("line_length", 2, False),
            "area": Feature("area_under_curve", 1, False),
            "half_wave": Feature("half_wave_count", 3, True)}
# The threshold modes, each mapped to whether it follows a baseline window.
THRESHOLD_MODES = {"adaptive": True, "fixed": False}
COMBINATORS = {"OR": any, "AND": all}   # how ``detect`` combines per-tool flags


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
        self.fixed = not THRESHOLD_MODES[spec.threshold_mode]
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
    feature = FEATURES[spec.feature]
    args = (spec.half_wave,) if feature.needs_half_wave else ()
    return globals()[feature.function](frames, *args)


def detect(flags: Iterable[bool], combinator: str) -> bool:
    """Combine per-tool detection flags with a ``COMBINATORS`` name (AND or OR).

    A built ieeg plant has at least one tool, so ``flags`` is never empty.
    """
    return COMBINATORS[combinator](flags)


# Every verdict of ``ecap_range_check``, indexed by 2*impossible + saturated.
_RANGE_VERDICTS = (
    OK_ONLY,
    frozenset({QUALITY_SATURATED}),
    frozenset({QUALITY_IMPOSSIBLE}),
    frozenset({QUALITY_IMPOSSIBLE, QUALITY_SATURATED}),
)


def ecap_range_check(
    estimate: float, saturation_uV: float = float("inf")
) -> tuple[float, frozenset]:
    """Range checks for an amplitude-level evoked-potential estimate.

    Used when the simulation runs at amplitude level and the estimator is
    the identity: negative, zero or NaN estimates are physiologically
    impossible, estimates beyond the amplifier ceiling are saturated.
    """
    return estimate, _RANGE_VERDICTS[2 * (not estimate > 0.0) + (estimate >= saturation_uV)]


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
    ) or OK_ONLY
    for code in range(8)
)

# Every verdict of both checks, as its timeseries.csv cell.
QUALITY_TEXT = {qual: "+".join(sorted(qual)) for qual in _QUALITY_VERDICTS + _RANGE_VERDICTS}


def signal_quality(w: SampleSource, limits: SignalQualityLimits):
    """Classify a window as OK / Saturated / Flatline / ExternalNoise.

    Saturated: any sample at or beyond the amplifier limit. Flatline:
    peak-to-peak below ``flatline_eps_uV``. ExternalNoise: any
    sample-to-sample jump above the configured rate bound. Multiple flags
    may apply; OK is returned only when none do. A frame gives a frozenset,
    a batch a list of them.

    A frame, or a batch of fewer than ``KERNEL_MIN_ROWS`` rows, is
    classified row by row from its row max and min as Python floats; a
    larger batch by the same comparisons as numpy arrays. Both routes give
    every row the verdict it gets as a frame.
    """
    x = _as_array(w)
    if x.shape[-1] == 0:
        raise InsufficientDataError("signal_quality needs a nonempty window")
    # |x| >= s is x >= s or x <= -s, so the row max and min give both tests;
    # a NaN sample makes them NaN, and such a row is scanned sample by sample.
    s, eps = limits.saturation_uV, limits.flatline_eps_uV
    rows = x.reshape(-1, x.shape[-1])   # a frame is a batch of one row
    mx, mn = rows.max(axis=1), rows.min(axis=1)
    # No jump exceeds an infinite bound, so that pass is skipped.
    noisy = None
    if rows.shape[1] >= 2 and limits.max_delta_uV_per_sample < math.inf:
        noisy = np.abs(np.diff(rows, axis=1)).max(axis=1) > limits.max_delta_uV_per_sample
    if len(rows) < KERNEL_MIN_ROWS:
        # The same comparisons on each row's max and min as Python floats.
        jumps = [False] * len(rows) if noisy is None else noisy.tolist()
        verdicts = []
        for i, (hi, lo, jump) in enumerate(zip(mx.tolist(), mn.tolist(), jumps)):
            saturated = (hi >= s or lo <= -s) if hi == hi else bool((np.abs(rows[i]) >= s).any())
            verdicts.append(_QUALITY_VERDICTS[4 * saturated + 2 * (hi - lo < eps) + jump])
    else:
        saturated = (mx >= s) | (mn <= -s)
        lost = np.isnan(mx)
        if lost.any():
            saturated[lost] = np.any(np.abs(rows[lost]) >= s, axis=1)
        code = 4 * saturated
        code += 2 * (mx - mn < eps)
        if noisy is not None:
            code += noisy
        verdicts = [_QUALITY_VERDICTS[c] for c in code.tolist()]
    return verdicts[0] if x.ndim == 1 else verdicts

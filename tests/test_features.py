"""Feature extractors against independent brute-force and analytic oracles."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from neuroloop.core import (
    QUALITY_EXTERNAL_NOISE,
    QUALITY_FLATLINE,
    QUALITY_IMPOSSIBLE,
    QUALITY_OK,
    QUALITY_SATURATED,
)
from neuroloop.engine import run_scenario
from neuroloop.features import (
    COMBINATORS,
    FEATURES,
    KERNEL_MIN_ROWS,
    THRESHOLD_MODES,
    Detector,
    DomainError,
    HalfWaveConfig,
    InsufficientDataError,
    SignalQualityLimits,
    _split_sums,
    area_under_curve,
    band_power,
    detect,
    ecap_range_check,
    half_wave_count,
    line_length,
    signal_quality,
)
from neuroloop.scenario import ToolSpec, validate_scenario

from conftest import ieeg_raw


def rounded_sum(terms) -> float:
    """The exactly rounded sum of nonnegative terms: math.fsum, and where it
    raises on an overflowing partial sum, the exact sum rounded by hand: NaN
    with a NaN term, inf with an inf term or from the midpoint between the
    largest float and 2**1024 up (round half to even)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        if any(map(math.isnan, terms)):
            return math.nan
        exact = sum(map(Fraction, terms)) if all(map(math.isfinite, terms)) else math.inf
        return math.inf if exact >= 2 ** 1024 - 2 ** 970 else float(exact)


def brute_force_line_length(xs):
    # Exactly rounded sum of hand-enumerated terms; order-independent, so a
    # correct implementation must match it bit for bit.
    terms = []
    for i in range(1, len(xs)):
        terms.append(abs(xs[i] - xs[i - 1]))
    return rounded_sum(terms)


def brute_force_area(xs):
    terms = []
    for x in xs:
        terms.append(abs(x))
    return rounded_sum(terms)


def brute_force_median(xs):
    s = sorted(xs)
    n = len(s)
    if n % 2:
        return s[n // 2]
    return (s[n // 2 - 1] + s[n // 2]) / 2.0


class TestLineLength:
    def test_unit_steps(self):
        assert line_length([0, 1, 0, 1]) == 3.0

    def test_constant(self):
        assert line_length([5, 5, 5]) == 0.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            xs = rng.normal(scale=50.0, size=64)
            assert line_length(xs) == brute_force_line_length(list(xs))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            line_length([1.0])


# Samples with exponents over +-1000, subnormals, signed zeros, infinities
# and NaN.
EXTREME_SAMPLES = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1000, 1000)),
    st.floats(-(2.0 ** -1022), 2.0 ** -1022),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
# Sums of 1.0 plus terms exactly at a half-ulp tie, and just above it; the
# first frame's line-length terms are the first row's, and so on.
TIE_ROWS = ([1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -80])
TIE_FRAMES = ([1.0, 0.0, 2.0 ** -53], [1.0, 0.0, 2.0 ** -53, 2.0 ** -53 - 2.0 ** -80])
# Sums at the top of the float range: just below the midpoint between the
# largest float and 2**1024 (rounds to the largest float), exactly at it and
# past it (round to inf, where math.fsum raises), with and without NaN; the
# frames' line-length terms sum to 2**1024 and to 3 * 2**1023.
BIG = sys.float_info.max
OVERFLOW_ROWS = ([BIG, 2.0 ** 969], [BIG, 2.0 ** 970], [2.0 ** 1022] * 4,
                 [2.0 ** 1023, 2.0 ** 1023, math.nan])
OVERFLOW_FRAMES = ([0.0, BIG, BIG - 2.0 ** 971], [2.0 ** 1022, -(2.0 ** 1022)] * 2)


def bits(values) -> list:
    """Each float's exact hex form; every NaN reads alike."""
    return ["nan" if math.isnan(v) else v.hex() for v in values]


def padded(rows, n: int, pad=None) -> list:
    """Each row extended to n samples with ``pad``, or with its last sample."""
    return [list(r) + [r[-1] if pad is None else pad] * (n - len(r)) for r in rows]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n_rows=st.sampled_from([KERNEL_MIN_ROWS - 1, KERNEL_MIN_ROWS, 512])
    | st.integers(1, 3 * KERNEL_MIN_ROWS),
    n=st.integers(4, 40),
    data=st.data(),
)
def test_batched_sums_equal_fsum_of_each_row(n_rows, n, data):
    """Line length and area of a batch equal math.fsum of each row, bit for bit.

    Batches fall on both sides of ``KERNEL_MIN_ROWS``. A batch is the first
    n_rows of: the drawn rows of extreme samples, the tie rows, a zero row,
    a row too large for the kernel, the rows whose sum overflows, then
    generated rows, each spreading its exponents from a base in +-1000, some
    with zeros, subnormals, infinities and NaN mixed in. Nothing may warn.
    Runtime budget: under 2 s.
    """
    drawn = data.draw(st.lists(st.lists(EXTREME_SAMPLES, min_size=n, max_size=n), max_size=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.integers(-1000, 1001, size=(n_rows, 1))
    spread = rng.choice([0, 40, 2000], size=(n_rows, 1))
    exps = np.clip(base + (rng.random((n_rows, n)) * (spread + 1)).astype(int), -1074, 1000)
    bulk = np.ldexp(rng.uniform(-1.0, 1.0, (n_rows, n)), exps)
    special = rng.random((n_rows, n)) < rng.choice([0.0, 0.02], size=(n_rows, 1))
    bulk[special] = rng.choice([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan],
                               size=int(special.sum()))
    fixed = [[0.0] * n, [2.0 ** 1000] * n]

    area_rows = (drawn + padded(TIE_ROWS, n, 0.0) + fixed + padded(OVERFLOW_ROWS, n, 0.0)
                 + bulk.tolist())[:n_rows]
    frames = np.array(area_rows)
    assert bits(area_under_curve(frames).tolist()) == bits(map(brute_force_area, area_rows))

    line_rows = (drawn + padded(TIE_FRAMES, n) + fixed + padded(OVERFLOW_FRAMES, n)
                 + bulk.tolist())[:n_rows]
    frames = np.array(line_rows)
    # Neighbouring infinities of one sign would subtract to NaN with a warning.
    frames = np.where(np.isinf(frames), np.where(np.arange(n) % 2, -math.inf, math.inf), frames)
    want = [brute_force_line_length(row) for row in frames.tolist()]
    assert bits(line_length(frames).tolist()) == bits(want)


def test_split_sums_certify_only_rows_that_round_unambiguously():
    n = 8
    rows = padded(TIE_ROWS[:1], n, 0.0) + [
        [0.0] * n,
        [1.0] * (n - 1) + [math.inf],
        [math.nan] + [1.0] * (n - 1),
        [2.0 ** 1000] * n,              # float sum at or above 2**999
        [2.0 ** -1000] * n,             # float sum below 2**-900
        [0.1 * (i + 1) for i in range(n)],
    ]
    sums, exact = _split_sums(np.array(rows))
    assert exact.tolist() == [False] * 6 + [True]
    assert sums[-1].hex() == math.fsum(rows[-1]).hex()


class TestArea:
    def test_mixed_signs(self):
        assert area_under_curve([1, -1, 2]) == 4.0

    def test_zeros(self):
        assert area_under_curve([0, 0, 0]) == 0.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            xs = rng.normal(scale=50.0, size=64)
            assert area_under_curve(xs) == brute_force_area(list(xs))

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            area_under_curve([])


class TestHalfWave:
    def test_sine_count_matches_analytic(self):
        # A sinusoid of frequency f has 2f half-waves per second; boundary
        # segments make the count 2f +/- 1.
        fs = 256.0
        for f in (4.0, 8.0, 16.0):
            t = np.arange(int(fs)) / fs
            x = 10.0 * np.sin(2 * np.pi * f * t)
            cfg = HalfWaveConfig(
                min_amplitude_uV=5.0,
                min_duration_ticks=max(1, int(fs / (2 * f)) - 2),
                max_duration_ticks=int(fs / (2 * f)) + 2,
            )
            count = half_wave_count(x, cfg)
            assert abs(count - 2 * f) <= 1, (f, count)

    def test_flat_signal(self):
        cfg = HalfWaveConfig(1.0, 1, 100)
        assert half_wave_count(np.zeros(64), cfg) == 0

    def test_below_amplitude_criterion(self):
        fs = 256.0
        t = np.arange(int(fs)) / fs
        x = 0.4 * 5.0 * np.sin(2 * np.pi * 8.0 * t)
        cfg = HalfWaveConfig(5.0, 1, 100)
        assert half_wave_count(x, cfg) == 0

    def test_invariant_under_negation(self):
        rng = np.random.default_rng(103)
        cfg = HalfWaveConfig(0.5, 1, 40, hysteresis_uV=0.2)
        for _ in range(200):
            x = rng.normal(size=80).cumsum()
            assert half_wave_count(x, cfg) == half_wave_count(-x, cfg)

    def test_hysteresis_ignores_micro_reversals(self):
        # A rising ramp with tiny dips should read as one long half-wave,
        # not many short ones.
        x = np.array([0.0, 1.0, 0.95, 2.0, 1.95, 3.0, 2.95, 4.0, 0.0, 0.1])
        loose = HalfWaveConfig(0.5, 1, 100, hysteresis_uV=0.2)
        strict = HalfWaveConfig(0.5, 1, 100, hysteresis_uV=0.0)
        assert half_wave_count(x, loose) < half_wave_count(x, strict)


class TestBandPower:
    def test_parseval_unit_tone(self):
        fs = 250.0
        t = np.arange(250) / fs
        tone = np.sin(2 * np.pi * 20.0 * t)
        p = band_power(tone, 13.0, 30.0, fs)
        assert p == pytest.approx(0.5, rel=0.05)

    def test_out_of_band_leakage(self):
        fs = 250.0
        t = np.arange(250) / fs
        tone = np.sin(2 * np.pi * 20.0 * t)
        assert band_power(tone, 55.0, 75.0, fs) <= 0.02 * 0.5

    def test_zero_signal(self):
        assert band_power(np.zeros(128), 13.0, 30.0, 256.0) == 0.0

    def test_total_band_equals_mean_square(self):
        # Parseval over the whole one-sided spectrum (demeaned so the DC bin,
        # which no band can include, carries nothing).
        rng = np.random.default_rng(104)
        x = rng.normal(size=200)
        x = x - x.mean()
        fs = 100.0
        p = band_power(x, 0.5, 50.0, fs)
        assert p == pytest.approx(float(np.mean(x * x)), rel=1e-9)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(105)
        x = rng.normal(size=256)
        p1 = band_power(x, 13.0, 30.0, 256.0)
        p3 = band_power(3.0 * x, 13.0, 30.0, 256.0)
        assert p3 == pytest.approx(9.0 * p1, rel=1e-9)

    def test_band_outside_nyquist(self):
        with pytest.raises(DomainError):
            band_power(np.zeros(64), 13.0, 200.0, 256.0)

    def test_window_shorter_than_lowest_period(self):
        with pytest.raises(InsufficientDataError):
            band_power(np.zeros(10), 13.0, 30.0, 256.0)


def band_power_oracle(x, f_lo, f_hi, fs):
    """Oracle of ``band_power``: the whole one-sided periodogram, then the band's bins."""
    n = x.shape[-1]
    spec = np.fft.rfft(x, axis=-1)
    psd = (spec.real ** 2 + spec.imag ** 2) / (n * n)
    psd[..., 1:] *= 2.0
    if n % 2 == 0:
        psd[..., -1] /= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    lo = np.searchsorted(freqs, f_lo, side="left")
    hi = np.searchsorted(freqs, f_hi, side="right")
    power = psd[..., lo:hi].sum(axis=-1)
    return float(power) if x.ndim == 1 else power


# (f_lo, f_hi) at fs 256 Hz on 64 samples (4 Hz bins): the Nyquist bin,
# a low edge on bin 1, a band between bins, a one-bin band, the adbs band.
BANDS = [(100.0, 128.0), (4.0, 30.0), (4.0, 128.0), (21.0, 23.0), (20.0, 20.5), (13.0, 30.0)]


@pytest.mark.parametrize("band", BANDS, ids=str)
@pytest.mark.parametrize("n", [64, 65])
def test_band_power_equals_whole_spectrum_oracle(band, n):
    frames = np.random.default_rng(n).standard_normal((5, n)) * 3.0
    assert np.array_equal(band_power(frames, *band, 256.0), band_power_oracle(frames, *band, 256.0))
    for x in frames:
        assert band_power(x, *band, 256.0) == band_power_oracle(x, *band, 256.0)


def test_band_errors_repeat_on_every_call():
    for _ in range(2):
        with pytest.raises(DomainError, match=r"band \[13.0, 200.0\] must satisfy"):
            band_power(np.zeros(64), 13.0, 200.0, 256.0)
        with pytest.raises(InsufficientDataError, match="window of 10 samples"):
            band_power(np.zeros(10), 13.0, 30.0, 256.0)


class TestAdaptiveThreshold:
    @staticmethod
    def detector(long_ticks=8, short_ticks=2, **kw):
        return Detector(ToolSpec(feature="line_length", long_window_ticks=long_ticks,
                                 short_window_ticks=short_ticks, **kw))

    def test_fixed_mode(self):
        det = self.detector(threshold_mode="fixed", fixed_value=10.0)
        assert det.threshold == 10.0

    def test_median_times_multiplier(self):
        det = self.detector(threshold_mode="adaptive", multiplier=2.0)
        for v in (2.0, 4.0, 6.0):
            det.observe(v)
        assert det.threshold == 8.0

    def test_tracks_drifting_baseline_against_sort_oracle(self):
        rng = np.random.default_rng(106)
        det = self.detector(32, 4, threshold_mode="adaptive", multiplier=2.0)
        history = []
        drift = 0.0
        for _ in range(300):
            drift += 0.1
            v = float(rng.normal(loc=drift))
            det.observe(v)
            history.append(v)
            assert det.threshold == 2.0 * brute_force_median(history[-32:])

    def test_empty_baseline(self):
        # No baseline yet: no threshold, and nothing can be flagged.
        det = self.detector(threshold_mode="adaptive")
        assert det.threshold is None
        smoothed, threshold, flag = det.observe(1e9)
        assert (smoothed, threshold, flag) == (1e9, None, False)


class TestDetect:
    def test_or(self):
        assert detect([True, False], "OR") is True

    def test_and(self):
        assert detect([True, False], "AND") is False

    def test_and_all_true(self):
        assert detect([True, True, True], "AND") is True

    def test_monotone_in_flags(self):
        rng = np.random.default_rng(107)
        for _ in range(200):
            flags = [bool(b) for b in rng.integers(0, 2, size=5)]
            for i in range(5):
                if flags[i]:
                    continue
                raised = list(flags)
                raised[i] = True
                assert detect(flags, "OR") <= detect(raised, "OR")
                assert detect(flags, "AND") <= detect(raised, "AND")


class TestEcapAmplitude:
    def test_negative_estimate_flags_impossible(self):
        est, flags = ecap_range_check(-0.2)
        assert est == -0.2
        assert QUALITY_IMPOSSIBLE in flags

    def test_nan_estimate_flags_impossible(self):
        # NaN fails every comparison, so it once passed as OK.
        assert ecap_range_check(float("nan"), 1000.0)[1] == frozenset({QUALITY_IMPOSSIBLE})


class TestSignalQuality:
    def test_all_samples_at_limit(self):
        limits = SignalQualityLimits(saturation_uV=100.0)
        assert signal_quality(np.full(16, 100.0), limits) == frozenset(
            {QUALITY_SATURATED, QUALITY_FLATLINE}
        )

    def test_constant_window_is_flatline(self):
        limits = SignalQualityLimits(saturation_uV=100.0)
        assert signal_quality(np.full(16, 3.0), limits) == frozenset({QUALITY_FLATLINE})

    def test_smooth_in_range_is_ok(self):
        limits = SignalQualityLimits(saturation_uV=100.0)
        x = np.sin(np.linspace(0, 3, 50))
        assert signal_quality(x, limits) == frozenset({QUALITY_OK})

    def test_rate_bound(self):
        limits = SignalQualityLimits(saturation_uV=1e6, max_delta_uV_per_sample=1.0)
        x = np.array([0.0, 5.0, 0.0, 5.0])
        assert QUALITY_EXTERNAL_NOISE in signal_quality(x, limits)


def signal_quality_oracle(x, limits):
    """Oracle of ``signal_quality`` for one frame: every check, flag by flag."""
    flags = set()
    if np.any(np.abs(x) >= limits.saturation_uV):
        flags.add(QUALITY_SATURATED)
    if x.max() - x.min() < limits.flatline_eps_uV:
        flags.add(QUALITY_FLATLINE)
    if np.abs(np.diff(x)).max() > limits.max_delta_uV_per_sample:
        flags.add(QUALITY_EXTERNAL_NOISE)
    return frozenset(flags) or frozenset({QUALITY_OK})


@pytest.mark.parametrize("max_delta", [150.0, math.inf])
def test_signal_quality_equals_oracle(max_delta):
    frames = np.random.default_rng(6).standard_normal((6, 64)) * 20.0
    frames[1] = 5.0                 # flatline
    frames[2, 10] = 2500.0          # saturated and a jump
    frames[3, 30] = 400.0           # a jump only
    frames[4, 7] = np.nan
    limits = SignalQualityLimits(saturation_uV=2000.0, max_delta_uV_per_sample=max_delta)
    want = [signal_quality_oracle(x, limits) for x in frames]
    assert signal_quality(frames, limits) == want
    assert [signal_quality(x, limits) for x in frames] == want
    assert (QUALITY_EXTERNAL_NOISE in want[3]) == (max_delta < math.inf)


# Samples at and just inside +-saturation, zeros of both signs, infinities,
# NaN and anything in between.
SQ_SAMPLES = st.one_of(
    st.sampled_from([100.0, -100.0, math.nextafter(100.0, 0.0), -math.nextafter(100.0, 0.0),
                     0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-250.0, 250.0),
)
SQ_BATCHES = st.tuples(st.integers(1, 6), st.integers(2, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=SQ_SAMPLES))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(frames=SQ_BATCHES, saturation=st.sampled_from([100.0, math.inf]),
       max_delta=st.sampled_from([math.inf, 120.0]))
def test_signal_quality_equals_the_abs_formula(frames, saturation, max_delta):
    # Budget: under 1 s. The saturation flag comes from the row max and
    # min; the oracle tests |x| >= saturation sample by sample. A row of
    # equal infinities has the peak-to-peak inf - inf, which warns in both.
    limits = SignalQualityLimits(saturation_uV=saturation, max_delta_uV_per_sample=max_delta)
    with np.errstate(invalid="ignore"):
        want = [signal_quality_oracle(x, limits) for x in frames]
        assert signal_quality(frames, limits) == want
        assert [signal_quality(x, limits) for x in frames] == want


# With ±1 µV samples, a peak-to-peak of exactly flatline_eps_uV (1 or 2 µV).
SQ_EDGE_SAMPLES = st.one_of(SQ_SAMPLES, st.sampled_from([1.0, -1.0]))


def sq_row(n: int):
    """A row of n samples, or a flat one (of NaN or inf too)."""
    return st.one_of(arrays(np.float64, n, elements=SQ_EDGE_SAMPLES),
                     SQ_EDGE_SAMPLES.map(lambda v: np.full(n, v)))


# Batches on both sides of the row count from which signal_quality checks
# numpy arrays instead of Python floats.
SQ_WIDE_BATCHES = st.tuples(st.integers(1, 2 * KERNEL_MIN_ROWS), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(sq_row(shape[1]), min_size=shape[0], max_size=shape[0]).map(np.array))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(frames=SQ_WIDE_BATCHES, max_delta=st.sampled_from([120.0, 0.0, math.inf]),
       eps=st.sampled_from([1e-9, 1.0, 2.0]))
def test_signal_quality_of_a_batch_equals_its_frames(frames, max_delta, eps):
    # Budget: under 2 s. Both routes of a batch against each row as a frame,
    # and against the oracle.
    limits = SignalQualityLimits(saturation_uV=100.0, flatline_eps_uV=eps,
                                 max_delta_uV_per_sample=max_delta)
    with np.errstate(invalid="ignore"):   # the peak-to-peak of a row of equal infinities
        want = [signal_quality(x, limits) for x in frames]
        assert signal_quality(frames, limits) == want
        if frames.shape[1] >= 2:
            assert want == [signal_quality_oracle(x, limits) for x in frames]


# Bounded finite frames: a batch of 1-4 rows of 8-64 samples within ±1000 µV.
FRAMES = st.tuples(st.integers(1, 4), st.integers(8, 64)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(frames=FRAMES, band=st.sampled_from([(8.0, 16.0), (8.0, 32.0), (20.0, 24.0)]))
def test_every_frame_biomarker_is_non_negative(frames, band):
    """No beta or iEEG biomarker is ever negative, for one frame or a batch.

    Band power is a sum of squares, line length and area are sums of
    absolute values, a half-wave count counts, and a detector's smoothed
    value is a mean of such values; so the EcapNonNegative trust check,
    which reads the same reading on every plant kind, never fails on them.
    Runtime budget: well under 1 s.
    """
    hw = HalfWaveConfig(min_amplitude_uV=1.0, min_duration_ticks=1, max_duration_ticks=8)
    features = [
        lambda x: band_power(x, *band, 64.0),
        line_length,
        area_under_curve,
        lambda x: half_wave_count(x, hw),
    ]
    detector = Detector(ToolSpec("line_length", long_window_ticks=3, short_window_ticks=2))
    for feature in features:
        batch = np.asarray(feature(frames))
        assert batch.shape == (len(frames),) and np.all(batch >= 0.0), batch
        for row in frames:
            one = feature(row)
            assert one >= 0.0
            smoothed, _, _ = detector.observe(float(one))
            assert smoothed >= 0.0


@pytest.mark.parametrize("combinator", list(COMBINATORS))
@pytest.mark.parametrize("mode", list(THRESHOLD_MODES))
@pytest.mark.parametrize("feature", list(FEATURES))
def test_every_declared_tool_kind_validates_and_runs(feature, mode, combinator):
    """Each declared feature, threshold mode and combinator, read from a
    scenario file and run for 40 ticks of an iEEG plant. Two tools of the
    feature are combined, so the combinator decides the flag."""
    tools = [{"feature": feature, "threshold": {"mode": mode, "multiplier": multiplier,
                                                "long_window_ticks": 8, "short_window_ticks": 2,
                                                "value": 50.0 * multiplier}}
             for multiplier in (1.5, 3.0)]
    if FEATURES[feature].needs_half_wave:
        for tool in tools:
            tool["half_wave"] = {"min_amplitude_uV": 5.0, "min_duration_ticks": 1,
                                 "max_duration_ticks": 8}
    raw = ieeg_raw(timebase={"duration_s": 40 * 0.125},
                   features={"tools": tools, "combinator": combinator})
    report = validate_scenario(raw)
    assert report.ok, report.findings
    tool = report.scenario.plant.tools[0]
    assert (tool.feature, tool.threshold_mode) == (feature, mode)
    result = run_scenario(report.scenario)
    assert not result.aborted and result.n_ticks == 40
    assert np.isfinite(result.biomarker).all()

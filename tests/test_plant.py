"""Patient and device models: curves, evoked responses, signals, hardware."""

import numpy as np
import pytest

import neuroloop.engine as engine
from neuroloop.core import ConfigurationError, DomainError, Dose
from neuroloop.features import band_power, line_length
from neuroloop.plant import (
    BLOCK_TICKS,
    BetaPlantConfig,
    BetaSuppression,
    BetaTickTable,
    CardiacArtifact,
    CircadianSine,
    CoughTransient,
    DeviceState,
    DisturbanceTrack,
    EcapPlantParams,
    IeegPlantConfig,
    InvalidPlantError,
    NoisyNonMonotonic,
    OffsetGain,
    PostureStep,
    SeizureGenState,
    actuator_apply,
    beta_lfp_frame,
    circadian_factor,
    device_step,
    distance_profile,
    dose_response_eval,
    ecap_true,
    ieeg_frame,
    seizure_step,
)
from neuroloop.scenario import scenario_from_dict

from conftest import deep_merge, reference_raw


class TestDoseResponseCurves:
    def test_ideal_linear_through_origin(self):
        assert dose_response_eval(OffsetGain(gain=2.0, offset_mA=0.0), 3.0) == 6.0
        assert dose_response_eval(OffsetGain(gain=2.0, offset_mA=0.0), 0.0) == 0.0

    def test_offset_gain_below_offset(self):
        assert dose_response_eval(OffsetGain(gain=2.0, offset_mA=1.0), 0.5) == 0.0

    def test_offset_gain_above_offset(self):
        assert dose_response_eval(OffsetGain(gain=2.0, offset_mA=1.0), 2.0) == 2.0

    def test_beta_suppression_slope_diminishes_above_knee(self):
        # Finite differences: slope magnitude at 2.5 mA must be smaller than
        # at the 1.75 mA knee, and strictly decreasing on a grid above it.
        curve = BetaSuppression(
            baseline=2.0, max_suppression_fraction=0.8, knee_mA=1.75, softness_mA=0.5
        )
        h = 1e-4

        def slope(a):
            return (
                dose_response_eval(curve, a + h) - dose_response_eval(curve, a - h)
            ) / (2 * h)

        assert abs(slope(2.5)) < abs(slope(1.75))
        grid = np.arange(1.75, 4.0, 0.25)
        mags = [abs(slope(a)) for a in grid]
        assert all(m2 < m1 for m1, m2 in zip(mags, mags[1:]))

    def test_beta_suppression_nonincreasing(self):
        curve = BetaSuppression(2.0, 0.8, 1.75, 0.5)
        amps = np.linspace(0, 6, 200)
        vals = [dose_response_eval(curve, a) for a in amps]
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_noisy_nonmonotonic_reduces_to_base_without_noise(self):
        curve = NoisyNonMonotonic(gain=2.0, offset_mA=0.5, peak_mA=3.0, noise_sd=0.0)
        base = OffsetGain(gain=2.0, offset_mA=0.5)
        for a in np.linspace(0, 3.0, 50):
            assert dose_response_eval(curve, a) == dose_response_eval(base, a)

    def test_noisy_nonmonotonic_declines_past_peak(self):
        curve = NoisyNonMonotonic(gain=2.0, offset_mA=0.0, peak_mA=2.0, noise_sd=0.0)
        at_peak = dose_response_eval(curve, 2.0)
        assert dose_response_eval(curve, 3.0) < at_peak

    def test_noise_uses_rng(self):
        curve = NoisyNonMonotonic(gain=1.0, offset_mA=0.0, peak_mA=5.0, noise_sd=0.3)
        rng = np.random.default_rng(0)
        vals = {dose_response_eval(curve, 2.0, rng) for _ in range(5)}
        assert len(vals) > 1
        with pytest.raises(DomainError):
            dose_response_eval(curve, 2.0)  # noise without an rng

    def test_negative_amplitude(self):
        with pytest.raises(DomainError):
            dose_response_eval(OffsetGain(1.0, 0.0), -0.1)


class TestEcapTrue:
    P = EcapPlantParams(
        slope_uV_per_mA_at_ref=0.5,
        threshold_mA_at_ref=3.0,
        distance_ref_mm=4.0,
        threshold_distance_coeff=0.8,
    )

    def test_linear_growth_law(self):
        assert ecap_true(5.0, 4.0, self.P) == pytest.approx(1.0)

    def test_zero_at_threshold(self):
        assert ecap_true(3.0, 4.0, self.P) == 0.0
        assert ecap_true(2.0, 4.0, self.P) == 0.0
        # A drive of -0.0 floors to 0.0, as max(0.0, drive) does.
        assert repr(ecap_true(-0.0, 4.0, EcapPlantParams(0.5, 0.0, 4.0))) == "0.0"

    def test_distance_step_shifts_threshold(self):
        # Hand-derived: +1 mm raises I_th by 0.8 mA, so the same 5 mA drive
        # yields an evoked response lower by k * 0.8 = 0.4 uV.
        before = ecap_true(5.0, 4.0, self.P)
        after = ecap_true(5.0, 5.0, self.P)
        assert before - after == pytest.approx(0.5 * 0.8)

    def test_continuous_and_nondecreasing_in_amplitude(self):
        amps = np.linspace(0, 8, 400)
        vals = [ecap_true(a, 4.5, self.P) for a in amps]
        diffs = np.diff(vals)
        assert (diffs >= 0).all()
        assert np.abs(diffs).max() < 0.02  # no jumps at this grid spacing

    def test_invalid_slope_rejected(self):
        p = EcapPlantParams(0.5, 3.0, 4.0, slope_distance_coeff=-0.5)
        with pytest.raises(InvalidPlantError):
            p.validate_over_range(2.0, 7.0)


def cough_contribution(seg: CoughTransient, tick: int) -> float:
    t = tick - seg.start_tick
    if t < 0 or t >= seg.rise_ticks + seg.fall_ticks:
        return 0.0
    if t <= seg.rise_ticks:
        return seg.delta_mm * t / seg.rise_ticks
    return seg.delta_mm * (1.0 - (t - seg.rise_ticks) / seg.fall_ticks)


def distance_at(track: DisturbanceTrack, base_mm: float, tick: int) -> float:
    """Oracle of ``distance_profile``: the distance at one tick, segment by segment."""
    d = base_mm
    for seg in track.segments:
        if isinstance(seg, PostureStep):
            if tick >= seg.start_tick:
                d += seg.delta_mm
        elif isinstance(seg, CoughTransient):
            d += cough_contribution(seg, tick)
    return d


class TestDisturbances:
    def test_no_segments(self):
        track = DisturbanceTrack()
        prof = distance_profile(track, 4.0, 1000)
        for t in (0, 10, 999):
            assert prof[t] == distance_at(track, 4.0, t) == 4.0

    def test_posture_step_boundary(self):
        track = DisturbanceTrack((PostureStep(100, 1.5),))
        prof = distance_profile(track, 4.0, 101)
        assert prof[99] == distance_at(track, 4.0, 99) == 4.0
        assert prof[100] == distance_at(track, 4.0, 100) == 5.5

    def test_cough_apex_and_return(self):
        track = DisturbanceTrack((CoughTransient(0, 2.0, 10, 10),))
        prof = distance_profile(track, 4.0, 21)
        for t, want in ((10, 6.0), (20, 4.0), (0, 4.0)):
            assert prof[t] == pytest.approx(want)
            assert distance_at(track, 4.0, t) == pytest.approx(want)

    def test_profile_matches_pointwise(self):
        track = DisturbanceTrack(
            (CoughTransient(5, 2.0, 10, 10), PostureStep(40, -0.5))
        )
        prof = distance_profile(track, 4.0, 80)
        for t in range(80):
            assert prof[t] == pytest.approx(distance_at(track, 4.0, t))

    def test_circadian_factor_unity_without_segments(self):
        assert circadian_factor(DisturbanceTrack(), 123) == 1.0

    def test_segments_must_be_sorted(self):
        with pytest.raises(ConfigurationError):
            DisturbanceTrack((PostureStep(10, 1.0), PostureStep(5, 1.0)))


def draws(rng, cfg):
    """One frame of standard-normal noise from ``rng`` (a Generator or a seed)."""
    return np.random.default_rng(rng).standard_normal(cfg.frame_len)


def beta_cfg(**kw):
    defaults = dict(
        fs_hz=256.0,
        frame_len=256,
        beta_hz=20.0,
        curve=BetaSuppression(2.0, 0.8, 1.75, 0.5),
        noise_rms_uV=1.0,
        gamma_entrainment_uV=0.0,
        disturbances=DisturbanceTrack(),
    )
    defaults.update(kw)
    return BetaPlantConfig(**defaults)


def cardiac_train(segs: tuple, t: np.ndarray, tick: int) -> np.ndarray:
    out = np.zeros_like(t)
    for seg in segs:
        if tick < seg.start_tick:
            continue
        period = 1.0 / seg.rate_hz
        phase = np.mod(t, period)
        out += np.where(
            phase < seg.pulse_width_s,
            seg.amplitude_uV,
            np.where(phase < 2 * seg.pulse_width_s, -seg.amplitude_uV, 0.0),
        )
    return out


def beta_frame(dose, tick: int, table: BetaTickTable, noise: np.ndarray) -> np.ndarray:
    """One dose's frame from one frame of noise: ``beta_lfp_frame`` of a one-row batch."""
    return beta_lfp_frame([dose], tick, table, noise[None])[0]


def beta_frame_oracle(doses, tick: int, cfg: BetaPlantConfig, noise: np.ndarray) -> np.ndarray:
    """Oracle of ``beta_lfp_frame``: every tick-only term computed for this tick alone."""
    n = cfg.frame_len
    t = (tick * n + np.arange(n)) / cfg.fs_hz

    circadian = circadian_factor(cfg.disturbances, tick)
    envelope = np.array(
        [dose_response_eval(cfg.curve, d.amplitude_mA) * circadian for d in doses]
    )
    frame = envelope[:, None] * np.sin(2.0 * np.pi * cfg.beta_hz * t)

    frame += noise * cfg.noise_rms_uV

    cardiac = tuple(s for s in cfg.disturbances.segments if isinstance(s, CardiacArtifact))
    if cardiac:
        frame += cardiac_train(cardiac, t, tick)

    if cfg.gamma_entrainment_uV > 0:
        rows = [i for i, d in enumerate(doses) if d.amplitude_mA > 0 and d.frequency_hz > 0]
        if rows:
            half_rate = np.array([doses[i].frequency_hz for i in rows]) / 2.0
            frame[rows] += cfg.gamma_entrainment_uV * np.sin(
                2.0 * np.pi * half_rate[:, None] * t
            )
    return frame


class TestBetaFrames:
    def test_baseline_band_power_matches_envelope_oracle(self):
        # Monte Carlo estimate over >= 100 frames against envelope^2 / 2 plus
        # the broadband noise contribution inside the band.
        cfg = beta_cfg()
        table = BetaTickTable(cfg)
        rng = np.random.default_rng(1)
        off = Dose(0.0, 60.0, 130.0)
        powers = [
            band_power(beta_frame(off, t, table, draws(rng, cfg)), 13.0, 30.0, cfg.fs_hz)
            for t in range(200)
        ]
        envelope = dose_response_eval(cfg.curve, 0.0)
        n_bins_in_band = np.count_nonzero(
            (np.fft.rfftfreq(cfg.frame_len, 1 / cfg.fs_hz) >= 13.0)
            & (np.fft.rfftfreq(cfg.frame_len, 1 / cfg.fs_hz) <= 30.0)
        )
        noise_in_band = cfg.noise_rms_uV**2 * n_bins_in_band / (cfg.frame_len / 2)
        oracle = envelope**2 / 2 + noise_in_band
        assert np.mean(powers) == pytest.approx(oracle, rel=0.1)

    def test_entrained_gamma_present_only_when_stimulating(self):
        cfg = beta_cfg(gamma_entrainment_uV=1.0, noise_rms_uV=0.1)
        on = Dose(2.5, 60.0, 130.0)
        off = Dose(0.0, 60.0, 130.0)
        frame_on = beta_frame(on, 0, BetaTickTable(cfg), draws(2, cfg))
        frame_off = beta_frame(off, 0, BetaTickTable(cfg), draws(2, cfg))
        # Stimulating at 130 Hz entrains a component at 65 Hz.
        p_on = band_power(frame_on, 60.0, 70.0, cfg.fs_hz)
        p_off = band_power(frame_off, 60.0, 70.0, cfg.fs_hz)
        assert p_on > 10 * p_off
        assert p_on == pytest.approx(1.0**2 / 2, rel=0.2)

    def test_cardiac_artifact_raises_beta_power_same_seed(self):
        track = DisturbanceTrack((CardiacArtifact(0, 1.2, 2.0),))
        cfg_clean = beta_cfg()
        cfg_dirty = beta_cfg(disturbances=track)
        dose = Dose(3.0, 60.0, 130.0)
        clean, dirty = BetaTickTable(cfg_clean), BetaTickTable(cfg_dirty)
        total_clean = total_dirty = 0.0
        for t in range(50):
            f_clean = beta_frame(dose, t, clean, draws(7 + t, cfg_clean))
            f_dirty = beta_frame(dose, t, dirty, draws(7 + t, cfg_dirty))
            total_clean += band_power(f_clean, 13.0, 30.0, cfg_clean.fs_hz)
            total_dirty += band_power(f_dirty, 13.0, 30.0, cfg_dirty.fs_hz)
        assert total_dirty > total_clean

    def test_circadian_scales_envelope(self):
        track = DisturbanceTrack((CircadianSine(0, 100, 0.5, phase=np.pi / 2),))
        cfg = beta_cfg(noise_rms_uV=0.0, disturbances=track)
        dose = Dose(0.0, 60.0, 130.0)
        peak = beta_frame(dose, 0, BetaTickTable(cfg), draws(0, cfg))
        trough = beta_frame(dose, 50, BetaTickTable(cfg), draws(0, cfg))
        assert np.abs(peak).max() == pytest.approx(3 * np.abs(trough).max(), rel=1e-6)

    def test_deterministic_given_same_stream(self):
        cfg = beta_cfg()
        dose = Dose(1.0, 60.0, 130.0)
        a = beta_frame(dose, 5, BetaTickTable(cfg), draws(9, cfg))
        b = beta_frame(dose, 5, BetaTickTable(cfg), draws(9, cfg))
        assert np.array_equal(a, b)


# A cardiac and a circadian segment that each start mid-block, gamma on.
MID_BLOCK = DisturbanceTrack((CardiacArtifact(40, 1.2, 2.0), CircadianSine(100, 300, 0.3, 0.5)))
EDGE_TICKS = (0, 39, 40, 63, 64, 99, 100, 127, 149)


class TestBetaTickTable:
    """Frames built from the tick table equal the per-tick oracle bit for bit."""

    CFG = beta_cfg(frame_len=64, gamma_entrainment_uV=0.5, disturbances=MID_BLOCK)
    # Amplitude 0, two stimulation rates and frequency 0 in one batch.
    DOSES = [Dose(0.0, 60.0, 130.0), Dose(2.5, 60.0, 130.0), Dose(3.1, 60.0, 0.0),
             Dose(1.2, 60.0, 90.0)]

    def assert_frames_equal_oracle(self, table, doses, tick, seed):
        noise = np.random.default_rng(seed).standard_normal((len(doses), table.cfg.frame_len))
        batch = beta_lfp_frame(doses, tick, table, noise)
        assert np.array_equal(batch, beta_frame_oracle(doses, tick, table.cfg, noise))
        for i, dose in enumerate(doses):   # a one-row batch is its row of the whole
            assert np.array_equal(beta_frame(dose, tick, table, noise[i]), batch[i])

    def test_block_edges(self):
        # Ticks at block edges, at the segments' starts and in the partial
        # block after a 150-tick run's last full one, in order and back.
        table = BetaTickTable(self.CFG)
        for tick in EDGE_TICKS + (64, 0, 127):
            self.assert_frames_equal_oracle(table, self.DOSES, tick, seed=tick)
            assert table.start == tick - tick % BLOCK_TICKS

    def test_one_rate_for_every_row_and_a_rate_switch_mid_block(self):
        table = BetaTickTable(self.CFG)
        for tick in range(64, 128):
            rate = 130.0 if tick < 80 else 90
            doses = [Dose(a, 60.0, rate) for a in (2.5, 1.0, 4.0)]
            self.assert_frames_equal_oracle(table, doses, tick, seed=tick)
            self.assert_frames_equal_oracle(table, doses[:1] + self.DOSES, tick, seed=tick)

    def test_without_cardiac_gamma_or_circadian_terms(self):
        table = BetaTickTable(beta_cfg(frame_len=64))
        assert table.row(5) == 5 and table.cardiac is None
        for tick in (0, 63, 64):
            self.assert_frames_equal_oracle(table, self.DOSES, tick, seed=tick)

    def test_run_frames_equal_oracle_through_partial_last_block(self, monkeypatch):
        # Budget: 0.5 s. 150 ticks: two full blocks and a partial one.
        raw = deep_merge(reference_raw("adbs_parkinsons"), {
            "timebase": {"duration_s": 37.5},
            "plant": {"disturbances": [
                {"kind": "CardiacArtifact", "start_tick": 40, "rate_hz": 1.2,
                 "amplitude_uV": 1.0},
                {"kind": "CircadianSine", "start_tick": 100, "period_ticks": 960,
                 "amplitude": 0.3, "phase": 0.0},
            ]},
        })
        scenario = scenario_from_dict(raw)
        seen = []

        def checked(doses, tick, table, noise):
            frames = beta_lfp_frame(doses, tick, table, noise)
            assert np.array_equal(frames, beta_frame_oracle(doses, tick, table.cfg, noise))
            seen.append(tick)
            return frames

        monkeypatch.setattr(engine, "beta_lfp_frame", checked)
        engine.sweep(scenario, 2)
        assert seen == list(range(150))


class TestIeegFrames:
    CFG = IeegPlantConfig(
        fs_hz=256.0, frame_len=32, background_sd_uV=10.0,
        ictal_amplitude_uV=300.0, ictal_hz=10.0,
    )

    def test_background_line_length_within_calibration(self):
        # Calibrate the background distribution empirically, then check a
        # fresh frame lands within 3 sigma of it.
        rng = np.random.default_rng(11)
        calib = [
            line_length(ieeg_frame(False, self.CFG, draws(rng, self.CFG), t))
            for t in range(500)
        ]
        mu, sd = float(np.mean(calib)), float(np.std(calib))
        fresh = line_length(ieeg_frame(False, self.CFG, draws(999, self.CFG), 0))
        assert abs(fresh - mu) < 3 * sd

    def test_ictal_frames_cross_adaptive_threshold(self):
        rng = np.random.default_rng(12)
        calib = [
            line_length(ieeg_frame(False, self.CFG, draws(rng, self.CFG), t))
            for t in range(500)
        ]
        threshold = 2.0 * float(np.median(calib))
        hits = sum(
            line_length(ieeg_frame(True, self.CFG, draws(rng, self.CFG), t)) > threshold
            for t in range(500)
        )
        assert hits >= 495  # >= 99%

    def test_zero_noise_not_seizing_is_flat(self):
        cfg = IeegPlantConfig(256.0, 32, 0.0, 300.0, 10.0)
        frame = ieeg_frame(False, cfg, draws(0, cfg), 0)
        assert line_length(frame) == 0.0


class TestSeizureGenerator:
    def test_zero_rate_never_seizes(self):
        s = SeizureGenState(rate_per_hour=0.0, base_duration_ticks=10)
        rng = np.random.default_rng(0)
        for t in range(1000):
            s, seizing = seizure_step(s, False, t, 0.1, rng)
            assert not seizing

    def test_certain_suppression_always_terminates_early(self):
        s = SeizureGenState(
            rate_per_hour=3600.0, base_duration_ticks=50,
            suppression_prob=1.0, response_window_ticks=5,
        )
        rng = np.random.default_rng(1)
        dt = 0.5  # hazard 0.5/tick
        for t in range(4000):
            s, _ = seizure_step(s, True, t, dt, rng)
        assert s.onset_count > 100
        assert s.early_termination_count == s.onset_count

    def test_early_termination_cuts_duration(self):
        s = SeizureGenState(
            rate_per_hour=3600.0, base_duration_ticks=50,
            suppression_prob=1.0, response_window_ticks=5,
        )
        rng = np.random.default_rng(2)
        seizing_ticks = 0
        for t in range(4000):
            s, seizing = seizure_step(s, True, t, 0.5, rng)
            seizing_ticks += seizing
        # Each suppressed event lasts exactly one tick (onset only).
        assert seizing_ticks == s.onset_count

    def test_at_most_one_active_seizure(self):
        s = SeizureGenState(rate_per_hour=3600.0, base_duration_ticks=30)
        rng = np.random.default_rng(3)
        for t in range(2000):
            s, _ = seizure_step(s, False, t, 0.5, rng)
            assert s.current is None or isinstance(s.current.onset_tick, int)
        # onsets cannot overlap: total seizing time <= onsets * duration
        assert s.onset_count >= 1

    def test_termination_fraction_tracks_probability(self):
        # Small-instance binomial check at a second operating point.
        p = 0.3
        s = SeizureGenState(
            rate_per_hour=1800.0, base_duration_ticks=20,
            suppression_prob=p, response_window_ticks=5,
        )
        rng = np.random.default_rng(31)
        t = 0
        while s.onset_count < 2000:
            s, _ = seizure_step(s, True, t, 0.1, rng)
            t += 1
        frac = s.early_termination_count / s.onset_count
        sigma = np.sqrt(p * (1 - p) / s.onset_count)
        assert abs(frac - p) <= 4 * sigma

    def test_suppression_decided_once_per_event(self):
        # With prob 0 and repeated therapy, the event must run full length.
        s = SeizureGenState(
            rate_per_hour=3600.0, base_duration_ticks=20,
            suppression_prob=0.0, response_window_ticks=10,
        )
        rng = np.random.default_rng(4)
        durations = []
        run = 0
        for t in range(3000):
            s, seizing = seizure_step(s, True, t, 0.5, rng)
            if seizing:
                run += 1
            elif run:
                durations.append(run)
                run = 0
        assert durations and all(d == 20 for d in durations)


class TestActuator:
    DEV = DeviceState(
        battery_v=3.6,
        eos_threshold_v=3.0,
        impedance_ohm_per_contact={"E1": 2000.0},
        compliance_v=10.0,
        amp_step_mA=0.1,
        amplifier_saturation_uV=1000.0,
    )

    # actuator_apply(amplitude, template dose, device): the template names
    # the contact set whose compliance cap applies.
    E1 = Dose(1.0, 200.0, 50.0, "E1")

    def test_compliance_limit(self):
        # 10 V across 2000 ohm allows 5 mA.
        assert actuator_apply(8.0, self.E1, self.DEV) == pytest.approx(5.0)

    def test_quantization_floors(self):
        assert actuator_apply(3.14, self.E1, self.DEV) == pytest.approx(3.1)

    def test_off_stays_off(self):
        assert actuator_apply(0.0, self.E1, self.DEV) == 0.0

    def test_never_exceeds_request_and_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            req = float(rng.uniform(0, 12))
            once = actuator_apply(req, self.E1, self.DEV)
            twice = actuator_apply(once, self.E1, self.DEV)
            assert once <= req + 1e-12
            assert twice == once

    def test_unknown_contact(self):
        # The actuator reads the impedance map as it is: a dose on a contact
        # the device does not have is a finding, so no scenario holds one.
        raw = deep_merge(reference_raw("ecap_scs"), {"baseline_dose": {"contact_set": "bogus"}})
        with pytest.raises(ConfigurationError, match="contact set 'bogus' unknown to the device"):
            scenario_from_dict(raw)


class TestDeviceStep:
    def test_zero_drain_keeps_battery(self):
        dev = TestActuator.DEV
        assert device_step(dev, 100.0).battery_v == dev.battery_v

    def test_linear_drain(self):
        dev = DeviceState(
            battery_v=3.6, eos_threshold_v=3.0,
            impedance_ohm_per_contact={"E1": 500.0},
            compliance_v=10.0, amp_step_mA=0.1,
            drain_v_per_uC=1e-6,
        )
        for _ in range(10):
            dev = device_step(dev, 1e5)
        assert dev.battery_v == pytest.approx(3.6 - 1.0)

    def test_impedance_ramp(self):
        dev = DeviceState(
            battery_v=3.6, eos_threshold_v=3.0,
            impedance_ohm_per_contact={"E1": 500.0},
            compliance_v=10.0, amp_step_mA=0.1,
            impedance_ramp_ohm_per_tick=0.1,
        )
        for _ in range(100):
            dev = device_step(dev, 0.0)
        assert dev.impedance_ohm_per_contact["E1"] == pytest.approx(510.0)

    def test_battery_never_increases(self):
        rng = np.random.default_rng(6)
        dev = DeviceState(
            battery_v=3.6, eos_threshold_v=3.0,
            impedance_ohm_per_contact={"E1": 500.0},
            compliance_v=10.0, amp_step_mA=0.1,
            drain_v_per_uC=1e-8,
        )
        prev = dev.battery_v
        for _ in range(200):
            dev = device_step(dev, float(rng.uniform(0, 50)))
            assert dev.battery_v <= prev
            prev = dev.battery_v

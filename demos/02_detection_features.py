"""Detection features on synthetic intracranial signal.

Builds a stretch of background signal with one seizure-like burst in the
middle, then runs the three detection features (line length, area,
half-wave count) frame by frame and shows an adaptive threshold doing its
job: the threshold tracks 2x the median of a long baseline window, so it
rides through slow drift but trips on the burst.

Run:  python demos/02_detection_features.py
"""

import numpy as np

from neuroloop.features import (
    Detector,
    HalfWaveConfig,
    area_under_curve,
    half_wave_count,
    line_length,
)
from neuroloop.plant import IeegPlantConfig, ieeg_frame
from neuroloop.scenario import ToolSpec

FS = 256.0
FRAME = 32
cfg = IeegPlantConfig(
    fs_hz=FS, frame_len=FRAME, background_sd_uV=10.0,
    ictal_amplitude_uV=300.0, ictal_hz=10.0,
)
hw_cfg = HalfWaveConfig(
    min_amplitude_uV=150.0, min_duration_ticks=6, max_duration_ticks=26,
    hysteresis_uV=20.0,
)

rng = np.random.default_rng(42)
detector = Detector(ToolSpec(
    feature="line_length", threshold_mode="adaptive", multiplier=2.0,
    long_window_ticks=120, short_window_ticks=4,
))

N_TICKS = 240
SEIZURE = range(140, 180)  # a 5 s event starting at t = 17.5 s

print("tick  time_s  line_len    area  halfwaves  threshold  flag")
for t in range(N_TICKS):
    seizing = t in SEIZURE
    frame = ieeg_frame(seizing, cfg, rng.standard_normal(FRAME), t)
    ll = line_length(frame)
    area = area_under_curve(frame)
    hw = half_wave_count(frame, hw_cfg)

    smoothed, threshold, flag = detector.observe(ll)

    if t % 20 == 0 or seizing and t % 4 == 0:
        thr = f"{threshold:9.1f}" if threshold is not None else "  warming"
        mark = " <-- DETECT" if flag else ""
        print(
            f"{t:4d}  {t * FRAME / FS:6.2f}  {ll:8.1f} {area:7.0f}"
            f"  {hw:9d}  {thr}{mark}"
        )

print(
    "\nDuring the burst the line length jumps roughly 4-5x above the"
    "\nbaseline median, so the adaptive threshold (2x median of the last"
    "\n15 s) fires within a tick or two, while slow drift in the background"
    "\nwould simply raise the threshold along with the signal."
)

"""Walk through the dose-response curve families and their failure shapes.

The four families cover the standard ways a real biomarker departs from the
textbook line: offset error (nothing happens until an activation threshold),
gain error, additive noise with non-monotonicity (more stimulation eventually
makes the reading worse), and saturating suppression where each extra
milliamp buys less and less effect.

Run:  python demos/01_dose_response_shapes.py
"""

import numpy as np

from neuroloop.plant import (
    BetaSuppression,
    NoisyNonMonotonic,
    OffsetGain,
    dose_response_eval,
)

amps = np.arange(0.0, 4.01, 0.5)

print("=== Ideal linear (gain 2 units/mA, through the origin) ===")
ideal = OffsetGain(gain=2.0, offset_mA=0.0)
for a in amps:
    print(f"  {a:4.1f} mA -> {dose_response_eval(ideal, a):6.2f}")

print("\n=== Offset + gain error (nothing below 1.0 mA) ===")
offset = OffsetGain(gain=2.0, offset_mA=1.0)
for a in amps:
    print(f"  {a:4.1f} mA -> {dose_response_eval(offset, a):6.2f}")

print("\n=== Noisy and non-monotonic (peaks at 2.5 mA, then declines) ===")
rng = np.random.default_rng(7)
noisy = NoisyNonMonotonic(gain=2.0, offset_mA=0.5, peak_mA=2.5, noise_sd=0.15)
for a in amps:
    samples = [dose_response_eval(noisy, a, rng) for _ in range(200)]
    print(f"  {a:4.1f} mA -> {np.mean(samples):6.2f}  (sd {np.std(samples):.2f})")

print("\n=== Saturating suppression (knee at 1.75 mA) ===")
supp = BetaSuppression(
    baseline=2.0, max_suppression_fraction=0.8, knee_mA=1.75, softness_mA=0.5
)
print("  amplitude  envelope   local slope")
h = 1e-4
for a in amps:
    v = dose_response_eval(supp, a)
    lo = max(a - h, 0.0)  # the curve's domain ends at zero amplitude
    slope = (dose_response_eval(supp, a + h) - dose_response_eval(supp, lo)) / (a + h - lo)
    print(f"  {a:6.2f} mA  {v:7.3f}   {slope:+.4f} per mA")
print(
    "\nThe slope magnitude peaks at the knee and shrinks above it: past"
    "\n~1.75 mA every extra milliamp buys visibly less suppression, which is"
    "\nwhy the usable operating region sits around the knee."
)

"""Walk through a multilevel wavelet decomposition of a two-tone signal.

The decomposition splits a series into one coarse approximation and a
ladder of detail branches, one per level.  Summing the coarsest
approximation with every detail branch recovers the original series to
floating-point precision, and each branch isolates a different band of
the signal's frequency content.
"""

import numpy as np

from wavestack import mdwd

t = np.arange(512)
slow = np.sin(2 * np.pi * t / 64)
fast = 0.5 * np.sin(2 * np.pi * t / 8)
x = slow + fast

pyramid = mdwd(x, n_levels=3, kind="haar")

print("input length:", len(x))
print("raw coefficient lengths per level:",
      [len(c) for c in pyramid.raw_low])

recon = pyramid.approx[-1] + sum(pyramid.detail)
print(f"reconstruction max abs error: {np.max(np.abs(recon - x)):.2e}")

for lvl in range(3):
    corr_slow = np.corrcoef(pyramid.approx[lvl], slow)[0, 1]
    corr_fast = np.corrcoef(pyramid.detail[lvl], fast)[0, 1]
    print(f"level {lvl + 1}: approx~slow corr {corr_slow:+.3f}, "
          f"detail~fast corr {corr_fast:+.3f}")

# Each branch is reconstructed to the full input length.
approx3 = pyramid.approx[2]
print(f"approx branch at level 3 tracks the slow tone: "
      f"corr {np.corrcoef(approx3, slow)[0, 1]:+.3f}")

# Energy splits exactly between the two filter channels at every level.
e_in = np.sum(x ** 2)
e_out = np.sum(pyramid.raw_low[0] ** 2) + np.sum(pyramid.raw_high[0] ** 2)
print(f"level-1 energy balance: in {e_in:.3f}, out {e_out:.3f}")

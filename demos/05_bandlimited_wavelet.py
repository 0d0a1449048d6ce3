"""A band-limited orthonormal wavelet with sub-exponential spatial decay.

Stretching the banded cutoff profile onto [2 pi/3, 8 pi/3] and adding a
half-sample phase gives the transform of an orthonormal wavelet.  The script
checks the Plancherel identity between the sample side and the transform
side, the vanishing mean, and fits the spatial decay envelope.
"""

import sys

import numpy as np

from orthoframes import decay as de

failed = []

for eps in (1.0, 0.5):
    w = de.build_wavelet(eps)
    step = w.x[1] - w.x[0]
    norm = float(np.dot(w.values, w.values)) * step
    fit, ok = w.check()
    print(f"epsilon = {eps}:")
    print(f"  samples on [{w.x[0]:.0f}, {w.x[-1]:.0f}], peak {np.abs(w.values).max():.4f}")
    print(f"  norm {norm:.12f}, Plancherel defect {w.plancherel_defect:.2e}")
    print(f"  |mean| {w.mean_abs:.2e}")
    print(f"  decay fit: rate {fit.c_rate:.3f}, constant {fit.c:.3f}, violations {fit.violations}")
    if not ok:
        failed.append(f"Plancherel, mean or decay fit at eps={eps}")
if failed:
    sys.exit("failed checks: " + "; ".join(failed))

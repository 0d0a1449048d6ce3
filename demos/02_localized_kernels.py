"""Measure how fast the band-limited kernels decay away from the diagonal.

A kernel sum_j ahat(j/n) phi_j(x) phi_j(y) concentrates near x = y; how fast
it decays is controlled entirely by the cutoff profile.  This script measures
decay envelopes for four families, fits both bound shapes, and compares a
smooth profile against a rough control built from constant convolution
widths: the fitted sub-exponential rate is visibly larger for the smooth one.
"""

import sys

import numpy as np

from orthoframes import cutoff as co
from orthoframes import decay as de
from orthoframes import kernels as ke

flat = co.assemble_cutoff(co.CutoffSpec("a", epsilon=1.0))
banded = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0))
rough = co.build_control_cutoff(1.0)
failed = []

print("polynomial form, sigma = 4, flat-top profile:")
for family, params, weighted in [
    ("chebyshev", {}, False),
    ("jacobi", {"alpha": 0.0, "beta": 0.0}, True),
]:
    cs = []
    for n in (64, 128, 256):
        kernel = ke.KernelInstance(family, flat, n, params)
        env = de.measure_envelope(kernel, de.SamplingPlan(weighted=weighted))
        cs.append(de.fit_bound(env, de.Polynomial(4.0)).c)
    print(f"  {family:9s}: c over n=64,128,256 -> {[round(c, 1) for c in cs]}"
          f"   spread {max(cs)/min(cs):.2f}x")

print("sub-exponential form at n = 128, banded profile:")
for family, params, weighted in [
    ("chebyshev", {}, False),
    ("jacobi", {"alpha": 0.0, "beta": 0.0}, True),
    ("hermite", {"d": 1}, False),
    ("laguerre", {"alpha": 0.0, "d": 1}, True),
]:
    kernel = ke.KernelInstance(family, banded, 128, params)
    env = de.measure_envelope(kernel, de.SamplingPlan(weighted=weighted))
    fit = de.fit_bound(env, de.SubExponential(1.0))
    print(f"  {family:9s}: rate {fit.c_rate:.3f}  leading constant {fit.c:.3g}"
          f"  violations {fit.violations}")
    if not (fit.satisfied and fit.violations == 0):
        failed.append(f"{family} sub-exponential fit")

smooth_fit, rough_fit = de.compare_cutoffs("chebyshev", 256, [banded, rough])
print("cutoff comparison on the Chebyshev kernel at n = 256:")
print(f"  smooth profile rate {smooth_fit.c_rate:.3f}  >  control rate {rough_fit.c_rate:.3f}")
if not smooth_fit.c_rate > rough_fit.c_rate:
    failed.append("smooth rate above control rate")

kernel = ke.KernelInstance("chebyshev", banded, 128)
env = de.measure_envelope(kernel, de.SamplingPlan())
de.envelope_to_csv(env, "envelope_chebyshev_128.csv")
print("wrote envelope_chebyshev_128.csv")
if failed:
    sys.exit("failed checks: " + "; ".join(failed))

"""Build the admissible cutoff profiles and verify their defining identities.

The construction convolves thousands of normalized indicator functions whose
widths shrink like 1/(j log^2 j), integrates the resulting bump into a phase
function, and assembles either a flat-top profile (kind "a": equal to 1 on
[0, 1], supported in [0, 2]) or a banded profile (kind "c": supported in
[1/2, 2] with ahat(t)^2 + ahat(t/2)^2 = 1 on [1, 2]).  The payoff for all
that machinery is the slow growth of the derivative sup-norms, which is what
buys sub-exponential kernel localization later.
"""

import sys

import numpy as np

from orthoframes import cutoff as co

failed = []

for eps in (1.0, 0.5):
    print(f"=== epsilon = {eps} ===")
    banded = co.assemble_cutoff(co.CutoffSpec("c", epsilon=eps))
    for prof in (co.assemble_cutoff(co.CutoffSpec("a", epsilon=eps)), banded):
        report, ok = co.check_profile(prof, seed=42)
        deviations = ", ".join(f"{k} {v:.3e}" for k, v in report.items() if k != "range_ok")
        print(f"kind {prof.spec.kind}: {deviations}")
        if not ok:
            failed.append(f"kind {prof.spec.kind} checks at eps={eps}")

    est = co.estimate_derivative_norms(banded, 6)
    print("kind c: derivative sup-norms k=1..6:")
    for k in range(1, 7):
        bound = 88.0 * (88.0 / eps) ** k * k**k * np.log(max(k, 3)) ** (k * (1 + eps))
        flag = "" if est.reliable[k] else "  (cross-check flagged)"
        print(f"   k={k}:  {est.values[k]:12.5g}   envelope {bound:10.3g}{flag}")

banded = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0))
co.save_samples_csv(banded, "cutoff_c_samples.csv")
print("wrote cutoff_c_samples.csv")
if failed:
    sys.exit("failed checks: " + "; ".join(failed))

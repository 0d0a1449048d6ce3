"""Tight needlet frames: build, verify tightness, reconstruct, localize.

Each frame level discretizes a band-limited kernel with a Gaussian cubature
that is exact on products of two level functions, and the banded cutoff's
quadratic partition identity makes the whole system a tight frame: analysis
preserves norms exactly and synthesis reconstructs band-limited inputs to
round-off.
"""

import sys

from orthoframes import cutoff as co
from orthoframes import decay as de
from orthoframes import needlets as ne

failed = []
banded = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0))

# the last system, Legendre's, goes on to the round trip and the decay fit
for family, params, j_max in [
    ("jacobi", {"alpha": 2.0, "beta": 0.5}, 5),
    ("hermite", {}, 4),
    ("laguerre", {"alpha": 0.0}, 4),
    ("jacobi", {"alpha": 0.0, "beta": 0.0}, 5),
]:
    system = ne.build_needlet_system(family, params, banded, j_max)
    counts = [len(l.nodes) for l in system.levels]
    worst, ok = ne.check_tightness(system, "parseval", trials=20, seed=42)
    print(f"{family:9s} {params}: levels 0..{j_max}, node counts {counts}")
    print(f"           capacity degree {system.capacity}, worst Parseval defect {worst:.2e}")
    if not ok:
        failed.append(f"{family} {params} Parseval")

worst, ok = ne.check_tightness(system, "roundtrip", trials=20, seed=42)
print(f"round trip on random band-limited inputs: worst relative error {worst:.2e}")
if not ok:
    failed.append("round trip")

profile = ne.needlet_decay_profile(system, 4, 7)
fit = de.fit_bound(profile, de.SubExponential(1.0))
print(f"level-4 needlet decay: sub-exponential rate {fit.c_rate:.3f} (0 violations: {fit.violations == 0})")
if not (fit.satisfied and fit.violations == 0):
    failed.append("needlet decay fit")

with open("needlet_jacobi_frame.json", "w") as fh:
    fh.write(ne.frame_to_json(system))
print("wrote needlet_jacobi_frame.json")
if failed:
    sys.exit("failed checks: " + "; ".join(failed))

"""Tight needlet frames: build, verify tightness, reconstruct, localize.

Each frame level discretizes a band-limited kernel with a Gaussian cubature
that is exact on products of two level functions, and the banded cutoff's
quadratic partition identity makes the whole system a tight frame: analysis
preserves norms exactly and synthesis reconstructs band-limited inputs to
round-off.
"""

import sys

import numpy as np

from orthoframes import cutoff as co
from orthoframes import decay as de
from orthoframes import needlets as ne

# the command-line front end's pinned tolerances
PARSEVAL_TOL, ROUNDTRIP_TOL = 1e-8, 1e-7
failed = []
rng = np.random.default_rng(42)
banded = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0))

for family, params, j_max in [
    ("jacobi", {"alpha": 0.0, "beta": 0.0}, 5),
    ("jacobi", {"alpha": 2.0, "beta": 0.5}, 5),
    ("hermite", {}, 4),
    ("laguerre", {"alpha": 0.0}, 4),
]:
    system = ne.build_needlet_system(family, params, banded, j_max)
    counts = [len(l.nodes) for l in system.levels]
    worst = 0.0
    for _ in range(20):
        coeffs = rng.standard_normal(system.capacity + 1)
        worst = max(worst, ne.parseval_check(system, coeffs))
    print(f"{family:9s} {params}: levels 0..{j_max}, node counts {counts}")
    print(f"           capacity degree {system.capacity}, worst Parseval defect {worst:.2e}")
    if not worst < PARSEVAL_TOL:
        failed.append(f"{family} {params} Parseval")

system = ne.build_needlet_system("jacobi", {"alpha": 0.0, "beta": 0.0}, banded, 5)
coeffs = rng.standard_normal(system.capacity + 1)
frame = ne.analyze(system, coeffs)
pts = rng.uniform(-1, 1, 7)
rec = ne.synthesize(system, frame, pts)
ref = np.tensordot(coeffs, system.basis_values(np.arange(len(coeffs)), pts), axes=(0, 0))
print(f"round trip on a random band-limited input: max error {np.abs(rec - ref).max():.2e}")
if not np.abs(rec - ref).max() < ROUNDTRIP_TOL * np.abs(ref).max():
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

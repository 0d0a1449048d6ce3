"""Where localization fails: 2-d tensor-product polynomial bases.

For products of Legendre or Chebyshev polynomials the diagonal-degree blocks
have closed forms at the corner pair x = (1, -1), y = (1, 1), and the kernel
value there either stays pinned at ahat(0)/pi^2 or grows linearly in n.  For
banded profiles the corner value vanishes, but the derivative of the slice
through (x1, -1) grows like n^2 times the profile's first moment, so the
slice sup-norm never decays.  No cutoff makes these kernels localize.
"""

import sys

import numpy as np

from orthoframes import cutoff as co
from orthoframes import decay as de

flat = co.assemble_cutoff(co.CutoffSpec("a", epsilon=1.0))
banded = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0))
n_list = [32, 64, 128, 256]

rep = de.counterexample_suite(flat, n_list)
print("flat-top profile (ahat(0) = 1):")
print(f"  profile integral {rep.profile_integral:.6f}, first moment {rep.first_moment:.6f}")
print(f"  Legendre x Legendre corner values : {np.round(rep.values['legleg'], 6)}")
print(f"   leading predictions (n/8 I + 1/8): {np.round(rep.predicted['legleg'], 6)}")
print(f"  Chebyshev x Chebyshev corner      : {rep.values['chebcheb'][0]:.12f} "
      f"(= 1/pi^2 = {1/np.pi**2:.12f}) for every n")
corner_ok = rep.matches("chebcheb")
print(f"  mixed basis corner                : {np.round(rep.values['chebleg'], 8)}"
      f"  -> ahat(0)/(4 pi) = {1/(4*np.pi):.8f}")

rep = de.counterexample_suite(banded, n_list)
print("banded profile (ahat(0) = 0):")
print(f"  Chebyshev x Chebyshev corner      : {np.abs(rep.values['chebcheb']).max():.2e} (vanishes)")
corner_ok &= rep.matches("chebcheb")
print("  but the slice derivative grows quadratically:")
for i, n in enumerate(n_list):
    fp = rep.slice_fprime["chebcheb"][i]
    pred = rep.slice_predicted["chebcheb"][i]
    print(f"   n={n:4d}:  F'(1) = {fp:12.2f}   (2 n^2/pi^2) moment = {pred:12.2f}")
print(f"  slice sup-norms stay bounded below: {np.round(rep.sup_norms['chebcheb'], 5)}")
if not corner_ok:
    sys.exit("failed checks: Chebyshev x Chebyshev corner values")

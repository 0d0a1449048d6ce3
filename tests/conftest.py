import warnings

import numpy as np
import pytest

from orthoframes import cutoff as co
from orthoframes import kernels as ke
from orthoframes import orthopoly as op
from orthoframes import quadrature as qd


def reproducing_defect(family, cut, n, xs, alpha=None, beta=None):
    """Worst deviation of <L_n(x, .), phi_m> from band(m) * phi_m(x) over all
    m < 2n, using a Gauss rule exact for the integrand degrees.

    The inner product runs against the family's orthogonality measure; this
    is the universal projection oracle for the one-dimensional families.
    """
    band = ke.cutoff_band(cut, n)
    top = len(band) - 1
    m_rule = 3 * n + 8
    npts = len(xs)
    if family in ("chebyshev", "jacobi"):
        if family == "chebyshev":
            alpha = beta = -0.5
        rule = qd.gauss_rule("jacobi", m_rule, alpha=alpha, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h = op.jacobi_norms(op.JacobiParams(alpha, beta), top)
            basis_nodes = op._jacobi_values(alpha, beta, top, rule.nodes)
            basis_x = op._jacobi_values(alpha, beta, top, np.asarray(xs))
        basis_nodes = basis_nodes / np.sqrt(h)[:, None]
        basis_x = basis_x / np.sqrt(h)[:, None]
        if family == "chebyshev":
            kmat = ke.chebyshev_kernel(
                cut, n, np.asarray(xs)[:, None] * np.ones(rule.m),
                np.broadcast_to(rule.nodes, (npts, rule.m)),
            )
        else:
            kmat = ke.jacobi_kernel(
                cut, n, alpha, beta, np.asarray(xs)[:, None] * np.ones(rule.m),
                np.broadcast_to(rule.nodes, (npts, rule.m)),
            )
    elif family == "hermite":
        rule = qd.hermite_function_rule(m_rule)
        basis_nodes = op._hermite_fn_values(top, rule.nodes)
        basis_x = op._hermite_fn_values(top, np.asarray(xs))
        kmat = ke.hermite_kernel(
            cut, n, np.asarray(xs)[:, None] * np.ones(rule.m),
            np.broadcast_to(rule.nodes, (npts, rule.m)),
        )
    elif family == "laguerre":
        rule = qd.laguerre_function_rule(alpha, m_rule)
        basis_nodes = op.laguerre_fn_all(alpha, top, rule.nodes, "F").values
        basis_x = op.laguerre_fn_all(alpha, top, np.asarray(xs), "F").values
        kmat = ke.laguerre_kernel(
            cut, n, alpha, np.asarray(xs)[:, None] * np.ones(rule.m),
            np.broadcast_to(rule.nodes, (npts, rule.m)),
        )
    else:
        raise ValueError(family)
    worst = 0.0
    for m in range(top + 1):
        proj = kmat @ (rule.weights * basis_nodes[m])
        worst = max(worst, float(np.abs(proj - band[m] * basis_x[m]).max()))
    return worst


def broadcast_pairs(sampled):
    """The sampled pairs of a sampler's triple (xs, ys, bins) as two full
    (pairs, ...) arrays: the pairs of the broadcast of xs and ys, in C
    order, whose bin is not -1."""
    x, y, bins = sampled
    keep = np.ravel(bins) >= 0
    return [v.reshape((np.size(bins),) + v.shape[np.ndim(bins) :])[keep] for v in np.broadcast_arrays(x, y)]


@pytest.fixture(scope="session")
def cutoff_a():
    return co.assemble_cutoff(co.CutoffSpec("a", epsilon=1.0))


@pytest.fixture(scope="session")
def cutoff_c():
    return co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0))


@pytest.fixture(scope="session")
def cutoff_a_half():
    return co.assemble_cutoff(co.CutoffSpec("a", epsilon=0.5))


@pytest.fixture(scope="session")
def cutoff_c_half():
    return co.assemble_cutoff(co.CutoffSpec("c", epsilon=0.5))


@pytest.fixture(scope="session")
def control_cutoff():
    return co.build_control_cutoff(1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)

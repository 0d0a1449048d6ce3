"""Localized kernels built from cutoff-weighted orthogonal expansions.

Every kernel has the form ``sum_j ahat(j/n) P_j(x, y)`` where ``P_j`` is the
projector kernel of the degree-j eigenspace of one of the supported
families.  The cutoff support truncates each sum at ``j < 2n``, so no tail
estimation is ever needed.  Multivariate projector blocks (tensor Hermite,
Laguerre, and the 2-d product bases) are composition sums over diagonal
degree, computed as discrete convolutions of per-axis sequences.

Kernel evaluation is pure; instances are safe to evaluate concurrently.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import orthopoly, quadrature
from .orthopoly import JacobiParams

__all__ = [
    "KernelInstance",
    "SummationByPartsState",
    "cutoff_band",
    "trig_kernel",
    "chebyshev_kernel",
    "jacobi_kernel",
    "jacobi_Q",
    "summation_by_parts_coefficients",
    "verify_summation_by_parts",
    "sphere_kernel",
    "ball_kernel",
    "simplex_kernel",
    "hermite_kernel",
    "laguerre_kernel",
    "laguerre_K_kernel",
    "tensor2d_kernel",
    "tensor_block",
    "tensor_slice_cheb_coeffs",
    "distance",
    "weight_factor",
    "export_grid",
]

TENSOR_VARIANTS = ("legleg", "chebcheb", "chebleg")


def cutoff_band(cutoff, n, top=None):
    """Band weights ahat(j/n) for j = 0 .. ceil(2n) - 1 (support truncation)."""
    if n <= 0:
        raise ValueError("level parameter n must be positive")
    if top is None:
        top = int(math.ceil(2.0 * n))
    j = np.arange(top)
    return np.asarray(cutoff(j / n), dtype=float)


def _safe_arccos(v, tol=1e-12):
    v = np.asarray(v, dtype=float)
    over = np.abs(v) - 1.0
    if np.any(over > tol):
        raise ValueError(f"arccos argument outside [-1, 1] by {over.max():.3e}")
    return np.arccos(np.clip(v, -1.0, 1.0))


# ---------------------------------------------------------------------------
# trigonometric / Chebyshev / Jacobi line kernels


def trig_kernel(cutoff, n, theta):
    """Even 2*pi-periodic polynomial F_n(theta) with half-weight constant term."""
    theta = np.asarray(theta, dtype=float)
    w = cutoff_band(cutoff, n)
    w = w.copy()
    w[0] *= 0.5
    j = np.arange(len(w), dtype=float)
    out = np.tensordot(w, np.cos(np.multiply.outer(j, theta)), axes=(0, 0))
    return out if out.ndim else float(out)


def chebyshev_kernel(cutoff, n, x, y):
    """Sum of ahat(j/n) * T~_j(x) T~_j(y) with weighted-L2-normalized
    Chebyshev polynomials (T~_0 = 1/sqrt(pi))."""
    theta = _safe_arccos(x)
    phi = _safe_arccos(y)
    w = cutoff_band(cutoff, n)
    j = np.arange(1, len(w), dtype=float)
    ct = np.cos(np.multiply.outer(j, theta))
    cp = np.cos(np.multiply.outer(j, phi))
    out = w[0] / np.pi + (2.0 / np.pi) * np.tensordot(w[1:], ct * cp, axes=(0, 0))
    return out if out.ndim else float(out)


def jacobi_kernel(cutoff, n, alpha, beta, x, y):
    """Weighted reproducing-type kernel of the Jacobi family."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > 1) or np.any(np.abs(y) > 1):
        raise ValueError("points must lie in [-1, 1]")
    w = cutoff_band(cutoff, n)
    p = JacobiParams(alpha, beta)
    h = orthopoly.jacobi_norms(p, len(w) - 1)
    px = orthopoly._jacobi_values(alpha, beta, len(w) - 1, x)
    py = orthopoly._jacobi_values(alpha, beta, len(w) - 1, y)
    coeff = (w / h).reshape((-1,) + (1,) * x.ndim)
    out = np.sum(coeff * px * py, axis=0)
    return out if out.ndim else float(out)


def _q_coefficients(cutoff, n, alpha, beta):
    w = cutoff_band(cutoff, n)
    j = np.arange(len(w), dtype=float)
    s = alpha + beta
    term1 = np.exp(gammaln(j + s + 2.0) - gammaln(j + beta + 1.0))
    term2 = np.zeros_like(j)
    term2[1:] = j[1:] * np.exp(gammaln(j[1:] + s + 1.0) - gammaln(j[1:] + beta + 1.0))
    cstar = np.exp(-(s + 1.0) * np.log(2.0) - gammaln(alpha + 1.0))
    return cstar * w * (term1 + term2)


def jacobi_Q(cutoff, n, alpha, beta, x):
    """Boundary kernel Q_n(x) = L_n(x, 1) in the Gamma-ratio form.

    The degree-0 coefficient is written through Gamma(alpha+beta+2) so the
    Chebyshev-type corner (alpha + beta = -1) hits no pole.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1):
        raise ValueError("points must lie in [-1, 1]")
    coeff = _q_coefficients(cutoff, n, alpha, beta)
    pv = orthopoly._jacobi_values(alpha, beta, len(coeff) - 1, x)
    out = np.tensordot(coeff, pv, axes=(0, 0))
    return out if out.ndim else float(out)


@dataclass
class SummationByPartsState:
    """Coefficients A_k(j) of the k-fold Abel-summation ladder."""

    alpha: float
    beta: float
    n: int
    k: int
    values: np.ndarray


def summation_by_parts_coefficients(cutoff, n, alpha, beta, k):
    """A_k on the integer lattice, built by the division/difference recursion.

    A_0(t) = (2t + alpha + beta + 1) ahat(t/n); each step divides by the
    shifted linear factor and takes a first difference.  For cutoffs
    vanishing below 1/2 the support of A_k lies in [n/2 - k, 2n].
    """
    if not 1 <= k <= n / 4:
        raise ValueError("ladder depth k must satisfy 1 <= k <= n/4")
    jtop = int(math.ceil(2.0 * n)) + k + 2
    t = np.arange(jtop, dtype=float)
    a = (2.0 * t + alpha + beta + 1.0) * np.asarray(cutoff(t / n), dtype=float)
    for level in range(k):
        t = np.arange(len(a) - 1, dtype=float)
        d1 = 2.0 * t + alpha + level + beta + 1.0
        d3 = 2.0 * t + alpha + level + beta + 3.0
        a = a[:-1] / d1 - a[1:] / d3
    return SummationByPartsState(alpha, beta, n, k, a)


def verify_summation_by_parts(cutoff, n, alpha, beta, k, x):
    """Relative discrepancy between Q_n and its k-fold summation-by-parts form."""
    state = summation_by_parts_coefficients(cutoff, n, alpha, beta, k)
    a = state.values
    j = np.arange(len(a), dtype=float)
    gam = np.exp(gammaln(j + alpha + k + beta + 1.0) - gammaln(j + beta + 1.0))
    pv = orthopoly._jacobi_values(alpha + k, beta, len(a) - 1, np.asarray(x, dtype=float))
    cstar = np.exp(-(alpha + beta + 1.0) * np.log(2.0) - gammaln(alpha + 1.0))
    ladder = cstar * np.tensordot(a * gam, pv, axes=(0, 0))
    direct = jacobi_Q(cutoff, n, alpha, beta, x)
    return float(np.max(np.abs(ladder - direct) / np.maximum(1.0, np.abs(direct))))


# ---------------------------------------------------------------------------
# sphere / ball / simplex


def _surface_area(d):
    return 2.0 * np.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def sphere_kernel(cutoff, n, d, cosine):
    """Zonal kernel on the d-sphere evaluated at cos of the geodesic angle."""
    if d < 2:
        raise ValueError("sphere dimension d must be >= 2")
    lam = (d - 1) / 2.0
    w = cutoff_band(cutoff, n)
    cosine = np.asarray(cosine, dtype=float)
    table = orthopoly.gegenbauer_all(lam, len(w) - 1, cosine).values
    j = np.arange(len(w), dtype=float)
    coeff = w * (j + lam) / (lam * _surface_area(d))
    out = np.tensordot(coeff, table, axes=(0, 0))
    return out if out.ndim else float(out)


def _gegenbauer_sum(band, lam, arg):
    """sum_j band_j ((j + lam)/lam) C_j^lam(arg) with the lam -> 0 Chebyshev
    limit handled explicitly."""
    j = np.arange(len(band), dtype=float)
    if lam < 1e-13:
        theta = _safe_arccos(arg)
        out = band[0] * np.ones_like(np.asarray(arg, dtype=float))
        jj = j[1:]
        out = out + 2.0 * np.tensordot(band[1:], np.cos(np.multiply.outer(jj, theta)), axes=(0, 0))
        return out
    table = orthopoly.gegenbauer_all(lam, len(band) - 1, arg).values
    return np.tensordot(band * (j + lam) / lam, table, axes=(0, 0))


# Largest Gegenbauer table (entries) that one chunk of a ball or simplex
# evaluation builds; pairs beyond it are evaluated chunk by chunk, which keeps
# peak memory bounded at any n, d and pair count.
_TABLE_ENTRIES = 2**21


def _auxiliary_integral(series, rows, base, coef, nodes, weights):
    """sum_k weights_k series(base + coef . nodes_k) for every pair.

    ``base`` has the pairs' shape, ``coef`` adds one axis of length
    ``nodes.shape[1]``, and ``series`` maps an argument array to the sum of a
    ``rows``-deep Gegenbauer table.  Pairs are taken in chunks whose table
    stays within ``_TABLE_ENTRIES``.
    """
    shape = base.shape
    base = base.reshape(-1)
    coef = coef.reshape(len(base), nodes.shape[1])
    out = np.empty(len(base))
    step = max(1, _TABLE_ENTRIES // (rows * len(weights)))
    for s in range(0, len(base), step):
        arg = base[s : s + step, None]
        for i in range(nodes.shape[1]):
            arg = arg + coef[s : s + step, i, None] * nodes[:, i]
        out[s : s + step] = series(np.clip(arg, -1.0, 1.0)) @ weights
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def _hemisphere_height(x):
    """sqrt(1 - |x|^2) of ball points (..., d), clamped at the sphere."""
    return np.sqrt(np.maximum(1.0 - np.sum(x * x, axis=-1), 0.0))


def _barycentric(x):
    """Simplex points (..., d) with the slack coordinate 1 - sum(x) appended."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.concatenate([x, 1.0 - np.sum(x, axis=-1, keepdims=True)], axis=-1)


def ball_kernel(cutoff, n, mu, d, x, y):
    """Kernel on the unit ball, weight (1 - |x|^2)^(mu - 1/2), mu > 0.

    ``x`` and ``y`` are points of shape (d,) or broadcastable arrays of pairs
    of shape (..., d); the result has the pairs' shape (a float for one
    pair).  The kernel is one auxiliary Gauss-Jacobi integral of a Gegenbauer
    sum, a polynomial of degree 2n - 1 in the auxiliary variable, so the
    ceil(len(band) / 2)-node rule built once per call is exact; one
    Gegenbauer table covers every (pair, node).
    """
    if mu <= 0:
        raise ValueError("ball kernel requires mu > 0")
    if d < 2:
        raise ValueError("ball dimension d must be >= 2")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0 or y.ndim == 0 or x.shape[-1] != d or y.shape[-1] != d:
        raise ValueError(f"points must have dimension {d}")
    if np.any(np.sum(x * x, axis=-1) > 1 + 1e-12) or np.any(np.sum(y * y, axis=-1) > 1 + 1e-12):
        raise ValueError("points must lie in the closed unit ball")
    lam = mu + (d - 1) / 2.0
    band = cutoff_band(cutoff, n)
    rule = quadrature.gauss_rule("jacobi", -(-len(band) // 2), alpha=mu - 1.0, beta=mu - 1.0)
    rxy = _hemisphere_height(x) * _hemisphere_height(y)
    return _auxiliary_integral(
        lambda arg: _gegenbauer_sum(band, lam, arg),
        len(band),
        np.sum(x * y, axis=-1),
        rxy[..., None],
        rule.nodes[:, None],
        rule.weights / rule.weights.sum(),
    )


def _axis_rule(kappa_i, m):
    if kappa_i > 0:
        rule = quadrature.gauss_rule("jacobi", m, alpha=kappa_i - 1.0, beta=kappa_i - 1.0)
        return rule.nodes, rule.weights / rule.weights.sum()
    # the kappa -> 0 limit of the normalized measure is the two-point average
    return np.array([-1.0, 1.0]), np.array([0.5, 0.5])


def simplex_kernel(cutoff, n, kappa, x, y):
    """Kernel on the d-simplex with weight prod x_i^(kappa_i - 1/2).

    ``x`` and ``y`` are points of shape (d,) or broadcastable arrays of pairs
    of shape (..., d); the result has the pairs' shape (a float for one
    pair).  Supported for d in {1, 2}: the auxiliary integral is a (d+1)-fold
    tensor Gauss-Jacobi rule whose integrand has degree 2(2n - 1) on each
    axis, so len(band) nodes per axis are exact.  The rule is built once per
    call and the pairs are evaluated in chunks of bounded table size.  Zero
    kappa components collapse their axis to the two-point average.
    """
    kappa = np.asarray(kappa, dtype=float)
    xb = _barycentric(x)
    yb = _barycentric(y)
    d = xb.shape[-1] - 1
    if d not in (1, 2) or yb.shape[-1] != d + 1:
        raise ValueError("simplex kernel supports d in {1, 2}, the same for x and y")
    if len(kappa) != d + 1 or np.any(kappa < 0):
        raise ValueError("kappa must be a nonnegative vector of length d + 1")
    if np.any(xb[..., :d] < -1e-12) or np.any(yb[..., :d] < -1e-12):
        raise ValueError("points must have nonnegative coordinates")
    if np.any(xb[..., d] < -1e-12) or np.any(yb[..., d] < -1e-12):
        raise ValueError("points must lie in the simplex")
    lam = kappa.sum() + (d - 1) / 2.0
    band = cutoff_band(cutoff, n)
    axes = [_axis_rule(k, len(band)) for k in kappa]
    nodes = np.stack(np.meshgrid(*[a[0] for a in axes], indexing="ij"), axis=-1)
    wgt = np.prod(np.meshgrid(*[a[1] for a in axes], indexing="ij"), axis=0)
    root = np.sqrt(np.clip(xb, 0.0, None) * np.clip(yb, 0.0, None))
    return _auxiliary_integral(
        lambda arg: _gegenbauer_sum_even(band, lam, arg),
        2 * len(band) - 1,
        np.zeros(root.shape[:-1]),
        root,
        nodes.reshape(-1, d + 1),
        wgt.ravel(),
    )


def _gegenbauer_sum_even(band, lam, arg):
    """sum_j band_j ((2j + lam)/lam) C_{2j}^lam(arg), with the lam -> 0 limit."""
    j = np.arange(len(band), dtype=float)
    if lam < 1e-13:
        theta = _safe_arccos(arg)
        out = band[0] * np.ones_like(np.asarray(arg, dtype=float))
        jj = j[1:]
        out = out + 2.0 * np.tensordot(
            band[1:], np.cos(np.multiply.outer(2.0 * jj, theta)), axes=(0, 0)
        )
        return out
    table = orthopoly.gegenbauer_all(lam, 2 * (len(band) - 1), arg).values
    coeff = band * (2.0 * j + lam) / lam
    return np.tensordot(coeff, table[::2], axes=(0, 0))


# ---------------------------------------------------------------------------
# Hermite / Laguerre kernels


def _composition_value(band, tables_x, tables_y):
    """sum_m band_m sum_{|nu| = m} prod_i f_{nu_i}(x_i) f_{nu_i}(y_i) via
    repeated sequence convolution of the per-axis diagonal products."""
    diag = [tx * ty for tx, ty in zip(tables_x, tables_y)]
    conv = diag[0]
    for seq in diag[1:]:
        conv = np.convolve(conv, seq)
    return float(np.dot(band, conv[: len(band)]))


def hermite_kernel(cutoff, n, x, y, d=1):
    """Hermite-function kernel on R^d; d = 1 accepts point arrays."""
    if d not in (1, 2, 3):
        raise ValueError("hermite kernel supports d in {1, 2, 3}")
    band = cutoff_band(cutoff, n)
    top = len(band) - 1
    if d == 1:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        hx = orthopoly._hermite_fn_values(top, x)
        hy = orthopoly._hermite_fn_values(top, y)
        out = np.tensordot(band, hx * hy, axes=(0, 0))
        return out if out.ndim else float(out)
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != d or len(y) != d:
        raise ValueError(f"points must have dimension {d}")
    tx = [orthopoly._hermite_fn_values(top, np.asarray(xi)) for xi in x]
    ty = [orthopoly._hermite_fn_values(top, np.asarray(yi)) for yi in y]
    return _composition_value(band, tx, ty)


def hermite_block(j, x, y, d):
    """Projector block H_j(x, y) of the degree-j Hermite eigenspace."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    tx = [orthopoly._hermite_fn_values(j, xi) for xi in x]
    ty = [orthopoly._hermite_fn_values(j, yi) for yi in y]
    diag = [a * b for a, b in zip(tx, ty)]
    conv = diag[0]
    for seq in diag[1:]:
        conv = np.convolve(conv, seq)
    return float(conv[j])


def laguerre_kernel(cutoff, n, alpha, x, y, d=1):
    """Laguerre F-function kernel on the positive orthant; d = 1 accepts
    point arrays.  ``alpha`` is scalar for d = 1, else one entry per axis."""
    if d not in (1, 2):
        raise ValueError("laguerre kernel supports d in {1, 2}")
    band = cutoff_band(cutoff, n)
    top = len(band) - 1
    alpha_vec = np.atleast_1d(np.asarray(alpha, dtype=float))
    if np.any(alpha_vec < 0):
        raise ValueError("alpha components must be >= 0")
    if d == 1:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x < 0) or np.any(y < 0):
            raise ValueError("points must be nonnegative")
        a = float(alpha_vec[0])
        fx = np.sqrt(2.0) * orthopoly._laguerre_core(a, top, x**2)
        fy = np.sqrt(2.0) * orthopoly._laguerre_core(a, top, y**2)
        out = np.tensordot(band, fx * fy, axes=(0, 0))
        return out if out.ndim else float(out)
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != d or len(y) != d or len(alpha_vec) != d:
        raise ValueError(f"points and alpha must have dimension {d}")
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("points must be nonnegative")
    tx = [np.sqrt(2.0) * orthopoly._laguerre_core(alpha_vec[i], top, np.asarray(x[i] ** 2)) for i in range(d)]
    ty = [np.sqrt(2.0) * orthopoly._laguerre_core(alpha_vec[i], top, np.asarray(y[i] ** 2)) for i in range(d)]
    return _composition_value(band, tx, ty)


def laguerre_K_kernel(cutoff, n, alpha, d, k, t):
    """Auxiliary half-line kernel with (k+1)-fold forward differences of the
    band weights against raw Laguerre polynomials of lifted parameter."""
    if not 0 <= k <= n / 4:
        raise ValueError("difference order k must satisfy 0 <= k <= n/4")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    alpha_vec = np.atleast_1d(np.asarray(alpha, dtype=float))
    lift = float(alpha_vec.sum()) + k + d
    top = int(math.ceil(2.0 * n))
    samples = np.asarray(cutoff(np.arange(top + k + 2) / n), dtype=float)
    diffs = samples
    for _ in range(k + 1):
        diffs = np.diff(diffs)
    diffs = diffs[:top]
    u_prev = np.exp(-0.5 * t) * np.ones_like(t)
    out = diffs[0] * u_prev
    if top > 1:
        u = (lift + 1.0 - t) * np.exp(-0.5 * t)
        out = out + diffs[1] * u
        for m in range(1, top - 1):
            u_prev, u = u, ((2 * m + lift + 1 - t) * u - (m + lift) * u_prev) / (m + 1.0)
            out = out + diffs[m + 1] * u
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# 2-d tensor-product kernels (the counterexample bases)


def _cheb_diag_seq(u, v, top):
    theta = _safe_arccos(u)
    phi = _safe_arccos(v)
    j = np.arange(top, dtype=float)
    out = (2.0 / np.pi) * np.cos(j * theta) * np.cos(j * phi)
    out[0] = 1.0 / np.pi
    return out


def _leg_diag_seq(u, v, top):
    pu = orthopoly._jacobi_values(0.0, 0.0, top - 1, np.asarray(u, dtype=float))
    pv = orthopoly._jacobi_values(0.0, 0.0, top - 1, np.asarray(v, dtype=float))
    j = np.arange(top, dtype=float)
    return (j + 0.5) * pu * pv


def _tensor_sequences(variant, x, y, top):
    if variant not in TENSOR_VARIANTS:
        raise ValueError(f"variant must be one of {TENSOR_VARIANTS}")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != 2 or len(y) != 2:
        raise ValueError("tensor kernels live on [-1, 1]^2")
    if variant == "legleg":
        return _leg_diag_seq(x[0], y[0], top), _leg_diag_seq(x[1], y[1], top)
    if variant == "chebcheb":
        return _cheb_diag_seq(x[0], y[0], top), _cheb_diag_seq(x[1], y[1], top)
    return _cheb_diag_seq(x[0], y[0], top), _leg_diag_seq(x[1], y[1], top)


def tensor_block(variant, m, x, y):
    """Diagonal-degree projector block P~_m(x, y) of a 2-d product basis."""
    u, v = _tensor_sequences(variant, x, y, m + 1)
    return float(np.convolve(u, v)[m])


def tensor2d_kernel(cutoff, n, variant, x, y):
    """Cutoff-weighted kernel over diagonal-degree blocks of a product basis."""
    band = cutoff_band(cutoff, n)
    u, v = _tensor_sequences(variant, x, y, len(band))
    conv = np.convolve(u, v)[: len(band)]
    return float(np.dot(band, conv))


def tensor_slice_cheb_coeffs(cutoff, n, variant):
    """Chebyshev coefficients c_a of x1 -> L_n((x1, -1), (1, 1)).

    Valid for the variants whose first axis is Chebyshev ("chebcheb",
    "chebleg"); the returned series satisfies slice(x1) = sum_a c_a T_a(x1).
    """
    if variant not in ("chebcheb", "chebleg"):
        raise ValueError("slice coefficients need a Chebyshev first axis")
    band = cutoff_band(cutoff, n)
    top = len(band)
    b = np.arange(top, dtype=float)
    if variant == "chebcheb":
        vseq = (2.0 / np.pi) * (-1.0) ** b
        vseq[0] = 1.0 / np.pi
    else:
        vseq = (b + 0.5) * (-1.0) ** b
    afac = (2.0 / np.pi) * np.ones(top)
    afac[0] = 1.0 / np.pi
    coeffs = np.zeros(top)
    for a in range(top):
        bb = np.arange(top - a)
        coeffs[a] = afac[a] * np.dot(band[a + bb], vseq[: top - a])
    return coeffs


# ---------------------------------------------------------------------------
# distances and weight factors


def distance(family, x, y):
    """The family's natural metric; arccos arguments are clamped against
    round-off within 1e-12 of the boundary.

    Ball and simplex points may be (..., d) arrays of pairs, giving an array
    of distances; a single pair gives a float.
    """
    if family in ("interval", "chebyshev", "jacobi"):
        return float(np.abs(_safe_arccos(x) - _safe_arccos(y)))
    if family == "trig":
        delta = abs(float(x) - float(y)) % (2.0 * np.pi)
        return min(delta, 2.0 * np.pi - delta)
    if family == "sphere":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return float(_safe_arccos(np.dot(x, y)))
    if family == "ball":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        cosine = np.sum(x * y, axis=-1) + _hemisphere_height(x) * _hemisphere_height(y)
        out = _safe_arccos(cosine)
        return out if out.ndim else float(out)
    if family == "simplex":
        xb = np.maximum(_barycentric(x), 0.0)
        yb = np.maximum(_barycentric(y), 0.0)
        out = _safe_arccos(np.sum(np.sqrt(xb * yb), axis=-1))
        return out if out.ndim else float(out)
    if family in ("hermite", "laguerre"):
        return float(np.max(np.abs(np.atleast_1d(x) - np.atleast_1d(y))))
    if family in ("tensor", "legleg", "chebcheb", "chebleg"):
        return float(np.max(np.abs(_safe_arccos(np.atleast_1d(x)) - _safe_arccos(np.atleast_1d(y)))))
    raise ValueError(f"unknown family {family!r}")


def weight_factor(family, n, x, alpha=None, beta=None, mu=None, kappa=None):
    """Normalizing weight entering the off-diagonal kernel bounds.

    Ball and simplex points may be (..., d) arrays, giving an array of
    weights; a single point gives a float.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if family == "jacobi":
        return float(
            (1.0 - x + n**-2.0) ** (alpha + 0.5) * (1.0 + x + n**-2.0) ** (beta + 0.5)
        )
    if family in ("chebyshev", "trig", "sphere", "hermite"):
        return 1.0
    if family == "ball":
        out = (_hemisphere_height(np.asarray(x, dtype=float)) + 1.0 / n) ** (2.0 * mu)
        return out if out.ndim else float(out)
    if family == "simplex":
        xb = np.maximum(_barycentric(x), 0.0)
        out = np.prod((xb + n**-2.0) ** np.asarray(kappa, dtype=float), axis=-1)
        return out if out.ndim else float(out)
    if family == "laguerre":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        return float(np.prod((x + n**-0.5) ** (2.0 * a + 1.0)))
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# kernel instances


@dataclass
class KernelInstance:
    """An evaluable localized kernel: family tag, cutoff, level, parameters.

    ``params`` carries the family-specific entries (alpha, beta, d, mu,
    kappa).  Instances are immutable in use; evaluation is reentrant.
    """

    family: str
    cutoff: object
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        known = (
            "trig",
            "chebyshev",
            "jacobi",
            "sphere",
            "ball",
            "simplex",
            "hermite",
            "laguerre",
            "legleg",
            "chebcheb",
            "chebleg",
        )
        if self.family not in known:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.n <= 0:
            raise ValueError("level parameter n must be positive")

    def __call__(self, x, y):
        p = self.params
        if self.family == "trig":
            return trig_kernel(self.cutoff, self.n, np.asarray(x) - np.asarray(y))
        if self.family == "chebyshev":
            return chebyshev_kernel(self.cutoff, self.n, x, y)
        if self.family == "jacobi":
            return jacobi_kernel(self.cutoff, self.n, p["alpha"], p["beta"], x, y)
        if self.family == "sphere":
            cosine = np.clip(np.dot(np.asarray(x, float), np.asarray(y, float)), -1, 1)
            return sphere_kernel(self.cutoff, self.n, p["d"], cosine)
        if self.family == "ball":
            return ball_kernel(self.cutoff, self.n, p["mu"], p["d"], x, y)
        if self.family == "simplex":
            return simplex_kernel(self.cutoff, self.n, p["kappa"], x, y)
        if self.family == "hermite":
            return hermite_kernel(self.cutoff, self.n, x, y, d=p.get("d", 1))
        if self.family == "laguerre":
            return laguerre_kernel(
                self.cutoff, self.n, p.get("alpha", 0.0), x, y, d=p.get("d", 1)
            )
        return tensor2d_kernel(self.cutoff, self.n, self.family, x, y)

    def pair_values(self, xs, ys):
        """Kernel values over arrays of pairs.

        The one-dimensional families take point arrays; the sphere, ball and
        simplex take (..., d) arrays and evaluate every pair in one array
        pass (the ball and simplex with one auxiliary rule per call).  The
        multivariate Hermite, Laguerre and tensor-product kernels loop over
        the pairs.
        """
        if self.family in ("chebyshev", "jacobi", "hermite", "laguerre", "trig"):
            d = self.params.get("d", 1)
            if self.family in ("chebyshev", "jacobi") or d == 1:
                return np.asarray(self(np.asarray(xs), np.asarray(ys)), dtype=float)
        if self.family == "sphere":
            cosine = np.clip(np.sum(np.asarray(xs) * np.asarray(ys), axis=-1), -1, 1)
            return np.asarray(sphere_kernel(self.cutoff, self.n, self.params["d"], cosine))
        p = self.params
        if self.family == "ball":
            return np.asarray(ball_kernel(self.cutoff, self.n, p["mu"], p["d"], xs, ys))
        if self.family == "simplex":
            return np.asarray(simplex_kernel(self.cutoff, self.n, p["kappa"], xs, ys))
        return np.array([self(x, y) for x, y in zip(xs, ys)])

    def distance(self, x, y):
        fam = "tensor" if self.family in TENSOR_VARIANTS else self.family
        return distance(fam, x, y)

    def weight(self, x):
        p = self.params
        return weight_factor(
            self.family,
            self.n,
            x,
            alpha=p.get("alpha"),
            beta=p.get("beta"),
            mu=p.get("mu"),
            kappa=p.get("kappa"),
        )

    def descriptor(self):
        d = {"family": self.family, "n": self.n}
        for key, val in sorted(self.params.items()):
            d[key] = list(val) if isinstance(val, (tuple, list, np.ndarray)) else val
        d["cutoff"] = {
            "kind": self.cutoff.spec.kind,
            "epsilon": self.cutoff.spec.epsilon,
            "log_depth": self.cutoff.spec.log_depth,
            "m_max": self.cutoff.spec.m_max,
            "grid": self.cutoff.spec.grid_points,
        }
        return d

    def to_json(self):
        return json.dumps(self.descriptor(), sort_keys=True)


def export_grid(kernel, xs, ys, path):
    """CSV of kernel values over point pairs: x coords, y coords, rho, value."""
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs]
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in ys]
    dim = len(xs[0])
    header = (
        [f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)] + ["rho", "value"]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for x, y in zip(xs, ys):
            rho = kernel.distance(x if dim > 1 else float(x[0]), y if dim > 1 else float(y[0]))
            val = kernel(x if dim > 1 else float(x[0]), y if dim > 1 else float(y[0]))
            row = list(x) + list(y) + [rho, val]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

"""Localized kernels built from cutoff-weighted orthogonal expansions.

Every kernel has the form ``sum_j ahat(j/n) P_j(x, y)`` where ``P_j`` is the
projector kernel of the degree-j eigenspace of one of the supported
families.  The cutoff support truncates each sum at ``j < 2n``, so no tail
estimation is ever needed.  The one-dimensional, zonal and simplex sums
stream (``_series``): the points go in blocks of at most ``_SERIES_BLOCK`` = 2^15
(2^14 pairs), small enough for a block's buffers to stay in a core's L2
cache, and one recurrence runs over each block, each row reduced as it
arrives.  Every step is elementwise in the points, so the values are
bit-identical to one pass over all of them; memory is O(block) for the
buffers plus O(pairs) for the result, at any n.  Blocks of pairs, x of shape
(..., m, 1) against y of shape (..., 1, m'), such as the decay envelopes'
cells, form each point's rows once instead (``_block_series``): the rows fill
a table in chunks of 16, and each chunk adds one 16 x 16 tile product per
tile pair, every side padded to whole tiles, so a pair keeps its bits at
any position, block size and fill.  The product
bases (Hermite on R^d, Laguerre on R^d_+, the 2-d tensor bases) sum blocks
of equal total degree: one contraction (``_contract``) folds one table per
axis into those blocks over whole arrays of pairs.  The ball integrates
over one auxiliary axis (``_auxiliary_integral``).  Each family has one
kernel body, its public ``*_kernel`` function, which a ``KernelInstance``
evaluates through.

Kernel evaluation is pure; instances are safe to evaluate concurrently.
"""

import math
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _check_level(n):
    orthopoly._check_values(n, lambda v: v > 0, "level parameter n must be positive")


def cutoff_band(cutoff, n):
    """Band weights ahat(j/n) for j = 0 .. ceil(2n) - 1 (support truncation)."""
    _check_level(n)
    j = np.arange(int(math.ceil(2.0 * n)))
    return np.asarray(cutoff(j / n), dtype=float)


# One round-off rule for every family domain: a point within _ROUND_OFF of
# the domain is accepted (interval points clipped onto [-1, 1]), a point
# farther out, or with a nan or infinite coordinate, raises the family's message.
_ROUND_OFF = 1e-12


def _domain(points, excess, message):
    """The points, unless one has a non-finite coordinate or lies farther than
    ``_ROUND_OFF`` outside the domain by ``excess(v)`` (<= 0 inside): that
    raises ``message``."""
    for v in points:
        orthopoly._check_values(v, lambda v: excess(v) <= _ROUND_OFF, message)
    return points


def _finite_check(p, *points):
    """The points of a domain without edge (the trig angles, Hermite's R^d):
    any finite coordinates."""
    return _domain(points, np.zeros_like, "points must be finite")


def _clamped(v, message="arccos argument outside [-1, 1]"):
    """v as a float array of [-1, 1], round-off clipped onto it."""
    (v,) = _domain([np.asarray(v, dtype=float)], lambda v: np.abs(v) - 1.0, message)
    return np.clip(v, -1.0, 1.0)


def _interval_check(p, *points):
    return [_clamped(v, "points must lie in [-1, 1]") for v in points]


def _safe_arccos(v):
    return np.arccos(_clamped(v))


# Most points one recurrence of ``_series`` runs over: a pair sum takes 2^14
# pairs, whose [x, y] rows hold 2^15 points.  A block's working set (its
# points, three rotating rows and a step's point-sized constant at 256 KiB
# each, the term and the result slice at 128 KiB) is then 1.5 MiB, inside a
# core's 2 MiB L2 cache.  The path carries the one-argument sums (a sphere
# envelope's 12,288 cosines, a ball envelope's 64,000 Gegenbauer arguments),
# ``kernel eval|grid`` pairs and the simplex's pairs; blocks of pairs, the
# interval envelopes' among them, go to ``_block_series``.  A ``kernel grid``
# of 40,000 Chebyshev pairs at n = 64 runs 1.5x slower in blocks of 2^12 or
# 2^17 points (x86-64, one thread).
_SERIES_BLOCK = 2**15


def _series(rows, coeff, x, y=None):
    """sum_nu coeff_nu f_nu(x) f_nu(y) over pairs of points, or
    sum_nu coeff_nu f_nu(x) without ``y``, in O(_SERIES_BLOCK) working
    memory beside the O(points) result.

    ``rows(top, t, consume)`` is an ``orthopoly`` row source of the functions
    f_nu.  Blocks of pairs, x of shape (..., m, 1) against y of shape (..., 1,
    m'), go to ``_block_series``, which forms each point's rows once.  Other
    pairs go in blocks of at most ``_SERIES_BLOCK`` points: one recurrence
    runs over each block's points [x, y], and each row is reduced into the
    block's slice of the result as it arrives; rows past the last nonzero
    coefficient are not formed and the others with a zero coefficient are
    skipped.  Every step is elementwise in the points, so a value keeps its
    bits in any block.  The result has the points' broadcast shape (a float
    for scalars).
    """
    x = np.asarray(x, dtype=float)
    if y is not None:
        y = np.asarray(y, dtype=float)
        if x.ndim == y.ndim >= 2 and x.shape[-1] == 1 == y.shape[-2] and x.shape[:-2] == y.shape[:-2]:
            return _block_series(rows, coeff, x[..., 0], y[..., 0, :])
        x, y = np.broadcast_arrays(x, y)
        y = y.reshape(-1)
    shape, size = x.shape, x.size
    acc = np.zeros(size)
    live = np.flatnonzero(coeff)
    if len(live):
        xs = x.reshape(-1)
        per_block = _SERIES_BLOCK if y is None else _SERIES_BLOCK // 2
        for s in range(0, size, per_block):
            part = acc[s : s + per_block]
            k, term = len(part), np.empty(len(part))
            pts = xs[s : s + k] if y is None else np.concatenate([xs[s : s + k], y[s : s + k]])

            def consume(nu, row):
                if coeff[nu] == 0.0:
                    return
                if y is None:
                    np.multiply(row, coeff[nu], out=term)
                else:
                    np.multiply(row[:k], row[k:], out=term)
                    np.multiply(term, coeff[nu], out=term)
                np.add(part, term, out=part)

            rows(int(live[-1]), pts, consume)
    out = acc.reshape(shape)
    return out if out.ndim else float(out)


# A block's pairs are summed tile by tile: one product of a (_TILE, _CHUNK) x
# tile and a (_CHUNK, _TILE) y tile per chunk of _CHUNK rows with a nonzero
# coefficient, added chunk after chunk.  Each side is padded to whole tiles,
# so every pair meets one product shape and one order of its terms, and keeps
# its bits at any position, block size and fill.  A table of 16-row chunks
# over 2^15 points (4 MiB) bounds the working memory at any n.
_TILE = 16
_CHUNK = 16


def _block_series(rows, coeff, x, y):
    """The series over every pair of each block: x (..., m) against y (...,
    m'), an (..., m, m') result.

    Each side is padded to whole tiles by repeating its last point, and the
    blocks go in groups of as many as fit in ``_SERIES_BLOCK`` points, one
    recurrence per group (``_tile_sums``).
    """
    lead, m, m_y = x.shape[:-1], x.shape[-1], y.shape[-1]
    if not (x.size and y.size and np.any(coeff)):
        return np.zeros(lead + (m, m_y))
    a, b = -(-m // _TILE), -(-m_y // _TILE)
    xs = np.pad(x.reshape(-1, m), ((0, 0), (0, a * _TILE - m)), mode="edge")
    ys = np.pad(y.reshape(-1, m_y), ((0, 0), (0, b * _TILE - m_y)), mode="edge")
    out = np.zeros((len(xs), a, b, _TILE, _TILE))
    per_group = max(1, _SERIES_BLOCK // ((a + b) * _TILE))
    for s in range(0, len(xs), per_group):
        _tile_sums(rows, coeff, xs[s : s + per_group], ys[s : s + per_group], out[s : s + per_group])
    out = out.transpose(0, 1, 3, 2, 4).reshape(len(xs), a * _TILE, b * _TILE)[:, :m, :m_y]
    return out.reshape(lead + (m, m_y))


def _tile_sums(rows, coeff, xs, ys, out):
    """Add the series of every tile pair of the blocks xs (g, a _TILE)
    against ys (g, b _TILE) to ``out`` (g, a, b, _TILE, _TILE), in one
    recurrence over their points, each point's rows formed once: the rows
    with a nonzero coefficient fill a table chunk by chunk, the x rows times
    their coefficients, and each full chunk adds the products (R_x c)^T R_y."""
    g, a, b = out.shape[:3]
    nx = xs.size
    live = np.flatnonzero(coeff)
    slot = np.full(len(coeff), -1)
    slot[live] = np.arange(len(live))
    table = np.empty((min(_CHUNK, len(live)), nx + ys.size))
    term = np.empty(out.shape)

    def consume(nu, row):
        i = slot[nu]
        if i < 0:
            return
        j = i % _CHUNK
        np.multiply(row[:nx], coeff[nu], out=table[j, :nx])
        table[j, nx:] = row[nx:]
        if j == _CHUNK - 1 or i == len(live) - 1:
            # x tiles as (g, a, 1, _TILE, k) and y tiles as (g, 1, b, k, _TILE) views
            k = j + 1
            tiles_x = table[:k, :nx].T.reshape(g, a, 1, _TILE, k)
            tiles_y = table[:k, nx:].reshape(k, g, 1, b, _TILE).transpose(1, 2, 3, 0, 4)
            np.matmul(tiles_x, tiles_y, out=term)
            np.add(out, term, out=out)

    rows(int(live[-1]), np.concatenate([xs.reshape(-1), ys.reshape(-1)]), consume)


# ---------------------------------------------------------------------------
# trigonometric / Chebyshev / Jacobi line kernels


def trig_kernel(cutoff, n, theta):
    """Even 2*pi-periodic polynomial F_n(theta) with half-weight constant term."""
    (theta,) = _finite_check({}, theta)
    w = cutoff_band(cutoff, n).copy()
    w[0] *= 0.5
    return _series(orthopoly._chebyshev_rows, w, np.cos(np.asarray(theta, dtype=float)))


def chebyshev_kernel(cutoff, n, x, y):
    """Sum of ahat(j/n) * T~_j(x) T~_j(y) with weighted-L2-normalized
    Chebyshev polynomials (T~_0 = 1/sqrt(pi))."""
    band = cutoff_band(cutoff, n)
    coeff = _chebyshev_weight(np.arange(len(band))) * band
    return _series(orthopoly._chebyshev_rows, coeff, *_interval_check({}, x, y))


def _check_rows(n, *rows):
    """Refuse level n if two Jacobi rows P_top^(alpha, beta), (alpha, beta,
    top) in ``rows``, could multiply past the largest double: on [-1, 1],
    |P_m| <= binom(m + q, m) for q = max(alpha, beta) >= -1/2 (Szego,
    Theorem 7.32.1), and the rows stay O(1) below."""
    for alpha, beta, top in rows:
        q = max(alpha, beta, -0.5)
        log_row = -math.log(top + q + 1.0) - orthopoly._log_beta(top + 1.0, q + 1.0)
        if 2.0 * log_row > math.log(np.finfo(float).max):
            reach = f"the Jacobi rows P_{top}^({alpha:g}, {beta:g}) reach e^{log_row:.0f} at level n = {n:g}"
            raise ValueError(f"{reach}: their products leave double range")


def jacobi_kernel(cutoff, n, alpha, beta, x, y):
    """Weighted reproducing-type kernel of the Jacobi family."""
    x, y = _jacobi_check({"alpha": alpha, "beta": beta}, x, y)
    w = cutoff_band(cutoff, n)
    h = orthopoly._jacobi_norms_upto(alpha, beta, len(w) - 1)
    _check_rows(n, (alpha, beta, len(w) - 1))
    return _series(partial(orthopoly._jacobi_rows, alpha, beta), w / h, x, y)


def _jacobi_check(p, *points):
    JacobiParams(p["alpha"], p["beta"])
    return _interval_check(p, *points)


def jacobi_Q(cutoff, n, alpha, beta, x):
    """Boundary kernel Q_n(x) = L_n(x, 1) in the Gamma-ratio form.

    The degree-0 coefficient is written through Gamma(alpha+beta+2) so the
    Chebyshev-type corner (alpha + beta = -1) hits no pole, and the constant
    c* = 2^-(alpha+beta+1) / Gamma(alpha+1) joins each ratio in log space.
    """
    lgamma = orthopoly._lgamma
    (x,) = _jacobi_check({"alpha": alpha, "beta": beta}, x)
    w = cutoff_band(cutoff, n)
    _check_rows(n, (alpha, beta, len(w) - 1))
    j = np.arange(len(w), dtype=float)
    s = alpha + beta
    log_cstar = -(s + 1.0) * np.log(2.0) - lgamma(alpha + 1.0)
    term1 = np.exp(log_cstar + lgamma(j + s + 2.0) - lgamma(j + beta + 1.0))
    term2 = np.zeros_like(j)
    term2[1:] = j[1:] * np.exp(log_cstar + lgamma(j[1:] + s + 1.0) - lgamma(j[1:] + beta + 1.0))
    return _series(partial(orthopoly._jacobi_rows, alpha, beta), w * (term1 + term2), x)


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
    _jacobi_check({"alpha": alpha, "beta": beta})
    _check_level(n)
    k = orthopoly._check_integer(k, 1, n / 4, "ladder depth k must be an integer in 1..n/4")
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
    """Relative discrepancy between Q_n and its k-fold summation-by-parts
    form; the constant c* = 2^-(alpha+beta+1) / Gamma(alpha+1) joins each
    Gamma ratio in log space, as in ``jacobi_Q``."""
    lgamma = orthopoly._lgamma
    (x,) = _jacobi_check({"alpha": alpha, "beta": beta}, x)
    state = summation_by_parts_coefficients(cutoff, n, alpha, beta, k)
    a = state.values
    j = np.arange(len(a), dtype=float)
    log_cstar = -(alpha + beta + 1.0) * np.log(2.0) - lgamma(alpha + 1.0)
    gam = np.exp(log_cstar + lgamma(j + alpha + k + beta + 1.0) - lgamma(j + beta + 1.0))
    ladder = _series(partial(orthopoly._jacobi_rows, alpha + k, beta), a * gam, x)
    direct = jacobi_Q(cutoff, n, alpha, beta, x)
    return float(np.max(np.abs(ladder - direct) / np.maximum(1.0, np.abs(direct))))


# ---------------------------------------------------------------------------
# sphere / ball / simplex


def _surface_area(d):
    return 2.0 * np.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _gegenbauer_series(coeff, lam, arg):
    """sum_j coeff_j C_j^lam(arg), lam > 0, through the Jacobi rows
    P_j^(lam - 1/2, lam - 1/2) and the ratios C_j^lam / P_j, at arguments
    the caller has checked and clipped onto [-1, 1].

    A row past the largest double leaves the sum non-finite, which is
    refused.  A bound on the rows before they recur would have to hold at
    arg = 1, where P_j(1) = binom(j + lam - 1/2, j) leaves double range long
    before the rows at the ball's arguments do (mu = 1e6 at n = 32)."""
    coeff = coeff * orthopoly._gegenbauer_ratio(lam, len(coeff) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _series(partial(orthopoly._jacobi_rows, lam - 0.5, lam - 0.5), coeff, arg)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"the Gegenbauer rows C_j^{lam:g}, j < {len(coeff)}, leave double range")
    return out


def sphere_kernel(cutoff, n, d, cosine):
    """Zonal kernel on the d-sphere evaluated at cos of the geodesic angle."""
    _sphere_check({"d": d})
    lam = (d - 1) / 2.0
    w = cutoff_band(cutoff, n)
    j = np.arange(len(w), dtype=float)
    cosine = _clamped(cosine, "evaluation points must lie in [-1, 1]")
    return _gegenbauer_series(w * (j + lam) / (lam * _surface_area(d)), lam, cosine)


def _gegenbauer_sum(band, lam, arg):
    """sum_j band_j ((j + lam)/lam) C_j^lam(arg), lam > 0."""
    j = np.arange(len(band), dtype=float)
    return _gegenbauer_series(band * (j + lam) / lam, lam, arg)


# Largest number of (pair, node) arguments in one chunk of a ball series, or
# of (pair, degree) entries in one product-basis axis table; more pairs go
# chunk by chunk, which bounds peak memory at any n, d and pair count.
_TABLE_ENTRIES = 2**16


def _auxiliary_integral(series, base, coef, nodes, weights):
    """sum_k weights_k series(base + coef nodes_k), the ball's integral over
    its one auxiliary axis, for the pairs of the shape of ``base`` and
    ``coef``, taken in chunks of at most ``_TABLE_ENTRIES`` arguments;
    ``series`` maps an argument array to its sum."""
    shape = base.shape
    base, coef = base.reshape(-1), coef.reshape(-1)
    out = np.empty(len(base))
    step = max(1, _TABLE_ENTRIES // len(weights))
    # one argument buffer for every chunk, filled in place
    arg_buf = np.empty((min(step, len(base)), len(weights)))
    for s in range(0, len(base), step):
        rows = slice(s, s + step)
        arg = arg_buf[: len(base) - s]
        np.multiply(coef[rows, None], nodes, out=arg)
        arg += base[rows, None]
        np.clip(arg, -1.0, 1.0, out=arg)
        out[rows] = series(arg) @ weights
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
    ceil(len(band) / 2)-node rule built once per call is exact; one streamed
    Gegenbauer sum covers every (pair, node) of a chunk.
    """
    x, y = _ball_check({"mu": mu, "d": d}, x, y)
    lam = mu + (d - 1) / 2.0
    band = cutoff_band(cutoff, n)
    rule = quadrature.gauss_rule("jacobi", -(-len(band) // 2), alpha=mu - 1.0, beta=mu - 1.0)
    rxy = _hemisphere_height(x) * _hemisphere_height(y)
    return _auxiliary_integral(
        lambda arg: _gegenbauer_sum(band, lam, arg),
        np.sum(x * y, axis=-1),
        rxy,
        rule.nodes,
        rule.weights / rule.weights.sum(),
    )


def _ball_check(p, *points):
    orthopoly._check_values(p["mu"], lambda v: v > 0.0, "ball kernel requires mu > 0")
    orthopoly._check_size(p["mu"], "ball parameter mu")
    # a weight reads the dimension off its points, so d may be absent
    orthopoly._check_values(p.get("d", 2), lambda v: v >= 2, "ball dimension d must be >= 2")
    points = _check_dimension(p["d"], *points) if "d" in p else points
    radius_excess = lambda v: np.linalg.norm(v, axis=-1) - 1.0
    return _domain(points, radius_excess, "points must lie in the closed unit ball")


def simplex_kernel(cutoff, n, kappa, x, y):
    """Kernel on the d-simplex, d in {1, 2}, for the weight prod
    x_i^(kappa_i - 1/2) of mass 1, over (..., d) pairs x, y (a float for one
    pair): the band-weighted sum of the orthonormal product basis (Koornwinder
    1975; Dunkl and Xu, 2nd ed., 2014, section 2.4).  With (a, b, c) =
    kappa - 1/2, d = 1 is the mass h_0 times the Jacobi kernel of (b, a) in
    2x - 1.  At d = 2 the basis is P_m^(2k+b+c+1, a)(2 x_1 - 1) (1 - x_1)^k
    P_k^(c, b)(2 x_2 / (1 - x_1) - 1) of degree k + m, each squared norm the
    product of two Jacobi norms scaled by 2^-(alpha + beta + 1); each row k of
    the inner recurrence starts one streamed series in 2 x_1 - 1.
    """
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    x, y = np.broadcast_arrays(*_simplex_check({"kappa": kappa}, x, y))
    pts = np.stack([x, y]).reshape(2, -1, len(kappa) - 1)
    t = np.clip(2.0 * pts[..., 0] - 1.0, -1.0, 1.0)
    if len(kappa) == 2:
        a, b = kappa - 0.5
        out = jacobi_kernel(cutoff, n, b, a, *t) * float(orthopoly._jacobi_norms_upto(b, a, 0)[0])
    else:
        a, b, c = kappa - 0.5
        band = cutoff_band(cutoff, n)
        top, out = len(band) - 1, np.zeros(t.shape[1])
        _check_rows(n, (c, b, top), *((2 * k + b + c + 1.0, a, top - k) for k in range(top + 1)))
        g = np.maximum(1.0 - pts[..., 0], 0.0)
        # any s at the vertex x_1 = 1, where (1 - x_1)^k is 0 for k >= 1
        s = np.divide(2.0 * pts[..., 1], g, out=np.ones_like(g), where=g > 0.0) - 1.0
        h = orthopoly._jacobi_norms_upto(c, b, top)
        # the log-Gammas of every outer norm h_m^(2k+b+c+1, a), m = 0..top - k,
        # at the arguments that all k share: j + b + c + 2 and j + a + b + c + 2
        # at j = m + 2k, j + a + 1 and j + 1 at j = m
        j = np.arange(2 * top + 1, dtype=float)
        lg_outer, lg_sum = orthopoly._lgamma(j + (b + c + 2.0)), orthopoly._lgamma(j + (a + b + c + 2.0))
        lg_a, lg_1 = orthopoly._lgamma(j[: top + 1] + (a + 1.0)), orthopoly._lgamma(j[: top + 1] + 1.0)

        def outer_norms(k):
            i, m = slice(2 * k, top + k + 1), slice(0, top - k + 1)
            return orthopoly._norms_from(JacobiParams(2 * k + b + c + 1.0, a), lg_outer[i], lg_a[m], lg_1[m], lg_sum[i])

        # h_{0,0} / h_{k,m} = 4^k h_0^(b+c+1, a) h_0^(c, b) / (h_m^(2k+b+c+1, a) h_k^(c, b))
        h00 = outer_norms(0)[0] * h[0]

        def consume(k, row):
            coeff = band[k:] * (h00 * 4.0**k / h[k]) / outer_norms(k)
            series = _series(partial(orthopoly._jacobi_rows, 2 * k + b + c + 1.0, a), coeff, *t)
            row = row.reshape(2, -1)
            np.add(out, (g[0] * g[1]) ** k * row[0] * row[1] * series, out=out)

        orthopoly._jacobi_rows(c, b, top, np.clip(s, -1.0, 1.0), consume)
    out = np.reshape(out, x.shape[:-1])
    return out if out.ndim else float(out)


def _simplex_check(p, *points):
    kappa = np.atleast_1d(np.asarray(p["kappa"], dtype=float))
    if len(kappa) not in (2, 3):
        raise ValueError("simplex kernel supports d in {1, 2}, the same for x and y")
    orthopoly._check_values(kappa, lambda v: v >= 0.0, "kappa must be a nonnegative vector of length d + 1")
    orthopoly._check_size(kappa, "simplex parameters kappa")
    # a point of the 1-simplex may be a scalar
    points = _check_dimension(len(kappa) - 1, *map(np.atleast_1d, points))
    return _domain(points, lambda v: -_barycentric(v), "points must lie in the simplex")


# ---------------------------------------------------------------------------
# product bases: one contraction over diagonal-degree blocks
#
# An axis builder ``axis(x_i, y_i, top)`` maps one coordinate of (pairs,)
# points to the (pairs, top) table w_j f_j(x_i) f_j(y_i) of that axis's
# basis.  Block m of the product basis is c_m = sum_{|nu| = m} prod_i
# w_{nu_i} f_{nu_i}(x_i) f_{nu_i}(y_i), the tables folded by ``_block_sums``.


def _function_axis(values, weight=None):
    """The axis builder of the functions f_j tabulated by ``values(top - 1,
    t)``, in one recurrence over [x, y], with the weights ``weight(j)`` (1
    when None)."""

    def axis(x, y, top):
        f = values(top - 1, np.stack([x, y]))
        if weight is not None:
            f[:, 0] *= weight(np.arange(top, dtype=float))[:, None]
        return (f[:, 0] * f[:, 1]).T

    return axis


def _chebyshev_weight(j):
    return np.where(j == 0, 1.0 / np.pi, 2.0 / np.pi)


def _legendre_weight(j):
    return j + 0.5


def _block_sums(u, v):
    """(pairs, top) diagonal-degree sums c_m = sum_{a+b=m} u_a v_b of two
    (pairs, top) tables: the anti-diagonal sums of each pair's outer
    product, in one contraction over sliding windows of the zero-padded v."""
    top = u.shape[1]
    pad = np.concatenate([np.zeros((len(v), top - 1)), v], axis=1)
    # windows[p, m, j] = v[p, m + j - top + 1], which meets u[p, top - 1 - j]
    windows = sliding_window_view(pad, top, axis=1)
    return np.einsum("pmj,pj->pm", windows, u[:, ::-1])


def _check_dimension(d, *points, message=None):
    """The points as float arrays (..., d); points of another dimension raise
    ``message``."""
    points = [np.asarray(v, dtype=float) for v in points]
    if any(v.ndim == 0 or v.shape[-1] != d for v in points):
        raise ValueError(message or f"points must have dimension {d}")
    return points


def _flat_pairs(d, x, y):
    """(pairs, d) arrays of the broadcast (..., d) pairs x, y, and the pairs'
    shape."""
    x, y = np.broadcast_arrays(*_check_dimension(d, x, y))
    return x.reshape(-1, d), y.reshape(-1, d), x.shape[:-1]


def _contract(axes, band, x, y):
    """sum_m band_m c_m over the (..., d) pairs x, y of the product basis with
    one builder per axis, d = len(axes).

    The result has the pairs' shape (a float for one pair).  Each chunk of at
    most ``_TABLE_ENTRIES`` table entries takes one table per axis, d - 1
    block contractions and one weighting by the band.
    """
    x, y, shape = _flat_pairs(len(axes), x, y)
    out = np.empty(len(x))
    step = max(1, _TABLE_ENTRIES // len(band))
    for s in range(0, len(x), step):
        tables = [axis(x[s : s + step, i], y[s : s + step, i], len(band)) for i, axis in enumerate(axes)]
        # a row-wise reduction, so a pair's value does not depend on its chunk
        out[s : s + step] = np.sum(reduce(_block_sums, tables) * band, axis=1)
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def _block(axes, m, x, y):
    """Block c_m over the pairs: the band e_m reads column m of the blocks."""
    return _contract(axes, np.eye(m + 1)[m], x, y)


# ---------------------------------------------------------------------------
# Hermite / Laguerre kernels


def _hermite_check(p, *points):
    d = p["d"]
    if d not in (1, 2, 3):
        raise ValueError("hermite kernel supports d in {1, 2, 3}")
    return _finite_check(p, *(_check_dimension(d, *points) if d > 1 else points))


def _hermite_axes(d):
    return [_function_axis(orthopoly._hermite_fn_values)] * d


def hermite_kernel(cutoff, n, x, y, d=1):
    """Hermite-function kernel on R^d; d = 1 accepts point arrays, d > 1
    (..., d) arrays of pairs."""
    x, y = _hermite_check({"d": d}, x, y)
    if d == 1:
        return _series(orthopoly._hermite_rows, cutoff_band(cutoff, n), x, y)
    return _contract(_hermite_axes(d), cutoff_band(cutoff, n), x, y)


def hermite_block(j, x, y, d):
    """Projector block H_j(x, y) of the degree-j Hermite eigenspace over
    points of shape (d,) or (..., d) arrays of pairs."""
    return _block(_hermite_axes(d), j, *_hermite_check({"d": d}, x, y))


def _laguerre_check(p, *points):
    d = p["d"]
    if d not in (1, 2):
        raise ValueError("laguerre kernel supports d in {1, 2}")
    alpha = np.atleast_1d(np.asarray(p["alpha"], dtype=float))
    orthopoly._check_values(alpha, lambda v: v >= 0.0, "alpha components must be >= 0")
    # the axes are alpha's components, so a d given beside alpha must agree
    if len(alpha) != d:
        raise ValueError(f"alpha must have one component per axis (d = {d})")
    points = _check_dimension(d, *points) if d > 1 else points
    return _domain(points, np.negative, "points must be nonnegative")


def laguerre_kernel(cutoff, n, alpha, x, y, d=1):
    """Laguerre F-function kernel on the positive orthant; d = 1 accepts
    point arrays, d > 1 (..., d) arrays of pairs.  ``alpha`` is scalar for
    d = 1, else one entry per axis."""
    x, y = _laguerre_check({"alpha": alpha, "d": d}, x, y)
    if d == 1:
        # the F-type functions are sqrt(2) ell_n(t^2): the rows of the squares
        (a,) = np.atleast_1d(np.asarray(alpha, dtype=float))

        def rows(top, t, consume):
            orthopoly._laguerre_rows(a, top, orthopoly._square(t), consume)

        return _series(rows, 2.0 * cutoff_band(cutoff, n), x, y)
    axes = [_function_axis(partial(orthopoly._laguerre_fn_values, a)) for a in np.atleast_1d(alpha)]
    return _contract(axes, cutoff_band(cutoff, n), x, y)


def laguerre_K_kernel(cutoff, n, alpha, d, k, t):
    """Auxiliary half-line kernel with (k+1)-fold forward differences of the
    band weights against raw Laguerre polynomials of lifted parameter."""
    _check_level(n)
    k = orthopoly._check_integer(k, 0, n / 4, "difference order k must be an integer in 0..n/4")
    d = orthopoly._check_integer(d, 1, np.inf, "dimension d must be a positive integer")
    orthopoly._check_values(alpha, lambda v: v >= 0.0, "alpha components must be >= 0")
    (t,) = _domain([np.asarray(t, dtype=float)], np.negative, "t must be nonnegative")
    lift = float(np.sum(alpha, dtype=float)) + k + d
    top = int(math.ceil(2.0 * n))
    diffs = np.diff(np.asarray(cutoff(np.arange(top + k + 2) / n), dtype=float), k + 1)[:top]
    return _series(partial(orthopoly._raw_laguerre_rows, lift), diffs, t)


# ---------------------------------------------------------------------------
# 2-d tensor-product kernels (the counterexample bases)


def _tensor_axes(variant):
    if variant not in TENSOR_VARIANTS:
        raise ValueError(f"variant must be one of {TENSOR_VARIANTS}")
    chebyshev = _function_axis(partial(orthopoly._table, orthopoly._chebyshev_rows), _chebyshev_weight)
    legendre = _function_axis(partial(orthopoly._jacobi_values, 0.0, 0.0), _legendre_weight)
    return [legendre if leg else chebyshev for leg in (variant.startswith("leg"), variant.endswith("leg"))]


_TENSOR_DOMAIN = "tensor kernels live on [-1, 1]^2"


def _tensor_check(p, *points):
    """Points (..., 2) of [-1, 1]^2 as float arrays, clipped onto the square."""
    return [_clamped(v, _TENSOR_DOMAIN) for v in _check_dimension(2, *points, message=_TENSOR_DOMAIN)]


def tensor_block(variant, m, x, y):
    """Diagonal-degree projector block P~_m(x, y) of a 2-d product basis."""
    return _block(_tensor_axes(variant), m, *_tensor_check({}, x, y))


def tensor2d_kernel(cutoff, n, variant, x, y):
    """Cutoff-weighted kernel over diagonal-degree blocks of a product basis.

    ``x`` and ``y`` are points of shape (2,) or broadcastable (..., 2) arrays
    of pairs; the result has the pairs' shape (a float for one pair).
    """
    axes = _tensor_axes(variant)
    return _contract(axes, cutoff_band(cutoff, n), *_tensor_check({}, x, y))


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
    weight = _chebyshev_weight if variant == "chebcheb" else _legendre_weight
    vseq = weight(b) * (-1.0) ** b
    afac = _chebyshev_weight(b)
    coeffs = np.zeros(top)
    for a in range(top):
        bb = np.arange(top - a)
        coeffs[a] = afac[a] * np.dot(band[a + bb], vseq[: top - a])
    return coeffs


# ---------------------------------------------------------------------------
# distances and weight factors


def _angle_distance(x, y):
    """Largest coordinate gap in arccos (interval and tensor-square metric)."""
    return np.max(np.abs(_safe_arccos(x) - _safe_arccos(y)), axis=-1)


def _sup_distance(x, y):
    """Largest coordinate gap |x - y| (the Hermite and Laguerre metric).  Two
    points farther apart than the largest double, which only points of
    opposite sign can be, are refused; that is read off the halves, whose
    difference rounds to half that of the points and cannot overflow."""
    if np.any(np.abs(0.5 * x - 0.5 * y) > 0.5 * np.finfo(float).max):
        raise ValueError("points lie farther apart than the largest double")
    return np.max(np.abs(x - y), axis=-1)


def _periodic_distance(x, y):
    delta = np.abs(x - y) % (2.0 * np.pi)
    return np.max(np.minimum(delta, 2.0 * np.pi - delta), axis=-1)


def _inner(x, y):
    """x . y over the last axis, summed the way np.dot sums one pair."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _family(name):
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name]


def _as_points(spec, p, x):
    """Points as (..., dim) arrays: a scalar point gains its coordinate axis."""
    x = np.asarray(x, dtype=float)
    return x[..., None] if spec.scalar(p) else np.atleast_1d(x)


def distance(family, x, y):
    """The family's natural metric; arccos arguments are clamped against
    round-off within 1e-12 of the boundary, and the sphere, ball and simplex
    take the half-chord angle of their points lifted to the sphere.

    A point is a scalar or an array whose last axis holds its coordinates, so
    (..., k) arrays of pairs give an array of distances and a single pair a
    float.  ``KernelInstance.distance`` also takes arrays of scalar points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = _family(family).distance(x, y)
    return out if out.ndim else float(out)


def _check_params(family, p, *points, exempt=()):
    """The one door to a family's inputs: ``p`` with the family's defaults
    filled in, and the ``points`` as (..., dim) arrays checked by its
    ``check``.  Raise ValueError naming the parameters of ``p`` the family
    does not read, those it needs that ``p`` lacks (other than those
    ``exempt``), or parameters or points that the check rejects."""
    spec = _family(family)
    unread = [name for name in p if name not in spec.params]
    if unread:
        raise ValueError(f"{family} kernels do not read the parameter(s) {', '.join(unread)}")
    p = dict(p)
    for name, value in spec.defaults.items():
        p.setdefault(name, value(p) if callable(value) else value)
    missing = [name for name in spec.params if name not in p and name not in exempt]
    if missing:
        raise ValueError(f"{family} kernels need the parameter(s) {', '.join(missing)}")
    points = [_as_points(spec, p, v) for v in points]
    return p, (points if spec.check is None else spec.check(p, *points))


def _weight(family, n, x, p):
    orthopoly._check_values(n, lambda v: v >= 1, "n must be >= 1")
    spec = _family(family)
    if spec.weight is None:
        raise ValueError(f"{family} kernels carry no bound weight")
    # a weight reads the dimension off its points: those of the ball and the
    # sphere always, Hermite's and Laguerre's when no parameter is given
    # (scalars and arrays of them are points of the line)
    if not p and "d" in spec.defaults:
        p = {"d": 1 if np.ndim(x) < 2 else np.shape(x)[-1]}
    p, (x,) = _check_params(family, p, x, exempt=("d",))
    out = spec.weight(n, x, p)
    return out if out.ndim else float(out)


def weight_factor(family, n, x, alpha=None, beta=None, mu=None, kappa=None):
    """Normalizing weight entering the off-diagonal kernel bounds.

    One weight per point: the one-dimensional families take scalars or
    arrays of them, the others (..., d) arrays; a single point gives a float.
    The tensor-product families have no weight.
    """
    given = {"alpha": alpha, "beta": beta, "mu": mu, "kappa": kappa}
    return _weight(family, n, x, {k: v for k, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# envelope pair samplers: ``sample(k, edges, count, seed)`` draws the pairs of
# every bin [edges[i], edges[i + 1]] in one call and returns them as one triple
# (xs, ys, bins): the pairs of the broadcast of xs and ys, each with the bin
# it counts in (-1: none).  Every sampler but the tensor one puts at least
# ``count`` pairs in each bin; ``_tensor_pairs`` keeps its boundary and
# Halton pairs in the bins they fall in, so its bins can hold fewer, or none.
# The interval samplers' pairs are a block, xs of shape (cells, _TILE, 1)
# against ys of shape (cells, 1, _TILE), so ``_series`` forms each point's
# rows once.
# A bin's pairs depend only on the seed and its own edges, and those of a
# budget stay the same when the budget grows, so doubling it only refines the
# sampled set.  The other samplers' separations come from a nested van der
# Corput stream rotated by the seed.
# The ball and simplex lift to the sphere (the upper hemisphere through
# x -> (x, sqrt(1 - |x|^2)), the positive orthant through the square roots of
# the barycentric coordinates), where the family distance is the geodesic
# one.  Each pair sits on a chord of the lifted set, a geodesic arc whose ends
# lie on its boundary, at exactly its planned separation, so every draw lands
# in its bin.


def _vdc(count, base, shift=0.0):
    """First ``count`` van der Corput points in the given base, rotated."""
    out, denom, k = np.zeros(count), 1.0, np.arange(1, count + 1)
    while k.any():
        k, r = np.divmod(k, base)
        denom *= base
        out += r / denom
    return (out + shift) % 1.0


def _shift(seed):
    return (seed * 0.6180339887498949) % 1.0


def _bin_offsets(edges, count, seed):
    """(bins, count) pair separations spread over each bin; a bin that starts
    at the diagonal starts at separation 0."""
    lo, hi = edges[:-1, None], edges[1:, None]
    deltas = lo + _vdc(count, 2, _shift(seed)) * (hi - lo)
    deltas[edges[:-1] == 0.0, 0] = 0.0
    return deltas


def _per_bin(edges, count):
    """The bins of ``count`` pairs in each bin, bin after bin."""
    return np.repeat(np.arange(len(edges) - 1), count)


# The interval samplers' cells and windows are _TILE x _TILE points, one tile
# of ``_block_series`` each.
_GOLDEN = 0.6180339887498949


def _cells(edges, reps):
    """Offsets (x_off, y_off), each (bins, reps, _TILE), of ``reps`` cells
    per bin [a, b] of ``edges``: x_i = i h and y_j = a + (_TILE - phi + j
    _TILE) h with h = (b - a) / _TILE^2, whose separations y_j - x_i are a +
    (k + 1 - phi) h, k = 0.._TILE^2 - 1, an even grid over the bin that
    reaches b at phi = 0.  A bin at the diagonal takes y_j = (phi + j _TILE)
    h, so its cells start with a diagonal pair.  The reps take the van der
    Corput phases phi = 0, 1/2, 1/4, ..., so more reps only append cells."""
    a, b = edges[:-1, None], edges[1:, None]
    phi = np.concatenate([[0.0], _vdc(reps - 1, 2)])
    h = ((b - a) / _TILE**2)[..., None]
    i = np.arange(_TILE)
    y_off = a[..., None] + (np.where(a > 0.0, _TILE - phi, phi)[..., None] + i * _TILE) * h
    return np.broadcast_to(i * h, y_off.shape), y_off


def _windows(c_lo, c_hi, unit, reps, seed):
    """Points x and y, each (windows, _TILE), of the windows of [c_lo, c_hi]
    at the scales 4 unit, 16 unit, ... up to its length: at each, one window
    at either end, whose x points lie within 8 unit of that end, and _TILE
    reps more at golden-ratio starts rotated by the seed; x and y are
    jittered over _TILE strata by two golden-ratio streams."""
    length = c_hi - c_lo
    frac = np.concatenate([[0.0, 1.0], (_shift(seed) + np.arange(reps * _TILE) * _GOLDEN) % 1.0])
    t = np.arange(len(frac))[:, None] * _TILE + np.arange(_TILE)
    jitter = t % _TILE + t * _GOLDEN % 1.0
    xs, ys, width = [], [], 4.0 * unit
    while True:
        w = min(width, length)
        start = c_lo + (frac * (length - w))[:, None]
        x = start + w / _TILE * jitter
        z = min(w, 8.0 * unit) / _TILE
        x[0], x[1] = c_lo + z * jitter[0], c_hi - z * jitter[1]
        xs.append(x)
        ys.append(start + w / _TILE * (t % _TILE + t * 0.7548776662466927 % 1.0))
        if width >= length:
            return np.concatenate(xs), np.concatenate(ys)
        width *= 4.0


def _bins(edges, sep):
    """The bin of ``edges`` each separation falls in (the last holds its upper
    edge), -1 outside them all."""
    i = np.minimum(np.searchsorted(edges, sep, side="right") - 1, len(edges) - 2)
    return np.where((sep >= edges[0]) & (sep <= edges[-1]), i, -1).astype(np.int32)


def _interval_pairs(lo, hi, edges, count, seed, unit, core=None, pin_center=False):
    # one block of _TILE x _TILE cells of [lo, hi].  Each bin has a cell per
    # slice and budget of _TILE^2 pairs, at its planned bin: the lower end
    # cell starts at lo (x_0 = lo), the upper one is its mirror image ending at
    # hi (y_0 = hi), so the last bin's holds the pair of both ends, and the
    # symmetric families' center cell is centered; interior cells sit in the
    # (optionally restricted) oscillatory core, where the eigenfunctions (and
    # the extremal pairs) live, one slice per stream, at the seed's and the
    # bin's rotation of a golden-ratio stream over the starts that keep the
    # cell in the core.  Windows of the core at every scale from the kernel's
    # unit on, which do not depend on the edges, add each pair to the bin of
    # its separation, so that near-diagonal bins see many positions
    reps, bins = -(-count // _TILE**2), len(edges) - 1
    x_off, y_off = _cells(edges, reps)
    c_lo, c_hi = (lo, hi) if core is None else (max(lo, core[0]), min(hi, core[1]))
    extent = y_off[..., -1:, None]  # (bins, reps, 1, 1)
    streams = 1 if core is None else 2
    turn = np.arange(reps * streams).reshape(reps, streams, 1) * _GOLDEN
    rot = _shift(seed + (1e6 * edges[:-1]).astype(int))[:, None, None, None]
    starts = [c_lo + (rot + turn) % 1.0 * np.maximum(c_hi - c_lo - extent, 0.0)]
    if pin_center:
        starts.insert(0, 0.5 * (lo + hi) - 0.5 * extent)
    starts = np.concatenate(starts, axis=2)  # (bins, reps, slices - 2, 1)
    x_off, y_off = x_off[:, :, None], y_off[:, :, None]
    xs = np.concatenate([lo + x_off, hi - y_off, starts + x_off], axis=2).reshape(-1, _TILE)
    ys = np.concatenate([lo + y_off, hi - x_off, starts + y_off], axis=2).reshape(-1, _TILE)
    wx, wy = _windows(c_lo, c_hi, unit, reps, seed)
    planned = np.broadcast_to(np.arange(bins, dtype=np.int32)[:, None, None], (bins, len(xs) // bins, _TILE**2))
    binned = np.concatenate([planned.reshape(-1, _TILE, _TILE), _bins(edges, np.abs(wy[:, None] - wx[..., None]))])
    return np.concatenate([xs, wx])[..., None], np.concatenate([ys, wy])[:, None], binned


def _kernel_unit(k):
    """The distance over which kernel instance k varies: 1 / its scale."""
    return 1.0 / FAMILIES[k.family].scale(k.n, k.params)[0]


def _angle_pairs(k, edges, count, seed):
    th, ph, bins = _interval_pairs(0.0, np.pi, edges, count, seed, _kernel_unit(k))
    return np.cos(th), np.cos(ph), bins


def _trig_pairs(k, edges, count, seed):
    deltas = _bin_offsets(edges, count, seed).ravel()
    return deltas, np.zeros(len(deltas)), _per_bin(edges, count)


def _sphere_pairs(k, edges, count, seed):
    # the pole and the point at angle delta from it on one great circle
    deltas = _bin_offsets(edges, count, seed).ravel()
    xs = np.zeros((len(deltas), k.params["d"] + 1))
    ys = np.zeros_like(xs)
    xs[:, 0] = 1.0
    ys[:, 0], ys[:, 1] = np.cos(deltas), np.sin(deltas)
    return xs, ys, _per_bin(edges, count)


def _line_pairs(k, edges, count, seed, half_line):
    d = k.params["d"]
    if d != 1:
        raise ValueError(f"{k.family} envelopes sample d = 1 only, got d = {d}")
    r = FAMILIES[k.family].diameter(k.n, k.params)
    # restrict interior sampling to the oscillatory core, where the
    # eigenfunctions (and hence the extremal pairs) live
    tp = math.sqrt(2.0 * 2.0 * k.n + 2.0) + 4.0
    return _interval_pairs(
        0.0 if half_line else -r, r, edges, count, seed, _kernel_unit(k), core=(-tp, tp), pin_center=not half_line
    )


def _normals(edges, count, seed, width):
    """(bins, count, width) standard normals, each bin's from a generator
    seeded by the seed and the bin's lower edge, drawn row by row."""
    return np.stack([
        np.random.default_rng(seed + int(1e6 * lo)).standard_normal((count, width))
        for lo in edges[:-1]
    ])


def _uniforms(g):
    """Exact U(0, 1) draws, one per pair of standard normals along the last
    axis: exp(-(g_1^2 + g_2^2) / 2), since g_1^2 + g_2^2 is exponential with
    mean 2 (the squared Box-Muller radius)."""
    return np.exp(-0.5 * (g[..., 0::2] ** 2 + g[..., 1::2] ** 2))


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _chord_pairs(p, w, length, delta, frac):
    """Lifted pairs at geodesic distance ``delta`` on the chords
    cos(t) p + sin(t) w, 0 <= t <= length, starting at t = frac * (length - delta)."""
    t = frac * np.maximum(length - delta, 0.0)
    x = np.cos(t)[..., None] * p + np.sin(t)[..., None] * w
    y = np.cos(t + delta)[..., None] * p + np.sin(t + delta)[..., None] * w
    return x, y


def _ball_pairs(k, edges, count, seed):
    # chords of the upper hemisphere: half great circles from a point p of
    # the boundary sphere to -p, leaving p along a unit tangent w that points
    # up, so every point of the chord has height >= 0
    d = k.params["d"]
    g = _normals(edges, count, seed, 2 * d + 3)
    p = np.concatenate([_unit(g[..., :d]), np.zeros(g.shape[:-1] + (1,))], axis=-1)
    w = g[..., d : 2 * d + 1]
    w = w - np.sum(w * p, axis=-1, keepdims=True) * p
    w[..., d] = np.abs(w[..., d])
    frac = _uniforms(g[..., 2 * d + 1 :])[..., 0]
    x, y = _chord_pairs(p, _unit(w), np.pi, _bin_offsets(edges, count, seed), frac)
    return x[..., :d].reshape(-1, d), y[..., :d].reshape(-1, d), _per_bin(edges, count)


def _simplex_pairs(k, edges, count, seed):
    # chords of the positive orthant from a point p on one face to a point q
    # on another; the 1-simplex is the one chord from (0, 1) to (1, 0), and
    # for d = 2 the faces z_i = 0 and z_j = 0 meet at the vertex e_k, with
    # p = cos(a) e_k + sin(a) e_j and q = cos(b) e_k + sin(b) e_i at distance
    # arccos(cos(a) cos(b)), which reaches delta once b >= b_min
    d = len(np.atleast_1d(k.params["kappa"])) - 1
    delta = _bin_offsets(edges, count, seed)
    u = _uniforms(_normals(edges, count, seed, 8))
    if d == 1:
        p = np.broadcast_to([0.0, 1.0], delta.shape + (2,))
        q = np.broadcast_to([1.0, 0.0], delta.shape + (2,))
    else:
        corner = (3 * u[..., 0]).astype(int) % 3
        e_k, e_i, e_j = (np.eye(3)[(corner + s) % 3] for s in range(3))
        a = 0.5 * np.pi * u[..., 1]
        b_min = np.arccos(np.minimum(np.cos(delta) / np.cos(a), 1.0))
        b = b_min + u[..., 2] * (0.5 * np.pi - b_min)
        p = np.cos(a)[..., None] * e_k + np.sin(a)[..., None] * e_j
        q = np.cos(b)[..., None] * e_k + np.sin(b)[..., None] * e_i
    pq = np.sum(p * q, axis=-1)
    w = q - pq[..., None] * p
    length = np.arctan2(np.linalg.norm(w, axis=-1), pq)
    x, y = _chord_pairs(p, _unit(w), length, delta, u[..., 3])
    return (x * x)[..., :d].reshape(-1, d), (y * y)[..., :d].reshape(-1, d), _per_bin(edges, count)


def _tensor_pairs(k, edges, count, seed):
    # pairs pinned to the boundary lines (where tensor kernels fail to
    # localize) plus Halton interior pairs, each kept in every bin it falls in
    shift = _shift(seed)
    m = max(count // 2, 8)
    t1, h2, h5 = _vdc(m, 2, shift), _vdc(m, 3, shift), _vdc(m, 5, shift)
    u, one = np.cos(np.pi * t1), np.ones(m)
    edge = np.stack([np.stack(p, axis=-1) for p in ((u, -one), (one, u), (u, one))], axis=1)
    xs = np.concatenate([edge.reshape(-1, 2), np.stack([u, np.cos(np.pi * h2)], axis=-1)])
    inner = np.stack([np.cos(np.pi * h5), np.cos(np.pi * ((t1 + h5) % 1.0))], axis=-1)
    ys = np.concatenate([np.ones((3 * m, 2)), inner])
    r = k.distance(xs, ys)
    bins, keep = np.nonzero((edges[:-1, None] <= r) & (r <= edges[1:, None]))
    return xs[keep], ys[keep], bins


# ---------------------------------------------------------------------------
# the family table


def _power_scale(dim):
    """Bounds in the distance scaled by n, with prefactor n^dim(p)."""
    return lambda n, p: (float(n), float(n) ** dim(p))


def _root_scale(n, p):
    """Hermite and Laguerre kernels localize at the scale sqrt(n)."""
    return math.sqrt(n), float(n) ** (p["d"] / 2.0)


def _sphere_check(p, *points):
    # a weight reads the dimension off its points, so d may be absent
    orthopoly._check_values(p.get("d", 2), lambda v: v >= 2, "sphere dimension d must be >= 2")
    if "d" in p:
        d = p["d"]
        points = _check_dimension(d + 1, *points, message=f"points must have dimension d + 1 = {d + 1}")
    radius_gap = lambda v: np.abs(np.linalg.norm(v, axis=-1) - 1.0)
    return _domain(points, radius_gap, "points must lie on the unit sphere")


def _half_chord(lift, message):
    """The metric of a family whose points ``lift`` maps onto the unit
    sphere: the geodesic distance 2 atan2(|x - y|, |x + y|) of the lifted
    points, exact at 0 and accurate up to pi, where the arccos of their dot
    product reads a point's distance to itself as up to 3e-8.  A lift puts
    the points outside its domain off the sphere; one farther off than
    ``_ROUND_OFF`` raises ``message``."""

    def metric(x, y):
        x, y = _domain([lift(x), lift(y)], lambda v: np.abs(np.linalg.norm(v, axis=-1) - 1.0), message)
        return 2.0 * np.arctan2(np.linalg.norm(x - y, axis=-1), np.linalg.norm(x + y, axis=-1))

    return metric


def _ball_lift(x):
    """Ball points (..., d) on the upper hemisphere: (x, sqrt(1 - |x|^2))."""
    return np.concatenate([x, _hemisphere_height(x)[..., None]], axis=-1)


def _simplex_lift(x):
    """Simplex points (..., d) on the sphere's positive orthant: the square
    roots of their barycentric coordinates."""
    return np.sqrt(np.maximum(_barycentric(x), 0.0))


def _sphere_cosine(d, x, y):
    """x . y of points on S^d, clipped to [-1, 1]."""
    x, y = _sphere_check({"d": d}, x, y)
    return np.clip(_inner(x, y), -1, 1)


def _unit_weight(n, x, p):
    return np.ones(x.shape[:-1])


# the profile geometries of a ``Frame``; angle offsets end at the farther end from xi
def _angle_profile(xi, n_j):
    theta = np.arccos(xi)
    return max(theta, np.pi - theta), lambda r: np.cos(np.clip(theta + r, 0.0, np.pi))


def _line_profile(lo_clip, xi, n_j):
    return 2.0 * (math.sqrt(8.0 * n_j + 2.0) + 2.0), lambda r: np.clip(xi + r, lo_clip, np.inf)


@dataclass(frozen=True)
class Frame:
    """What a family's tight needlet frame (``needlets``) reads of it."""

    rule: object  # rule(p, m, level=None): the Gauss rule whose normalized functions are the basis
    base: float  # levels are base-adic in nu: n_j = base^(j - 1), base^j nodes
    band_arg: object  # the cutoff's argument at t = nu / n_j
    profile: object  # profile(xi, n_j): (diameter, offset sampler) of a decay profile about xi
    roundtrip: tuple  # the interval on which round trips are compared


@dataclass(frozen=True)
class Family:
    """What the package knows about one family, in one place.

    ``values(k, x, y)`` evaluates kernel instance ``k`` over pairs through
    the family's public kernel function and ``sample(k, edges, count,
    seed)`` draws the pairs of every envelope bin [edges[i], edges[i + 1]],
    returning one triple (xs, ys, bins), the pairs of the broadcast of xs
    and ys with the bin of each; the rest take level ``n`` and parameters
    ``p``: the metric ``distance(x, y)``, ``scalar`` points, the bound
    ``weight`` per point (None: none), the bounds' (scale, prefactor), the
    envelope ``diameter`` and the needlet ``frame`` (None: none).
    ``params`` names the parameters read, all required but those with
    ``defaults``, each a value or a function of the parameters filled before
    it; ``check(p, *points)``, the check the family's kernel runs, rejects
    the values given that do not fit and points (..., dim) of another
    dimension or farther than ``_ROUND_OFF`` outside the domain, and returns
    the points.  ``_check_params`` fills, names and checks them all.
    """

    distance: object
    values: object = None
    sample: object = None
    scalar: object = lambda p: False
    weight: object = None
    scale: object = _power_scale(lambda p: 1)
    diameter: object = lambda n, p: np.pi
    params: tuple = ()
    defaults: dict = field(default_factory=dict)
    check: object = None
    frame: object = None


# Entries call kernel, quadrature and orthopoly functions by module name at call
# time, so replacing a module attribute (to trace it, say) reaches every family.
_TENSOR = Family(
    _angle_distance, sample=_tensor_pairs, check=_tensor_check,
    values=lambda k, x, y: tensor2d_kernel(k.cutoff, k.n, k.family, x, y),
)

FAMILIES = {
    "trig": Family(
        _periodic_distance,
        values=lambda k, x, y: trig_kernel(k.cutoff, k.n, np.subtract(*_finite_check({}, x, y))),
        sample=_trig_pairs,
        scalar=lambda p: True, weight=_unit_weight, check=_finite_check,
    ),
    "chebyshev": Family(
        _angle_distance, values=lambda k, x, y: chebyshev_kernel(k.cutoff, k.n, x, y), sample=_angle_pairs,
        scalar=lambda p: True, weight=_unit_weight, check=_interval_check,
    ),
    "jacobi": Family(
        _angle_distance,
        values=lambda k, x, y: jacobi_kernel(k.cutoff, k.n, k.params["alpha"], k.params["beta"], x, y),
        sample=_angle_pairs, scalar=lambda p: True,
        weight=lambda n, x, p: np.prod(
            (1.0 - x + n**-2.0) ** (p["alpha"] + 0.5) * (1.0 + x + n**-2.0) ** (p["beta"] + 0.5),
            axis=-1,
        ),
        params=("alpha", "beta"), check=_jacobi_check,
        frame=Frame(
            lambda p, m, level=None: quadrature.gauss_rule("jacobi", m, p["alpha"], p["beta"], level),
            2.0, lambda t: t, _angle_profile, (-1, 1),
        ),
    ),
    "sphere": Family(
        _half_chord(np.asarray, "points must lie on the unit sphere"),
        values=lambda k, x, y: sphere_kernel(k.cutoff, k.n, k.params["d"], _sphere_cosine(k.params["d"], x, y)),
        sample=_sphere_pairs, weight=_unit_weight, scale=_power_scale(lambda p: p["d"]),
        params=("d",), check=_sphere_check,
    ),
    "ball": Family(
        _half_chord(_ball_lift, "points must lie in the closed unit ball"),
        values=lambda k, x, y: ball_kernel(k.cutoff, k.n, k.params["mu"], k.params["d"], x, y),
        sample=_ball_pairs,
        weight=lambda n, x, p: (_hemisphere_height(x) + 1.0 / n) ** (2.0 * p["mu"]),
        scale=_power_scale(lambda p: p["d"]),
        params=("mu", "d"), check=_ball_check,
    ),
    "simplex": Family(
        _half_chord(_simplex_lift, "points must lie in the simplex"),
        values=lambda k, x, y: simplex_kernel(k.cutoff, k.n, k.params["kappa"], x, y),
        sample=_simplex_pairs,
        weight=lambda n, x, p: np.prod(
            (np.maximum(_barycentric(x), 0.0) + n**-2.0) ** np.asarray(p["kappa"], dtype=float), axis=-1
        ),
        scale=_power_scale(lambda p: len(np.atleast_1d(p["kappa"])) - 1),
        # every term of the metric's cosine is >= 0: vertex to vertex is pi/2
        diameter=lambda n, p: np.pi / 2.0,
        params=("kappa",), check=_simplex_check,
    ),
    "hermite": Family(
        _sup_distance,
        values=lambda k, x, y: hermite_kernel(k.cutoff, k.n, x, y, d=k.params["d"]),
        sample=partial(_line_pairs, half_line=False),
        scalar=lambda p: p["d"] == 1, weight=_unit_weight, scale=_root_scale,
        diameter=lambda n, p: math.sqrt(8.0 * n + 2.0),
        params=("d",), defaults={"d": 1}, check=_hermite_check,
        frame=Frame(
            lambda p, m, level=None: quadrature.hermite_function_rule(m, level),
            4.0, np.sqrt, partial(_line_profile, -np.inf), (-3, 3),
        ),
    ),
    "laguerre": Family(
        _sup_distance,
        values=lambda k, x, y: laguerre_kernel(k.cutoff, k.n, k.params["alpha"], x, y, d=k.params["d"]),
        sample=partial(_line_pairs, half_line=True),
        scalar=lambda p: p["d"] == 1, scale=_root_scale,
        diameter=lambda n, p: math.sqrt(12.0 * n + 3.0 * np.max(np.abs(p["alpha"])) + 3.0),
        weight=lambda n, x, p: np.prod((x + n**-0.5) ** (2.0 * np.asarray(p["alpha"], dtype=float) + 1.0), axis=-1),
        params=("alpha", "d"), defaults={"alpha": 0.0, "d": lambda p: np.size(p["alpha"])}, check=_laguerre_check,
        frame=Frame(
            lambda p, m, level=None: quadrature.laguerre_function_rule(p["alpha"], m, level),
            4.0, np.sqrt, partial(_line_profile, 0.0), (0.05, 3),
        ),
    ),
    **{variant: _TENSOR for variant in TENSOR_VARIANTS},
    # metrics only
    "interval": Family(_angle_distance),
    "tensor": Family(_angle_distance),
}


# ---------------------------------------------------------------------------
# kernel instances


def _json_params(params):
    """Family parameters as JSON values: tuples and arrays become lists."""
    return {k: list(v) if isinstance(v, (tuple, list, np.ndarray)) else v for k, v in params.items()}


@dataclass
class KernelInstance:
    """An evaluable localized kernel: family tag, cutoff, level, parameters.

    ``params`` carries the family-specific entries (alpha, beta, d, mu,
    kappa), the family's defaults filled in when the instance is built.
    Instances are immutable in use; evaluation is reentrant.
    """

    family: str
    cutoff: object
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = FAMILIES.get(self.family)
        if spec is None or spec.values is None:
            raise ValueError(f"unknown kernel family {self.family!r}")
        self.params, _ = _check_params(self.family, self.params)
        _check_level(self.n)

    def __call__(self, x, y):
        return FAMILIES[self.family].values(self, x, y)

    def pair_values(self, xs, ys):
        """Kernel values over arrays of pairs (scalar points for the
        one-dimensional families, (..., d) arrays otherwise), in one array
        pass."""
        return np.asarray(FAMILIES[self.family].values(self, xs, ys), dtype=float)

    def distance(self, x, y):
        return distance(self.family, *_check_params(self.family, self.params, x, y)[1])

    def weight(self, x):
        return _weight(self.family, self.n, x, self.params)

    def descriptor(self):
        d = {"family": self.family, "n": self.n, **_json_params(self.params)}
        d["cutoff"] = self.cutoff.spec.fields()
        return d

    def to_json(self):
        return orthopoly._to_json(self.descriptor())


def export_grid(kernel, xs, ys, path):
    """CSV of kernel values over point pairs: x coords, y coords, rho, value.
    The pairs are evaluated in one ``pair_values`` call."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
    dim = xs.shape[1]
    px, py = (xs[:, 0], ys[:, 0]) if FAMILIES[kernel.family].scalar(kernel.params) else (xs, ys)
    rho = kernel.distance(px, py)
    vals = kernel.pair_values(px, py)
    header = (
        [f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)] + ["rho", "value"]
    )
    orthopoly._write_csv(path, header, np.column_stack([xs, ys, rho, vals]))

import json
import math
import warnings
from functools import partial, reduce

import numpy as np
import pytest
from conftest import broadcast_pairs, reproducing_defect
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

from orthoframes import cutoff as co
from orthoframes import decay as de
from orthoframes import kernels as ke
from orthoframes import needlets as ne
from orthoframes import orthopoly as op
from orthoframes import quadrature as qd


# ---------------------------------------------------------------------------
# trigonometric kernel


def test_trig_kernel_even(cutoff_c):
    th = np.linspace(0.1, 3.0, 7)
    assert np.array_equal(
        ke.trig_kernel(cutoff_c, 8, th), ke.trig_kernel(cutoff_c, 8, -th)
    )


def test_trig_kernel_degree(cutoff_c):
    # Fourier coefficient at frequency 2n vanishes
    n = 8
    th = np.linspace(0, 2 * np.pi, 16 * n, endpoint=False)
    vals = ke.trig_kernel(cutoff_c, n, th)
    coeff = 2.0 * float((vals * np.cos(2 * n * th)).mean())
    assert abs(coeff) < 1e-12
    inside = 2.0 * float((vals * np.cos((2 * n - 2) * th)).mean())
    assert abs(inside - cutoff_c((2 * n - 2) / n)) < 1e-12


def test_trig_kernel_poisson_identity(cutoff_c):
    # F_n(t) = pi n sum_j a(n (t + 2 pi j)) with a the profile transform
    n = 4
    ts = np.linspace(-np.pi, np.pi, 41)
    lhs = ke.trig_kernel(cutoff_c, n, ts)
    offsets = 2.0 * np.pi * np.arange(-40, 41)
    args = n * (ts[:, None] + offsets[None, :])
    rhs = np.pi * n * co.inverse_transform(cutoff_c, args).sum(axis=1)
    assert np.abs(lhs - rhs).max() < 1e-6


# ---------------------------------------------------------------------------
# Chebyshev / Jacobi kernels


def test_chebyshev_symmetry(cutoff_c, rng):
    x = rng.uniform(-1, 1, 200)
    y = rng.uniform(-1, 1, 200)
    a = ke.chebyshev_kernel(cutoff_c, 16, x, y)
    b = ke.chebyshev_kernel(cutoff_c, 16, y, x)
    assert np.abs(a - b).max() < 1e-9 * np.abs(a).max()


def test_chebyshev_equals_folded_trig(cutoff_c, rng):
    n = 32
    x = rng.uniform(-1, 1, 100)
    y = rng.uniform(-1, 1, 100)
    th, ph = np.arccos(x), np.arccos(y)
    lhs = ke.chebyshev_kernel(cutoff_c, n, x, y)
    rhs = (ke.trig_kernel(cutoff_c, n, th - ph) + ke.trig_kernel(cutoff_c, n, th + ph)) / np.pi
    assert np.abs(lhs - rhs).max() < 1e-10


def test_chebyshev_reproducing(cutoff_c, rng):
    xs = rng.uniform(-1, 1, 8)
    assert reproducing_defect("chebyshev", cutoff_c, 16, xs) < 1e-8


def test_jacobi_kernel_chebyshev_specialization(cutoff_c, rng):
    x = rng.uniform(-1, 1, 50)
    y = rng.uniform(-1, 1, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        jk = ke.jacobi_kernel(cutoff_c, 16, -0.5, -0.5, x, y)
    ck = ke.chebyshev_kernel(cutoff_c, 16, x, y)
    assert np.abs(jk - ck).max() < 1e-9


def test_jacobi_reproducing(cutoff_c, rng):
    xs = rng.uniform(-1, 1, 8)
    assert reproducing_defect("jacobi", cutoff_c, 16, xs, alpha=2.0, beta=0.5) < 1e-8


def test_jacobi_type_a_passes_low_degrees(cutoff_a, rng):
    # flat-profile projection returns the basis function itself for m <= n
    n = 16
    alpha, beta = 1.0, 0.0
    rule = qd.gauss_rule("jacobi", 3 * n + 8, alpha=alpha, beta=beta)
    h = op.jacobi_norms(op.JacobiParams(alpha, beta), n)
    x0 = 0.37
    kv = ke.jacobi_kernel(
        cutoff_a, n, alpha, beta, np.full(rule.m, x0), rule.nodes
    )
    for m in (0, 3, n):
        basis = op._jacobi_values(alpha, beta, m, rule.nodes)[m] / math.sqrt(h[m])
        proj = float(np.dot(rule.weights, kv * basis))
        expect = op._jacobi_values(alpha, beta, m, np.array(x0))[m] / math.sqrt(h[m])
        assert proj == pytest.approx(float(expect), abs=1e-9)


# ---------------------------------------------------------------------------
# boundary kernel and the summation-by-parts ladder


def test_boundary_kernel_matches_kernel_at_one(cutoff_c, rng):
    x = rng.uniform(-1, 1, 40)
    for a, b in [(0.0, 0.0), (2.0, 0.5)]:
        qv = ke.jacobi_Q(cutoff_c, 16, a, b, x)
        kv = ke.jacobi_kernel(cutoff_c, 16, a, b, x, np.ones_like(x))
        assert np.abs(qv - kv).max() <= 1e-8 * max(1.0, np.abs(kv).max())


def test_boundary_kernel_chebyshev_corner(cutoff_c, rng):
    # alpha = beta = -1/2 goes through the written-out degree-zero factor
    x = rng.uniform(-1, 1, 20)
    qv = ke.jacobi_Q(cutoff_c, 8, -0.5, -0.5, x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kv = ke.jacobi_kernel(cutoff_c, 8, -0.5, -0.5, x, np.ones_like(x))
    assert np.abs(qv - kv).max() < 1e-9 * max(1.0, np.abs(kv).max())


def test_boundary_kernel_hand_expansion(cutoff_a):
    # n = 1, flat profile, alpha = beta = 0: (1/2)(band0 + 3 band1 x)
    x = 0.37
    assert ke.jacobi_Q(cutoff_a, 1, 0.0, 0.0, x) == pytest.approx(
        0.5 * (1.0 + 3.0 * x), rel=1e-12
    )


def test_boundary_kernel_growth_envelope(cutoff_c):
    # sup |Q_n(cos theta)| <= c n^(2 alpha + 2) with c stable across n
    alpha, beta = 1.0, 0.5
    th = np.linspace(0, np.pi, 2000)
    cs = []
    for n in (16, 32, 64):
        qv = ke.jacobi_Q(cutoff_c, n, alpha, beta, np.cos(th))
        cs.append(np.abs(qv).max() / n ** (2 * alpha + 2))
    assert max(cs) / min(cs) < 3.0


def test_summation_by_parts_first_level_closed_form(cutoff_c):
    n = 32
    st = ke.summation_by_parts_coefficients(cutoff_c, n, 0.7, 0.1, 1)
    j = np.arange(len(st.values))
    expect = np.asarray(cutoff_c(j / n)) - np.asarray(cutoff_c((j + 1) / n))
    assert np.abs(st.values - expect).max() < 1e-13


def test_summation_by_parts_support(cutoff_c):
    n = 64
    st = ke.summation_by_parts_coefficients(cutoff_c, n, 0.0, 0.0, 2)
    nz = np.nonzero(np.abs(st.values) > 0)[0]
    assert nz.min() > n / 2 - 2 - 1
    assert nz.max() < 2 * n


def test_summation_by_parts_identity(cutoff_c):
    xs = np.array([-0.8, -0.2, 0.5, 0.9])
    for n in (32, 64):
        for a, b in [(0.0, 0.0), (0.5, 0.0), (2.0, 0.5)]:
            for k in (1, 2, 3):
                d = ke.verify_summation_by_parts(cutoff_c, n, a, b, k, xs)
                assert d < 1e-7, (n, a, b, k, d)


def test_summation_by_parts_stays_finite_at_large_alpha(cutoff_c):
    # 2^-(alpha+beta+1) / Gamma(alpha+1) and the Gamma ratios, formed apart,
    # overflowed at alpha = 1000
    xs = np.array([-0.8, -0.2, 0.5, 0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = ke.verify_summation_by_parts(cutoff_c, 16, 1000.0, 0.0, 1, xs)
    assert math.isfinite(d) and d < 1e-7


def test_summation_by_parts_rejects_deep_ladder(cutoff_c):
    with pytest.raises(ValueError):
        ke.verify_summation_by_parts(cutoff_c, 16, 0.0, 0.0, 5, 0.3)


# ---------------------------------------------------------------------------
# sphere


def test_sphere_proportional_to_boundary_kernel(cutoff_c):
    t = np.linspace(-0.95, 0.95, 50)
    for d in (2, 3):
        lam = (d - 1) / 2.0
        sv = ke.sphere_kernel(cutoff_c, 16, d, t)
        qv = ke.jacobi_Q(cutoff_c, 16, lam - 0.5, lam - 0.5, t)
        ratio = sv / qv
        assert np.abs(ratio - ratio.mean()).max() < 1e-8 * abs(ratio.mean())


def test_sphere_diagonal_terms_positive(cutoff_c):
    n, d = 8, 2
    lam = (d - 1) / 2.0
    band = ke.cutoff_band(cutoff_c, n)
    terms = [
        band[j] * (j + lam) * float(op.gegenbauer_all(lam, j, 1.0).values[j])
        for j in range(len(band))
    ]
    assert all(t >= 0 for t in terms)
    assert sum(t > 0 for t in terms) > 0
    with pytest.raises(ValueError):
        ke.sphere_kernel(cutoff_c, n, 1, 0.5)


def test_sphere_reproducing_low_degree_harmonics(cutoff_a):
    # latitude Gauss-Legendre x uniform longitude integrates the kernel
    # against explicit low-degree harmonics back to band(deg) * Y(xi)
    n = 4
    r = qd.gauss_rule("jacobi", 12, alpha=0.0, beta=0.0)
    mphi = 24
    phi = 2 * np.pi * np.arange(mphi) / mphi
    ct = r.nodes
    st = np.sqrt(1 - ct**2)
    pts = np.stack(
        np.broadcast_arrays(
            st[:, None] * np.cos(phi), st[:, None] * np.sin(phi), ct[:, None] * np.ones(mphi)
        ),
        -1,
    ).reshape(-1, 3)
    ww = np.repeat(r.weights, mphi) * (2 * np.pi / mphi)
    harmonics = {
        0: lambda p: np.full(len(p), math.sqrt(1 / (4 * np.pi))),
        1: lambda p: math.sqrt(3 / (4 * np.pi)) * p[:, 2],
        2: lambda p: math.sqrt(15 / (16 * np.pi)) * (p[:, 0] ** 2 - p[:, 1] ** 2),
    }
    xi = np.array([0.3, -0.5, math.sqrt(1 - 0.09 - 0.25)])
    band = ke.cutoff_band(cutoff_a, n)
    for deg, yfun in harmonics.items():
        kv = ke.sphere_kernel(cutoff_a, n, 2, np.clip(pts @ xi, -1, 1))
        proj = float(np.dot(ww, kv * yfun(pts)))
        expect = band[deg] * float(yfun(xi[None, :])[0])
        assert proj == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# ball


def test_ball_center_value_against_direct_quadrature(cutoff_c):
    mu, d, n = 1.5, 2, 8
    val = ke.ball_kernel(cutoff_c, n, mu, d, np.zeros(2), np.zeros(2))
    lam = mu + (d - 1) / 2.0
    band = ke.cutoff_band(cutoff_c, n)

    def integrand(u):
        return float(ke._gegenbauer_sum(band, lam, np.array([u]))[0]) * (1 - u * u) ** (
            mu - 1
        )

    num, _ = quad(integrand, -1, 1, limit=200)
    mass, _ = quad(lambda u: (1 - u * u) ** (mu - 1), -1, 1)
    assert val == pytest.approx(num / mass, abs=1e-8)


def test_ball_symmetry(cutoff_c, rng):
    for _ in range(5):
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        a = ke.ball_kernel(cutoff_c, 8, 1.5, 2, x, y)
        b = ke.ball_kernel(cutoff_c, 8, 1.5, 2, y, x)
        assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(a)))


def test_a_ball_mu_whose_gegenbauer_rows_leave_double_range_is_refused(cutoff_c):
    # mu = 1e8 once returned nan after three overflow warnings from the rows;
    # at mu = 1e6 the rows stay in range at the ball's arguments, though
    # P_j(1) would not, and the value keeps its bits
    x, y = [0.1, 0.2], [0.0, 0.1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"Gegenbauer rows C_j\^1e\+08, j < 64, leave double range"):
            ke.ball_kernel(cutoff_c, 32, 1e8, 2, x, y)
        assert ke.ball_kernel(cutoff_c, 32, 1e6, 2, x, y) == 9.103060950242862e191


def test_ball_points_within_round_off_of_the_sphere_take_the_bits_of_the_edge(cutoff_c):
    # x.y = 1 + 1.8e-12 leaves [-1, 1] by more than the round-off rule; the
    # ball clips its auxiliary arguments, so the pair is the edge pair's value
    near, edge = np.array([1.0 + 9e-13, 0.0]), np.array([1.0, 0.0])
    value = ke.ball_kernel(cutoff_c, 8, 1.0, 2, near, near)
    assert value == ke.ball_kernel(cutoff_c, 8, 1.0, 2, edge, edge) == 3009.700884385352
    assert ke.KernelInstance("ball", cutoff_c, 8, {"mu": 1.0, "d": 2})(near, near) == value


def test_ball_rejects_zero_mu(cutoff_c):
    with pytest.raises(ValueError):
        ke.ball_kernel(cutoff_c, 8, 0.0, 2, np.zeros(2), np.zeros(2))


def test_ball_fractional_mu_weight(cutoff_c):
    # mu - 1 in (-1, 0) is a plain Gauss-Jacobi parameter
    x = np.array([0.2, -0.1])
    y = np.array([-0.3, 0.4])
    a = ke.ball_kernel(cutoff_c, 6, 0.3, 2, x, y)
    b = ke.ball_kernel(cutoff_c, 6, 0.3, 2, y, x)
    assert np.isfinite(a)
    assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(a)))


def test_ball_reproducing_disk(cutoff_a):
    # polar product cubature, Gram-Schmidt basis up to degree 4 under the
    # normalized disk weight
    mu, n = 1.5, 4
    sr = qd.gauss_rule("jacobi", 20, alpha=mu - 0.5, beta=0.0)
    s = (sr.nodes + 1) / 2.0
    wr = sr.weights / sr.weights.sum()
    mphi = 41
    phi = 2 * np.pi * np.arange(mphi) / mphi
    rr = np.sqrt(s)
    pts = np.stack(
        [np.outer(rr, np.cos(phi)).ravel(), np.outer(rr, np.sin(phi)).ravel()], -1
    )
    wts = np.repeat(wr, mphi) / mphi
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (2, 2), (0, 4)]
    vand = np.stack([pts[:, 0] ** a * pts[:, 1] ** b for a, b in monos], 0)
    coeffs = []
    for i in range(len(monos)):
        c = np.eye(len(monos))[i]
        for cj in coeffs:
            c = c - np.dot(wts, (c @ vand) * (cj @ vand)) * cj
        c = c / math.sqrt(np.dot(wts, (c @ vand) ** 2))
        coeffs.append(c)
    x0 = np.array([0.25, -0.4])
    kv = np.array([ke.ball_kernel(cutoff_a, n, mu, 2, x0, p) for p in pts])
    band = ke.cutoff_band(cutoff_a, n)
    v0 = np.array([x0[0] ** a * x0[1] ** b for a, b in monos])
    for i, (a, b) in enumerate(monos):
        proj = float(np.dot(wts, kv * (coeffs[i] @ vand)))
        expect = band[a + b] * float(np.dot(coeffs[i], v0))
        assert proj == pytest.approx(expect, abs=1e-8)


# ---------------------------------------------------------------------------
# simplex


def test_simplex_symmetry(cutoff_c):
    val_xy = ke.simplex_kernel(cutoff_c, 4, [0.5, 0.5], [0.3], [0.6])
    val_yx = ke.simplex_kernel(cutoff_c, 4, [0.5, 0.5], [0.6], [0.3])
    assert val_xy == pytest.approx(val_yx, abs=1e-10)
    v2 = ke.simplex_kernel(cutoff_c, 4, [0.5, 0.25, 1.0], [0.2, 0.3], [0.5, 0.1])
    v2r = ke.simplex_kernel(cutoff_c, 4, [0.5, 0.25, 1.0], [0.5, 0.1], [0.2, 0.3])
    assert v2 == pytest.approx(v2r, abs=1e-10)


def test_simplex_reproducing_unit_interval(cutoff_a):
    # kappa = (1/2, 1/2), d = 1: the weight is uniform on [0, 1], so the
    # orthonormal family is the shifted Legendre one
    n = 4
    r = qd.gauss_rule("jacobi", 30, alpha=0.0, beta=0.0)
    ynodes = (r.nodes + 1) / 2.0
    wnorm = r.weights / 2.0
    x0 = 0.3
    kv = np.array(
        [ke.simplex_kernel(cutoff_a, n, [0.5, 0.5], [x0], [y]) for y in ynodes]
    )
    band = ke.cutoff_band(cutoff_a, n)
    for m in range(4):
        pm = math.sqrt(2 * m + 1) * op._jacobi_values(0.0, 0.0, m, 2 * ynodes - 1)[m]
        p0 = math.sqrt(2 * m + 1) * float(
            op._jacobi_values(0.0, 0.0, m, np.array(2 * x0 - 1))[m]
        )
        proj = float(np.dot(wnorm, kv * pm))
        assert proj == pytest.approx(band[m] * p0, abs=1e-8)


# Xu's reduction, the oracle of the simplex kernel: the kernel of the d-simplex
# is a (d + 1)-fold tensor Gauss-Jacobi integral of an even Gegenbauer sum over
# the square roots of the barycentric coordinates.


def _axis_rule(kappa_i, m):
    if kappa_i > 0:
        rule = qd.gauss_rule("jacobi", m, alpha=kappa_i - 1.0, beta=kappa_i - 1.0)
        return rule.nodes, rule.weights / rule.weights.sum()
    # the kappa -> 0 limit of the normalized measure is the two-point average
    return np.array([-1.0, 1.0]), np.array([0.5, 0.5])


def _gegenbauer_sum_even(band, lam, arg):
    """sum_j band_j ((2j + lam)/lam) C_{2j}^lam(arg), with the lam -> 0 limit
    sum_j band_j (2 - [j = 0]) T_{2j}(arg)."""
    coeff = np.zeros(2 * len(band) - 1)
    if lam < 1e-13:
        coeff[::2] = 2.0 * band
        coeff[0] = band[0]
        return ke._series(op._chebyshev_rows, coeff, ke._clamped(arg))
    j = np.arange(len(band), dtype=float)
    coeff[::2] = band * (2.0 * j + lam) / lam
    return ke._gegenbauer_series(coeff, lam, arg)


def _simplex_at_order(cut, n, kappa, x, y, m):
    # one pair, an m-node rule on every axis of the tensor grid
    band = ke.cutoff_band(cut, n)
    root = np.sqrt(np.clip(np.append(x, 1.0 - x.sum()), 0.0, None) * np.clip(np.append(y, 1.0 - y.sum()), 0.0, None))
    axes = [_axis_rule(k, m) for k in kappa]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgt = np.prod(np.meshgrid(*[a[1] for a in axes], indexing="ij"), axis=0)
    z = np.clip(sum(r * g for r, g in zip(root, grids)), -1.0, 1.0)
    lam = sum(kappa) + (len(x) - 1) / 2.0
    return float(np.sum(wgt * _gegenbauer_sum_even(band, lam, z)))


def test_simplex_zero_kappa_collapses_to_point_average(cutoff_a):
    n = 4
    x, y = 0.3, 0.6
    val = ke.simplex_kernel(cutoff_a, n, [0.0, 0.0], [x], [y])
    root = np.sqrt(np.array([x, 1 - x]) * np.array([y, 1 - y]))
    band = ke.cutoff_band(cutoff_a, n)
    acc = 0.0
    for t1 in (-1.0, 1.0):
        for t2 in (-1.0, 1.0):
            z = np.clip(root[0] * t1 + root[1] * t2, -1, 1)
            acc += 0.25 * float(_gegenbauer_sum_even(band, 0.0, np.array([z]))[0])
    assert val == pytest.approx(acc, rel=1e-12)


def _ball_at_order(cut, n, mu, d, x, y, m):
    # one pair, one m-node auxiliary rule
    band = ke.cutoff_band(cut, n)
    rule = qd.gauss_rule("jacobi", m, alpha=mu - 1.0, beta=mu - 1.0)
    rxy = math.sqrt(1.0 - x @ x) * math.sqrt(1.0 - y @ y)
    arg = np.clip(x @ y + rule.nodes * rxy, -1.0, 1.0)
    vals = ke._gegenbauer_sum(band, mu + (d - 1) / 2.0, arg)
    return float(rule.weights @ vals / rule.weights.sum())


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mu", [0.3, 1.0, 1.5])
def test_ball_exact_order_matches_doubled_order(cutoff_c, mu, d, n):
    # the integrand has degree 2n - 1, so ceil(len(band)/2) nodes are exact
    gen = np.random.default_rng(7)
    pts = gen.uniform(-1, 1, (400, d))
    pts = np.vstack([np.zeros(d), pts[np.sum(pts * pts, axis=1) < 1][:6]])
    x, y = pts[:4], pts[3:]
    vals = ke.ball_kernel(cutoff_c, n, mu, d, x, y)
    m = -(-len(ke.cutoff_band(cutoff_c, n)) // 2)
    ref = np.array([_ball_at_order(cutoff_c, n, mu, d, a, b, 2 * m) for a, b in zip(x, y)])
    # relative to the diagonal pair (x[3] == y[0]), the size of the summands
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize(
    "kappa", [(0.5, 0.5), (0.0, 1.0), (0.5, 0.25, 1.0), (0.0, 0.5, 0.5), (0.0, 0.0), (1.0, 0.0, 2.0)]
)
def test_simplex_exact_order_matches_doubled_order(cutoff_c, kappa, n):
    # the basis sum against Xu's integral at twice the exact order (degree
    # 2(2n - 1) per axis, so len(band) nodes per axis are exact), at random
    # points, the vertices and points on every edge
    d = len(kappa) - 1
    corners = np.vstack([np.eye(d), np.zeros(d)])
    edges = [0.3 * a + 0.7 * b for a in corners for b in corners if a is not b]
    pts = np.vstack([np.random.default_rng(11).dirichlet(np.ones(d + 1), 7)[:, :d], corners, edges])
    # each point beside the next, and three on the diagonal
    x, y = np.vstack([pts, pts[:3]]), np.vstack([np.roll(pts, 1, axis=0), pts[:3]])
    vals = ke.simplex_kernel(cutoff_c, n, kappa, x, y)
    m = len(ke.cutoff_band(cutoff_c, n))
    ref = np.array([_simplex_at_order(cutoff_c, n, kappa, a, b, 2 * m) for a, b in zip(x, y)])
    # relative to the diagonal pairs, the size of the summands
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("kappa", [(0.5, 0.25), (0.5, 0.25, 1.0)])
def test_a_simplex_value_does_not_depend_on_its_batch(cutoff_c, kappa):
    # 2^14 + 37 pairs cross a block of ``_series``: a pair alone keeps the
    # bits it has at either end of the batch and on either side of the boundary
    d = len(kappa) - 1
    block = ke._SERIES_BLOCK // 2
    pts = np.random.default_rng(12).dirichlet(np.ones(d + 1), (block + 37, 2))[..., :d]
    pts[:2] = np.vstack([np.eye(d), np.zeros(d)])[:2, None]  # vertex pairs
    many = ke.simplex_kernel(cutoff_c, 8, kappa, pts[:, 0], pts[:, 1])
    for i in (0, 1, 2, block - 1, block, len(pts) - 1):
        assert ke.simplex_kernel(cutoff_c, 8, kappa, pts[i, 0], pts[i, 1]) == many[i]


def test_jacobi_rows_whose_products_leave_double_range_are_refused(cutoff_c):
    # alpha = 1000 at n = 512 once read nan: P_1023(1) = binom(2023, 1023)
    # ~ e^1398; the last levels accepted are finite at their largest value
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.2, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"P_1023\^\(1000, 0\) reach e\^1398 at level n = 512"):
            ke.jacobi_kernel(cutoff_c, 512, 1000.0, 0.0, 0.99, 0.98)
        with pytest.raises(ValueError, match="leave double range"):
            ke.jacobi_Q(cutoff_c, 512, 1000.0, 0.0, 0.99)
        with pytest.raises(ValueError, match="leave double range"):
            ke.simplex_kernel(cutoff_c, 512, (0.5, 1000.5), 0.01, 0.02)
        for kappa in [(0.5, 0.5, 0.5), (5.0, 0.5, 3.0)]:
            with pytest.raises(ValueError, match="leave double range"):
                ke.simplex_kernel(cutoff_c, 256, kappa, pts[3], pts[3])
            assert np.all(np.isfinite(ke.simplex_kernel(cutoff_c, 128, kappa, pts, pts)))
        assert np.isfinite(ke.jacobi_kernel(cutoff_c, 55, 1000.0, 0.0, 1.0, 1.0))
        assert np.isfinite(ke.jacobi_Q(cutoff_c, 55, 1000.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="leave double range"):
            ke.jacobi_kernel(cutoff_c, 56, 1000.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "family, params",
    [
        ("ball", {"mu": 1.5, "d": 2}),
        ("ball", {"mu": 0.3, "d": 3}),
        ("simplex", {"kappa": (0.5, 0.5)}),
        ("simplex", {"kappa": (0.5, 0.25, 1.0)}),
    ],
)
def test_pair_values_match_scalar_calls(cutoff_c, family, params, monkeypatch):
    gen = np.random.default_rng(5)
    if family == "ball":
        pts = gen.uniform(-1, 1, (200, 2, params["d"]))
        pts = pts[np.all(np.sum(pts * pts, axis=-1) <= 1, axis=-1)][:40]
    else:
        d = len(params["kappa"]) - 1
        pts = gen.dirichlet(np.ones(d + 1), (40, 2))[..., :d]
    k = ke.KernelInstance(family, cutoff_c, 6, params)
    loop = np.array([k(x, y) for x, y in pts])
    # one chunk per pair must give the same values as one chunk for all
    for entries in (ke._TABLE_ENTRIES, 1):
        monkeypatch.setattr(ke, "_TABLE_ENTRIES", entries)
        vals = k.pair_values(pts[:, 0], pts[:, 1])
        assert vals.shape == (len(pts),)
        assert np.all(np.abs(vals - loop) <= 1e-13 * np.abs(loop).max())
    dist = k.distance(pts[:, 0], pts[:, 1])
    assert np.array_equal(dist, [k.distance(x, y) for x, y in pts])
    wts = k.weight(pts[:, 0])
    assert np.allclose(wts, [k.weight(x) for x in pts[:, 0]], rtol=1e-15, atol=0)


def _allocating_auxiliary_integral(series, base, coef, nodes, weights):
    # the chunk loop as it stood before it filled its buffer in place
    shape = base.shape
    base, coef = base.reshape(-1), coef.reshape(-1)
    out = np.empty(len(base))
    step = max(1, ke._TABLE_ENTRIES // len(weights))
    for s in range(0, len(base), step):
        arg = base[s : s + step, None] + coef[s : s + step, None] * nodes
        out[s : s + step] = series(np.clip(arg, -1.0, 1.0)) @ weights
    out = out.reshape(shape)
    return out if out.ndim else float(out)


@pytest.mark.parametrize("family, params", [("ball", {"mu": 1.0, "d": 2})])
def test_auxiliary_integral_keeps_the_bits_of_the_allocating_chunks(cutoff_c, family, params, monkeypatch):
    pts = np.random.default_rng(8).uniform(-0.7, 0.7, (37, 2, 2))
    k = ke.KernelInstance(family, cutoff_c, 8, params)
    # 300 entries make chunks of a few pairs and a short last chunk
    monkeypatch.setattr(ke, "_TABLE_ENTRIES", 300)
    vals = k.pair_values(pts[:, 0], pts[:, 1])
    monkeypatch.setattr(ke, "_auxiliary_integral", _allocating_auxiliary_integral)
    assert np.array_equal(vals, k.pair_values(pts[:, 0], pts[:, 1]))


def test_simplex_rejects_bad_input(cutoff_c):
    with pytest.raises(ValueError):
        ke.simplex_kernel(cutoff_c, 4, [0.5, 0.5, 0.5, 0.5], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        ke.simplex_kernel(cutoff_c, 4, [-0.5, 0.5], [0.3], [0.4])
    with pytest.raises(ValueError):
        ke.simplex_kernel(cutoff_c, 4, [0.5, 0.5], [1.4], [0.4])


# ---------------------------------------------------------------------------
# Hermite / Laguerre kernels


def test_hermite_reproducing(cutoff_c, rng):
    xs = rng.uniform(-3, 3, 8)
    assert reproducing_defect("hermite", cutoff_c, 16, xs) < 1e-8


def test_hermite_kernel_tail(cutoff_c):
    rates = []
    for n in (16, 32, 64):
        r0 = math.sqrt(8 * n + 2)
        xs = np.linspace(r0, 1.25 * r0, 24)
        ys = np.linspace(-0.9 * r0, 0.9 * r0, 120)
        logs = []
        for x in xs:
            vals = np.abs(ke.hermite_kernel(cutoff_c, n, np.full_like(ys, x), ys))
            logs.append(math.log(max(vals.max(), 1e-290)))
        a = np.vstack([np.ones_like(xs), -(xs**2)]).T
        coef, *_ = np.linalg.lstsq(a, np.array(logs), rcond=None)
        rates.append(coef[1])
    assert min(rates) > 0.05
    assert max(rates) / min(rates) < 3.0


def test_hermite_multivariate_block_consistency(cutoff_c):
    # d = 2, 3 kernels equal the band-weighted sums of explicit blocks
    n = 4
    band = ke.cutoff_band(cutoff_c, n)
    for d, x, y in [
        (2, np.array([0.3, -1.1]), np.array([0.5, 0.2])),
        (3, np.array([0.3, -0.5, 1.0]), np.array([0.1, 0.2, -0.7])),
    ]:
        direct = sum(band[j] * ke.hermite_block(j, x, y, d) for j in range(len(band)))
        assert ke.hermite_kernel(cutoff_c, n, x, y, d=d) == pytest.approx(direct, rel=1e-11)


def test_laguerre_multivariate_composition(cutoff_c):
    n = 3
    band = ke.cutoff_band(cutoff_c, n)
    x = np.array([0.4, 1.1])
    y = np.array([0.8, 0.2])
    alpha = np.array([0.0, 2.0])
    manual = 0.0
    for j in range(len(band)):
        for a in range(j + 1):
            f1 = (
                op.laguerre_fn_all(alpha[0], a, x[0], "F").values[a]
                * op.laguerre_fn_all(alpha[0], a, y[0], "F").values[a]
            )
            f2 = (
                op.laguerre_fn_all(alpha[1], j - a, x[1], "F").values[j - a]
                * op.laguerre_fn_all(alpha[1], j - a, y[1], "F").values[j - a]
            )
            manual += band[j] * float(f1) * float(f2)
    assert ke.laguerre_kernel(cutoff_c, n, alpha, x, y, d=2) == pytest.approx(
        manual, rel=1e-11
    )


def test_hermite_diagonal_block_bounded_d2():
    sup = []
    for j in (10, 30, 60):
        r = math.sqrt(4 * j + 2)
        grid = np.linspace(-r, r, 12)
        sup.append(
            max(
                ke.hermite_block(j, (x1, x2), (x1, x2), 2)
                for x1 in grid
                for x2 in grid
            )
        )
    # d = 2 diagonal blocks stay bounded (the j^(d/2 - 1) envelope is flat)
    assert max(sup) < 3.0 * min(sup)


def test_hermite_rejects_large_dimension(cutoff_c):
    with pytest.raises(ValueError):
        ke.hermite_kernel(cutoff_c, 4, np.zeros(4), np.zeros(4), d=4)


def test_laguerre_reproducing(cutoff_c, rng):
    xs = rng.uniform(0.05, 3.5, 8)
    for alpha in (0.0, 2.0):
        assert reproducing_defect("laguerre", cutoff_c, 16, xs, alpha=alpha) < 1e-8


def test_laguerre_symmetry(cutoff_c, rng):
    x = rng.uniform(0, 3, 100)
    y = rng.uniform(0, 3, 100)
    a = ke.laguerre_kernel(cutoff_c, 16, 1.0, x, y)
    b = ke.laguerre_kernel(cutoff_c, 16, 1.0, y, x)
    assert np.abs(a - b).max() < 1e-9 * max(1.0, np.abs(a).max())


def test_laguerre_kernel_tail(cutoff_c):
    rates = []
    for n in (16, 32):
        r0 = math.sqrt(12 * n + 3)
        xs = np.linspace(r0, 1.25 * r0, 20)
        ys = np.linspace(0.0, 0.9 * r0, 100)
        logs = []
        for x in xs:
            vals = np.abs(ke.laguerre_kernel(cutoff_c, n, 0.0, np.full_like(ys, x), ys))
            logs.append(math.log(max(vals.max(), 1e-290)))
        a = np.vstack([np.ones_like(xs), -(xs**2)]).T
        coef, *_ = np.linalg.lstsq(a, np.array(logs), rcond=None)
        rates.append(coef[1])
    assert min(rates) > 0.02


def test_laguerre_rejects_negative_coordinates(cutoff_c):
    with pytest.raises(ValueError):
        ke.laguerre_kernel(cutoff_c, 8, 0.0, -0.5, 1.0)


def test_laguerre_difference_kernel_support(cutoff_c):
    n, k = 8, 1
    top = int(math.ceil(2 * n))
    samples = np.asarray(cutoff_c(np.arange(top + k + 2) / n))
    diffs = np.diff(samples, k + 1)
    assert np.all(diffs[2 * n :] == 0.0)


def test_laguerre_difference_kernel_hand_check(cutoff_c):
    # k = 0 equals a direct first-difference sum
    n, t = 8, 2.7
    val = ke.laguerre_K_kernel(cutoff_c, n, [0.0], 1, 0, t)
    acc = 0.0
    u_prev, u = math.exp(-t / 2.0), (2.0 - t) * math.exp(-t / 2.0)
    lift = 1.0  # |alpha| + k + d = 1
    for m in range(int(2 * n)):
        d1 = float(cutoff_c((m + 1) / n) - cutoff_c(m / n))
        if m == 0:
            acc += d1 * u_prev
        elif m == 1:
            acc += d1 * u
        else:
            u_prev, u = u, ((2 * (m - 1) + lift + 1 - t) * u - (m - 1 + lift) * u_prev) / m
            acc += d1 * u
    assert val == pytest.approx(acc, rel=1e-11)


@pytest.mark.parametrize("n, k, d, alpha", [(1, 0, 1, [0.0]), (8, 1, 2, [0.5, 1.5]), (16, 3, 1, [2.0])])
def test_laguerre_difference_kernel_matches_the_explicit_sum(cutoff_c, n, k, d, alpha):
    # sum_m diffs_m L_m^lift(t) e^(-t/2) with scipy's Laguerre polynomials
    t = np.linspace(0.0, 20.0, 81)
    lift = sum(alpha) + k + d
    diffs = np.diff(cutoff_c(np.arange(2 * n + k + 2) / n), k + 1)[: 2 * n]
    ref = sum(c * eval_genlaguerre(m, lift, t) for m, c in enumerate(diffs)) * np.exp(-t / 2)
    vals = ke.laguerre_K_kernel(cutoff_c, n, alpha, d, k, t)
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref).max())
    assert ke.laguerre_K_kernel(cutoff_c, n, alpha, d, k, t[7]) == vals[7]


def test_laguerre_difference_kernel_growth(cutoff_c):
    # |K_n(t)| <= c n^(|alpha| + d) over the bounded range, c stable in n
    cs = []
    for n in (8, 16, 32):
        ts = np.geomspace(1e-2, 4 * (12 * n + 3), 200)
        vals = np.abs(ke.laguerre_K_kernel(cutoff_c, n, [0.0], 1, 0, ts))
        cs.append(vals.max() / n)
    assert max(cs) / min(cs) < 3.0


def test_laguerre_difference_kernel_rejects_bad_k(cutoff_c):
    with pytest.raises(ValueError):
        ke.laguerre_K_kernel(cutoff_c, 8, [0.0], 1, 3, 1.0)


_NONFINITE = r" \(got nan or inf\)"
_JACOBI = {"alpha": 0.0, "beta": 0.0}


def _measure(cut, **plan):
    return de.measure_envelope(ke.KernelInstance("chebyshev", cut, 8), de.SamplingPlan(**plan))


@pytest.mark.parametrize(
    "evaluate, message",
    [
        # alpha = nan read nan, alpha = inf raised a RuntimeWarning, d = -5 read 0.0499
        (lambda cut: ke.laguerre_K_kernel(cut, 8, [math.nan], 1, 0, 0.5), "alpha components must be >= 0" + _NONFINITE),
        (lambda cut: ke.laguerre_K_kernel(cut, 8, [math.inf], 1, 0, 0.5), "alpha components must be >= 0" + _NONFINITE),
        (lambda cut: ke.laguerre_K_kernel(cut, 8, [0.5, -1.0], 2, 0, 0.5), "alpha components must be >= 0$"),
        (lambda cut: ke.laguerre_K_kernel(cut, 8, [0.0], -5, 0, 0.5), "d must be a positive integer"),
        (lambda cut: ke.laguerre_K_kernel(cut, 8, [0.0], 1.5, 0, 0.5), "d must be a positive integer"),
        # orders that are not integers raised TypeError
        (lambda cut: ke.laguerre_K_kernel(cut, 8, [0.0], 1, 1.5, 0.5), r"k must be an integer in 0\.\.n/4"),
        (lambda cut: ke.summation_by_parts_coefficients(cut, 16, 0.0, 0.0, 1.5), r"k must be an integer in 1\.\.n/4"),
        (lambda cut: ne.build_needlet_system("jacobi", _JACOBI, cut, 2.5), r"j_max must be an integer in 0\.\.7"),
        # a non-finite level read nan, constructed, or raised OverflowError
        (lambda cut: ke.laguerre_K_kernel(cut, math.inf, [0.0], 1, 0, 0.5), "n must be positive" + _NONFINITE),
        (lambda cut: ke.weight_factor("jacobi", math.nan, 0.2, **_JACOBI), "n must be >= 1" + _NONFINITE),
        (lambda cut: ke.KernelInstance("chebyshev", cut, math.nan), "n must be positive" + _NONFINITE),
        (lambda cut: ke.cutoff_band(cut, math.inf), "n must be positive" + _NONFINITE),
        # counts and orders that raised numpy's TypeError, or passed validate first
        (lambda cut: qd.gauss_rule("hermite", 2.5), "node count m must be an integer >= 1$"),
        (lambda cut: qd.gauss_rule("jacobi", 2.5, alpha=0, beta=0), "node count m must be an integer >= 1$"),
        (lambda cut: qd.hermite_function_rule(math.nan), "node count m must be an integer >= 1" + _NONFINITE),
        (lambda cut: _measure(cut, n_bins=math.nan), "at least 40 bins" + _NONFINITE),
        (lambda cut: _measure(cut, n_bins=45.5), "at least 40 bins$"),
        (lambda cut: _measure(cut, n_bins=math.inf), "at least 40 bins" + _NONFINITE),
        (lambda cut: _measure(cut, pairs_per_bin=300.5), "at least 200 pairs per bin$"),
        (lambda cut: co.estimate_derivative_norms(cut, 2.5), r"k_max must be an integer in 0\.\.10"),
        (lambda cut: qd.verify_exactness(qd.gauss_rule("jacobi", 4, 0, 0), 2.5), r"degree must be an integer in 0\.\.7"),
    ],
    ids=[
        "K-alpha-nan", "K-alpha-inf", "K-alpha-negative", "K-d-negative", "K-d-fraction", "K-k-fraction",
        "ladder-k-fraction", "frame-j_max-fraction", "K-n-inf", "weight-n-nan", "instance-n-nan", "band-n-inf",
        "rule-m-fraction", "jacobi-rule-m-fraction", "function-rule-m-nan", "plan-bins-nan", "plan-bins-fraction",
        "plan-bins-inf", "plan-pairs-fraction", "derivative-k_max-fraction", "exactness-degree-fraction",
    ],
)
def test_orders_levels_and_difference_kernel_parameters_are_refused(cutoff_c, evaluate, message):
    with pytest.raises(ValueError, match=message):
        evaluate(cutoff_c)


@pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
def test_zonal_and_difference_kernels_refuse_non_finite_arguments(cutoff_c, v):
    # a nan cosine or t once read nan, and t = inf raised a RuntimeWarning
    with pytest.raises(ValueError, match=r"evaluation points must lie in \[-1, 1\]"):
        ke.sphere_kernel(cutoff_c, 8, 2, np.array([0.3, v]))
    with pytest.raises(ValueError, match=r"t must be nonnegative \(got nan or inf\)"):
        ke.laguerre_K_kernel(cutoff_c, 8, [0.0], 1, 0, np.array([0.3, v]))


def test_kernel_descriptor_holds_the_spec_wire_format(cutoff_c):
    kernel = ke.KernelInstance("chebyshev", cutoff_c, 8)
    assert kernel.descriptor()["cutoff"] == json.loads(co.spec_to_json(cutoff_c.spec))


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_cosines_within_round_off_take_the_bits_of_the_ends(cutoff_c, d):
    # the package's round-off rule: within 1e-12 of [-1, 1] is clipped onto it
    ends = ke.sphere_kernel(cutoff_c, 16, d, np.array([1.0, -1.0]))
    near = ke.sphere_kernel(cutoff_c, 16, d, np.array([1.0 + 1e-13, -1.0 - 5e-13]))
    assert np.array_equal(near, ends)
    assert ke.sphere_kernel(cutoff_c, 16, d, 1.0 + 1e-13) == ends[0]
    with pytest.raises(ValueError, match=r"evaluation points must lie in \[-1, 1\]"):
        ke.sphere_kernel(cutoff_c, 16, d, 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# tensor-product blocks


def test_tensor_block_identities():
    x = np.array([1.0, -1.0])
    y = np.array([1.0, 1.0])
    for m in range(41):
        legleg = ke.tensor_block("legleg", m, x, y)
        assert legleg == pytest.approx((1 + (-1) ** m) / 8.0, abs=1e-10)
        chebcheb = ke.tensor_block("chebcheb", m, x, y)
        expect = (1.0 if m == 0 else 0.0) / np.pi**2
        assert chebcheb == pytest.approx(expect, abs=1e-10)
        chebleg = ke.tensor_block("chebleg", m, x, y)
        assert chebleg == pytest.approx((-1.0) ** m / (2 * np.pi), abs=1e-10)


def test_tensor_kernel_symmetry(cutoff_c, rng):
    for variant in ke.TENSOR_VARIANTS:
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            a = ke.tensor2d_kernel(cutoff_c, 8, variant, x, y)
            b = ke.tensor2d_kernel(cutoff_c, 8, variant, y, x)
            assert a == pytest.approx(b, abs=1e-11 * max(1.0, abs(a)))


def test_tensor_slice_series_matches_kernel(cutoff_c):
    n = 8
    for variant in ("chebcheb", "chebleg"):
        coeffs = ke.tensor_slice_cheb_coeffs(cutoff_c, n, variant)
        for x1 in (-0.9, 0.1, 0.8):
            series = float(np.polynomial.chebyshev.chebval(x1, coeffs))
            direct = ke.tensor2d_kernel(cutoff_c, n, variant, (x1, -1.0), (1.0, 1.0))
            assert series == pytest.approx(direct, abs=1e-11)


@pytest.mark.parametrize("variant", ["chebcheb", "chebleg"])
@pytest.mark.parametrize("top", [1, 2, 65, 128])
def test_tensor_chebyshev_axes_match_the_closed_form(variant, top):
    # the Chebyshev axis tables come from the T recurrence; the closed form
    # w_j cos(j theta) cos(j phi) is an independent reference for them
    x, y = np.cos(np.random.default_rng(top).uniform(0.0, np.pi, (2, 400)))
    x[:3], y[:3] = [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]
    j = np.arange(top)
    theta, phi = np.arccos(x)[:, None], np.arccos(y)[:, None]
    ref = np.where(j == 0, 1.0 / np.pi, 2.0 / np.pi) * np.cos(j * theta) * np.cos(j * phi)
    axes = ke._tensor_axes(variant)
    for axis in axes if variant == "chebcheb" else axes[:1]:
        table = axis(x, y, top)
        assert table.shape == (400, top)
        assert np.abs(table - ref).max() <= 1e-13


@pytest.mark.parametrize("variant", ke.TENSOR_VARIANTS)
@pytest.mark.parametrize("point", [(1.5, 0.0), (0.0, 1.5)])
def test_tensor_points_outside_the_square_raise_on_every_axis(cutoff_c, variant, point):
    # the Legendre axes once took any point: legleg at (1.5, 0) read 6,755
    k = ke.KernelInstance(variant, cutoff_c, 8)
    for evaluate in (
        lambda: ke.tensor2d_kernel(cutoff_c, 8, variant, point, (0.0, 0.0)),
        lambda: ke.tensor_block(variant, 3, (0.0, 0.0), point),
        lambda: k.pair_values(np.array([point, (0.2, 0.1)]), np.zeros((2, 2))),
        lambda: k.distance(np.array([point, (0.2, 0.1)]), np.zeros((2, 2))),
    ):
        with pytest.raises(ValueError, match=r"tensor kernels live on \[-1, 1\]\^2"):
            evaluate()


def test_tensor_instance_distance_refuses_points_of_another_dimension(cutoff_c):
    # the square's metric once read 0.3047 between two points of R^3
    k = ke.KernelInstance("legleg", cutoff_c, 8)
    with pytest.raises(ValueError, match=r"tensor kernels live on \[-1, 1\]\^2"):
        k.distance((0.1, 0.2, 0.3), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("variant", ke.TENSOR_VARIANTS)
def test_tensor_points_within_round_off_of_the_square_take_the_boundary_value(cutoff_c, variant):
    over, edge = (1.0 + 1e-13, -1.0 - 1e-13), (1.0, -1.0)
    y = (0.3, 1.0)
    assert ke.tensor2d_kernel(cutoff_c, 8, variant, over, y) == ke.tensor2d_kernel(cutoff_c, 8, variant, edge, y)
    assert ke.tensor_block(variant, 5, y, over) == ke.tensor_block(variant, 5, y, edge)


def _per_pair_convolution(band, diags):
    """sum_m band_m c_m pair by pair, the blocks c_m by repeated sequence
    convolution of the pair's rows of the per-axis (pairs, top) tables
    w_j f_j(x_i) f_j(y_i)."""
    return np.array([np.dot(band, reduce(np.convolve, rows)[: len(band)]) for rows in zip(*diags)])


def _function_diags(values, x, y, top):
    """Per-axis tables of the orthonormal functions ``values[i](top - 1, t)``."""
    return [(f(top - 1, x[:, i]) * f(top - 1, y[:, i])).T for i, f in enumerate(values)]


_HERMITE = op._hermite_fn_values


@pytest.mark.parametrize(
    "family, params, values",
    [pytest.param(variant, {}, None, id=variant) for variant in ke.TENSOR_VARIANTS]
    + [
        pytest.param("hermite", {"d": 2}, [_HERMITE] * 2, id="hermite-d2"),
        pytest.param("hermite", {"d": 3}, [_HERMITE] * 3, id="hermite-d3"),
        pytest.param(
            "laguerre", {"alpha": (0.0, 2.0), "d": 2},
            [partial(op._laguerre_fn_values, a) for a in (0.0, 2.0)], id="laguerre-d2",
        ),
    ],
)
def test_tensor_pair_arrays_match_the_per_pair_convolution(cutoff_c, family, params, values):
    # one table per axis and one block contraction over arrays of pairs give
    # the per-pair sequence convolution within 1e-13 of the largest value:
    # a tensor kernel over an envelope's pairs, the Hermite and Laguerre
    # kernels over 2,000 pairs of their box (four chunks at n = 64), a tenth
    # of them on the diagonal
    if values is None:
        n = 32
        k = ke.KernelInstance(family, cutoff_c, n)
        edges = np.concatenate([[0.0], np.geomspace(np.pi / (4 * n), np.pi, 40)])
        xs, ys, _ = ke.FAMILIES[family].sample(k, edges, 200, 42)
    else:
        n = 64
        k = ke.KernelInstance(family, cutoff_c, n, params)
        r = ke.FAMILIES[family].diameter(n, params)
        lo = 0.0 if family == "laguerre" else -r
        xs, ys = np.random.default_rng(3).uniform(lo, r, (2, 2000, len(values)))
        ys[::10] = xs[::10]
    band = ke.cutoff_band(cutoff_c, n)

    def reference(x, y):
        if values is None:
            axes = ke._tensor_axes(family)
            return _per_pair_convolution(band, [ax(x[:, i], y[:, i], len(band)) for i, ax in enumerate(axes)])
        return _per_pair_convolution(band, _function_diags(values, x, y, len(band)))

    ref = reference(xs, ys)
    scale = np.abs(ref).max()
    vals = k.pair_values(xs, ys)
    assert vals.shape == ref.shape
    assert np.all(np.abs(vals - ref) <= 1e-13 * scale)
    # one point against many, and a single pair as a float
    ref = reference(np.broadcast_to(xs[0], ys[:50].shape), ys[:50])
    many = k.pair_values(xs[0], ys[:50])
    assert many.shape == (50,) and np.all(np.abs(many - ref) <= 1e-13 * scale)
    one = k(xs[0], ys[0])
    assert isinstance(one, float) and one == vals[0] == many[0]


@pytest.mark.parametrize("d", [2, 3])
def test_hermite_blocks_match_the_per_pair_convolution(d):
    xs, ys = np.random.default_rng(d).uniform(-6.0, 6.0, (2, 40, d))
    ys[:4] = xs[:4]
    for j in (0, 1, 7, 30, 60):
        ref = _per_pair_convolution(np.eye(j + 1)[j], _function_diags([_HERMITE] * d, xs, ys, j + 1))
        vals = ke.hermite_block(j, xs, ys, d)
        assert np.all(np.abs(vals - ref) <= 1e-13 * np.abs(ref).max())
        assert ke.hermite_block(j, xs[5], ys[5], d) == vals[5]


def test_hermite_points_must_have_dimension_d(cutoff_c):
    # a block once read its dimension off the points and ignored d
    p = (0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="points must have dimension 2"):
        ke.hermite_block(3, p, p, 2)
    with pytest.raises(ValueError, match="points must have dimension 2"):
        ke.hermite_kernel(cutoff_c, 4, p, p, d=2)


# ---------------------------------------------------------------------------
# distances and weights


def test_jacobi_symmetry_many_pairs(cutoff_c, rng):
    x = rng.uniform(-1, 1, 200)
    y = rng.uniform(-1, 1, 200)
    a = ke.jacobi_kernel(cutoff_c, 16, 1.0, 0.25, x, y)
    b = ke.jacobi_kernel(cutoff_c, 16, 1.0, 0.25, y, x)
    assert np.abs(a - b).max() < 1e-9 * np.abs(a).max()


def test_hermite_symmetry_many_pairs(cutoff_c, rng):
    x = rng.uniform(-4, 4, 200)
    y = rng.uniform(-4, 4, 200)
    a = ke.hermite_kernel(cutoff_c, 16, x, y)
    b = ke.hermite_kernel(cutoff_c, 16, y, x)
    assert np.abs(a - b).max() < 1e-9 * max(1.0, np.abs(a).max())


def test_distance_basics(rng):
    assert ke.distance("interval", 0.3, 0.3) == 0.0
    assert ke.distance("interval", 1.0, -1.0) == pytest.approx(np.pi)
    assert ke.distance("hermite", 1.5, -0.5) == 2.0
    assert ke.distance("trig", 0.5, 2 * np.pi - 0.5) == pytest.approx(1.0)
    v = rng.uniform(-1, 1, 3)
    v = v / np.linalg.norm(v)
    assert ke.distance("sphere", v, v) == 0.0
    assert ke.distance("ball", np.zeros(2), np.zeros(2)) == 0.0
    x = np.array([0.2, 0.3])
    assert ke.distance("simplex", x, x) == 0.0


def _lifted(family, g):
    """Points (..., 3) of the unit sphere from normals g, those of the ball
    on the upper hemisphere and those of the simplex in the positive
    orthant, each coordinate that bounds the lifted set above 0.28, and the
    map back to the family's points."""
    g = g / np.linalg.norm(g, axis=-1, keepdims=True)
    if family == "sphere":
        return g, lambda q: q
    if family == "ball":
        g[..., 2], back = np.maximum(np.abs(g[..., 2]), 0.3), lambda q: q[..., :2]
    else:
        g, back = np.maximum(np.abs(g), 0.3), lambda q: (q * q)[..., :2]
    return g / np.linalg.norm(g, axis=-1, keepdims=True), back


@pytest.mark.parametrize("family", ["sphere", "ball", "simplex"])
def test_lifted_distances_are_exact_at_zero_and_accurate_at_any_separation(family):
    # the half-chord angle of the lifted points: a point's distance to itself
    # is 0 for 2,000 random points, where the arccos of the lifted dot
    # product read up to 3e-8 for a third of them, and pairs at geodesic
    # separations from 1e-12 to 0.1 read theirs within 3e-14
    gen = np.random.default_rng(5)
    p, back = _lifted(family, gen.standard_normal((2000, 3)))
    x = back(p)
    assert np.all(ke.distance(family, x, x) == 0.0)
    w = gen.standard_normal(p.shape)
    w -= np.sum(w * p, axis=-1, keepdims=True) * p
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    for delta in np.geomspace(1e-12, 0.1, 23):
        q = np.cos(delta) * p + np.sin(delta) * w
        assert family == "sphere" or np.all(q[:, 2] > 0.0) and (family == "ball" or np.all(q > 0.0))
        assert np.all(np.abs(ke.distance(family, x, back(q)) - delta) <= 3e-14)


def test_distance_clamps_roundoff_but_rejects_violations():
    assert ke.distance("interval", 1.0 + 5e-13, -1.0) == pytest.approx(np.pi)
    with pytest.raises(ValueError):
        ke.distance("interval", 1.001, 0.0)
    # the lifted families refuse points their lift puts off the sphere, and
    # nan, as the arccos of the lifted dot product did
    assert ke.distance("ball", (1.0 + 5e-13, 0.0), (-1.0, 0.0)) == pytest.approx(np.pi)
    for family, point, inside in [
        ("sphere", (2.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ("sphere", (np.nan, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ("ball", (0.0, 3.0), (0.5, 0.0)),
        ("ball", (np.nan, 0.0), (0.5, 0.0)),
        ("simplex", (0.8, 0.3), (0.2, 0.2)),
        ("simplex", (-1e-3, 0.5), (0.2, 0.2)),
    ]:
        for x, y in ((point, inside), (inside, point)):
            with pytest.raises(ValueError, match="points must lie"):
                ke.distance(family, x, y)


def test_simplex_coordinate_distance_bound(rng):
    for _ in range(50):
        x = rng.dirichlet(np.ones(3))[:2]
        y = rng.dirichlet(np.ones(3))[:2]
        rho = ke.distance("simplex", x, y)
        xb = np.append(x, 1 - x.sum())
        yb = np.append(y, 1 - y.sum())
        assert np.abs(np.sqrt(xb) - np.sqrt(yb)).max() <= rho + 1e-12


def test_weight_factors():
    assert ke.weight_factor("jacobi", 7, 0.3, alpha=-0.5, beta=-0.5) == 1.0
    assert ke.weight_factor("chebyshev", 7, 0.3) == 1.0
    assert ke.weight_factor("ball", 5, np.zeros(2), mu=1.5) == pytest.approx(
        (1 + 0.2) ** 3
    )
    assert ke.weight_factor("laguerre", 4, np.array([0.0]), alpha=np.array([0.0])) == pytest.approx(0.5)
    assert ke.weight_factor(
        "simplex", 2, np.array([0.25]), kappa=np.array([1.0, 2.0])
    ) == pytest.approx((0.25 + 0.25) * (0.75 + 0.25) ** 2)


# ---------------------------------------------------------------------------
# kernel instances and export


def test_weight_and_distance_one_value_per_point():
    x = np.array([0.1, 0.5])
    jac = ke.weight_factor("jacobi", 4, x, alpha=1.0, beta=0.5)
    assert jac.shape == (2,)
    assert np.array_equal(jac, [ke.weight_factor("jacobi", 4, v, alpha=1.0, beta=0.5) for v in x])
    lag = ke.weight_factor("laguerre", 4, x, alpha=1.0)
    assert np.allclose(lag, (x + 0.5) ** 3, rtol=1e-15, atol=0)
    pts = np.random.default_rng(3).standard_normal((2, 5, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    rho = ke.distance("sphere", pts[0], pts[1])
    assert rho.shape == (5,)
    assert np.array_equal(rho, [ke.distance("sphere", a, b) for a, b in zip(pts[0], pts[1])])


_TABLE_CASES = {
    "trig": {},
    "chebyshev": {},
    "jacobi": {"alpha": 1.5, "beta": -0.5},
    "sphere": {"d": 2},
    "ball": {"mu": 1.5, "d": 2},
    "simplex": {"kappa": (0.5, 0.5, 0.5)},
    "hermite": {"d": 1},
    "laguerre": {"alpha": 1.0, "d": 1},
    "legleg": {},
    "chebcheb": {},
    "chebleg": {},
}


def test_table_cases_cover_every_kernel_family():
    kernel_families = {name for name, spec in ke.FAMILIES.items() if spec.values is not None}
    assert kernel_families == set(_TABLE_CASES)
    for alias in set(ke.FAMILIES) - kernel_families:
        with pytest.raises(ValueError, match="unknown kernel family"):
            ke.KernelInstance(alias, None, 4)


@pytest.mark.parametrize("family", sorted(_TABLE_CASES))
def test_family_array_paths_match_scalar_loops(cutoff_c, family):
    # pairs from the family's own envelope sampler, one bin away from the diagonal
    k = ke.KernelInstance(family, cutoff_c, 6, _TABLE_CASES[family])
    xs, ys = broadcast_pairs(ke.FAMILIES[family].sample(k, np.array([0.2, 0.6]), 12, 42))
    assert 0 < len(xs) == len(ys)
    vals = k.pair_values(xs, ys)
    loop = np.array([k(x, y) for x, y in zip(xs, ys)])
    assert vals.shape == (len(xs),)
    assert np.all(np.abs(vals - loop) <= 1e-13 * np.abs(loop).max())
    dist = k.distance(xs, ys)
    assert dist.shape == (len(xs),)
    assert np.all((dist >= 0.2 - 1e-12) & (dist <= 0.6 + 1e-12))
    assert np.allclose(dist, [k.distance(x, y) for x, y in zip(xs, ys)], rtol=1e-15, atol=1e-15)
    if ke.FAMILIES[family].weight is None:
        with pytest.raises(ValueError, match="no bound weight"):
            k.weight(xs)
        return
    wts = k.weight(xs)
    assert wts.shape == (len(xs),)
    assert np.allclose(wts, [k.weight(x) for x in xs], rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "family, params, missing",
    [
        ("jacobi", {"alpha": 1.0}, "beta"),
        ("sphere", {}, "d"),
        ("ball", {"d": 2}, "mu"),
        ("simplex", {}, "kappa"),
    ],
)
def test_kernel_instance_names_missing_parameter(cutoff_c, family, params, missing):
    with pytest.raises(ValueError, match=f"need the parameter\\(s\\) {missing}"):
        ke.KernelInstance(family, cutoff_c, 8, params)


@pytest.mark.parametrize(
    "family, params, unread",
    [
        ("chebyshev", {"d": 1}, "d"),
        ("simplex", {"kappa": (0.5, 0.5), "d": 2}, "d"),
        ("hermite", {"alpha": 1.0}, "alpha"),
        ("jacobi", {"alpha": 0.0, "beta": 0.0, "mu": 1.0}, "mu"),
    ],
)
def test_kernel_instance_refuses_parameters_its_family_does_not_read(cutoff_c, family, params, unread):
    # the simplex once took d = 2 beside a kappa of the 1-simplex and ran at d = 1
    with pytest.raises(ValueError, match=f"{family} kernels do not read the parameter\\(s\\) {unread}$"):
        ke.KernelInstance(family, cutoff_c, 8, params)
    with pytest.raises(ValueError, match=r"do not read the parameter\(s\) mu$"):
        ke.weight_factor(family, 8, 0.5, mu=1.0)


def test_laguerre_reads_its_dimension_off_alpha(cutoff_c):
    # laguerre_kernel(cut, 16, (0, 1), 0.5, 0.25) once returned the alpha = 0 value
    with pytest.raises(ValueError, match=r"alpha must have one component per axis \(d = 1\)"):
        ke.laguerre_kernel(cutoff_c, 16, (0.0, 1.0), 0.5, 0.25)
    with pytest.raises(ValueError, match=r"alpha must have one component per axis \(d = 1\)"):
        ke.KernelInstance("laguerre", cutoff_c, 16, {"alpha": (0.0, 1.0), "d": 1})
    x, y = [0.5, 0.2], [0.1, 0.3]
    for params in ({"alpha": (0.0, 1.0)}, {"alpha": (0.0, 1.0), "d": 2}):
        k = ke.KernelInstance("laguerre", cutoff_c, 16, params)
        assert k.params == {"alpha": (0.0, 1.0), "d": 2}
        assert k(x, y) == ke.laguerre_kernel(cutoff_c, 16, (0.0, 1.0), x, y, d=2)
    assert ke.weight_factor("laguerre", 16, x, alpha=(0.0, 1.0)) == k.weight(x)
    with pytest.raises(ValueError, match="points must have dimension 2"):
        ke.weight_factor("laguerre", 4, 0.5, alpha=(0.0, 1.0))
    # the defaults are filled in, and kept, once
    assert ke.KernelInstance("laguerre", cutoff_c, 16).params == {"alpha": 0.0, "d": 1}
    assert ke.KernelInstance("hermite", cutoff_c, 16).params == {"d": 1}


def test_sphere_points_must_have_dimension_d_plus_1(cutoff_c):
    k = ke.KernelInstance("sphere", cutoff_c, 8, {"d": 2})
    for x, y in [(0.5, 0.2), ([1.0, 0.0, 0.0], [0.0, 1.0]), ([1.0, 0.0], [0.0, 1.0]),
                 (np.zeros((4, 3)), np.zeros((4, 2)))]:
        with pytest.raises(ValueError, match=r"points must have dimension d \+ 1 = 3"):
            k(x, y)
        with pytest.raises(ValueError, match=r"points must have dimension d \+ 1 = 3"):
            k.pair_values(x, y)
    # a weight reads the dimension off its points
    assert ke.weight_factor("sphere", 8, np.array([0.0, 0.0, 1.0])) == 1.0


def test_sphere_instance_distance_refuses_points_of_the_wrong_dimension(cutoff_c):
    k = ke.KernelInstance("sphere", cutoff_c, 8, {"d": 2})
    with pytest.raises(ValueError, match=r"points must have dimension d \+ 1 = 3"):
        k.distance(0.5, 0.2)
    assert k.distance([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(np.pi / 2, rel=1e-15)


def test_multivariate_hermite_instance_distance_refuses_scalar_points(cutoff_c):
    k = ke.KernelInstance("hermite", cutoff_c, 8, {"d": 2})
    with pytest.raises(ValueError, match="points must have dimension 2"):
        k.distance(0.5, 0.2)
    assert k.distance([0.5, 0.0], [0.2, 0.1]) == pytest.approx(0.3, rel=1e-15)


def test_ball_instance_weight_refuses_points_of_the_wrong_dimension(cutoff_c):
    k = ke.KernelInstance("ball", cutoff_c, 8, {"mu": 1.0, "d": 2})
    with pytest.raises(ValueError, match="points must have dimension 2"):
        k.weight([0.1, 0.2, 0.3])
    assert k.weight([0.1, 0.2]) == ke.weight_factor("ball", 8, [0.1, 0.2], mu=1.0)


def test_simplex_instance_refuses_points_of_another_dimension_than_kappa_gives(cutoff_c):
    # three scalars once passed as one point of the 3-simplex
    k = ke.KernelInstance("simplex", cutoff_c, 4, {"kappa": (0.5, 0.5)})
    x, y = np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.4, 0.5])
    for evaluate in (lambda: k.distance(x, y), lambda: k.weight(x), lambda: k.pair_values(x, y)):
        with pytest.raises(ValueError, match="points must have dimension 1"):
            evaluate()
    assert k.distance(0.1, 0.3) == k.distance([0.1], [0.3])
    assert k(0.1, 0.3) == k.pair_values(x[:1, None], y[:1, None])[0]


@pytest.mark.parametrize("family, params", [("hermite", {}), ("laguerre", {"alpha": (0.0, 1.0)})])
def test_a_weight_reads_the_dimension_off_its_points(family, params):
    # (3, 2) Hermite points once gave (3, 2) weights, one per coordinate
    x = np.abs(np.random.default_rng(5).standard_normal((3, 2)))
    w = ke.weight_factor(family, 16, x, **params)
    assert w.shape == (3,)
    assert np.array_equal(w, [ke.weight_factor(family, 16, v[None], **params)[0] for v in x])
    assert np.array_equal(w, ke.KernelInstance(family, None, 16, {**params, "d": 2}).weight(x))
    # a scalar is a point of the line, and so is each entry of a 1-d array
    line = {} if family == "hermite" else {"alpha": 0.5}
    assert ke.weight_factor(family, 16, x[:, 0], **line).shape == (3,)
    assert isinstance(ke.weight_factor(family, 16, 0.5, **line), float)


def test_a_weight_of_2_d_laguerre_points_needs_an_alpha_per_axis():
    with pytest.raises(ValueError, match=r"alpha must have one component per axis \(d = 2\)"):
        ke.weight_factor("laguerre", 16, np.ones((3, 2)))


def test_weight_factor_names_missing_parameter():
    with pytest.raises(ValueError, match="alpha"):
        ke.weight_factor("jacobi", 4, 0.3)


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("hermite", {"d": 4}, "supports d in"),
        ("laguerre", {"alpha": 1.0, "d": 2}, "one component per axis"),
        ("sphere", {"d": 1}, "sphere dimension d must be >= 2"),
        ("ball", {"mu": 1.0, "d": 1}, "ball dimension d must be >= 2"),
        ("ball", {"mu": -1.0, "d": 2}, "ball kernel requires mu > 0"),
        ("simplex", {"kappa": (0.5, -1.0)}, "kappa must be a nonnegative vector"),
        ("simplex", {"kappa": (0.5, 0.5, 0.5, 0.5)}, r"simplex kernel supports d in \{1, 2\}"),
        ("jacobi", {"alpha": -2.0, "beta": 0.0}, "alpha, beta > -1"),
        # nan and inf: Laguerre alpha = nan and simplex kappa = (nan, 1/2) once
        # evaluated to nan, and Jacobi alpha = inf raised a RuntimeWarning
        ("jacobi", {"alpha": math.inf, "beta": 0.0}, r"alpha, beta > -1 \(got nan or inf\)"),
        ("jacobi", {"alpha": 0.5, "beta": math.nan}, r"alpha, beta > -1 \(got nan or inf\)"),
        ("laguerre", {"alpha": math.nan}, r"alpha components must be >= 0 \(got nan or inf\)"),
        ("laguerre", {"alpha": (0.5, math.inf), "d": 2}, r"alpha components must be >= 0 \(got nan or inf\)"),
        ("ball", {"mu": math.nan, "d": 2}, r"ball kernel requires mu > 0 \(got nan or inf\)"),
        ("ball", {"mu": math.inf, "d": 2}, r"ball kernel requires mu > 0 \(got nan or inf\)"),
        ("simplex", {"kappa": (math.nan, 0.5)}, r"kappa must be a nonnegative vector .*\(got nan or inf\)"),
        ("simplex", {"kappa": (0.5, 0.5, -math.inf)}, r"kappa must be a nonnegative vector .*\(got nan or inf\)"),
        ("sphere", {"d": math.nan}, r"sphere dimension d must be >= 2 \(got nan or inf\)"),
        ("ball", {"mu": 1.0, "d": math.inf}, r"ball dimension d must be >= 2 \(got nan or inf\)"),
        # alpha = (0, 1) once met numpy's "inhomogeneous shape" error
        ("jacobi", {"alpha": (0.0, 1.0), "beta": 0.0}, r"jacobi parameter alpha must be one number, got \(0\.0, 1\.0\)"),
        ("jacobi", {"alpha": 0.0, "beta": [0.5]}, "jacobi parameter beta must be one number"),
    ],
)
def test_kernel_instance_rejects_parameters_that_do_not_fit(cutoff_c, family, params, message):
    with pytest.raises(ValueError, match=message):
        ke.KernelInstance(family, cutoff_c, 8, params)


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("jacobi", {"alpha": 1e308, "beta": 0.0}, "jacobi parameters alpha, beta must be at most 1e"),
        ("jacobi", {"alpha": 0.5, "beta": 1e65}, "jacobi parameters alpha, beta must be at most 1e"),
        ("ball", {"mu": 1e308, "d": 2}, "ball parameter mu must be at most 1e"),
        ("simplex", {"kappa": (1e308, 0.5)}, "simplex parameters kappa must be at most 1e"),
        ("simplex", {"kappa": (0.5, 0.5, 1e200)}, "simplex parameters kappa must be at most 1e"),
    ],
)
def test_kernel_instance_refuses_parameters_past_the_recurrences_range(cutoff_c, family, params, message):
    # ball mu = 1e308 and simplex kappa = (1e308, 1/2) once raised
    # OverflowError from the Jacobi rule's squared parameters
    with pytest.raises(ValueError, match=message):
        ke.KernelInstance(family, cutoff_c, 8, params)


def test_hermite_distance_refuses_a_gap_past_double_range_without_forming_it():
    # -1.7e308 to 1.7e308 once stopped on "overflow encountered in subtract";
    # the largest gap that rounds to a double is still returned
    top = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ke.distance("hermite", -top / 2, top / 2) == top
        assert ke.distance("hermite", -top, 1e291) == top
        assert ke.distance("laguerre", 0.0, top) == top
        for x, y in [(-1.7e308, 1.7e308), (-top / 2, np.nextafter(top / 2, np.inf)), (-top, 1e292)]:
            with pytest.raises(ValueError, match="farther apart than the largest double"):
                ke.distance("hermite", x, y)
        with pytest.raises(ValueError, match="farther apart than the largest double"):
            ke.distance("hermite", np.array([[0.0, -1.7e308], [1.0, 2.0]]), np.array([[0.0, 1.7e308], [0.0, 0.0]]))


@pytest.mark.parametrize("far", [1e160, 1e300, 1.7e308])
@pytest.mark.parametrize(
    "family, params",
    [("hermite", {}), ("hermite", {"d": 2}), ("laguerre", {}), ("laguerre", {"alpha": (0.0, 1.0), "d": 2})],
    ids=["hermite-1", "hermite-2", "laguerre-1", "laguerre-2"],
)
def test_far_hermite_and_laguerre_points_read_zero(cutoff_c, family, params, far):
    # Laguerre once read nan there (the square overflowed to inf, then
    # inf * 0), and Hermite raised an overflow warning; every row lies below
    # double range, and the other points keep their bits
    k = ke.KernelInstance(family, cutoff_c, 16, params)
    x = np.array([far, 0.5, 2.0]) if params.get("d", 1) == 1 else np.array([[far, 0.5], [0.5, 0.5], [2.0, 1.0]])
    y = np.full(x.shape, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = k.pair_values(x, y)
    assert values[0] == 0.0
    assert np.array_equal(values[1:], k.pair_values(x[1:], y[1:]))


@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(lambda cut: ke.jacobi_Q(cut, 8, -2.0, 0.0, 0.3), id="Q-alpha"),
        pytest.param(lambda cut: ke.jacobi_Q(cut, 8, 0.0, -1.5, 0.3), id="Q-beta"),
        pytest.param(lambda cut: ke.summation_by_parts_coefficients(cut, 8, -1.0, 0.0, 1), id="ladder"),
        pytest.param(lambda cut: ke.verify_summation_by_parts(cut, 8, -1.0, 0.0, 1, 0.3), id="verify"),
    ],
)
def test_jacobi_boundary_kernels_reject_parameters_that_do_not_fit(cutoff_c, evaluate):
    # these read nan, or 2.43 for a weight that cannot be integrated
    with pytest.raises(ValueError, match="alpha, beta > -1"):
        evaluate(cutoff_c)


# each family's parameters, a point inside its domain, a point on its
# boundary, the direction leaving the domain there, and its message
_DOMAINS = {
    "chebyshev": ({}, 0.2, 1.0, 1.0, r"points must lie in \[-1, 1\]"),
    "jacobi": ({"alpha": 0.5, "beta": 0.5}, 0.2, 1.0, 1.0, r"points must lie in \[-1, 1\]"),
    "sphere": ({"d": 2}, (0.0, 0.6, 0.8), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), "points must lie on the unit sphere"),
    "ball": ({"mu": 1.0, "d": 2}, (0.1, 0.2), (0.6, 0.8), (0.6, 0.8), "points must lie in the closed unit ball"),
    "simplex": ({"kappa": (0.5, 0.5, 0.5)}, (0.1, 0.2), (0.0, 0.5), (-1.0, 0.0), "points must lie in the simplex"),
    "laguerre": ({"alpha": 1.0}, 2.0, 0.0, -1.0, "points must be nonnegative"),
}


@pytest.mark.parametrize("family", list(_DOMAINS))
def test_every_evaluation_of_a_family_accepts_and_refuses_the_same_points(cutoff_c, family):
    # one round-off rule: 1e-13 outside the domain is accepted, 1e-3, nan and
    # inf refused, by the kernel, the instance's distance and weight and
    # weight_factor alike (a Laguerre point at inf once read an inf distance)
    params, inside, edge, out, message = _DOMAINS[family]
    inside, edge, out = (np.asarray(v, dtype=float) for v in (inside, edge, out))
    k = ke.KernelInstance(family, cutoff_c, 4, params)
    given = {key: v for key, v in params.items() if key != "d"}
    evaluations = [
        lambda x: k(x, inside),
        lambda x: k.pair_values(x[None], inside[None]),
        lambda x: k.distance(x, inside),
        k.weight,
        lambda x: ke.weight_factor(family, 4, x, **given),
    ]
    for evaluate in evaluations:
        for x in (inside, edge + 1e-13 * out):
            assert np.all(np.isfinite(evaluate(x)))
        for x in (edge + 1e-3 * out, *(np.full_like(edge, v) for v in (np.nan, np.inf, -np.inf))):
            with pytest.raises(ValueError, match=message):
                evaluate(x)
    if family in ("chebyshev", "jacobi"):
        # round-off is clipped onto the interval: the value at the end
        assert k(edge + 1e-13, inside) == k(edge, inside)


@pytest.mark.parametrize(
    "family, params, inside",
    [("trig", {}, 0.2), ("hermite", {}, 0.2), ("hermite", {"d": 2}, (0.2, -0.1))],
    ids=["trig", "hermite", "hermite-d2"],
)
def test_every_evaluation_of_an_edgeless_family_refuses_non_finite_points(cutoff_c, family, params, inside):
    # nan and inf points once reached the recurrences: nan values, or a
    # RuntimeWarning at inf
    inside = np.asarray(inside, dtype=float)
    k = ke.KernelInstance(family, cutoff_c, 4, params)
    evaluations = [
        lambda x: k(x, inside),
        lambda x: k(inside, x),
        lambda x: k.pair_values(x[None], inside[None]),
        lambda x: k.distance(x, inside),
        k.weight,
        lambda x: ke.weight_factor(family, 4, x),
    ]
    for evaluate in evaluations:
        assert np.all(np.isfinite(evaluate(inside)))
        for v in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"points must be finite \(got nan or inf\)"):
                evaluate(np.full_like(inside, v))


def test_kernel_instance_dispatch(cutoff_c, rng):
    cases = [
        ("chebyshev", {}, 0.2, -0.4),
        ("jacobi", {"alpha": 1.0, "beta": 0.0}, 0.2, -0.4),
        ("hermite", {"d": 1}, 0.7, -0.3),
        ("laguerre", {"alpha": 0.0, "d": 1}, 0.7, 0.3),
    ]
    for family, params, x, y in cases:
        k = ke.KernelInstance(family, cutoff_c, 8, params)
        assert k(x, y) == pytest.approx(k(y, x) if family != "laguerre" else k(y, x))
        assert np.isfinite(k(x, y))
    trig = ke.KernelInstance("trig", cutoff_c, 8)
    assert trig(0.7, 0.2) == pytest.approx(
        ke.trig_kernel(cutoff_c, 8, 0.5), rel=1e-12
    )
    sph = ke.KernelInstance("sphere", cutoff_c, 8, {"d": 2})
    u = np.array([0.0, 0.0, 1.0])
    v = np.array([0.0, 1.0, 0.0])
    assert sph(u, v) == pytest.approx(ke.sphere_kernel(cutoff_c, 8, 2, 0.0), rel=1e-12)
    with pytest.raises(ValueError):
        ke.KernelInstance("fourier", cutoff_c, 8)
    # one body per family: an instance's pair values are its family's public
    # kernel function's, bit for bit, and its sampler returns one triple
    gen = np.random.default_rng(11)
    sphere_points = gen.standard_normal((2, 40, 3))
    sphere_points /= np.linalg.norm(sphere_points, axis=-1, keepdims=True)
    disk = gen.uniform(-0.7, 0.7, (2, 40, 2))
    cases = [
        ("chebyshev", {}, gen.uniform(-1, 1, (2, 40)), lambda x, y: ke.chebyshev_kernel(cutoff_c, 8, x, y)),
        ("jacobi", {"alpha": 1.0, "beta": -0.5}, gen.uniform(-1, 1, (2, 40)),
         lambda x, y: ke.jacobi_kernel(cutoff_c, 8, 1.0, -0.5, x, y)),
        ("hermite", {}, gen.uniform(-6, 6, (2, 40)), lambda x, y: ke.hermite_kernel(cutoff_c, 8, x, y)),
        ("hermite", {"d": 2}, gen.uniform(-6, 6, (2, 40, 2)), lambda x, y: ke.hermite_kernel(cutoff_c, 8, x, y, d=2)),
        ("laguerre", {"alpha": 1.0}, gen.uniform(0, 12, (2, 40)),
         lambda x, y: ke.laguerre_kernel(cutoff_c, 8, 1.0, x, y)),
        ("laguerre", {"alpha": (0.0, 1.0)}, gen.uniform(0, 12, (2, 40, 2)),
         lambda x, y: ke.laguerre_kernel(cutoff_c, 8, (0.0, 1.0), x, y, d=2)),
        ("trig", {}, gen.uniform(-np.pi, np.pi, (2, 40)), lambda x, y: ke.trig_kernel(cutoff_c, 8, x - y)),
        ("sphere", {"d": 2}, sphere_points,
         lambda x, y: ke.sphere_kernel(cutoff_c, 8, 2, np.clip(ke._inner(x, y), -1.0, 1.0))),
        ("ball", {"mu": 1.5, "d": 2}, disk, lambda x, y: ke.ball_kernel(cutoff_c, 8, 1.5, 2, x, y)),
        ("simplex", {"kappa": (0.5, 1.0)}, gen.uniform(0, 1, (2, 40, 1)),
         lambda x, y: ke.simplex_kernel(cutoff_c, 8, (0.5, 1.0), x, y)),
        ("simplex", {"kappa": (0.5, 1.0, 0.5)}, 0.5 * gen.uniform(0, 1, (2, 40, 2)),
         lambda x, y: ke.simplex_kernel(cutoff_c, 8, (0.5, 1.0, 0.5), x, y)),
        *(
            (variant, {}, gen.uniform(-1, 1, (2, 40, 2)), partial(ke.tensor2d_kernel, cutoff_c, 8, variant))
            for variant in ke.TENSOR_VARIANTS
        ),
    ]
    assert {family for family, *_ in cases} == {name for name, spec in ke.FAMILIES.items() if spec.values}
    for family, params, (xs, ys), public in cases:
        k = ke.KernelInstance(family, cutoff_c, 8, params)
        assert np.array_equal(k.pair_values(xs, ys), public(xs, ys)), family
        if k.params.get("d", 1) == 1 or family in ("sphere", "ball"):
            sampled = ke.FAMILIES[family].sample(k, np.array([0.0, 0.1, 0.4]), 8, 42)
            assert isinstance(sampled, tuple) and len(sampled) == 3, family


def test_kernel_instance_descriptor_and_json(cutoff_c):
    k = ke.KernelInstance("jacobi", cutoff_c, 8, {"alpha": 1.0, "beta": 0.5})
    desc = json.loads(k.to_json())
    assert desc["family"] == "jacobi" and desc["n"] == 8
    assert desc["alpha"] == 1.0 and desc["cutoff"]["kind"] == "c"


def test_export_grid(tmp_path, cutoff_c):
    k = ke.KernelInstance("chebyshev", cutoff_c, 8)
    xs = np.array([0.1, 0.5, -0.3])
    ys = np.array([0.2, 0.4, -0.2])
    path = tmp_path / "grid.csv"
    ke.export_grid(k, xs, ys, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,y0,rho,value"
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[2] == pytest.approx(ke.distance("interval", 0.1, 0.2))
    # one pair_values call for all rows gives each pair's own value; a
    # one-coordinate simplex point stays a point, not an array of them
    assert [float(line.split(",")[-1]) for line in lines[1:]] == [k(x, y) for x, y in zip(xs, ys)]
    for family, params, xs, ys in (
        ("ball", {"mu": 1.0, "d": 2}, [[0.1, 0.2], [-0.5, 0.3]], [[0.0, 0.4], [0.2, 0.2]]),
        ("simplex", {"kappa": (0.5, 0.5)}, [[0.3], [0.8]], [[0.6], [0.1]]),
    ):
        k = ke.KernelInstance(family, cutoff_c, 4, params)
        ke.export_grid(k, xs, ys, path)
        rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
        for row, x, y in zip(rows, xs, ys):
            assert row[-2] == k.distance(np.array(x), np.array(y))
            assert row[-1] == pytest.approx(k(np.array(x), np.array(y)), rel=1e-13)


# ---------------------------------------------------------------------------
# streamed contraction against the full degree x pair tables


def _table_pair_values(k, x, y):
    """Kernel values over pairs by one (degree, pair) table per point set and
    one tensordot, the formulas the streamed contraction replaces."""
    band = ke.cutoff_band(k.cutoff, k.n)
    top, j, p = len(band) - 1, np.arange(len(band), dtype=float), k.params
    if k.family == "chebyshev":
        ct, cp = (np.cos(np.multiply.outer(j[1:], np.arccos(t))) for t in (x, y))
        return band[0] / np.pi + (2.0 / np.pi) * np.tensordot(band[1:], ct * cp, axes=(0, 0))
    if k.family == "jacobi":
        a, b = p["alpha"], p["beta"]
        h = op.jacobi_norms(op.JacobiParams(a, b), top)
        table = op._jacobi_values(a, b, top, x) * op._jacobi_values(a, b, top, y)
        return np.tensordot(band / h, table, axes=(0, 0))
    if k.family == "hermite":
        table = op._hermite_fn_values(top, x) * op._hermite_fn_values(top, y)
        return np.tensordot(band, table, axes=(0, 0))
    if k.family == "laguerre":
        a = p["alpha"]
        table = op._laguerre_fn_values(a, top, x) * op._laguerre_fn_values(a, top, y)
        return np.tensordot(band, table, axes=(0, 0))
    if k.family == "sphere":
        lam = (p["d"] - 1) / 2.0
        area = 2.0 * np.pi ** ((p["d"] + 1) / 2.0) / math.gamma((p["d"] + 1) / 2.0)
        table = op.gegenbauer_all(lam, top, np.clip(ke._inner(x, y), -1, 1)).values
        return np.tensordot(band * (j + lam) / (lam * area), table, axes=(0, 0))
    # ball: the auxiliary Gauss-Jacobi integral over one Gegenbauer table
    mu, lam = p["mu"], p["mu"] + (p["d"] - 1) / 2.0
    rule = qd.gauss_rule("jacobi", -(-len(band) // 2), alpha=mu - 1.0, beta=mu - 1.0)
    rxy = ke._hemisphere_height(x) * ke._hemisphere_height(y)
    arg = np.clip(np.sum(x * y, axis=-1)[:, None] + rxy[:, None] * rule.nodes, -1.0, 1.0)
    table = op.gegenbauer_all(lam, top, arg).values
    return np.tensordot(band * (j + lam) / lam, table, axes=(0, 0)) @ (rule.weights / rule.weights.sum())


def _property_pairs(family, d, u):
    """Pairs of the family's points from draws u in [0, 1]^2, with the
    boundary pairs and a diagonal pair (the kernel's scale) appended."""
    u = np.array(u, dtype=float).reshape(-1, 2)
    if family in ("chebyshev", "jacobi"):
        pts = np.vstack([2.0 * u - 1.0, [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [0.0, 0.0]]])
        return pts[:, 0], pts[:, 1]
    if family == "hermite":
        # |t| > 37.3 puts the seed exp(-t^2/2) below 2^-1000: the exponent path
        pts = np.vstack([120.0 * u - 60.0, [[40.0, 40.5], [-45.0, -45.0], [0.0, 0.0]]])
        return pts[:, 0], pts[:, 1]
    if family == "laguerre":
        pts = np.vstack([60.0 * u, [[40.0, 40.5], [0.0, 0.0], [1.0, 1.0]]])
        return pts[:, 0], pts[:, 1]
    if family == "sphere":
        # the pole against points at angle pi u0, both ends included
        phi = np.pi * np.append(u[:, 0], [0.0, 1.0])
        xs = np.zeros((len(phi), d + 1))
        xs[:, 0] = 1.0
        ys = np.zeros_like(xs)
        ys[:, 0], ys[:, 1] = np.cos(phi), np.sin(phi)
        return xs, ys
    # ball: radius and angle from the draws, the boundary and the center appended
    def disk(r, t):
        out = np.zeros((len(r), d))
        out[:, 0], out[:, 1] = r * np.cos(2 * np.pi * t), r * np.sin(2 * np.pi * t)
        return out

    xs = np.vstack([disk(u[:, 0], u[:, 1]), disk(np.ones(2), np.array([0.0, 0.5])), np.zeros((1, d))])
    ys = np.vstack([disk(u[:, 1], u[:, 0]), disk(np.ones(2), np.zeros(2)), np.zeros((1, d))])
    return xs, ys


@pytest.mark.parametrize("family", ["chebyshev", "jacobi", "hermite", "laguerre", "sphere", "ball"])
@settings(max_examples=20, deadline=None, derandomize=True)
@example(n=256, a=3.5, b=-0.9, d=3, u=[0.999, 0.001, 0.5, 0.25])
@given(
    n=st.integers(1, 256),
    a=st.floats(-0.99, 4.0),
    b=st.floats(-0.99, 4.0),
    d=st.sampled_from([2, 3]),
    u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12).filter(lambda v: len(v) % 2 == 0),
)
def test_streamed_pair_values_match_the_table_formulas(cutoff_c, family, n, a, b, d, u):
    params = {
        "chebyshev": {},
        "jacobi": {"alpha": a, "beta": b},
        "hermite": {"d": 1},
        "laguerre": {"alpha": abs(a), "d": 1},
        "sphere": {"d": d},
        "ball": {"mu": a + 1.0, "d": d},
    }[family]
    k = ke.KernelInstance(family, cutoff_c, n, params)
    xs, ys = _property_pairs(family, d, u)
    vals = k.pair_values(xs, ys)
    ref = _table_pair_values(k, xs, ys)
    assert vals.shape == ref.shape == (len(xs),)
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref).max())
    one = k(xs[0], ys[0])
    assert isinstance(one, float) and abs(one - vals[0]) <= 1e-12 * np.abs(ref).max()


def test_streamed_series_sums_match_the_table_formulas(cutoff_a):
    # the one-argument sum of the trigonometric kernel; a type-a band weights
    # degree 0
    theta = np.linspace(-7.0, 7.0, 41)
    band = ke.cutoff_band(cutoff_a, 64)
    j = np.arange(len(band), dtype=float)
    w = band.copy()
    w[0] *= 0.5
    ref = np.tensordot(w, np.cos(np.multiply.outer(j, theta)), axes=(0, 0))
    assert np.all(np.abs(ke.trig_kernel(cutoff_a, 64, theta) - ref) <= 1e-12 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# streamed series in point blocks
#
# Every step of a row source is elementwise in the points, so a value keeps
# its bits whichever block of ``_SERIES_BLOCK`` points it falls in.  A block
# of 7 points holds 3 pairs, so these cases span several blocks and end on a
# short one; the far Hermite and Laguerre points (seeds below 2^-1000) sit in
# the middle blocks only, so the exponent path is on in them and off in the
# blocks beside them.


def _block_points(gen, lo, hi, far=()):
    x = gen.uniform(lo, hi, 23)
    x[9 : 9 + len(far)] = far
    return x


_BLOCKED_PAIR_KERNELS = {
    "chebyshev": (lambda cut, x, y: ke.chebyshev_kernel(cut, 16, x, y), (-1.0, 1.0), ()),
    "jacobi": (lambda cut, x, y: ke.jacobi_kernel(cut, 16, 1.5, -0.5, x, y), (-1.0, 1.0), ()),
    "hermite": (lambda cut, x, y: ke.hermite_kernel(cut, 512, x, y), (-6.0, 6.0), (41.0, -43.5, 44.0)),
    "laguerre": (lambda cut, x, y: ke.laguerre_kernel(cut, 512, 1.0, x, y), (0.0, 6.0), (40.0, 42.5, 44.0)),
}


@pytest.mark.parametrize("family", sorted(_BLOCKED_PAIR_KERNELS))
def test_series_pair_values_keep_their_bits_in_any_block(cutoff_c, family, monkeypatch):
    evaluate, (lo, hi), far = _BLOCKED_PAIR_KERNELS[family]
    gen = np.random.default_rng(17)
    x, y = _block_points(gen, lo, hi, far), _block_points(gen, lo, hi, far[::-1])
    one_block = evaluate(cutoff_c, x, y)
    grid = evaluate(cutoff_c, x[:5, None], y[None, :7])
    if far:
        # the far pairs are not all underflowed: their rows carry exponents
        assert np.all(one_block[9 : 9 + len(far)] != 0.0)
    monkeypatch.setattr(ke, "_SERIES_BLOCK", 7)
    assert np.array_equal(evaluate(cutoff_c, x, y), one_block)
    # broadcast pairs keep their shape across blocks
    assert np.array_equal(evaluate(cutoff_c, x[:5, None], y[None, :7]), grid)


_BLOCK_CASES = {
    # family: (params, its row source, the points' interval, points every
    # block holds: the interval's ends, an inner point and, unweighted only,
    # far points that read 0)
    "chebyshev": ({}, "_chebyshev_rows", (-1.0, 1.0), (-1.0, 1.0, 0.3), ()),
    "jacobi": ({"alpha": 2.0, "beta": 0.5}, "_jacobi_rows", (-1.0, 1.0), (-1.0, 1.0, -0.6), ()),
    "hermite": ({"d": 1}, "_hermite_rows", (-44.0, 44.0), (-44.0, 44.0, 41.0), (2.0**512, -(2.0**600))),
    "laguerre": ({"alpha": 1.0}, "_laguerre_rows", (0.0, 44.0), (0.0, 44.0, 40.0), (1e160,)),
}


@pytest.mark.parametrize("family", sorted(_BLOCK_CASES))
def test_block_series_recurs_each_point_once(cutoff_c, family, monkeypatch):
    # a one-row block, one point against 2^14 + 37: one recurrence over the
    # point and the others, each side padded to whole tiles, every pair with
    # the value of the pair path within round-off of the block's largest term
    params, name, (lo, hi), shared, far = _BLOCK_CASES[family]
    k = ke.KernelInstance(family, cutoff_c, 16, params)
    others = np.random.default_rng(19).uniform(lo, hi, 2**14 + 37)
    others[:2] = lo, hi
    rows, points = getattr(op, name), []
    # a row source's points come second to last: rows(*params, top, x, consume)
    monkeypatch.setattr(op, name, lambda *args: points.append(len(args[-2])) or rows(*args))
    tiles = ke._TILE * (1 + -(-len(others) // ke._TILE))
    for point in shared + far:
        one = np.array([[point]])
        weightings = (False,) if point in far else (False, True)
        for x, y in ((one, others[None]), (others[:, None], one)):
            for weighted in weightings:
                points.clear()
                vals = de._pair_magnitudes(k, x, y, weighted)
                assert points == [tiles] and vals.shape == np.broadcast_shapes(x.shape, y.shape)
                pair = de._pair_magnitudes(k, *(v.ravel() for v in np.broadcast_arrays(x, y)), weighted)
                assert np.all(np.abs(vals.ravel() - pair) <= 1e-13 * np.abs(pair).max())
                assert point not in far or np.all(vals == 0.0)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("family", sorted(_BLOCK_CASES))
def test_a_block_pair_keeps_its_bits_at_any_position_and_fill(cutoff_c, family, n, monkeypatch):
    # 24 pairs, the interval's ends and far points among them, each met in
    # blocks of other shapes, fills and positions: once in a block of its own,
    # in 16 x 16 and 17 x 33 blocks of random points at random positions,
    # and in blocks split into groups of one block each; the rows with a
    # nonzero coefficient span 2, 3 and 6 chunks
    params, _, (lo, hi), shared, far = _BLOCK_CASES[family]
    k = ke.KernelInstance(family, cutoff_c, n, params)
    assert len(np.flatnonzero(ke.cutoff_band(cutoff_c, n))) > ke._CHUNK * (n // 16)
    gen = np.random.default_rng(n)
    xs, ys = gen.uniform(lo, hi, (2, 24))
    xs[: len(shared + far)], ys[-len(shared + far) :] = shared + far, shared + far
    alone = np.array([k.pair_values(x[None, None, None], y[None, None, None]).item() for x, y in zip(xs, ys)])
    assert not np.all(alone == 0.0)
    for shape in ((16, 16), (17, 33)):
        for trial in range(3):
            bx, by = gen.uniform(lo, hi, (5,) + shape[:1]), gen.uniform(lo, hi, (5,) + shape[1:])
            # each pair on a row and a column of its cell of its own
            cell, i = np.divmod(gen.choice(5 * shape[0], 24, replace=False), shape[0])
            cols = [gen.permutation(shape[1]) for _ in range(5)]
            j = np.array([cols[c][np.sum(cell[:p] == c)] for p, c in enumerate(cell)])
            bx[cell, i], by[cell, j] = xs, ys
            vals = k.pair_values(bx[..., None], by[:, None])
            assert np.array_equal(vals[cell, i, j], alone)
            monkeypatch.setattr(ke, "_SERIES_BLOCK", 7)
            assert np.array_equal(k.pair_values(bx[..., None], by[:, None]), vals)
            monkeypatch.undo()


_BLOCKED_SUMS = {
    "chebyshev": (lambda cut, x: ke.trig_kernel(cut, 16, np.arccos(x)), (-1.0, 1.0), ()),
    "jacobi": (lambda cut, x: ke.jacobi_Q(cut, 16, 1.5, -0.5, x), (-1.0, 1.0), ()),
    "hermite": (
        lambda cut, x: ke._series(op._hermite_rows, ke.cutoff_band(cut, 512), x), (-6.0, 6.0), (41.0, -43.5, 44.0)
    ),
    "laguerre": (
        lambda cut, x: ke._series(partial(op._laguerre_rows, 1.0), ke.cutoff_band(cut, 512), x),
        (0.0, 36.0), (1700.0, 1800.0, 1900.0),
    ),
    "ball": (
        lambda cut, x: ke.ball_kernel(cut, 8, 1.0, 2, x[:20].reshape(10, 2), x[::-1][:20].reshape(10, 2)),
        (-0.7, 0.7), (),
    ),
}


@pytest.mark.parametrize("family", sorted(_BLOCKED_SUMS))
def test_series_sums_keep_their_bits_in_any_block(cutoff_c, family, monkeypatch):
    # the one-argument form; the ball runs its 10 pairs x 8 nodes of
    # Gegenbauer arguments through it
    evaluate, (lo, hi), far = _BLOCKED_SUMS[family]
    x = _block_points(np.random.default_rng(18), lo, hi, far)
    one_block = evaluate(cutoff_c, x)
    if far:
        assert np.all(one_block[9 : 9 + len(far)] != 0.0)
    monkeypatch.setattr(ke, "_SERIES_BLOCK", 7)
    assert np.array_equal(evaluate(cutoff_c, x), one_block)


def test_series_over_more_than_one_block_matches_its_halves(cutoff_c):
    # 2^15 + 1000 pairs span three blocks of 2^14 pairs, each half two; the
    # far Hermite points sit in the first block only
    x = np.linspace(-45.0, 5.0, 2**15 + 1000)
    y = np.linspace(-3.0, 3.0, len(x))[::-1]
    vals = ke.hermite_kernel(cutoff_c, 8, x, y)
    half = len(x) // 2
    halves = [ke.hermite_kernel(cutoff_c, 8, x[s], y[s]) for s in (slice(None, half), slice(half, None))]
    assert len(x) > 2 * (ke._SERIES_BLOCK // 2)
    assert np.array_equal(vals, np.concatenate(halves))

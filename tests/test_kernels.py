import json
import math
import warnings

import numpy as np
import pytest
from conftest import reproducing_defect
from scipy.integrate import quad

from orthoframes import cutoff as co
from orthoframes import kernels as ke
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
            acc += 0.25 * float(ke._gegenbauer_sum_even(band, 0.0, np.array([z]))[0])
    assert val == pytest.approx(acc, rel=1e-12)


def _ball_at_order(cut, n, mu, d, x, y, m):
    # one pair, one m-node auxiliary rule
    band = ke.cutoff_band(cut, n)
    rule = qd.gauss_rule("jacobi", m, alpha=mu - 1.0, beta=mu - 1.0)
    rxy = math.sqrt(1.0 - x @ x) * math.sqrt(1.0 - y @ y)
    arg = np.clip(x @ y + rule.nodes * rxy, -1.0, 1.0)
    vals = ke._gegenbauer_sum(band, mu + (d - 1) / 2.0, arg)
    return float(rule.weights @ vals / rule.weights.sum())


def _simplex_at_order(cut, n, kappa, x, y, m):
    # one pair, an m-node rule on every axis of the tensor grid
    band = ke.cutoff_band(cut, n)
    root = np.sqrt(np.append(x, 1.0 - x.sum()) * np.append(y, 1.0 - y.sum()))
    axes = [ke._axis_rule(k, m) for k in kappa]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgt = np.prod(np.meshgrid(*[a[1] for a in axes], indexing="ij"), axis=0)
    z = np.clip(sum(r * g for r, g in zip(root, grids)), -1.0, 1.0)
    lam = sum(kappa) + (len(x) - 1) / 2.0
    return float(np.sum(wgt * ke._gegenbauer_sum_even(band, lam, z)))


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
    "kappa", [(0.5, 0.5), (0.0, 1.0), (0.5, 0.25, 1.0), (0.0, 0.5, 0.5)]
)
def test_simplex_exact_order_matches_doubled_order(cutoff_c, kappa, n):
    # degree 2(2n - 1) per axis, so len(band) nodes per axis are exact
    d = len(kappa) - 1
    pts = np.random.default_rng(11).dirichlet(np.ones(d + 1), 7)[:, :d]
    x, y = pts[:4], pts[3:]
    vals = ke.simplex_kernel(cutoff_c, n, kappa, x, y)
    m = len(ke.cutoff_band(cutoff_c, n))
    ref = np.array([_simplex_at_order(cutoff_c, n, kappa, a, b, 2 * m) for a, b in zip(x, y)])
    # relative to the diagonal pair (x[3] == y[0]), the size of the summands
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref).max())


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
    assert ke.distance("sphere", v, v) == pytest.approx(0.0, abs=3e-8)
    assert ke.distance("ball", np.zeros(2), np.zeros(2)) == pytest.approx(0.0, abs=3e-8)
    x = np.array([0.2, 0.3])
    assert ke.distance("simplex", x, x) == pytest.approx(0.0, abs=3e-8)


def test_distance_clamps_roundoff_but_rejects_violations():
    assert ke.distance("interval", 1.0 + 5e-13, -1.0) == pytest.approx(np.pi)
    with pytest.raises(ValueError):
        ke.distance("interval", 1.001, 0.0)


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

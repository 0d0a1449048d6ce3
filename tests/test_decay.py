import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import broadcast_pairs

from orthoframes import cutoff as co
from orthoframes import decay as de
from orthoframes import kernels as ke


@pytest.fixture(scope="module")
def cheb_env_128(cutoff_a):
    kernel = ke.KernelInstance("chebyshev", cutoff_a, 128)
    return de.measure_envelope(kernel, de.SamplingPlan())


def test_plan_preconditions():
    with pytest.raises(ValueError):
        de.SamplingPlan(n_bins=10).validate()
    with pytest.raises(ValueError):
        de.SamplingPlan(pairs_per_bin=50).validate()
    de.SamplingPlan(seed=np.int64(0)).validate()


@pytest.mark.parametrize("family, params", [("chebyshev", {}), ("ball", {"d": 2, "mu": 1.0})])
@pytest.mark.parametrize("seed", [-3, 1.5])
def test_plan_rejects_seeds_that_are_not_nonnegative_integers(cutoff_a, family, params, seed):
    kernel = ke.KernelInstance(family, cutoff_a, 4, params)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        de.measure_envelope(kernel, de.SamplingPlan(seed=seed))


def test_envelope_nonnegative_and_shapes(cheb_env_128):
    assert np.all(cheb_env_128.values >= 0)
    assert np.all(np.diff(cheb_env_128.rho) > 0)
    assert len(cheb_env_128.rho) == 48


def test_envelope_diagonal_magnitude(cutoff_a):
    # diagonal bin carries the kernel peak, which scales like n
    for n in (16, 64, 128):
        kernel = ke.KernelInstance("chebyshev", cutoff_a, n)
        env = de.measure_envelope(kernel, de.SamplingPlan())
        peak = env.values[0]
        assert n / np.pi <= peak <= 3 * n


def test_envelope_deterministic(cutoff_a):
    kernel = ke.KernelInstance("chebyshev", cutoff_a, 32)
    e1 = de.measure_envelope(kernel, de.SamplingPlan(seed=5))
    e2 = de.measure_envelope(kernel, de.SamplingPlan(seed=5))
    assert np.array_equal(e1.values, e2.values)
    e3 = de.measure_envelope(kernel, de.SamplingPlan(seed=6))
    assert not np.array_equal(e1.values, e3.values)


def test_envelope_refinement_only_raises_maxima(cutoff_a, cutoff_c):
    # nested sampling sequences: doubling the pair budget keeps every old
    # pair, so bin maxima can only move upward; on the bins that carry the
    # envelope (within six decades of the peak) the move stays under 5%
    for cut in (cutoff_a, cutoff_c):
        kernel = ke.KernelInstance("chebyshev", cut, 128)
        base = de.measure_envelope(kernel, de.SamplingPlan(pairs_per_bin=256))
        fine = de.measure_envelope(kernel, de.SamplingPlan(pairs_per_bin=512))
        assert np.all(fine.values >= base.values)
        grow = (fine.values - base.values) / np.maximum(base.values, 1e-300)
        significant = fine.values >= 1e-6 * fine.values.max()
        assert grow[significant].max() < 0.05


def test_envelope_refinement_monotone_other_families(cutoff_c):
    cases = [
        ("jacobi", {"alpha": 0.0, "beta": 0.0}),
        ("hermite", {"d": 1}),
        ("laguerre", {"alpha": 0.0, "d": 1}),
    ]
    for family, params in cases:
        kernel = ke.KernelInstance(family, cutoff_c, 128, params)
        base = de.measure_envelope(kernel, de.SamplingPlan(pairs_per_bin=256))
        fine = de.measure_envelope(kernel, de.SamplingPlan(pairs_per_bin=512))
        assert np.all(fine.values >= base.values)
        grow = (fine.values - base.values) / np.maximum(base.values, 1e-300)
        significant = fine.values >= 1e-6 * fine.values.max()
        assert grow[significant].max() < 0.15


def test_fit_zero_envelope():
    env = de.DecayEnvelope("chebyshev", 8, np.linspace(0, 3, 40), np.zeros(40), False, 8.0, 8.0)
    fit = de.fit_bound(env, de.SubExponential(1.0))
    assert fit.satisfied and fit.c == 0.0
    pfit = de.fit_bound(env, de.Polynomial(4.0))
    assert pfit.c == 0.0


def test_fit_declares_unsatisfied_rates():
    # a flat envelope at scale 1e6 admits rates up to about 1.7e-4 only,
    # below the smallest rate a fit reports
    rho = np.linspace(0, 3, 40)
    env = de.DecayEnvelope("chebyshev", 64, rho, np.full(40, 64.0), False, 1e6, 64.0)
    fit = de.fit_bound(env, de.SubExponential(1.0))
    assert not fit.satisfied
    assert fit.violations > 0


def test_log_product_at_depth_one_is_the_closed_form():
    # the general loop at depth 1 gives log(e + u)^(1 + eps) bit for bit,
    # at the ends of the range too
    u = np.concatenate([[0.0, 1e-300, 1e300, np.inf], np.geomspace(1e-12, 1e12, 100_000),
                        np.linspace(0.0, 1000.0, 1000)])
    for eps in (1.0, 0.5, 0.25, 0.1, 0.01, 2.0):
        closed = np.log(np.e + u) ** (1.0 + eps)
        assert np.array_equal(de._log_product(u, eps, 1), closed)
        assert de._log_product(u[5], eps, 1) == closed[5]


def _log_c(env, form, rate):
    u = env.scale * env.rho
    phi = u / de._log_product(u, form.epsilon, form.log_depth)
    with np.errstate(divide="ignore"):
        logm = np.log(env.values)
    return float(np.max(logm + rate * phi) - math.log(env.prefactor))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    logs=st.lists(st.floats(-40.0, 10.0), min_size=2, max_size=48),
    empty=st.lists(st.booleans(), min_size=48, max_size=48),
    scale=st.floats(1e-2, 1e7),
    prefactor=st.floats(1e-3, 1e3),
    epsilon=st.sampled_from([0.5, 1.0, 2.0]),
    log_depth=st.sampled_from([1, 2]),
)
def test_subexponential_rate_is_the_largest_within_the_cap(
    logs, empty, scale, prefactor, epsilon, log_depth
):
    # random envelopes, some bins empty: log c at the returned rate stays
    # within 10 times the diagonal constant, and a rate 1e-9 larger breaks it
    k = len(logs)
    values = np.where(empty[:k], 0.0, np.exp(logs))
    values[0] = max(values[0], 1e-3)
    rho = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, k - 1)])
    env = de.DecayEnvelope("chebyshev", 8, rho, values, False, scale, prefactor)
    form = de.SubExponential(epsilon, log_depth)
    fit = de.fit_bound(env, form)
    log_cap = math.log(values.max()) - math.log(prefactor) + math.log(10.0)
    if not fit.satisfied:
        assert fit.c_rate == 1e-3 and fit.violations > 0
        assert _log_c(env, form, 1e-3) > log_cap
        return
    assert 1e-3 <= fit.c_rate <= 20.0 and fit.violations == 0
    assert _log_c(env, form, fit.c_rate) <= log_cap + 1e-12 * max(1.0, abs(log_cap))
    assert math.log(fit.c) == pytest.approx(_log_c(env, form, fit.c_rate), abs=1e-12)
    if fit.c_rate < 20.0:
        assert _log_c(env, form, fit.c_rate * (1.0 + 1e-9)) > log_cap


def test_polynomial_fit_stability(cutoff_a):
    cs = []
    for n in (64, 128, 256):
        kernel = ke.KernelInstance("chebyshev", cutoff_a, n)
        env = de.measure_envelope(kernel, de.SamplingPlan())
        cs.append(de.fit_bound(env, de.Polynomial(4.0)).c)
    assert max(cs) / min(cs) < 3.0


def test_subexponential_fit_constants_stable(cutoff_c):
    cases = [
        ("chebyshev", {}, False),
        ("jacobi", {"alpha": 0.0, "beta": 0.0}, True),
        ("hermite", {"d": 1}, False),
        ("laguerre", {"alpha": 0.0, "d": 1}, True),
    ]
    for family, params, weighted in cases:
        cs = []
        for n in (64, 128, 256):
            kernel = ke.KernelInstance(family, cutoff_c, n, params)
            env = de.measure_envelope(kernel, de.SamplingPlan(weighted=weighted))
            fit = de.fit_bound(env, de.SubExponential(1.0))
            assert fit.satisfied and fit.c_rate > 0 and fit.violations == 0
            cs.append(fit.c)
        assert max(cs) / min(cs) < 3.0, (family, cs)


def test_tensor_envelope_rejects_polynomial_localization(cutoff_a):
    # the product-Legendre kernel grows linearly in n at the pinned corner
    # pairs, so no sigma >= 1 polynomial form fits with an n-stable constant
    cs = []
    for n in (32, 64, 128):
        kernel = ke.KernelInstance("legleg", cutoff_a, n)
        env = de.measure_envelope(kernel, de.SamplingPlan(pairs_per_bin=200))
        cs.append(de.fit_bound(env, de.Polynomial(1.0)).c)
    assert cs[-1] > 1.9 * cs[0]


def test_compare_cutoffs_ordering(cutoff_c, control_cutoff):
    fits = de.compare_cutoffs("chebyshev", 256, [cutoff_c, control_cutoff])
    assert fits[0].c_rate > fits[1].c_rate


def test_compare_cutoffs_determinism(cutoff_c):
    f1, f2 = de.compare_cutoffs("chebyshev", 64, [cutoff_c, cutoff_c])
    assert f1.c == f2.c and f1.c_rate == f2.c_rate


def test_compare_cutoffs_row_count(cutoff_c, cutoff_a, control_cutoff):
    fits = de.compare_cutoffs("chebyshev", 64, [cutoff_c, cutoff_a, control_cutoff])
    assert len(fits) == 3
    with pytest.raises(ValueError):
        de.compare_cutoffs("chebyshev", 64, [cutoff_c])


def test_ball_envelope_generic_path():
    # the multivariate families draw their pairs at the planned distances
    cut = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0, m_max=512, grid_points=4096))
    kernel = ke.KernelInstance("ball", cut, 8, {"mu": 1.5, "d": 2})
    env = de.measure_envelope(kernel, de.SamplingPlan(n_bins=40, pairs_per_bin=200))
    assert (env.values > 0).sum() >= 35
    # every bin evaluates its 200 pairs, the narrow ones at the diagonal too
    assert np.all(env.counts == 200)
    assert env.prefactor == 64.0
    fit = de.fit_bound(env, de.SubExponential(1.0))
    assert fit.satisfied and fit.c_rate > 0


def test_simplex_envelope_generic_path(cutoff_c):
    kernel = ke.KernelInstance("simplex", cutoff_c, 4, {"kappa": (0.5, 0.5)})
    env = de.measure_envelope(kernel, de.SamplingPlan(seed=42, n_bins=40, pairs_per_bin=200))
    # the bins reach the vertex-to-vertex distance pi/2, and every bin, the
    # last one next to it too, sees pairs
    assert env.rho[-1] < np.pi / 2
    assert np.array_equal(env.counts == 0, env.values == 0)
    assert not np.any(env.counts == 0)
    assert env.counts.max() == 200
    fit = de.fit_bound(env, de.SubExponential(1.0))
    assert fit.satisfied and fit.violations == 0 and fit.c_rate > 0


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("kappa", [(0.5, 0.5), (0.5, 0.5, 0.5)])
def test_simplex_fits_hold_up_the_ladder(cutoff_c, kappa, n):
    # the command line's default plan; the d = 2 envelope at n = 64 once took
    # minutes
    kernel = ke.KernelInstance("simplex", cutoff_c, n, {"kappa": kappa})
    fit = de.fit_bound(de.measure_envelope(kernel, de.SamplingPlan(seed=42)), de.SubExponential(1.0))
    assert fit.satisfied and fit.violations == 0


_SAMPLED_CASES = [
    ("ball", 4, {"mu": 1.0, "d": 2}),
    ("ball", 4, {"mu": 1.0, "d": 3}),
    ("simplex", 4, {"kappa": (0.5, 0.5)}),
    ("simplex", 4, {"kappa": (0.5, 0.5, 0.5)}),
    ("chebyshev", 16, {}),
    ("jacobi", 16, {"alpha": 2.0, "beta": 0.5}),
    # at n = 64 the oscillatory core is narrower than the Hermite line
    ("hermite", 64, {"d": 1}),
    ("laguerre", 16, {"alpha": 1.0}),
]


def _ends(family, r):
    """(lower, upper) ends of a one-dimensional family's sampled interval:
    the angles 0 and pi map to the points 1 and -1."""
    return {"chebyshev": (1.0, -1.0), "jacobi": (1.0, -1.0), "hermite": (-r, r), "laguerre": (0.0, r)}[family]


def _in_closed_domain(family, pts, r):
    # within the round-off the kernels' own domain checks allow
    if family == "ball":
        return np.all(np.sum(pts * pts, axis=-1) <= 1.0 + 1e-12)
    if family == "simplex":
        return np.all(pts >= 0.0) and np.all(np.sum(pts, axis=-1) <= 1.0 + 1e-12)
    lower, upper = sorted(_ends(family, r))
    return np.all((pts >= lower) & (pts <= upper))


def _pair_keys(xs, ys):
    """The pairs (x, y) of two (pairs, ...) arrays, one byte string each."""
    rows = np.ascontiguousarray(np.column_stack([xs.reshape(len(xs), -1), ys.reshape(len(ys), -1)]))
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(_SAMPLED_CASES),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10, unique=True),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**31 - 1),
)
def test_lifted_samplers_draw_every_pair_at_its_planned_distance(case, fracs, count, seed):
    # every sampler: the ball and simplex pairs on their lifted chords at
    # their planned separations, the interval families' cells and windows;
    # every pair in the bin its distance falls in, and each bin with at
    # least the pairs of one slice per stream and end
    family, n, params = case
    kernel = ke.KernelInstance(family, None, n, params)
    sample = ke.FAMILIES[family].sample
    r = ke.FAMILIES[family].diameter(n, params)
    edges = r * np.sort(fracs)
    assume(np.min(np.diff(edges)) >= 1e-6)
    bins = len(edges) - 1
    tol = 1e-12 * r if family in ("hermite", "laguerre") else 1e-9
    sampled = sample(kernel, edges, count, seed)
    assert isinstance(sampled, tuple) and len(sampled) == 3
    xs, ys, binned = sampled
    xs_all, ys_all = broadcast_pairs(sampled)
    b = np.ravel(binned)[np.ravel(binned) >= 0]
    assert _in_closed_domain(family, xs_all, r) and _in_closed_domain(family, ys_all, r)
    rho = kernel.distance(xs_all, ys_all)
    assert np.all(rho >= edges[b] - tol) and np.all(rho <= edges[b + 1] + tol)
    if family in ("ball", "simplex"):
        dim = params["d"] if family == "ball" else len(params["kappa"]) - 1
        assert xs.shape == ys.shape == (bins * count, dim)
        assert np.array_equal(binned, np.repeat(np.arange(bins), count))
        planned = ke._bin_offsets(edges, count, seed)
        assert np.all(np.abs(rho.reshape(bins, count) - planned) <= tol)
    else:
        # one 16 x 16 block; the interval's ends are points of every bin's pairs
        assert xs.shape[1:] == (16, 1) and ys.shape[1:] == (1, 16) and binned.shape == (len(xs), 16, 16)
        slices = {"chebyshev": 3, "jacobi": 3, "hermite": 5, "laguerre": 4}[family]
        assert np.all(np.bincount(b, minlength=bins) >= slices * count)
        lower, upper = _ends(family, r)
        for i in range(bins):
            assert lower in xs_all[b == i] and upper in ys_all[b == i]
    # deterministic per seed
    for a, b_again in zip(sampled, sample(kernel, edges, count, seed), strict=True):
        assert np.array_equal(a, b_again)
    # a bin's pairs come from its own edges only
    i = len(fracs) // 2 - 1
    alone_x, alone_y = broadcast_pairs(sample(kernel, edges[i : i + 2], count, seed))
    assert np.array_equal(alone_x, xs_all[b == i]) and np.array_equal(alone_y, ys_all[b == i])
    # doubling the budget keeps every pair of every bin, so the envelope's
    # bin maxima can only rise
    fine = sample(kernel, edges, 2 * count, seed)
    fine_x, fine_y = broadcast_pairs(fine)
    fine_b = np.ravel(fine[2])[np.ravel(fine[2]) >= 0]
    for i in range(bins):
        old, new = _pair_keys(xs_all[b == i], ys_all[b == i]), _pair_keys(fine_x[fine_b == i], fine_y[fine_b == i])
        assert np.all(np.isin(old, new))


def test_the_ball_and_simplex_samplers_uniforms_are_uniform():
    # exp(-(g_1^2 + g_2^2) / 2) of two standard normals; 20,000 draws sit
    # within the Kolmogorov-Smirnov distance that 1% of uniform samples exceed
    count = 20_000
    u = np.sort(ke._uniforms(np.random.default_rng(0).standard_normal((count, 2)))[:, 0])
    assert np.all((u > 0.0) & (u < 1.0))
    ks = max(np.max(np.arange(1, count + 1) / count - u), np.max(u - np.arange(count) / count))
    assert ks < 1.628 / math.sqrt(count)


@pytest.mark.parametrize(
    "family, params", [("ball", {"mu": 1.5, "d": 2}), ("simplex", {"kappa": (0.5, 1.0)})]
)
def test_weighted_generic_bins_scale_by_weight_factor(cutoff_c, family, params):
    kernel = ke.KernelInstance(family, cutoff_c, 4, params)
    lo, hi = 0.5, 1.0
    xs, ys, _ = ke.FAMILIES[family].sample(kernel, np.array([lo, hi]), 40, 3)
    raw = de._pair_magnitudes(kernel, xs, ys, False)
    wtd = de._pair_magnitudes(kernel, xs, ys, True)
    x, y, _ = ke.FAMILIES[family].sample(kernel, np.array([lo, hi]), 1, 3)
    factor = math.sqrt(
        ke.weight_factor(family, 4, x[0], mu=params.get("mu"), kappa=params.get("kappa"))
        * ke.weight_factor(family, 4, y[0], mu=params.get("mu"), kappa=params.get("kappa"))
    )
    assert wtd[0] == pytest.approx(raw[0] * factor, rel=1e-15)
    assert not np.array_equal(raw, wtd)


def test_binned_reads_an_empty_bin_as_zero_and_carries_a_nan():
    edges = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    env = de._binned("chebyshev", 8, edges, np.array([0, 0, 2, 3, 3]), np.array([0.5, 2.0, 1.0, 3.0, np.nan]), 2.0, 1.5)
    assert np.array_equal(env.rho, [0.5, 1.5, 2.5, 3.5])
    assert np.array_equal(env.values[:3], [2.0, 0.0, 1.0]) and np.isnan(env.values[3])
    assert np.array_equal(env.counts, [2, 0, 1, 2])
    assert (env.scale, env.prefactor, env.weighted) == (2.0, 1.5, False)


def test_a_nan_pair_fails_the_fit(cutoff_c, monkeypatch):
    # the nan bin once read as empty, and the fit passed
    kernel = ke.KernelInstance("chebyshev", cutoff_c, 32)
    plan = de.SamplingPlan(n_bins=40, pairs_per_bin=200)
    pair_values = kernel.pair_values
    calls = []

    def one_nan(xs, ys):
        vals = pair_values(xs, ys)
        if not calls:
            # the first pair of bin 1 of the sampled pairs, whose bins hold equally many
            vals[len(vals) // plan.n_bins] = np.nan
        calls.append(len(vals))
        return vals

    monkeypatch.setattr(kernel, "pair_values", one_nan)
    env = de.measure_envelope(kernel, plan)
    assert np.isnan(env.values[1]) and np.all(np.isfinite(np.delete(env.values, 1)))
    for form in (de.Polynomial(4.0), de.SubExponential(1.0)):
        fit = de.fit_bound(env, form)
        assert not fit.satisfied and math.isnan(fit.c) and fit.violations == 1


def test_an_infinite_bin_fails_the_fit():
    values = np.array([1.0, np.inf, 0.1, np.nan])
    env = de.DecayEnvelope("chebyshev", 8, np.arange(4.0), values, False, 8.0, 1.0)
    fit = de.fit_bound(env, de.SubExponential(1.0))
    assert not fit.satisfied and math.isnan(fit.c) and math.isnan(fit.c_rate) and fit.violations == 2


@pytest.mark.parametrize(
    "form, message",
    [
        # a nan sigma or epsilon once fitted c = nan and passed
        (de.Polynomial(math.nan), "bound sigma must be finite"),
        (de.Polynomial(math.inf), "bound sigma must be finite"),
        (de.SubExponential(math.nan), "bound epsilon must be finite"),
        (de.SubExponential(-math.inf), "bound epsilon must be finite"),
        (de.SubExponential(1.0, 0), "log_depth must be a positive integer"),
        (de.SubExponential(1.0, 1.5), "log_depth must be a positive integer"),
    ],
)
def test_fit_refuses_forms_that_are_not_finite(cheb_env_128, form, message):
    with pytest.raises(ValueError, match=message):
        de.fit_bound(cheb_env_128, form)


def test_fit_reads_a_whole_float_log_depth_as_the_spec_does(cheb_env_128):
    whole = de.fit_bound(cheb_env_128, de.SubExponential(1.0, 2.0))
    assert type(whole.form.log_depth) is int
    assert de.fit_to_json(whole) == de.fit_to_json(de.fit_bound(cheb_env_128, de.SubExponential(1.0, 2)))


def _per_bin_envelope(kernel, plan):
    """rho, values and counts of an envelope evaluated bin by bin, on
    measure_envelope's bin edges: each bin's pairs drawn from its own edges,
    the bin's pairs in one ``pair_values`` call, the pairs outside the bin
    left out."""
    spec = ke.FAMILIES[kernel.family]
    diameter = spec.diameter(kernel.n, kernel.params)
    scale, _ = spec.scale(kernel.n, kernel.params)
    edges = np.concatenate([[0.0], np.geomspace(diameter / (4.0 * scale), diameter, plan.n_bins)])

    def bin_values(lo, hi):
        xs, ys, b = spec.sample(kernel, np.array([lo, hi]), plan.pairs_per_bin, plan.seed)
        return de._pair_magnitudes(kernel, xs, ys, plan.weighted).ravel()[np.ravel(b) == 0]

    bins = [bin_values(a, b) for a, b in zip(edges[:-1], edges[1:])]
    values = np.array([np.max(v) if len(v) else 0.0 for v in bins])
    return 0.5 * (edges[:-1] + edges[1:]), values, np.array([len(v) for v in bins])


@pytest.mark.parametrize(
    "family, n, params, weighted",
    [
        ("chebyshev", 64, {}, False),
        ("trig", 32, {}, True),
        ("jacobi", 48, {"alpha": 2.0, "beta": 0.5}, True),
        ("hermite", 32, {"d": 1}, False),
        ("laguerre", 32, {"alpha": 1.0, "d": 1}, True),
        ("sphere", 32, {"d": 2}, False),
        ("chebcheb", 8, {}, False),
        ("ball", 4, {"mu": 1.0, "d": 2}, True),
        ("simplex", 4, {"kappa": (0.5, 0.5)}, False),
    ],
)
def test_envelope_evaluates_every_bin_in_one_call(cutoff_c, monkeypatch, family, n, params, weighted):
    kernel = ke.KernelInstance(family, cutoff_c, n, params)
    plan = de.SamplingPlan(seed=5, n_bins=40, pairs_per_bin=200, weighted=weighted)
    rho, values, counts = _per_bin_envelope(kernel, plan)
    calls = []
    pair_values = kernel.pair_values

    def counted(xs, ys):
        vals = pair_values(xs, ys)
        calls.append(vals.size)
        return vals

    monkeypatch.setattr(kernel, "pair_values", counted)
    # one call, whatever the number of bins: every sampler draws one triple;
    # it evaluates every counted pair, and the interval families' windows
    # also pairs beyond the last bin, which are left out
    for n_bins in (60, plan.n_bins):
        calls.clear()
        env = de.measure_envelope(kernel, dataclasses.replace(plan, n_bins=n_bins))
        assert len(calls) == 1
    assert sum(calls) >= counts.sum()
    assert np.array_equal(env.rho, rho) and np.array_equal(env.counts, counts)
    if family in ("ball", "simplex"):
        # chunked auxiliary integrals sum in another grouping
        assert np.all(np.abs(env.values - values) <= 1e-15 * np.abs(values))
    else:
        assert np.array_equal(env.values, values)


def test_envelope_memory_does_not_grow_with_the_degree(cutoff_c):
    # the contraction streams its rows: no table grows with n
    peaks = []
    for n in (64, 512):
        kernel = ke.KernelInstance("chebyshev", cutoff_c, n)
        tracemalloc.start()
        try:
            de.measure_envelope(kernel, de.SamplingPlan())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("variant", ke.TENSOR_VARIANTS)
def test_weighted_tensor_envelope_is_rejected(cutoff_c, variant):
    # tensor-product kernels carry no bound weight, so a weighted plan would
    # return the unweighted values under a weighted label
    kernel = ke.KernelInstance(variant, cutoff_c, 8)
    with pytest.raises(ValueError, match="no bound weight"):
        de.measure_envelope(kernel, de.SamplingPlan(n_bins=40, pairs_per_bin=200, weighted=True))


@pytest.mark.parametrize(
    "family, params", [("hermite", {"d": 2}), ("laguerre", {"alpha": (0.0, 1.0), "d": 2})]
)
def test_line_envelopes_sample_one_dimension(cutoff_c, family, params):
    kernel = ke.KernelInstance(family, cutoff_c, 8, params)
    with pytest.raises(ValueError, match="envelopes sample d = 1 only"):
        de.measure_envelope(kernel, de.SamplingPlan(n_bins=40, pairs_per_bin=200))


def test_weighted_jacobi_envelope_flattens_endpoint_growth(cutoff_c):
    params = {"alpha": 2.0, "beta": 0.0}
    kernel = ke.KernelInstance("jacobi", cutoff_c, 128, params)
    raw = de.measure_envelope(kernel, de.SamplingPlan(weighted=False))
    wtd = de.measure_envelope(kernel, de.SamplingPlan(weighted=True))
    keep = (raw.values > 0) & (wtd.values > 0)
    ratio_raw = raw.values[keep].max() / raw.values[keep].min()
    ratio_wtd = wtd.values[keep].max() / wtd.values[keep].min()
    assert ratio_wtd < ratio_raw


def _log_product_by_the_general_loop(u, epsilon, log_depth):
    # the log product as formed by the loop over any depth, with its tower
    # of exponentials, that the depth-1 and depth-2 closed forms replace
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    for level in range(1, log_depth + 1):
        tower = 1.0
        for _ in range(level):
            tower = math.exp(tower)
        val = np.log(tower + u)
        for _ in range(level - 1):
            val = np.log(val)
        out = out * val if level < log_depth else out * val ** (1.0 + epsilon)
    return out


def test_log_product_depths():
    u = np.concatenate([np.linspace(0.0, 1e6, 10_001), np.geomspace(1e-12, 1e6, 10_000), [0.0, 5.0, 100.0]])
    d1 = de._log_product(u, 1.0, 1)
    assert d1[0] == pytest.approx(1.0)
    for eps in (0.25, 0.5, 1.0):
        for depth in (1, 2):
            expect = _log_product_by_the_general_loop(u, eps, depth)
            assert np.array_equal(de._log_product(u, eps, depth), expect)
            assert de._log_product(u[3], eps, depth) == expect[3]


def test_fit_refuses_log_depth_three(cheb_env_128):
    with pytest.raises(ValueError, match="log_depth > 2 needs astronomically many"):
        de.fit_bound(cheb_env_128, de.SubExponential(1.0, 3))


def test_wavelet_checks():
    w = de.build_wavelet(1.0)
    assert w.plancherel_defect < 1e-8
    assert w.mean_abs < 1e-8
    fit = de.fit_bound(w.envelope, de.SubExponential(1.0))
    assert fit.satisfied and fit.c_rate > 0
    # unit norm comes with the construction
    step = w.x[1] - w.x[0]
    assert float(np.dot(w.values, w.values)) * step == pytest.approx(1.0, abs=1e-8)


def test_wavelet_epsilon_half():
    w = de.build_wavelet(0.5)
    assert w.plancherel_defect < 1e-8
    fit = de.fit_bound(w.envelope, de.SubExponential(0.5))
    assert fit.satisfied and fit.c_rate > 0


def _wavelet_refitting_every_pass(epsilon):
    # one inverse_transform call, and so one spline fit, per widening pass;
    # the Plancherel norm through a CutoffFunction of the squared profile
    spec = co.CutoffSpec("c", epsilon=epsilon)
    prof = co.assemble_cutoff(spec)
    stretch = 4.0 * np.pi / 3.0
    half_width, step = 50.0, 3.0 / 16.0
    while True:
        x = np.arange(-half_width, half_width + step, step)
        psi = stretch * co.inverse_transform(prof, stretch * (x - 0.5))
        if max(abs(psi[0]), abs(psi[-1])) < 1e-12 * np.abs(psi).max():
            break
        half_width *= 2.0
    norm_xi = (4.0 / 3.0) * co.integrate_profile(co.CutoffFunction(spec, prof.t, prof.values**2))
    defect = abs(float(np.dot(psi, psi) * step) - norm_xi) / norm_xi
    edges = np.linspace(0.0, np.abs(x).max(), 65)
    idx = np.clip(np.searchsorted(edges, np.abs(x), side="right") - 1, 0, 63)
    maxima = np.zeros(64)
    np.maximum.at(maxima, idx, np.abs(psi))
    counts = np.bincount(idx, minlength=64)
    return x, psi, defect, abs(float(np.sum(psi) * step)), edges, maxima, counts


@pytest.mark.parametrize("epsilon", [1.0, 0.5])
def test_wavelet_fits_one_transform_spline_with_the_same_bits(epsilon):
    w = de.build_wavelet(epsilon)
    x, psi, defect, mean_abs, edges, maxima, counts = _wavelet_refitting_every_pass(epsilon)
    assert np.array_equal(w.x, x) and np.array_equal(w.values, psi)
    assert w.plancherel_defect == defect and w.mean_abs == mean_abs
    assert np.array_equal(w.envelope.rho, 0.5 * (edges[:-1] + edges[1:]))
    assert np.array_equal(w.envelope.values, maxima)
    assert np.array_equal(w.envelope.counts, counts)


def test_counterexample_flat_profile(cutoff_a):
    n_list = [32, 64, 128, 256]
    rep = de.counterexample_suite(cutoff_a, n_list)
    assert rep.a0 == pytest.approx(1.0)
    assert rep.profile_integral == pytest.approx(1.5, abs=1e-9)
    # product-Chebyshev value is exactly a0/pi^2 for every n
    assert np.abs(rep.values["chebcheb"] - 1.0 / np.pi**2).max() < 1e-10
    # product-Legendre residual times n stays bounded
    scaled = np.abs(rep.residuals["legleg"]) * np.asarray(n_list)
    assert scaled.max() < 2.0
    # mixed-basis residual times n stays bounded
    scaled = np.abs(rep.residuals["chebleg"]) * np.asarray(n_list)
    assert scaled.max() < 2.0


def test_counterexample_banded_profile_slice(cutoff_c):
    n_list = [32, 64, 128, 256]
    rep = de.counterexample_suite(cutoff_c, n_list)
    assert rep.a0 == 0.0
    assert np.abs(rep.values["chebcheb"]).max() < 1e-10
    # F_n'(1)/n^2 approaches (2/pi^2) * first moment; residual/n bounded
    resid = rep.slice_fprime["chebcheb"] - rep.slice_predicted["chebcheb"]
    assert (np.abs(resid) / np.asarray(n_list)).max() < 1.0
    assert rep.first_moment > 0
    # sup of the slice stays bounded away from zero
    assert rep.sup_norms["chebcheb"].min() > 0.05


def test_counterexample_requires_levels(cutoff_a):
    with pytest.raises(ValueError):
        de.counterexample_suite(cutoff_a, [])


def test_envelope_csv_and_fit_json(tmp_path, cheb_env_128):
    path = tmp_path / "env.csv"
    de.envelope_to_csv(cheb_env_128, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,max_abs,n,family,weighted"
    assert len(lines) == 49
    fit = de.fit_bound(cheb_env_128, de.SubExponential(1.0))
    raw = json.loads(de.fit_to_json(fit))
    assert raw["form"] == "sub_exponential" and raw["log_depth"] == 1
    assert raw["violations"] == 0
    praw = json.loads(de.fit_to_json(de.fit_bound(cheb_env_128, de.Polynomial(4.0))))
    assert praw["form"] == "polynomial" and praw["sigma"] == 4.0 and praw["log_depth"] is None

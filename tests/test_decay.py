import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # the multivariate families go through stratified rejection sampling
    cut = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0, m_max=512, grid_points=4096))
    kernel = ke.KernelInstance("ball", cut, 8, {"mu": 1.5, "d": 2})
    env = de.measure_envelope(kernel, de.SamplingPlan(n_bins=40, pairs_per_bin=200))
    assert (env.values > 0).sum() >= 35
    # every bin sees a pair, but the narrow bins near the diagonal exhaust
    # their 50 * 200 attempts before 200 pairs land in them
    assert env.counts.min() >= 1 and env.counts.max() == 200
    assert env.prefactor == 64.0
    fit = de.fit_bound(env, de.SubExponential(1.0))
    assert fit.satisfied and fit.c_rate > 0


def test_simplex_envelope_generic_path(cutoff_c):
    kernel = ke.KernelInstance("simplex", cutoff_c, 4, {"kappa": (0.5, 0.5)})
    env = de.measure_envelope(kernel, de.SamplingPlan(seed=42, n_bins=40, pairs_per_bin=200))
    # the bins reach the vertex-to-vertex distance pi/2; only the last one,
    # next to it, sees no pair at all
    assert env.rho[-1] < np.pi / 2
    assert np.array_equal(env.counts == 0, env.values == 0)
    assert np.array_equal(np.flatnonzero(env.counts == 0), [39])
    assert env.counts.max() == 200
    fit = de.fit_bound(env, de.SubExponential(1.0))
    assert fit.satisfied and fit.violations == 0 and fit.c_rate > 0


def _per_attempt_pairs(kernel, lo, hi, count, seed):
    # the per-attempt rejection loop the batched sampler must reproduce
    rng = np.random.default_rng(seed + int(1e6 * lo))
    xs, ys = [], []
    attempts = 0
    while len(xs) < count and attempts < 50 * count:
        attempts += 1
        if kernel.family == "ball":
            d = kernel.params["d"]
            x = rng.uniform(-1, 1, d)
            y = rng.uniform(-1, 1, d)
            if np.dot(x, x) > 1 or np.dot(y, y) > 1:
                continue
        else:
            d = len(kernel.params["kappa"]) - 1
            x = rng.dirichlet(np.ones(d + 1))[:d]
            y = rng.dirichlet(np.ones(d + 1))[:d]
        if lo <= kernel.distance(x, y) <= hi:
            xs.append(x)
            ys.append(y)
    return np.array(xs).reshape(-1, d), np.array(ys).reshape(-1, d)


@pytest.mark.parametrize(
    "family, params",
    [("ball", {"mu": 1.0, "d": 2}), ("simplex", {"kappa": (0.5, 0.5)}), ("simplex", {"kappa": (0.5, 0.5, 0.5)})],
)
def test_batched_sampler_keeps_per_attempt_pairs(cutoff_c, family, params, monkeypatch):
    kernel = ke.KernelInstance(family, cutoff_c, 4, params)
    seen = []
    monkeypatch.setattr(
        kernel, "pair_values", lambda xs, ys: seen.append((xs, ys)) or np.ones(len(xs))
    )
    plan = de.SamplingPlan(seed=42)
    # a narrow bin at the diagonal (1 and 9 hits for the ball and the
    # 2-simplex), a wide one, and one past the largest distance drawn (none)
    for lo, hi in ((0.0, 0.05), (0.5, 1.5), (3.0, 3.1)):
        seen.clear()
        vals = de._generic_bin_values(kernel, lo, hi, 40, plan)
        ref_x, ref_y = _per_attempt_pairs(kernel, lo, hi, 40, plan.seed)
        assert len(vals) == len(ref_x)
        assert np.array_equal(seen[0][0], ref_x) and np.array_equal(seen[0][1], ref_y)


@pytest.mark.parametrize(
    "family, params", [("ball", {"mu": 1.5, "d": 2}), ("simplex", {"kappa": (0.5, 1.0)})]
)
def test_weighted_generic_bins_scale_by_weight_factor(cutoff_c, family, params):
    kernel = ke.KernelInstance(family, cutoff_c, 4, params)
    lo, hi = 0.5, 1.0
    raw = de._generic_bin_values(kernel, lo, hi, 40, de.SamplingPlan(seed=3))
    wtd = de._generic_bin_values(kernel, lo, hi, 40, de.SamplingPlan(seed=3, weighted=True))
    x, y = _per_attempt_pairs(kernel, lo, hi, 1, 3)
    factor = math.sqrt(
        ke.weight_factor(family, 4, x[0], mu=params.get("mu"), kappa=params.get("kappa"))
        * ke.weight_factor(family, 4, y[0], mu=params.get("mu"), kappa=params.get("kappa"))
    )
    assert wtd[0] == pytest.approx(raw[0] * factor, rel=1e-15)
    assert not np.array_equal(raw, wtd)


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


def test_log_product_depths():
    u = np.array([0.0, 5.0, 100.0])
    d1 = de._log_product(u, 1.0, 1)
    assert d1[0] == pytest.approx(1.0)
    d2 = de._log_product(u, 1.0, 2)
    expect = np.log(np.e + u) * np.log(np.log(np.exp(np.e) + u)) ** 2
    assert np.allclose(d2, expect)


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
    assert raw["form"] == "sub_exponential"
    assert raw["violations"] == 0
    praw = json.loads(de.fit_to_json(de.fit_bound(cheb_env_128, de.Polynomial(4.0))))
    assert praw["form"] == "polynomial" and praw["sigma"] == 4.0

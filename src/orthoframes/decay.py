"""Empirical decay envelopes, bound fitting, wavelet construction, and the
tensor-product counterexample suite.

An envelope bins point pairs by the family distance and records the largest
(optionally weight-normalized) kernel magnitude per bin.  Bound fitting works
against two shapes, with u the scaled distance (n*rho, or sqrt(n)*rho for the
Hermite/Laguerre families):

* polynomial:        c * p_n * (1 + u)^(-sigma)
* sub-exponential:   c * p_n * exp(-rate * u / PL(u)),  PL a log product

For the sub-exponential shape the rate is selected by grid search as the
largest value whose implied leading constant stays within a fixed factor of
the diagonal constant ("a finite c"); the fit reports that constant and a
zero violation count, or declares the shape unsatisfied at every rate on the
grid.  Pair sampling uses nested van der Corput sequences rotated by the
plan seed, so envelopes are deterministic and doubling the pair budget only
refines the sampled set.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import cutoff as cutoff_mod
from . import kernels

__all__ = [
    "SamplingPlan",
    "DecayEnvelope",
    "Polynomial",
    "SubExponential",
    "BoundFit",
    "Wavelet",
    "CounterexampleReport",
    "measure_envelope",
    "fit_bound",
    "compare_cutoffs",
    "build_wavelet",
    "counterexample_suite",
    "envelope_to_csv",
    "fit_to_json",
]


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic pair-sampling plan for envelope measurement."""

    seed: int = 42
    n_bins: int = 48
    pairs_per_bin: int = 256
    rho_max: float = None
    weighted: bool = False

    def validate(self):
        if self.n_bins < 40:
            raise ValueError("plans need at least 40 bins")
        if self.pairs_per_bin < 200:
            raise ValueError("plans need at least 200 pairs per bin")


@dataclass
class DecayEnvelope:
    """Binned map rho -> max |kernel| (weighted when flagged).

    ``counts`` holds the number of pairs (or samples) evaluated per bin, so
    a bin whose value is 0 because it saw no pair can be told apart.
    """

    family: str
    n: int
    rho: np.ndarray
    values: np.ndarray
    weighted: bool
    scale: float
    prefactor: float
    counts: np.ndarray = None


@dataclass(frozen=True)
class Polynomial:
    """Bound form c * p_n * (1 + u)^(-sigma)."""

    sigma: float


@dataclass(frozen=True)
class SubExponential:
    """Bound form c * p_n * exp(-rate * u / log-product(u))."""

    epsilon: float
    log_depth: int = 1


@dataclass
class BoundFit:
    form: object
    c: float
    c_rate: float
    violations: int
    satisfied: bool


def _vdc(count, base, shift=0.0):
    """First ``count`` van der Corput points in the given base, rotated."""
    out = np.zeros(count)
    for i in range(count):
        v, denom, k = 0.0, 1.0, i + 1
        while k:
            k, r = divmod(k, base)
            denom *= base
            v += r / denom
        out[i] = v
    return (out + shift) % 1.0


def _family_diameter(kernel):
    fam = kernel.family
    if fam in ("chebyshev", "jacobi", "trig", "sphere", "ball", "simplex"):
        return np.pi
    if fam == "hermite":
        return math.sqrt(8.0 * kernel.n + 2.0)
    if fam == "laguerre":
        alpha = np.atleast_1d(np.asarray(kernel.params.get("alpha", 0.0)))
        return math.sqrt(12.0 * kernel.n + 3.0 * np.max(np.abs(alpha)) + 3.0)
    if fam in kernels.TENSOR_VARIANTS:
        return np.pi
    raise ValueError(f"no default diameter for family {fam!r}")


def _scale_and_prefactor(kernel):
    fam, n = kernel.family, kernel.n
    if fam in ("chebyshev", "jacobi", "trig"):
        return float(n), float(n)
    if fam == "sphere":
        return float(n), float(n) ** kernel.params["d"]
    if fam == "ball":
        return float(n), float(n) ** kernel.params["d"]
    if fam == "simplex":
        d = len(np.atleast_1d(kernel.params["kappa"])) - 1
        return float(n), float(n) ** d
    if fam == "hermite":
        d = kernel.params.get("d", 1)
        return math.sqrt(n), float(n) ** (d / 2.0)
    if fam == "laguerre":
        d = kernel.params.get("d", 1)
        return math.sqrt(n), float(n) ** (d / 2.0)
    return float(n), float(n)


def _weight_values(kernel, pts):
    fam = kernel.family
    p = kernel.params
    n = kernel.n
    pts = np.asarray(pts, dtype=float)
    if fam == "jacobi":
        return (1.0 - pts + n**-2.0) ** (p["alpha"] + 0.5) * (
            1.0 + pts + n**-2.0
        ) ** (p["beta"] + 0.5)
    if fam == "laguerre":
        a = float(np.atleast_1d(p.get("alpha", 0.0))[0])
        return (pts + n**-0.5) ** (2.0 * a + 1.0)
    return np.ones_like(pts)


def _interval_pairs(lo, hi, count, delta, shift, core=None, pin_center=False):
    # extremal pairs at a given separation ride distinguished slices (the
    # domain endpoints and, for the symmetric families, the pairs mirrored
    # about the center), so those slices are evaluated at the full
    # separation density; interior pairs cover the (optionally restricted)
    # oscillatory core with nested low-discrepancy streams
    span = np.maximum(hi - lo - delta, 0.0)
    c_lo, c_hi = (lo, hi) if core is None else core
    c_lo = np.maximum(lo, c_lo)
    c_span = np.maximum(np.minimum(hi, c_hi) - delta - c_lo, 0.0)
    streams = [_vdc(count, 3, shift)]
    if core is not None:
        streams.append(_vdc(count, 5, shift))
    groups = [lo + span, np.full_like(span, lo)]
    if pin_center:
        groups.append(0.5 * (lo + hi) - 0.5 * delta)
    groups.extend(c_lo + s * c_span for s in streams)
    x = np.concatenate(groups)
    d3 = np.concatenate([delta] * len(groups))
    return x, x + d3


def measure_envelope(kernel, plan=None):
    """Binned decay envelope of a kernel instance under a sampling plan.

    Deterministic for a fixed plan seed.  Pair generation is family aware:
    interval families walk an (angle, angle-offset) tensor set, the
    unbounded families walk (position, offset) sets clipped to the domain,
    and the tensor-product families combine interior pairs with pairs
    pinned to the boundary lines where those kernels are known to spread.
    """
    plan = plan or SamplingPlan()
    plan.validate()
    fam = kernel.family
    diameter = plan.rho_max if plan.rho_max is not None else _family_diameter(kernel)
    shift = (plan.seed * 0.6180339887498949) % 1.0
    scale, prefactor = _scale_and_prefactor(kernel)
    # geometric bin edges pin the scaled-distance grid u = scale * rho to the
    # same locations for every n, which keeps fitted constants comparable
    # across levels; the first bin starts at the diagonal
    lo = diameter / (4.0 * scale)
    edges = np.concatenate([[0.0], np.geomspace(lo, diameter, plan.n_bins)])
    rho_centers = 0.5 * (edges[:-1] + edges[1:])
    maxima = np.zeros(plan.n_bins)
    counts = np.zeros(plan.n_bins, dtype=int)
    count = plan.pairs_per_bin
    for b in range(plan.n_bins):
        deltas = edges[b] + _vdc(count, 2, shift) * (edges[b + 1] - edges[b])
        if b == 0:
            deltas[0] = 0.0
        if fam in ("chebyshev", "jacobi"):
            th, ph = _interval_pairs(0.0, np.pi, count, deltas, shift)
            xs, ys = np.cos(th), np.cos(ph)
            vals = np.abs(kernel.pair_values(xs, ys))
            if plan.weighted:
                vals = vals * np.sqrt(_weight_values(kernel, xs) * _weight_values(kernel, ys))
        elif fam == "trig":
            vals = np.abs(kernel.pair_values(deltas, np.zeros_like(deltas)))
        elif fam == "sphere":
            cosine = np.cos(deltas)
            vals = np.abs(
                kernels.sphere_kernel(kernel.cutoff, kernel.n, kernel.params["d"], cosine)
            )
        elif fam in ("hermite", "laguerre"):
            lo = 0.0 if fam == "laguerre" else -_family_diameter(kernel)
            hi = _family_diameter(kernel)
            # restrict interior sampling to the oscillatory core, where the
            # eigenfunctions (and hence the extremal pairs) live
            tp = math.sqrt(2.0 * 2.0 * kernel.n + 2.0) + 4.0
            xs, ys = _interval_pairs(
                lo, hi, count, deltas, shift, core=(-tp, tp), pin_center=(fam == "hermite")
            )
            vals = np.abs(kernel.pair_values(xs, ys))
            if plan.weighted:
                vals = vals * np.sqrt(_weight_values(kernel, xs) * _weight_values(kernel, ys))
        elif fam in kernels.TENSOR_VARIANTS:
            vals = _tensor_bin_values(kernel, edges[b], edges[b + 1], count, shift)
        else:
            vals = _generic_bin_values(kernel, edges[b], edges[b + 1], count, plan)
        counts[b] = len(vals)
        if len(vals):
            maxima[b] = float(np.max(vals))
    return DecayEnvelope(
        family=fam,
        n=kernel.n,
        rho=rho_centers,
        values=maxima,
        weighted=plan.weighted,
        scale=scale,
        prefactor=prefactor,
        counts=counts,
    )


def _tensor_bin_values(kernel, lo, hi, count, shift):
    # pairs pinned to the boundary lines (where tensor kernels fail to
    # localize) plus Halton interior pairs, filtered to the bin
    m = max(count // 2, 8)
    t1 = _vdc(m, 2, shift)
    vals = []
    y = np.array([1.0, 1.0])
    for u in np.cos(np.pi * t1):
        for x in (np.array([u, -1.0]), np.array([1.0, u]), np.array([u, 1.0])):
            r = kernel.distance(x, y)
            if lo <= r <= hi:
                vals.append(abs(kernel(x, y)))
    h2 = _vdc(m, 3, shift)
    h5 = _vdc(m, 5, shift)
    for a, b, c in zip(t1, h2, h5):
        x = np.array([math.cos(np.pi * a), math.cos(np.pi * b)])
        yv = np.array([math.cos(np.pi * c), math.cos(np.pi * ((a + c) % 1.0))])
        r = kernel.distance(x, yv)
        if lo <= r <= hi:
            vals.append(abs(kernel(x, yv)))
    return np.asarray(vals)


def _generic_bin_values(kernel, lo, hi, count, plan):
    # rejection sampling stratified by distance for ball/simplex: all 50 *
    # count attempts are drawn at once, in the order a per-attempt loop draws
    # them, and the first ``count`` pairs that land in the bin are evaluated
    rng = np.random.default_rng(plan.seed + int(1e6 * lo))
    attempts = 50 * count
    if kernel.family == "ball":
        pts = rng.uniform(-1, 1, (attempts, 2, kernel.params["d"]))
        pts = pts[np.all(np.sum(pts * pts, axis=-1) <= 1, axis=-1)]
    else:
        d = len(np.atleast_1d(kernel.params["kappa"])) - 1
        pts = rng.dirichlet(np.ones(d + 1), (attempts, 2))[..., :d]
    r = kernel.distance(pts[:, 0], pts[:, 1])
    keep = np.flatnonzero((lo <= r) & (r <= hi))[:count]
    xs, ys = pts[keep, 0], pts[keep, 1]
    vals = np.abs(kernel.pair_values(xs, ys))
    if plan.weighted:
        vals = vals * np.sqrt(kernel.weight(xs) * kernel.weight(ys))
    return vals


def _log_product(u, epsilon, log_depth):
    """Denominator log product; depth 1 is log(e + u)^(1 + eps), depth 2 is
    log(e + u) * [loglog(e^e + u)]^(1 + eps), and so on."""
    u = np.asarray(u, dtype=float)
    if log_depth == 1:
        return np.log(np.e + u) ** (1.0 + epsilon)
    out = np.ones_like(u)
    for level in range(1, log_depth + 1):
        val = np.log(_exp_tower(level) + u)
        for _ in range(level - 1):
            val = np.log(val)
        if level < log_depth:
            out = out * val
        else:
            out = out * val ** (1.0 + epsilon)
    return out


def _exp_tower(level):
    v = 1.0
    for _ in range(level):
        v = math.exp(v)
    return v


def fit_bound(env, form, rate_grid=None, cap_factor=10.0):
    """Fit a bound shape to an envelope.

    Polynomial fits always succeed: the leading constant is the smallest c
    making the bound hold at every bin (its growth across n is what callers
    examine).  Sub-exponential fits pick the largest rate on the grid whose
    implied constant stays within ``cap_factor`` of the diagonal constant;
    failing that the form is declared unsatisfied at the smallest rate and
    the violating bins are counted.
    """
    u = env.scale * np.asarray(env.rho, dtype=float)
    vals = np.asarray(env.values, dtype=float)
    with np.errstate(divide="ignore"):
        logm = np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -np.inf)
    logp = math.log(env.prefactor)
    if isinstance(form, Polynomial):
        log_c = np.max(logm + form.sigma * np.log1p(u)) - logp
        c = 0.0 if log_c == -np.inf else float(np.exp(log_c))
        return BoundFit(form, c, None, 0, True)
    if not isinstance(form, SubExponential):
        raise ValueError("form must be Polynomial or SubExponential")
    phi = u / _log_product(u, form.epsilon, form.log_depth)
    if not np.any(np.isfinite(logm)):
        return BoundFit(form, 0.0, float(rate_grid[-1]) if rate_grid is not None else 20.0, 0, True)
    log_diag = np.max(logm) - logp
    log_cap = log_diag + math.log(cap_factor)
    if rate_grid is None:
        rate_grid = np.geomspace(1e-3, 20.0, 120)
    rates = np.sort(np.asarray(rate_grid, dtype=float))

    def log_c_at(rate):
        return float(np.max(logm + rate * phi) - logp)

    if log_c_at(rates[0]) > log_cap:
        rate = float(rates[0])
        violations = int(np.sum(logm - logp + rate * phi > log_cap))
        return BoundFit(form, float(np.exp(log_cap)), rate, violations, False)
    if log_c_at(rates[-1]) <= log_cap:
        rate = float(rates[-1])
        return BoundFit(form, float(np.exp(log_c_at(rate))), rate, 0, True)
    lo = float(max(r for r in rates if log_c_at(r) <= log_cap))
    hi = float(min(r for r in rates if log_c_at(r) > log_cap))
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if log_c_at(mid) <= log_cap:
            lo = mid
        else:
            hi = mid
    return BoundFit(form, float(np.exp(log_c_at(lo))), lo, 0, True)


def compare_cutoffs(family, n, cutoffs, epsilon=1.0, plan=None, params=None):
    """Sub-exponential fits of the same kernel family across several cutoffs.

    All cutoffs are measured under an identical sampling plan, so the fitted
    rates are directly comparable; the fit epsilon is fixed by the caller.
    """
    if len(cutoffs) < 2:
        raise ValueError("comparison needs at least two cutoffs")
    plan = plan or SamplingPlan()
    form = SubExponential(epsilon)
    fits = []
    for c in cutoffs:
        kernel = kernels.KernelInstance(family, c, n, dict(params or {}))
        env = measure_envelope(kernel, plan)
        fits.append(fit_bound(env, form))
    return fits


@dataclass
class Wavelet:
    """Band-limited orthonormal wavelet sampled on a uniform grid."""

    epsilon: float
    x: np.ndarray
    values: np.ndarray
    plancherel_defect: float
    mean_abs: float
    envelope: DecayEnvelope


def build_wavelet(epsilon, grid=cutoff_mod.DEFAULT_GRID, n_bins=64):
    """Band-limited orthonormal wavelet from a kind-"c" cutoff.

    The transform equals the cutoff profile stretched to [2 pi/3, 8 pi/3]
    with a half-sample phase shift, so the wavelet itself is a rescaled
    inverse transform of the profile.  The sample grid is widened until the
    boundary values drop below 1e-12 of the peak.
    """
    spec = cutoff_mod.CutoffSpec("c", epsilon=epsilon, grid_points=grid)
    prof = cutoff_mod.assemble_cutoff(spec)
    stretch = 4.0 * np.pi / 3.0
    half_width = 50.0
    step = 3.0 / 16.0
    psi = x_grid = None
    for _ in range(7):
        x_grid = np.arange(-half_width, half_width + step, step)
        psi = stretch * cutoff_mod.inverse_transform(prof, stretch * (x_grid - 0.5))
        peak = np.abs(psi).max()
        edge = max(abs(psi[0]), abs(psi[-1]))
        if edge < 1e-12 * peak:
            break
        half_width *= 2.0
    else:
        raise ValueError("grid too narrow: wavelet tail has not decayed")
    norm_x = float(np.dot(psi, psi) * step)
    prof_sq = cutoff_mod.CutoffFunction(spec, prof.t, prof.values**2)
    norm_xi = (4.0 / 3.0) * cutoff_mod.integrate_profile(prof_sq)
    plancherel_defect = abs(norm_x - norm_xi) / norm_xi
    mean_abs = abs(float(np.sum(psi) * step))
    rho = np.abs(x_grid)
    edges = np.linspace(0.0, rho.max(), n_bins + 1)
    idx = np.clip(np.searchsorted(edges, rho, side="right") - 1, 0, n_bins - 1)
    maxima = np.zeros(n_bins)
    np.maximum.at(maxima, idx, np.abs(psi))
    env = DecayEnvelope(
        family="wavelet",
        n=1,
        rho=0.5 * (edges[:-1] + edges[1:]),
        values=maxima,
        weighted=False,
        scale=1.0,
        prefactor=1.0,
        counts=np.bincount(idx, minlength=n_bins),
    )
    return Wavelet(epsilon, x_grid, psi, plancherel_defect, mean_abs, env)


@dataclass
class CounterexampleReport:
    """Tensor-product kernel values at the distinguished corner pair."""

    n_list: list
    profile_integral: float
    first_moment: float
    a0: float
    values: dict          # variant -> array of kernel values at the pair
    predicted: dict       # variant -> array of leading-term predictions
    residuals: dict       # variant -> array (value - prediction)
    slice_fprime: dict    # variant -> array of F_n'(1) from the slice series
    slice_predicted: dict
    sup_norms: dict       # variant -> array of sup |F_n| over [-1, 1]

    def to_json(self):
        def conv(d):
            return {k: [float(x) for x in v] for k, v in d.items()}

        return json.dumps(
            {
                "n_list": list(self.n_list),
                "profile_integral": self.profile_integral,
                "first_moment": self.first_moment,
                "a0": self.a0,
                "values": conv(self.values),
                "predicted": conv(self.predicted),
                "residuals": conv(self.residuals),
                "slice_fprime": conv(self.slice_fprime),
                "slice_predicted": conv(self.slice_predicted),
                "sup_norms": conv(self.sup_norms),
            },
            sort_keys=True,
        )


def counterexample_suite(cutoff, n_list):
    """Evaluate the tensor-product kernels at ((1,-1),(1,1)) against their
    closed forms, plus the slice derivative checks.

    Closed forms: Legendre x Legendre tends to (n/8) Int(ahat) + ahat(0)/8;
    Chebyshev x Chebyshev equals ahat(0)/pi^2 exactly; the mixed basis tends
    to ahat(0)/(4 pi).  The Chebyshev-axis slice through (x1, -1) has an
    explicit Chebyshev series whose derivative at 1 grows like a positive
    multiple of n^2 whenever the profile has positive first moment, which is
    what rules out uniform localization for the supported-away-from-zero
    profiles as well.
    """
    if not len(n_list):
        raise ValueError("n_list must be nonempty")
    ia = cutoff_mod.integrate_profile(cutoff, 0)
    ita = cutoff_mod.integrate_profile(cutoff, 1)
    a0 = float(cutoff(0.0))
    x = np.array([1.0, -1.0])
    y = np.array([1.0, 1.0])
    values, predicted, residuals = {}, {}, {}
    slice_fprime, slice_predicted, sup_norms = {}, {}, {}
    grid = np.cos(np.linspace(0.0, np.pi, 801))
    for variant in kernels.TENSOR_VARIANTS:
        vals = np.array(
            [kernels.tensor2d_kernel(cutoff, n, variant, x, y) for n in n_list]
        )
        if variant == "legleg":
            pred = np.array([n / 8.0 * ia + a0 / 8.0 for n in n_list])
        elif variant == "chebcheb":
            pred = np.full(len(n_list), a0 / np.pi**2)
        else:
            pred = np.full(len(n_list), a0 / (4.0 * np.pi))
        values[variant] = vals
        predicted[variant] = pred
        residuals[variant] = vals - pred
        if variant in ("chebcheb", "chebleg"):
            fps, sups = [], []
            for n in n_list:
                coeffs = kernels.tensor_slice_cheb_coeffs(cutoff, n, variant)
                a_idx = np.arange(len(coeffs), dtype=float)
                fps.append(float(np.dot(coeffs, a_idx**2)))
                sups.append(float(np.abs(np.polynomial.chebyshev.chebval(grid, coeffs)).max()))
            slice_fprime[variant] = np.array(fps)
            sups = np.array(sups)
            sup_norms[variant] = sups
            if variant == "chebcheb":
                slice_predicted[variant] = np.array(
                    [2.0 * n**2 / np.pi**2 * ita for n in n_list]
                )
            else:
                slice_predicted[variant] = np.array(
                    [n**2 / (2.0 * np.pi) * ita + n / (4.0 * np.pi) * ia for n in n_list]
                )
    return CounterexampleReport(
        list(n_list), ia, ita, a0, values, predicted, residuals,
        slice_fprime, slice_predicted, sup_norms,
    )


def envelope_to_csv(env, path):
    """CSV columns: rho, max_abs, n, family, weighted."""
    with open(path, "w") as fh:
        fh.write("rho,max_abs,n,family,weighted\n")
        for r, v in zip(env.rho, env.values):
            fh.write(f"{r:.17g},{v:.17g},{env.n},{env.family},{int(env.weighted)}\n")


def fit_to_json(fit):
    """JSON report {form, epsilon, sigma, c, c_rate, violations}."""
    if isinstance(fit.form, Polynomial):
        form, eps, sigma = "polynomial", None, fit.form.sigma
    else:
        form, eps, sigma = "sub_exponential", fit.form.epsilon, None
    return json.dumps(
        {
            "form": form,
            "epsilon": eps,
            "sigma": sigma,
            "c": fit.c,
            "c_rate": fit.c_rate,
            "violations": fit.violations,
            "satisfied": fit.satisfied,
        },
        sort_keys=True,
    )

"""Empirical decay envelopes, bound fitting, wavelet construction, and the
tensor-product counterexample suite.

An envelope bins point pairs by the family distance and records the largest
(optionally weight-normalized) kernel magnitude per bin.  Bound fitting works
against two shapes, with u the scaled distance (n*rho, or sqrt(n)*rho for the
Hermite/Laguerre families):

* polynomial:        c * p_n * (1 + u)^(-sigma)
* sub-exponential:   c * p_n * exp(-rate * u / PL(u)),  PL a log product

For the sub-exponential shape the rate is the largest value whose implied
leading constant stays within a fixed factor of the diagonal constant ("a
finite c"), in closed form: that constant never decreases as the rate grows.
The fit reports the constant and a zero violation count, or declares the
shape unsatisfied at the smallest rate of its range.  Pairs come from each
family's sampler in ``kernels.FAMILIES``, so envelopes are deterministic for
a fixed plan seed.
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


def measure_envelope(kernel, plan=None):
    """Binned decay envelope of a kernel instance under a sampling plan.

    Deterministic for a fixed plan seed: each bin's pairs come from the
    family's sampler in ``kernels.FAMILIES``.  Weighted plans need a family
    with a bound weight.
    """
    plan = plan or SamplingPlan()
    plan.validate()
    spec = kernels.FAMILIES[kernel.family]
    if plan.weighted and spec.weight is None:
        raise ValueError(f"{kernel.family} kernels carry no bound weight; measure them unweighted")
    diameter = spec.diameter(kernel.n, kernel.params)
    scale, prefactor = spec.scale(kernel.n, kernel.params)
    # geometric bin edges pin the scaled-distance grid u = scale * rho to the
    # same locations for every n, which keeps fitted constants comparable
    # across levels; the first bin starts at the diagonal
    lo = diameter / (4.0 * scale)
    edges = np.concatenate([[0.0], np.geomspace(lo, diameter, plan.n_bins)])
    bins = [
        _generic_bin_values(kernel, a, b, plan.pairs_per_bin, plan)
        for a, b in zip(edges[:-1], edges[1:])
    ]
    return DecayEnvelope(
        family=kernel.family,
        n=kernel.n,
        rho=0.5 * (edges[:-1] + edges[1:]),
        values=np.array([np.max(v) if len(v) else 0.0 for v in bins]),
        weighted=plan.weighted,
        scale=scale,
        prefactor=prefactor,
        counts=np.array([len(v) for v in bins]),
    )


def _generic_bin_values(kernel, lo, hi, count, plan):
    # |kernel| over the family sampler's pairs at distances in [lo, hi],
    # times sqrt(w(x) w(y)) when the plan is weighted
    xs, ys = kernels.FAMILIES[kernel.family].sample(kernel, lo, hi, count, plan.seed)
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


# the range of sub-exponential rates a fit reports
_RATE_MIN = 1e-3
_RATE_MAX = 20.0


def fit_bound(env, form):
    """Fit a bound shape to an envelope.

    Polynomial fits always succeed: the leading constant is the smallest c
    making the bound hold at every bin (its growth across n is what callers
    examine).  Sub-exponential fits take the largest rate, up to 20, whose
    implied constant stays within 10 times the diagonal constant; when that
    rate lies below 1e-3 the form is declared unsatisfied at 1e-3 and the
    violating bins are counted.
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
        return BoundFit(form, 0.0, _RATE_MAX, 0, True)
    log_cap = np.max(logm) - logp + math.log(10.0)
    # log c(rate) = max_i(logm_i + rate * phi_i) - logp never decreases in the
    # rate (phi >= 0), so the rates within the cap form [0, r*], r* the least
    # of the per-bin limits; a bin at phi = 0 or an empty one (logm = -inf)
    # has limit +inf
    with np.errstate(divide="ignore"):
        limits = (log_cap + logp - logm) / phi
    rate = min(float(np.min(limits)), _RATE_MAX)
    if rate < _RATE_MIN:
        violations = int(np.sum(logm - logp + _RATE_MIN * phi > log_cap))
        return BoundFit(form, float(np.exp(log_cap)), _RATE_MIN, violations, False)
    return BoundFit(form, float(np.exp(np.max(logm + rate * phi) - logp)), rate, 0, True)


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


# bins of a wavelet's decay envelope
_WAVELET_BINS = 64


def build_wavelet(epsilon):
    """Band-limited orthonormal wavelet from a kind-"c" cutoff.

    The transform equals the cutoff profile stretched to [2 pi/3, 8 pi/3]
    with a half-sample phase shift, so the wavelet itself is a rescaled
    inverse transform of the profile, whose spline is fit once.  The sample
    grid is widened until the boundary values drop below 1e-12 of the peak.
    """
    prof = cutoff_mod.assemble_cutoff(cutoff_mod.CutoffSpec("c", epsilon=epsilon))
    stretch = 4.0 * np.pi / 3.0
    half_width = 50.0
    step = 3.0 / 16.0
    transform = cutoff_mod._transform_spline(prof)
    psi = x_grid = None
    for _ in range(7):
        x_grid = np.arange(-half_width, half_width + step, step)
        psi = stretch * transform(np.abs(stretch * (x_grid - 0.5)))
        peak = np.abs(psi).max()
        edge = max(abs(psi[0]), abs(psi[-1]))
        if edge < 1e-12 * peak:
            break
        half_width *= 2.0
    else:
        raise ValueError("grid too narrow: wavelet tail has not decayed")
    norm_x = float(np.dot(psi, psi) * step)
    norm_xi = (4.0 / 3.0) * float(cutoff_mod._simpson_uniform(prof.values**2, prof.grid_step))
    plancherel_defect = abs(norm_x - norm_xi) / norm_xi
    mean_abs = abs(float(np.sum(psi) * step))
    rho = np.abs(x_grid)
    edges = np.linspace(0.0, rho.max(), _WAVELET_BINS + 1)
    idx = np.clip(np.searchsorted(edges, rho, side="right") - 1, 0, _WAVELET_BINS - 1)
    maxima = np.zeros(_WAVELET_BINS)
    np.maximum.at(maxima, idx, np.abs(psi))
    env = DecayEnvelope(
        family="wavelet",
        n=1,
        rho=0.5 * (edges[:-1] + edges[1:]),
        values=maxima,
        weighted=False,
        scale=1.0,
        prefactor=1.0,
        counts=np.bincount(idx, minlength=_WAVELET_BINS),
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
    """JSON report {form, epsilon, sigma, c, c_rate, violations, satisfied}."""
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

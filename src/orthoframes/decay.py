"""Empirical decay envelopes, bound fitting, wavelet construction, and the
tensor-product counterexample suite.

An envelope bins point pairs by the family distance and records the largest
(optionally weight-normalized) kernel magnitude per bin.  One builder,
``_binned``, turns binned samples into every envelope: kernel envelopes,
needlet profiles and wavelets each bring their own edges and samples, and
share how a bin is summarized.  Bound fitting works
against two shapes, with u the scaled distance (n*rho, or sqrt(n)*rho for the
Hermite/Laguerre families):

* polynomial:        c * p_n * (1 + u)^(-sigma)
* sub-exponential:   c * p_n * exp(-rate * u / PL(u)),  PL a log product

For the sub-exponential shape the rate is the largest value whose implied
leading constant stays within a fixed factor of the diagonal constant ("a
finite c"), in closed form: that constant never decreases as the rate grows.
The fit reports the constant and a zero violation count, or declares the
shape unsatisfied at the smallest rate of its range; a non-finite bin
leaves either shape unsatisfied.  Pairs come from one
call of each family's sampler in ``kernels.FAMILIES``, so envelopes are
deterministic for a fixed plan seed.  Every sampler but the tensor one
gives each bin at least ``pairs_per_bin`` pairs (the ball and simplex place
theirs at their planned distances on the lifted sphere); the tensor
sampler keeps its fixed pairs in the bins they fall in, so some of its bins
come up short or empty.
"""

import math
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import cutoff as cutoff_mod
from . import kernels, orthopoly

__all__ = [
    "check_seed",
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


def check_seed(seed):
    """Return ``seed`` if it is a non-negative integer, else raise the one
    ``ValueError`` that the API and the command line share (numpy's
    generators, which seed the ball and simplex bins, take no negative seed)."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic pair-sampling plan for envelope measurement."""

    seed: int = 42
    n_bins: int = 48
    pairs_per_bin: int = 256
    weighted: bool = False

    def validate(self):
        """Return the bin and pair counts as ints, or raise ValueError."""
        check_seed(self.seed)
        bins, pairs = "plans need at least 40 bins", "plans need at least 200 pairs per bin"
        return (orthopoly._check_integer(self.n_bins, 40, math.inf, bins),
                orthopoly._check_integer(self.pairs_per_bin, 200, math.inf, pairs))


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

    Deterministic for a fixed plan seed: one call of the family's sampler in
    ``kernels.FAMILIES`` draws the pairs of every bin as one triple (xs, ys,
    bins), each pair with its bin (-1 for a pair outside them all, which is
    left out), and the pairs are evaluated in one ``pair_values`` call (and,
    weighted, one ``weight`` call per side), never bin by bin.  The interval
    families' pairs are a block of 16 x 16 cells and windows: each point's
    rows are formed once, and each cell's 256 values are one tile product.
    A pair keeps its bits in any block, so the envelope equals the one
    evaluated bin by bin.  Weighted plans need a family with a bound weight.
    """
    plan = plan or SamplingPlan()
    n_bins, pairs_per_bin = plan.validate()
    spec = kernels.FAMILIES[kernel.family]
    if plan.weighted and spec.weight is None:
        raise ValueError(f"{kernel.family} kernels carry no bound weight; measure them unweighted")
    diameter = spec.diameter(kernel.n, kernel.params)
    scale, prefactor = spec.scale(kernel.n, kernel.params)
    # geometric bin edges from diameter / (4 scale) to the diameter; where the
    # diameter is fixed (every family but Hermite and Laguerre, whose
    # diameters grow like sqrt(n)) they pin the scaled-distance grid
    # u = scale * rho to the same locations for every n, which keeps fitted
    # constants comparable across levels; the first bin starts at the diagonal
    lo = diameter / (4.0 * scale)
    edges = np.concatenate([[0.0], np.geomspace(lo, diameter, n_bins)])
    xs, ys, bins = spec.sample(kernel, edges, pairs_per_bin, plan.seed)
    vals = _pair_magnitudes(kernel, xs, ys, plan.weighted).ravel()
    bins = np.ravel(bins)
    keep = bins >= 0
    return _binned(kernel.family, kernel.n, edges, bins[keep], vals[keep], scale, prefactor, plan.weighted)


def _binned(family, n, edges, bins, magnitudes, scale, prefactor, weighted=False):
    """The envelope of samples binned on ``edges``, sample i in bin
    ``bins[i]``: rho at the bin midpoints, each bin's largest magnitude (0
    for an empty bin; a nan carries through) and each bin's sample count.
    Kernel envelopes, needlet profiles and wavelets are all built here."""
    size = len(edges) - 1
    values = np.zeros(size)
    with np.errstate(invalid="ignore"):  # a nan magnitude is carried, not warned of
        np.maximum.at(values, bins, magnitudes)
    return DecayEnvelope(
        family=family,
        n=n,
        rho=0.5 * (edges[:-1] + edges[1:]),
        values=values,
        weighted=weighted,
        scale=scale,
        prefactor=prefactor,
        counts=np.bincount(bins, minlength=size),
    )


def _pair_magnitudes(kernel, xs, ys, weighted):
    # |kernel| over the pairs, times sqrt(w(x) w(y)) when weighted
    vals = np.abs(kernel.pair_values(xs, ys))
    if weighted:
        vals = vals * np.sqrt(kernel.weight(xs) * kernel.weight(ys))
    return vals


def _log_product(u, epsilon, log_depth):
    """Denominator log product: log(e + u)^(1 + eps) at depth 1, and
    log(e + u) * [loglog(e^e + u)]^(1 + eps) at depth 2."""
    u = np.asarray(u, dtype=float)
    if log_depth == 1:
        return np.log(math.e + u) ** (1.0 + epsilon)
    return np.log(math.e + u) * np.log(np.log(math.exp(math.e) + u)) ** (1.0 + epsilon)


# the range of sub-exponential rates a fit reports
_RATE_MIN = 1e-3
_RATE_MAX = 20.0


def _check_form(form):
    """The form, a sub-exponential log depth read as an int; refuse a form
    whose exponent is not finite, or whose log depth is not 1 or 2."""
    if isinstance(form, Polynomial):
        name, exponent = "sigma", form.sigma
    elif isinstance(form, SubExponential):
        name, exponent = "epsilon", form.epsilon
        form = replace(form, log_depth=cutoff_mod._check_log_depth(form.log_depth))
    else:
        raise ValueError("form must be Polynomial or SubExponential")
    orthopoly._check_values(exponent, np.isfinite, f"bound {name} must be finite")
    return form


def fit_bound(env, form):
    """Fit a bound shape to an envelope.

    Polynomial fits always succeed: the leading constant is the smallest c
    making the bound hold at every bin (its growth across n is what callers
    examine).  Sub-exponential fits take the largest rate, up to 20, whose
    implied constant stays within 10 times the diagonal constant; when that
    rate lies below 1e-3 the form is declared unsatisfied at 1e-3 and the
    violating bins are counted.  A non-finite bin fails either shape: the
    fit reports c = nan and counts those bins as its violations.  A form with
    a non-finite sigma or epsilon, or a log depth that is not 1 or 2,
    raises ValueError.
    """
    form = _check_form(form)
    polynomial = isinstance(form, Polynomial)
    vals = np.asarray(env.values, dtype=float)
    nonfinite = int(np.count_nonzero(~np.isfinite(vals)))
    if nonfinite:
        return BoundFit(form, math.nan, None if polynomial else math.nan, nonfinite, False)
    u = env.scale * np.asarray(env.rho, dtype=float)
    with np.errstate(divide="ignore"):
        logm = np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -np.inf)
    logp = math.log(env.prefactor)
    if polynomial:
        log_c = np.max(logm + form.sigma * np.log1p(u)) - logp
        c = 0.0 if log_c == -np.inf else float(np.exp(log_c))
        return BoundFit(form, c, None, 0, True)
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


# the largest relative Plancherel defect, and |mean|, that passes
PLANCHEREL_TOL = 1e-8


@dataclass
class Wavelet:
    """Band-limited orthonormal wavelet sampled on a uniform grid."""

    epsilon: float
    x: np.ndarray
    values: np.ndarray
    plancherel_defect: float
    mean_abs: float
    envelope: DecayEnvelope

    def check(self, tol=None):
        """(fit, passed): the envelope's sub-exponential fit at epsilon, and whether
        the Plancherel defect and |mean| lie below ``tol`` (default
        ``PLANCHEREL_TOL``) and the fit holds at a positive rate; nan fails."""
        tol = PLANCHEREL_TOL if tol is None else tol
        fit = fit_bound(self.envelope, SubExponential(self.epsilon))
        passed = self.plancherel_defect < tol and self.mean_abs < tol
        return fit, bool(passed and fit.satisfied and fit.c_rate > 0)


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
    env = _binned("wavelet", 1, edges, kernels._bins(edges, rho), np.abs(psi), 1.0, 1.0)
    return Wavelet(epsilon, x_grid, psi, plancherel_defect, mean_abs, env)


# per tensor variant, closed forms in (n, ia, ita, a0) (see counterexample_suite):
# the corner value, whether it is exact (else a leading term, matched within
# 10/n), and the slice's F_n'(1) on a Chebyshev-recurrence axis, if any
_CLOSED_FORMS = {
    "legleg": (lambda n, ia, ita, a0: n / 8.0 * ia + a0 / 8.0, False, None),
    "chebcheb": (lambda n, ia, ita, a0: a0 / np.pi**2, True,
                 lambda n, ia, ita, a0: 2.0 * n**2 / np.pi**2 * ita),
    "chebleg": (lambda n, ia, ita, a0: a0 / (4.0 * np.pi), False,
                lambda n, ia, ita, a0: n**2 / (2.0 * np.pi) * ita + n / (4.0 * np.pi) * ia),
}

# the largest deviation of an exact corner value that passes
COUNTEREXAMPLE_TOL = 1e-10


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

    def matches(self, variant, tol=None):
        """Whether the variant's corner values match their closed form: an
        exact one within ``tol`` (default ``COUNTEREXAMPLE_TOL``), a leading
        term within 10/n.  A nan fails."""
        resid = np.abs(self.residuals[variant])
        if _CLOSED_FORMS[variant][1]:
            return bool(np.all(resid < (COUNTEREXAMPLE_TOL if tol is None else tol)))
        return bool(np.all(resid * np.asarray(self.n_list) < 10.0))

    def to_json(self):
        return orthopoly._to_json(asdict(self))


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
        corner, _, slope = _CLOSED_FORMS[variant]
        vals = np.array(
            [kernels.tensor2d_kernel(cutoff, n, variant, x, y) for n in n_list]
        )
        pred = np.array([corner(n, ia, ita, a0) for n in n_list])
        values[variant] = vals
        predicted[variant] = pred
        residuals[variant] = vals - pred
        if slope is not None:
            fps, sups = [], []
            for n in n_list:
                coeffs = kernels.tensor_slice_cheb_coeffs(cutoff, n, variant)
                a_idx = np.arange(len(coeffs), dtype=float)
                fps.append(float(np.dot(coeffs, a_idx**2)))
                sups.append(float(np.abs(np.polynomial.chebyshev.chebval(grid, coeffs)).max()))
            slice_fprime[variant] = np.array(fps)
            sup_norms[variant] = np.array(sups)
            slice_predicted[variant] = np.array([slope(n, ia, ita, a0) for n in n_list])
    return CounterexampleReport(
        list(n_list), ia, ita, a0, values, predicted, residuals,
        slice_fprime, slice_predicted, sup_norms,
    )


def envelope_to_csv(env, path):
    """CSV columns: rho, max_abs, n, family, weighted."""
    tail = (str(env.n), env.family, int(env.weighted))
    rows = ((r, v, *tail) for r, v in zip(env.rho, env.values))
    orthopoly._write_csv(path, ("rho", "max_abs", "n", "family", "weighted"), rows)


def _fit_record(fit):
    """The fit as the record {form, epsilon, log_depth, sigma, c, c_rate,
    violations, satisfied} that ``fit_to_json`` encodes."""
    if isinstance(fit.form, Polynomial):
        form, eps, depth, sigma = "polynomial", None, None, fit.form.sigma
    else:
        form, eps, depth, sigma = "sub_exponential", fit.form.epsilon, fit.form.log_depth, None
    return {"form": form, "epsilon": eps, "log_depth": depth, "sigma": sigma, "c": fit.c,
            "c_rate": fit.c_rate, "violations": fit.violations, "satisfied": fit.satisfied}


def fit_to_json(fit):
    """JSON report {form, epsilon, log_depth, sigma, c, c_rate, violations, satisfied}."""
    return orthopoly._to_json(_fit_record(fit))

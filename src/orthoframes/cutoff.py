"""Smooth compactly supported cutoff functions with slowly growing derivatives.

The construction convolves normalized indicator functions ``chi_d =
1_{[-d,d]}/(2d)`` for a summable width sequence ``delta_j``, producing a
C-infinity bump ``h`` whose k-th derivative is bounded by
``1/(delta_0*...*delta_k)``.  Rescaling and integrating ``h`` gives a phase
function ``g`` rising from 0 to pi/2 that is flat outside (-1/2, 1/2) and
satisfies ``g(t) + g(-t) = pi/2``.  Three cutoff profiles are assembled from
``g``:

* kind ``"a"``: equals 1 on [0, 1], supported in [0, 2];
* kind ``"b"``/``"c"``: supported in [1/2, 2] with the quadratic partition
  identity ``ahat(t)^2 + ahat(t/2)^2 = 1`` on [1, 2] (the "c" profile; a valid
  "b" instance as well).

The infinite convolution is truncated at ``m_max`` factors; the product of
indicator transforms (sinc factors) is formed on the Fourier side and
inverted by FFT, which is both faster and numerically cleaner than iterated
time-domain convolution.  sinc is even, so the product is taken over the
non-negative frequencies only and mirrored.  The product decays
sub-exponentially, and it is formed only up to the last frequency where the
bound |sinc y| <= min(1, 1/|y|) lets it reach 1e-40; the rest is an exact 0.
The narrow widths (d * omega <= 1/2 at every formed omega, all but 49-111
of the 4,097 default widths) form one factor, exp of their ten-term
log-sinc series in omega^2; each other width keeps np.sinc's own arithmetic.
Without a narrow width, as in the control cutoff, bumps and profiles are
bit-identical to the full-grid product; with them the transform lies within
5e-15 of it, and no farther from the exact product than it.

The phase, the profile and its inverse transform are only ever known as
samples on uniform grids; each is interpolated by a B-spline (quintic phase,
cubic profile and transform), fit and evaluated in numpy with mirror ends,
so importing this module and assembling a cutoff load no scipy module.

The inputs have one range check, ``_check_inputs``, which specs, width
sequences, bumps and the control cutoff run: epsilon is one number in
(0, 1] and a count a whole number (4096.0 reads as 4096).  The phase scale
follows the log depth alone: 8/epsilon at depth 1, whose widths
``build_bump`` holds within 4/epsilon, and 2 (1 + 1/64) sum(delta) at
depth 2, whose widths overrun that budget.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import orthopoly

__all__ = [
    "CutoffSpec",
    "BumpFunction",
    "CutoffFunction",
    "DerivativeNorms",
    "build_delta_sequence",
    "build_bump",
    "assemble_cutoff",
    "build_control_cutoff",
    "estimate_derivative_norms",
    "check_partition_of_unity",
    "check_profile",
    "inverse_transform",
    "integrate_profile",
    "save_samples_csv",
    "spec_to_json",
    "spec_from_json",
]

KINDS = ("a", "b", "c")

DEFAULT_M_MAX = 4096
DEFAULT_GRID = 8192


@dataclass
class CutoffSpec:
    """Parameters of a cutoff construction.

    kind          one of "a", "b", "c"
    epsilon       regularity parameter in (0, 1]; smaller epsilon trades a
                  slower derivative growth rate for larger constants
    log_depth     1 for the single-log width sequence, 2 for the
                  log * iterated-log variant
    m_max         number of convolution factors retained (>= 8 for assembly)
    grid_points   resolution G of the sampled profile; samples live at
                  t = 2k/G, k = 0..G (G must be even, >= 4096)
    """

    kind: str
    epsilon: float = 1.0
    log_depth: int = 1
    m_max: int = DEFAULT_M_MAX
    grid_points: int = DEFAULT_GRID

    def validate(self):
        """Raise unless every field is in range; store them as ``_check_inputs`` reads them."""
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        inputs = _check_inputs(self.epsilon, self.log_depth, self.m_max, self.grid_points)
        self.epsilon, self.log_depth, self.m_max, self.grid_points = inputs
        if self.m_max < 8:
            raise ValueError("m_max must be at least 8 for cutoff assembly")

    def fields(self):
        """The spec's wire format: {kind, epsilon, log_depth, m_max, grid}."""
        return {key: getattr(self, name) for key, name in _WIRE.items()}


# The spec's wire format: each JSON key and the CutoffSpec field it holds.
_WIRE = {"kind": "kind", "epsilon": "epsilon", "log_depth": "log_depth", "m_max": "m_max", "grid": "grid_points"}


def _check_log_depth(log_depth):
    """``log_depth`` as an int: 1 or 2, where the widths and decay's log product have closed forms."""
    log_depth = orthopoly._check_integer(log_depth, 1, math.inf, "log_depth must be a positive integer")
    if log_depth > 2:
        raise ValueError(
            "log_depth > 2 needs astronomically many convolution factors "
            "before the iterated logarithms exceed 1"
        )
    return log_depth


def _check_inputs(epsilon, log_depth, m_max, grid_points=DEFAULT_GRID):
    """(epsilon, log_depth, m_max, grid_points) as a float and three ints, a
    whole float read as a count as the wire format reads it: the one range
    check of specs, width sequences, bumps and the control cutoff."""
    epsilon = orthopoly._one_number(epsilon, "epsilon")
    orthopoly._check_values(epsilon, lambda v: (v > 0.0) & (v <= 1.0), f"epsilon must lie in (0, 1], got {epsilon}")
    log_depth = _check_log_depth(log_depth)
    m_max = orthopoly._check_integer(m_max, -math.inf, math.inf, f"m_max must be an integer, got {m_max!r}")
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    message = "grid_points must be an even integer >= 4096"
    grid_points = orthopoly._check_integer(grid_points, 4096, math.inf, message)
    if grid_points % 2:
        raise ValueError(message)
    return epsilon, log_depth, m_max, grid_points


@dataclass
class BumpFunction:
    """Sampled even C-infinity bump with unit mass.

    ``values`` holds samples of the truncated convolution on the uniform grid
    ``t``; the function vanishes identically outside [-support_radius,
    support_radius].  ``sinc_frequencies`` counts the positive frequencies
    (of ``len(t) // 2``) at which the Fourier-side sinc product was formed.
    """

    epsilon: float
    log_depth: int
    delta: np.ndarray
    t: np.ndarray
    values: np.ndarray
    cdf: np.ndarray
    total_mass: float
    sinc_frequencies: int

    @property
    def support_radius(self):
        return float(self.delta.sum())

    def __call__(self, s):
        return np.interp(s, self.t, self.values, left=0.0, right=0.0)


@dataclass
class CutoffFunction:
    """Sampled admissible cutoff profile on [0, 2] with cubic spline evaluation.

    Calling the object evaluates the even extension ``ahat(|t|)``; the profile
    is identically zero outside its support.  Treat instances as immutable:
    they are safe to share across threads.
    """

    spec: CutoffSpec
    t: np.ndarray
    values: np.ndarray
    flat_edge: float = 1.0  # largest t where a kind-"a" profile equals 1 exactly
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self._spline = _Spline(self.t, self.values, 3)

    @property
    def grid_step(self):
        return float(self.t[1] - self.t[0])

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        out = self._spline(x)
        np.clip(out, 0.0, 1.0, out=out)
        if self.spec.kind == "a":
            out[x <= self.flat_edge] = 1.0
        out[x >= 2.0] = 0.0
        if self.spec.kind in ("b", "c"):
            out[x <= 0.5] = 0.0
        return out if out.ndim else float(out)


# Interpolating splines of odd degree k on a uniform grid x_i = x_0 + i h:
# s(x) = sum_j c_j beta_k((x - x_0) / h - j) with the centered B-spline beta_k
# of degree k.  The coefficients are the samples run through the exact
# inverse of the sampled B-spline b_k(z) = sum_n beta_k(n) z^n (Unser,
# Aldroubi and Eden, "B-spline signal processing", IEEE Trans. Signal
# Process. 41, 1993).  Each pole z_p in (-1, 0) of the inverse (two for
# k = 5) contributes the symmetric factor (1 - z_p) / (1 + z_p) z_p^|n|; the
# taps are the convolution of these factors, cut where the largest |z_p|^n
# drops below the double epsilon.  The samples are extended by whole-sample
# mirroring, so the spline is even about both ends.
_POLES = {
    3: (math.sqrt(3.0) - 2.0,),
    5: (
        0.5 * (math.sqrt(270.0 - math.sqrt(70980.0)) + math.sqrt(105.0) - 13.0),
        0.5 * (math.sqrt(270.0 + math.sqrt(70980.0)) - math.sqrt(105.0) - 13.0),
    ),
}


def _prefilter_taps(k):
    """Taps n = -half..half of the inverse of b_k (55 for k = 3, 85 for 5)."""
    poles = _POLES[k]
    half = math.ceil(math.log(np.finfo(float).eps) / math.log(abs(poles[0]))) - 1
    n = np.abs(np.arange(-half, half + 1))
    taps = np.ones(1)
    for z in poles:
        taps = np.convolve(taps, (1.0 - z) / (1.0 + z) * z**n)
    mid = len(taps) // 2
    return taps[mid - half : mid + half + 1]


def _piece_matrix(k):
    """M[m, r]: the coefficient of u^m in the weight beta_k(u + (k - 1)/2 - r)
    of c_{i - (k - 1)/2 + r} on x = x_i + u h, 0 <= u <= 1, from
    k! beta_k(x) = sum_l (-1)^l binom(k + 1, l) (x + (k + 1)/2 - l)_+^k."""
    rows = [
        [
            sum((-1) ** l * math.comb(k + 1, l) * math.comb(k, m) * (k - r - l) ** (k - m)
                for l in range(k - r + 1))
            for r in range(k + 1)
        ]
        for m in range(k + 1)
    ]
    return np.array(rows, dtype=float) / math.factorial(k)


_TAPS = {k: _prefilter_taps(k) for k in _POLES}
_PIECES = {k: _piece_matrix(k) for k in _POLES}


class _Spline:
    """Interpolating spline of odd degree k (3 or 5) through the samples y on
    the uniform grid x, 0 outside [x[0], x[-1]].

    It is held as one polynomial in u = (x - x_i) / h per interval, its
    coefficients of u^0..u^k in the rows of ``pieces``, and evaluated by
    Horner's rule over 1-D takes.  The constant terms are the samples
    themselves, so the spline meets every sample exactly.
    """

    def __init__(self, x, y, k):
        y = np.asarray(y, dtype=float)
        self.lo, self.hi = float(x[0]), float(x[-1])
        self.step = (self.hi - self.lo) / (len(y) - 1)
        taps = _TAPS[k]
        # coefficients c_j for j = -(k - 1)/2 .. len(y) - 1 + (k - 1)/2
        pad = len(taps) // 2 + (k - 1) // 2
        c = np.convolve(np.pad(y, pad, mode="reflect"), taps, mode="valid")
        width = len(y) - 1
        self.pieces = np.zeros((k + 1, width))
        self.pieces[0] = y[:-1]
        for m in range(1, k + 1):
            for r, weight in enumerate(_PIECES[k][m]):
                if weight:
                    self.pieces[m] += weight * c[r : r + width]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        # a point outside the grid (inf among them) is clamped onto it and
        # set to 0 at the end; NaN passes through
        u = np.clip(flat, self.lo, self.hi)
        u -= self.lo
        u /= self.step
        i = np.fmin(u, self.pieces.shape[1] - 1).astype(np.intp)
        u -= i
        out = self.pieces[-1].take(i)
        term = np.empty_like(out)
        for row in self.pieces[-2::-1]:
            out *= u
            out += row.take(i, out=term)
        out[(flat < self.lo) | (flat > self.hi)] = 0.0
        return out.reshape(x.shape)


def build_delta_sequence(epsilon, log_depth=1, m_max=DEFAULT_M_MAX):
    """Width sequence of the indicator convolution factors.

    Returns ``delta_0 .. delta_m_max`` with ``delta_0 = delta_1 = 1``.  For
    ``log_depth == 1`` the remaining entries are ``1/(j * log(j)**(1+eps))``;
    for ``log_depth == 2`` they are ``1/(j * log(j) * loglog(j)**(1+eps))``
    where loglog j > 1 (so log j > 1 too), and 1 elsewhere (j < 16).
    """
    epsilon, log_depth, m_max, _ = _check_inputs(epsilon, log_depth, m_max)
    delta = np.ones(m_max + 1)
    j = np.arange(2, m_max + 1, dtype=float)
    logs = np.log(j)
    if log_depth == 1:
        delta[2:] = 1.0 / (j * logs ** (1.0 + epsilon))
        return delta
    loglogs = np.log(logs)
    # a negative loglog to a fractional power is nan, replaced by 1 below
    with np.errstate(invalid="ignore"):
        vals = 1.0 / (j * logs * loglogs ** (1.0 + epsilon))
    delta[2:] = np.where(loglogs > 1.0, vals, 1.0)
    return delta


def _bump_from_delta(delta, epsilon, log_depth, grid_points):
    """Fourier-side assembly of the truncated convolution on a uniform grid."""
    delta = np.asarray(delta, dtype=float)
    support = float(delta.sum())
    half_width = support + max(1.0, 0.25 * support)
    n = int(grid_points)
    dt = 2.0 * half_width / n
    t = -half_width + dt * np.arange(n)
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    transform = _sinc_product(delta, n, dt)
    h = np.fft.ifft(transform * np.exp(-1j * omega * half_width)).real / dt
    # the grid is symmetric about t = 0 (index n//2); enforce evenness exactly
    h = 0.5 * (h + np.roll(h[::-1], 1))
    peak = h.max()
    edge = max(abs(h[0]), abs(h[-1]))
    if edge > 1e-12 * peak:
        raise ValueError(
            "grid too coarse to resolve the bump support "
            f"(boundary/peak = {edge / peak:.2e})"
        )
    if h.min() < -1e-10 * peak:
        raise ValueError("bump came out significantly negative; increase grid")
    np.clip(h, 0.0, None, out=h)
    mass = float(h.sum() * dt)
    h = h / mass
    cdf = _spectral_cdf(h, dt)
    # evenness of h makes cdf(t) + cdf(-t) = 1; enforce it exactly
    cdf = 0.5 * (cdf + 1.0 - np.roll(cdf[::-1], 1))
    np.clip(cdf, 0.0, 1.0, out=cdf)
    outside = np.abs(t) >= support
    cdf[outside & (t > 0)] = 1.0
    cdf[outside & (t < 0)] = 0.0
    return BumpFunction(
        epsilon=epsilon,
        log_depth=log_depth,
        delta=delta,
        t=t,
        values=h,
        cdf=cdf,
        total_mass=mass,
        sinc_frequencies=_formed_frequencies(delta, np.abs(omega[1 : n // 2 + 1])),
    )


# Frequencies whose product bound stays below this floor are set to 0 rather
# than formed: together they move each bump sample by less than floor / dt,
# some 1e-37, twenty orders below the FFT's own rounding.  The cut holds for the bump
# alone; a caller that multiplies the product by (i omega)^k must scale the
# floor by omega^k or form the full grid.
_SINC_FLOOR = 1e-40


def _formed_frequencies(delta, omega):
    """How many leading entries of the positive frequencies ``omega`` the
    sinc product must be formed at.

    |sinc y| <= min(1, 1/|y|) bounds the product by B(omega) with log B =
    -sum over d * omega > 1 of log(d * omega): one suffix sum over the sorted
    log-widths and one search per frequency, no sine.  The count runs to the
    last frequency whose bound reaches ``_SINC_FLOOR``, so no monotonicity is
    assumed; the 1e-6 slack in the log covers the rounding of these sums and
    of the product itself.
    """
    logs = np.sort(np.log(delta))
    tail = np.append(np.cumsum(logs[::-1])[::-1], 0.0)  # tail[i] = sum(logs[i:])
    log_omega = np.log(omega)
    wide = np.searchsorted(logs, -log_omega, side="right")  # first d * omega > 1
    log_bound = -(tail[wide] + (len(logs) - wide) * log_omega)
    kept = np.flatnonzero(log_bound >= math.log(_SINC_FLOOR) - 1e-6)
    return int(kept[-1]) + 1 if kept.size else 0


# A width d is narrow when d * omega_top <= _NARROW at the largest formed
# frequency omega_top.  For |y| <= _NARROW, log(sin y / y) = -sum_k a_k y^2k
# with a_k = 2^(2k-1) |B_2k| / (k (2k)!) = zeta(2k) / (k pi^2k) (Abramowitz
# and Stegun 4.3.71), the exact rationals below, each rounded once.  At
# y = _NARROW the tenth term is still 2.6e-16 of the first and the eleventh
# 6.0e-18, below half an ulp, so ten terms leave a tail below double rounding.
_NARROW = 0.5
_LOG_SINC = (
    1 / 6,
    1 / 180,
    1 / 2835,
    1 / 37800,
    1 / 467775,
    691 / 3831077250,
    2 / 127702575,
    3617 / 2605132530000,
    43867 / 350813659321125,
    174611 / 15313294652906250,
)


def _narrow_log_sinc(y, z):
    """-sum_d log(sin(y_d sqrt(z)) / (y_d sqrt(z))) at each z in [0, 1] for
    the scaled widths |y_d| <= _NARROW: the power sums P_k = sum_d y_d^2k,
    then one Horner pass of sum_k a_k P_k z^k."""
    y2 = np.square(y)
    power = y2.copy()
    sums = []
    for a in _LOG_SINC:
        sums.append(a * power.sum())
        power *= y2
    out = np.zeros_like(z)
    for c in reversed(sums):
        out += c
        out *= z
    return out


def _sinc_product(delta, n, dt):
    """prod_d sinc(d * omega / pi) on the ``np.fft.fftfreq(n, dt)`` frequencies.

    sinc is even and fftfreq mirrors omega exactly, so the product is formed
    over the non-negative frequencies only and mirrored.  Past the
    ``_formed_frequencies`` cut the product is below ``_SINC_FLOOR`` and is
    set to an exact 0; the omega = 0 entry stays 1.  The narrow widths (d *
    omega <= _NARROW at every formed omega) make one factor, exp of their
    truncated log-sinc series in (omega / omega_top)^2; each other width is
    multiplied in after it, in order, with np.sinc's own arithmetic (y = pi *
    ((d * omega) / pi), then sin(y) / y).  Without a narrow width the product
    is bit-identical to the full-grid one; with them it lies as close to the
    exact product as the sequential one does.
    """
    delta = np.asarray(delta, dtype=float)
    half = n // 2 + 1
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)[1:]
    formed = _formed_frequencies(delta, omega)
    top = omega[max(formed, 1) - 1]  # the largest formed frequency, if any
    omega = omega[:formed]
    narrow = delta * top <= _NARROW
    transform = np.zeros(n)
    transform[0] = 1.0
    prod = transform[1 : formed + 1]
    np.exp(-_narrow_log_sinc(delta[narrow] * top, np.square(omega / top)), out=prod)
    y = np.empty_like(omega)
    s = np.empty_like(omega)
    for d in delta[~narrow]:
        np.multiply(d, omega, out=y)
        y /= np.pi
        y *= np.pi
        np.sin(y, out=s)
        s /= y
        prod *= s
    transform[half:] = transform[n - half : 0 : -1]
    return transform


def _spectral_cdf(h, dt):
    # antiderivative of the periodic interpolant; exact for band-limited data
    n = len(h)
    mean = h.mean()
    spec = np.fft.fft(h - mean)
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(omega != 0.0, spec / (1j * omega), 0.0)
    osc = np.fft.ifft(anti).real
    return mean * dt * np.arange(n) + (osc - osc[0])


def build_bump(spec):
    """Truncated convolution bump for a cutoff spec.

    Accepts any ``m_max >= 2`` (the full cutoff assembly requires more
    factors, but the bump alone is well defined from two).
    """
    epsilon, log_depth, m_max, grid_points = _check_inputs(spec.epsilon, spec.log_depth, spec.m_max, spec.grid_points)
    delta = build_delta_sequence(epsilon, log_depth, m_max)
    if log_depth == 1 and delta.sum() > 4.0 / epsilon:
        raise ValueError(
            "width sequence sums beyond 4/epsilon; reduce m_max "
            f"(sum = {delta.sum():.6f})"
        )
    return _bump_from_delta(delta, epsilon, log_depth, grid_points)


def _phase_spline(bump, scale):
    """Spline of g(u) = (pi/2) * cdf(scale * u) with exact clamps outside."""
    u = bump.t / scale
    g = 0.5 * np.pi * bump.cdf
    spline = _Spline(u, g, 5)
    edge = bump.support_radius / scale

    def g_eval(uq):
        uq = np.asarray(uq, dtype=float)
        out = spline(np.clip(uq, -edge, edge))
        out = np.where(uq >= edge, 0.5 * np.pi, out)
        out = np.where(uq <= -edge, 0.0, out)
        return np.clip(out, 0.0, 0.5 * np.pi)

    return g_eval, edge


def _assemble_from_bump(kind, bump, spec):
    if bump.log_depth == 1:
        # widths within the 4/eps budget put the transition inside [-1/2, 1/2]
        scale = 8.0 / spec.epsilon
    else:
        # deeper log variants overrun the 4/eps support budget; stretch the
        # rescaling just enough to keep the phase transition inside (-1/2, 1/2)
        scale = 2.0 * bump.support_radius * (1.0 + 1.0 / 64.0)
    g_eval, edge = _phase_spline(bump, scale)
    g_points = int(spec.grid_points)
    t = 2.0 * np.arange(g_points + 1) / g_points
    flat_edge = 1.0
    if kind == "a":
        u = 1.5 - t
        vals = (2.0 / np.pi) * g_eval(u)
        vals = np.where(u >= edge, 1.0, vals)
        vals = np.where(u <= -edge, 0.0, vals)
        flat_edge = 1.5 - edge
    else:
        vals = np.zeros_like(t)
        lo = (t >= 0.5) & (t <= 1.0)
        hi = (t > 1.0) & (t <= 2.0)
        vals[lo] = np.sin(g_eval(2.0 * t[lo] - 1.5))
        vals[hi] = np.sin(g_eval(1.5 - t[hi]))
    np.clip(vals, 0.0, 1.0, out=vals)
    return CutoffFunction(spec=spec, t=t, values=vals, flat_edge=flat_edge)


def assemble_cutoff(spec):
    """Build an admissible cutoff function of the requested kind.

    Kind "a" returns the profile that equals 1 on [0, 1]; kinds "b" and "c"
    both return the piecewise sine assembly supported in [1/2, 2] (the "c"
    profile satisfies the quadratic partition identity and is also a valid
    "b" instance).
    """
    spec.validate()
    bump = build_bump(spec)
    return _assemble_from_bump(spec.kind, bump, spec)


def build_control_cutoff(epsilon=1.0, m_max=4, grid_points=DEFAULT_GRID):
    """Deliberately rough kind-"c" cutoff for localization comparisons.

    Uses constant widths summing to 4/epsilon, so the support matches the
    standard construction but the profile is only finitely smooth in effect.
    Its kernels decay polynomially rather than sub-exponentially, which makes
    it a control case when fitting decay rates.
    """
    epsilon, _, m_max, grid_points = _check_inputs(epsilon, 1, m_max, grid_points)
    delta = np.full(m_max + 1, (4.0 / epsilon) / (m_max + 1))
    bump = _bump_from_delta(delta, epsilon, 1, grid_points)
    spec = CutoffSpec(
        kind="c", epsilon=epsilon, log_depth=1, m_max=m_max, grid_points=grid_points
    )
    return _assemble_from_bump("c", bump, spec)


@dataclass
class DerivativeNorms:
    """Sup-norm estimates of cutoff derivatives.

    ``values[k]`` estimates ``sup |ahat^(k)|`` by spectral differentiation;
    ``finite_difference[k]`` is the central-difference cross check and
    ``reliable[k]`` records whether the two agree within 5%.  High
    orders on a double-precision grid are expected to lose reliability; the
    flags make that explicit instead of hiding it.
    """

    k_max: int
    values: np.ndarray
    finite_difference: np.ndarray
    reliable: np.ndarray


def _even_extension_lattice(f):
    """Periodic samples of ahat(|t|) on [-3, 3) using the native grid."""
    g = f.spec.grid_points
    step = 2.0 / g
    half = (3 * g) // 2  # 3/step
    vals = np.zeros(2 * half)
    base = np.zeros(half + 1)
    base[: g + 1] = f.values
    # positions m*step for m = 0..half map to |t| = m*step
    vals[half:] = base[: half]
    vals[:half] = base[half:0:-1]
    return vals, step


def estimate_derivative_norms(f, k_max=6):
    """Estimate sup-norms of the first ``k_max`` derivatives of a cutoff.

    Spectral differentiation of the raw samples (with a hard noise-floor
    truncation of the Fourier coefficients) is the primary estimator; central
    finite differences at the spectral argmax provide the cross check.
    ``k_max`` is capped at 10: beyond that no double-precision grid retains
    meaningful derivative information.
    """
    k_max = orthopoly._check_integer(k_max, 0, 10, "k_max must be an integer in 0..10")
    vals, step = _even_extension_lattice(f)
    m = len(vals)
    spec = np.fft.rfft(vals)
    floor = 1e-12 * np.abs(spec).max()
    spec = np.where(np.abs(spec) < floor, 0.0, spec)
    omega = 2.0 * np.pi * np.fft.rfftfreq(m, d=step)
    x = -3.0 + step * np.arange(m)

    estimates = np.empty(k_max + 1)
    fd = np.empty(k_max + 1)
    reliable = np.ones(k_max + 1, dtype=bool)
    estimates[0] = np.abs(f.values).max()
    fd[0] = estimates[0]
    for k in range(1, k_max + 1):
        deriv = np.fft.irfft(spec * (1j * omega) ** k, n=m)
        i_star = int(np.argmax(np.abs(deriv)))
        estimates[k] = abs(deriv[i_star])
        fd[k] = _central_fd(f, x[i_star], k, step)
        denom = max(estimates[k], 1e-300)
        reliable[k] = abs(fd[k] - estimates[k]) <= 0.05 * denom
    return DerivativeNorms(k_max, estimates, fd, reliable)


def _central_fd(f, x0, k, grid_step):
    # order-2 central stencil; step balances truncation against sample noise
    h = max(3.0 * grid_step, 0.4 * (1e-11) ** (1.0 / (k + 2)))
    i = np.arange(k + 1)
    coeff = (-1.0) ** i * np.array([math.comb(k, int(v)) for v in i])
    pts = x0 + (k / 2.0 - i) * h
    return abs(np.dot(coeff, f(np.abs(pts))) / h**k)


def check_partition_of_unity(f, t_lo=1.0, t_hi=1.0e4, samples=200_000):
    """Maximum deviation of ``sum_nu ahat(t/2^nu)^2`` from 1 on [t_lo, t_hi].

    Only kind-"c" cutoffs satisfy the identity; the sum truncates on its own
    because the profile vanishes outside (1/2, 2).  The samples are sorted and
    t / 2^nu is exact, so each scale's window is one slice of them.  Needs
    1 <= t_lo < t_hi <= 2^1021, where the window ends of every scale stay in
    double range, and a whole number of samples >= 1.
    """
    if f.spec.kind != "c":
        raise ValueError("partition check requires TypeC")
    orthopoly._check_values(t_lo, lambda v: v >= 1.0, "t_lo must be a finite number >= 1")
    orthopoly._check_values(
        t_hi, lambda v: (v > t_lo) & (v <= 2.0**1021), "t_hi must be a number exceeding t_lo and at most 2^1021"
    )
    samples = orthopoly._check_integer(samples, 1, math.inf, "samples must be an integer >= 1")
    t = np.geomspace(t_lo, t_hi, samples)
    total = np.zeros_like(t)
    scales = 2.0 ** np.arange(int(np.ceil(np.log2(t_hi))) + 2)
    starts = np.searchsorted(t, 0.5 * scales, side="right")
    stops = np.searchsorted(t, 2.0 * scales, side="left")
    for scale, lo, hi in zip(scales, starts, stops):
        total[lo:hi] += f(t[lo:hi] / scale) ** 2
    return float(np.abs(total - 1.0).max())


# the largest flat-top, support, quadratic or partition deviation that passes
PARTITION_TOL = 1e-8


def check_profile(f, seed, tol=None):
    """(report, passed): ``range_ok`` (0 <= ahat <= 1 at 4,096 points of
    [0, 2.5] drawn from ``seed``) and the deviations of the profile's kind:
    for "a" the largest |ahat - 1| on [0, 1] and |ahat| on [2, 2.5], for "b"
    and "c" the quadratic identity's on [1, 2], for "c" also the partition's
    on [1, 1e4].  It passes when the range holds and every deviation lies
    below ``tol`` (default ``PARTITION_TOL``); a nan deviation fails."""
    tol = PARTITION_TOL if tol is None else tol
    vals = f(np.random.default_rng(seed).uniform(0.0, 2.5, 4096))
    report = {"range_ok": bool(np.all((vals >= 0) & (vals <= 1)))}
    if f.spec.kind == "a":
        flat = np.abs(f(np.linspace(0, 1, 2048)) - 1.0).max()
        support = np.abs(f(np.linspace(2.0, 2.5, 256))).max()
        report["flat_deviation"] = float(np.maximum(flat, support))
    else:
        tt = np.linspace(1.0, 2.0, 2048)
        quad = np.abs(f(tt) ** 2 + f(tt / 2.0) ** 2 - 1.0).max()
        report["quadratic_identity_deviation"] = float(quad)
        if f.spec.kind == "c":
            report["partition_deviation"] = check_partition_of_unity(f, 1.0, 1.0e4)
    return report, report["range_ok"] and all(v < tol for k, v in report.items() if k != "range_ok")


def inverse_transform(f, s):
    """Inverse Fourier transform ``a(s)`` of the even extension of a cutoff.

    Computes ``a(s) = (1/pi) * integral_0^2 ahat(xi) cos(s xi) dxi`` by a
    zero-padded FFT of the raw samples followed by cubic spline interpolation,
    even about s = 0 as a(s) is.
    Arguments beyond the resolved range return 0 (the transform has decayed
    far below double precision there).
    """
    s = np.asarray(s, dtype=float)
    out = _transform_spline(f)(np.abs(s))
    return out if out.ndim else float(out)


def _transform_spline(f):
    """Cubic spline of ``a(s)`` for s >= 0 (see ``inverse_transform``); fit
    once and evaluate it at ``np.abs(s)`` to sample several grids."""
    g = f.spec.grid_points
    step = 2.0 / g
    pad_half_width = 48.0
    m = int(round(2.0 * pad_half_width / step))
    c = np.zeros(m)
    c[: g + 1] = f.values
    spec = np.fft.rfft(c)
    a_grid = (step / np.pi) * (spec.real - 0.5 * f.values[0])
    s_grid = 2.0 * np.pi * np.fft.rfftfreq(m, d=step)
    return _Spline(s_grid, a_grid, 3)


def integrate_profile(f, moment=0):
    """Integral of ``t^moment * ahat(t)`` over [0, 2] from the samples, for a
    finite ``moment`` >= 0."""
    orthopoly._check_values(moment, lambda v: v >= 0.0, "moment must be a finite number >= 0")
    w = f.values if moment == 0 else f.t**moment * f.values
    return float(_simpson_uniform(w, f.grid_step))


def _simpson_uniform(y, h):
    n = len(y)
    if n % 2 == 0:
        # even sample count: Simpson on all but the last interval + trapezoid
        return _simpson_uniform(y[:-1], h) + 0.5 * h * (y[-2] + y[-1])
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * np.dot(w, y)


def spec_to_json(spec):
    """Serialize a cutoff spec to its JSON wire format."""
    return orthopoly._to_json(spec.fields())


def spec_from_json(text):
    """Parse the JSON wire format into a CutoffSpec.  kind and epsilon are
    required; log_depth, m_max and grid keep their defaults when absent.  A
    key outside the format, a missing kind or epsilon, a non-numeric epsilon
    and a count that is not a whole number (512.0 reads as 512) raise a
    ValueError naming the key."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"a cutoff spec is a JSON object of the keys {list(_WIRE)}, got a {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_WIRE))
    if unknown:
        raise ValueError(f"unknown cutoff spec keys {unknown}: the keys are {list(_WIRE)}")
    for key in ("kind", "epsilon"):
        if key not in raw:
            raise ValueError(f"the cutoff spec needs the key {key!r}")
    return CutoffSpec(**{_WIRE[key]: _wire_value(key, value) for key, value in raw.items()})


def _wire_value(key, value):
    """A wire-format value: kind as given, epsilon as a float, a count as an int."""
    if key == "kind":
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"cutoff spec key {key!r} must be a number, got {value!r}")
    if key == "epsilon":
        return float(value)
    message = f"cutoff spec key {key!r} must be a whole number, got {value!r}"
    return orthopoly._check_integer(value, -math.inf, math.inf, message)


def save_samples_csv(f, path):
    """Write the sampled profile as two-column CSV with header ``t,ahat``."""
    orthopoly._write_csv(path, ("t", "ahat"), zip(f.t, f.values))

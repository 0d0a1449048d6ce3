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
non-negative frequencies only and mirrored, bit-identical to the full grid.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import InterpolatedUnivariateSpline

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
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        _check_epsilon(self.epsilon)
        if not isinstance(self.log_depth, numbers.Integral) or self.log_depth < 1:
            raise ValueError("log_depth must be a positive integer")
        if self.log_depth > 2:
            raise ValueError(
                "log_depth > 2 needs astronomically many convolution factors "
                "before the iterated logarithms exceed 1"
            )
        if not isinstance(self.m_max, numbers.Integral):
            raise ValueError(f"m_max must be an integer, got {self.m_max!r}")
        if self.m_max < 8:
            raise ValueError("m_max must be at least 8 for cutoff assembly")
        _check_grid(self.grid_points)


def _check_epsilon(epsilon):
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")


def _check_grid(grid_points):
    if grid_points < 4096 or grid_points % 2:
        raise ValueError("grid_points must be an even integer >= 4096")


@dataclass
class BumpFunction:
    """Sampled even C-infinity bump with unit mass.

    ``values`` holds samples of the truncated convolution on the uniform grid
    ``t``; the function vanishes identically outside [-support_radius,
    support_radius].
    """

    epsilon: float
    log_depth: int
    delta: np.ndarray
    t: np.ndarray
    values: np.ndarray
    cdf: np.ndarray
    total_mass: float

    @property
    def support_radius(self):
        return float(self.delta.sum())

    def __call__(self, s):
        return np.interp(s, self.t, self.values, left=0.0, right=0.0)


@dataclass
class CutoffFunction:
    """Sampled admissible cutoff profile on [0, 2] with spline evaluation.

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
        self._spline = InterpolatedUnivariateSpline(self.t, self.values, k=3, ext="zeros")

    @property
    def grid_step(self):
        return float(self.t[1] - self.t[0])

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        out = self._spline(x)
        np.clip(out, 0.0, 1.0, out=out)
        if self.spec.kind == "a":
            out = np.where(x <= self.flat_edge, 1.0, out)
        out = np.where(x >= 2.0, 0.0, out)
        if self.spec.kind in ("b", "c"):
            out = np.where(x <= 0.5, 0.0, out)
        return out if out.ndim else float(out)


def build_delta_sequence(epsilon, log_depth=1, m_max=DEFAULT_M_MAX):
    """Width sequence of the indicator convolution factors.

    Returns ``delta_0 .. delta_m_max`` with ``delta_0 = delta_1 = 1``.  For
    ``log_depth == 1`` the remaining entries are ``1/(j * log(j)**(1+eps))``.
    Deeper variants divide additionally by iterated logarithms; their
    non-unit entries start at the first index where every iterated-log factor
    exceeds 1 (earlier entries stay equal to 1).
    """
    _check_epsilon(epsilon)
    if log_depth < 1:
        raise ValueError("log_depth must be a positive integer")
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    delta = np.ones(m_max + 1)
    j = np.arange(2, m_max + 1, dtype=float)
    if log_depth == 1:
        delta[2:] = 1.0 / (j * np.log(j) ** (1.0 + epsilon))
        return delta
    logs = np.log(j)
    factors = [logs]
    for _ in range(log_depth - 1):
        prev = factors[-1]
        nxt = np.full_like(prev, np.nan)
        ok = prev > 0
        nxt[ok] = np.log(prev[ok])
        factors.append(nxt)
    valid = np.ones(j.shape, dtype=bool)
    for f in factors:
        valid &= np.isfinite(f) & (f > 1.0)
    prod = np.ones_like(j)
    for f in factors[:-1]:
        prod = prod * f
    # entries outside ``valid`` (a negative iterated log to a fractional
    # power among them) are replaced by 1 below
    with np.errstate(invalid="ignore"):
        vals = 1.0 / (j * prod * factors[-1] ** (1.0 + epsilon))
    delta[2:] = np.where(valid, vals, 1.0)
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
    )


def _sinc_product(delta, n, dt):
    """prod_d sinc(d * omega / pi) on the ``np.fft.fftfreq(n, dt)`` frequencies.

    sinc is even and fftfreq mirrors omega exactly, so the product is formed
    over the non-negative frequencies only, with np.sinc's own arithmetic
    (y = pi * ((d * omega) / pi), then sin(y) / y), and mirrored: the result
    is bit-identical to the full-grid product.  The omega = 0 entry stays 1.
    """
    half = n // 2 + 1
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)[1:]
    y = np.empty_like(omega)
    s = np.empty_like(omega)
    transform = np.ones(n)
    prod = transform[1:half]
    for d in delta:
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
    _check_grid(spec.grid_points)
    delta = build_delta_sequence(spec.epsilon, spec.log_depth, spec.m_max)
    if spec.log_depth == 1 and delta.sum() > 4.0 / spec.epsilon:
        raise ValueError(
            "width sequence sums beyond 4/epsilon; reduce m_max "
            f"(sum = {delta.sum():.6f})"
        )
    return _bump_from_delta(delta, spec.epsilon, spec.log_depth, spec.grid_points)


def _phase_spline(bump, scale):
    """Spline of g(u) = (pi/2) * cdf(scale * u) with exact clamps outside."""
    u = bump.t / scale
    g = 0.5 * np.pi * bump.cdf
    spline = InterpolatedUnivariateSpline(u, g, k=5)
    edge = bump.support_radius / scale

    def g_eval(uq):
        uq = np.asarray(uq, dtype=float)
        out = spline(np.clip(uq, -edge, edge))
        out = np.where(uq >= edge, 0.5 * np.pi, out)
        out = np.where(uq <= -edge, 0.0, out)
        return np.clip(out, 0.0, 0.5 * np.pi)

    return g_eval, edge


def _assemble_from_bump(kind, bump, spec):
    eps = spec.epsilon
    if bump.log_depth == 1 and bump.support_radius <= 4.0 / eps:
        scale = 8.0 / eps
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
    _check_epsilon(epsilon)
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    _check_grid(grid_points)
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
    if k_max > 10:
        raise ValueError("k_max is capped at 10 on double-precision grids")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
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
    because the profile vanishes outside [1/2, 2].
    """
    if f.spec.kind != "c":
        raise ValueError("partition check requires TypeC")
    if t_lo < 1.0:
        raise ValueError("t_lo must be >= 1")
    if t_hi <= t_lo:
        raise ValueError("t_hi must exceed t_lo")
    t = np.geomspace(t_lo, t_hi, samples)
    total = np.zeros_like(t)
    n_scales = int(np.ceil(np.log2(t_hi))) + 2
    for nu in range(n_scales):
        arg = t / 2.0**nu
        keep = (arg > 0.4) & (arg < 2.1)
        if keep.any():
            total[keep] += f(arg[keep]) ** 2
    return float(np.abs(total - 1.0).max())


def inverse_transform(f, s):
    """Inverse Fourier transform ``a(s)`` of the even extension of a cutoff.

    Computes ``a(s) = (1/pi) * integral_0^2 ahat(xi) cos(s xi) dxi`` by a
    zero-padded FFT of the raw samples followed by cubic interpolation.
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
    return InterpolatedUnivariateSpline(s_grid, a_grid, k=3, ext="zeros")


def integrate_profile(f, moment=0):
    """Integral of ``t^moment * ahat(t)`` over [0, 2] from the samples."""
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
    return json.dumps(
        {
            "kind": spec.kind,
            "epsilon": spec.epsilon,
            "log_depth": spec.log_depth,
            "m_max": spec.m_max,
            "grid": spec.grid_points,
        },
        sort_keys=True,
    )


def spec_from_json(text):
    """Parse the JSON wire format into a CutoffSpec."""
    raw = json.loads(text)
    return CutoffSpec(
        kind=raw["kind"],
        epsilon=float(raw["epsilon"]),
        log_depth=int(raw.get("log_depth", 1)),
        m_max=int(raw.get("m_max", DEFAULT_M_MAX)),
        grid_points=int(raw.get("grid", DEFAULT_GRID)),
    )


def save_samples_csv(f, path):
    """Write the sampled profile as two-column CSV with header ``t,ahat``."""
    with open(path, "w") as fh:
        fh.write("t,ahat\n")
        for ti, vi in zip(f.t, f.values):
            fh.write(f"{ti:.17g},{vi:.17g}\n")

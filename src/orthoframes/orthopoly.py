"""Stable evaluation of the orthogonal polynomial and function families.

All families are generated by forward three-term recurrences.  For the
Hermite and Laguerre function families the recurrences are normalized and
carry the exponential factors inside the recursion state, so no raw
polynomial value or factorial is ever formed; values stay O(1) wherever the
functions are O(1).  Every Gamma-function ratio goes through log-Gamma
differences to dodge overflow past n ~ 170.  Every log-Gamma in the
package is ``_lgamma``, built on the standard library's ``math.lgamma``, so
no table or norm loads scipy: only a Gauss rule of more than 256 nodes does.
Each basis has one definition, its row source: a recurrence handing its
finished rows, one at a time, to a consumer.  ``_table`` stores them, the
Gauss rules add their squares and the kernels reduce them as they arrive.

Every input range of a family is decided here, once, and the tables, the
Gauss rules and the kernels all call the owner: ``_domain`` and ``_clamped``
hold the round-off rule of every domain (a point within ``_ROUND_OFF`` =
1e-12 of it is accepted, clipped onto it where a formula needs that),
``JacobiParams`` the Jacobi pair, ``_laguerre_alpha`` the alpha of the
Laguerre function families and ``_one_number`` a parameter that is one number.

Every artifact of the package has one writer here: ``_write_csv`` writes
each CSV, floats at 17 significant digits, and ``_to_json`` encodes each
JSON record, with sorted keys and numpy values as plain lists and numbers.

Operations are pure functions of their arguments and safe for concurrent
use.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParams",
    "OrthoValueTable",
    "LaguerreBoundReport",
    "jacobi_all",
    "jacobi_norm",
    "gegenbauer_all",
    "hermite_fn_all",
    "laguerre_fn_all",
    "check_laguerre_bound",
    "save_table_csv",
]


# the dtype kinds read as numbers: bool, signed and unsigned integer, float
_NUMERIC = "biuf"


def _check_values(values, accept, message):
    """``values`` as a float array, unless an entry is not a number (a
    string, None or a complex value: "(got <dtype> values)"), is nan or
    infinite ("(got nan or inf)"), or fails ``accept``: each raises
    ``message``.  Written to accept only what passes, so no nan slips
    through a comparison; the families' parameter checks, the rules, the
    tables, the cutoffs and the kernels' domain checks all run it."""
    values = np.asarray(values)
    if values.dtype.kind not in _NUMERIC:
        raise ValueError(f"{message} (got {values.dtype} values)")
    values = values.astype(float, copy=False)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{message} (got nan or inf)")
    if not np.all(accept(values)):
        raise ValueError(message)
    return values


def _one_number(value, name):
    """``value`` as a float, unless it is an array of any size or not a
    number: that raises "``name`` must be one number"."""
    if np.ndim(value) or np.asarray(value).dtype.kind not in _NUMERIC:
        raise ValueError(f"{name} must be one number, got {value!r}")
    return float(value)


# The one round-off rule of every domain, the tables' here and the kernels': a
# point within _ROUND_OFF of it is accepted, one farther out or not finite refused.
_ROUND_OFF = 1e-12


def _domain(points, excess, message):
    """The points, unless one has a nan or infinite coordinate or lies farther
    than _ROUND_OFF outside the domain by ``excess(v)`` (<= 0 inside): that raises ``message``."""
    for v in points:
        _check_values(v, lambda v: excess(v) <= _ROUND_OFF, message)
    return points


def _clamped(v, message, lo=-1.0, hi=1.0):
    """v as a float array of [lo, hi], round-off clipped onto it.  Each side is
    checked alone: np.maximum of the two took 5x as long at 2^16 points (x86-64)."""
    v = _check_values(v, lambda v: (lo - v <= _ROUND_OFF) & (v - hi <= _ROUND_OFF), message)
    return np.clip(v, lo, hi)


def _laguerre_alpha(alpha):
    """The components of the Laguerre function families' alpha, each >= 0, as
    a 1-d float array: the one check of the tables, function rule and kernels."""
    return _check_values(np.atleast_1d(alpha), lambda v: v >= 0.0, "alpha components must be >= 0")


def _write_csv(path, header, rows):
    """Write the CSV of the column names ``header`` and one line per row:
    a float at 17 significant digits, which reads back as the same double,
    any other value as ``str`` gives it."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _plain(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _to_json(record):
    """``record`` as JSON with sorted keys, numpy arrays and scalars as
    lists and numbers."""
    return json.dumps(record, sort_keys=True, default=_plain)


# The Jacobi recurrences, the rows here and the Gauss rules' coefficients,
# multiply up to four factors of size alpha + beta + 2n, the parameters'
# squares among them; parameters up to _PARAM_MAX keep every one in double
# range.
_PARAM_MAX = 1e64


def _check_size(values, name):
    """Raise unless every entry of ``values`` is at most _PARAM_MAX; the
    Jacobi, ball, simplex and Gegenbauer parameter checks run it."""
    _check_values(values, lambda v: v <= _PARAM_MAX, f"{name} must be at most {_PARAM_MAX:.0e}")


def _check_integer(value, lo, hi, message):
    """``value`` as an int if it is a whole number in [lo, hi], else raise
    ``message`` as ``_check_values`` does; orders and levels run it."""
    _check_values(value, lambda v: (v % 1 == 0) & (v >= lo) & (v <= hi), message)
    return int(value)


def _lgamma_at(v):
    try:
        return math.lgamma(v)
    except (ValueError, OverflowError):  # a pole, or a value past double range
        return math.inf


def _lgamma(x):
    """log|Gamma(x)| elementwise by ``math.lgamma``: inf at the poles 0, -1,
    -2, ... and past double range, as scipy's log-Gamma reads, and nan
    at nan; a float for a scalar.  Elementwise in Python, so no floating-point
    flag raises a RuntimeWarning."""
    x = np.asarray(x, dtype=float)
    out = np.array([_lgamma_at(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return out if out.ndim else float(out)


def _log_beta(a, b):
    """log B(a, b) as three log-Gammas."""
    return _lgamma(a) + _lgamma(b) - _lgamma(a + b)


def _jacobi_mass(a, b):
    """The mass 2^(a + b + 1) B(a + 1, b + 1) of the Jacobi weight
    (1 - x)^a (1 + x)^b on [-1, 1]: the norm h_0 and the moment mu_0; inf
    past double range, which the norms' range check refuses."""
    with np.errstate(over="ignore"):
        return np.exp((a + b + 1) * np.log(2.0) + _log_beta(a + 1, b + 1))


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi weight exponents; orthogonality needs both above -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            _one_number(value, f"jacobi parameter {name}")
        _check_values(
            (self.alpha, self.beta), lambda v: v > -1.0, "jacobi parameters must satisfy alpha, beta > -1"
        )
        _check_size((self.alpha, self.beta), "jacobi parameters alpha, beta")


@dataclass
class OrthoValueTable:
    """Values v_0..v_{n_max} of one family at one point or point array.

    ``values`` has shape (n_max + 1,) + shape(x).
    """

    family: str
    params: tuple
    n_max: int
    x: np.ndarray
    values: np.ndarray


def _table(rows, top, x, *args):
    """The (top + 1,) + shape(x) table of a row source, each row written into
    its slot in place."""
    x = np.asarray(x, dtype=float)
    out = np.empty((top + 1,) + x.shape)
    rows(*args, top, x.reshape(-1), out.reshape(len(out), -1).__setitem__)
    return out


# Row sources ``rows(*params, top, x, consume)`` run a family's recurrence over
# the points x, flattened, and hand ``consume(n, row)`` the finished rows
# n = 0..top in order; a row may change once the call returns.  Every row
# source is its two seed rows and one step run by ``_recur``: each step writes
# its row into one of three rotating buffers with in-place ufuncs, in the
# order of the recurrence as written, so a row allocates nothing and keeps its
# bits.
#
# A seed below _TINY would underflow the rows grown from it, so those points
# recur on mantissas carrying a power-of-two exponent: 0 for the others, whose
# values stay exactly as without it (ldexp(v, 0) == v).  Only ``_recur`` reads
# the exponent: it hands on ldexp(mantissa, exponent), written into one more
# buffer, and that only while some point carries one, so the polynomial rows
# go out as they are; a row is 0 only where its true value lies below double
# range.  Once a point carries an exponent, mantissas past _HUGE are
# renormalized every _RENORM rows: one step grows them by less than 2^31
# wherever a mantissa is not 0 from the start.
_TINY = 2.0**-1000
_HUGE = 2.0**400
_RENORM = 16


def _recur(seed0, seed1, x, top, step, consume, log_seed=None, lift=None):
    """Rows 0..top at the flat points x from the seed rows 0 and 1 by
    ``step(n, x, row[n], row[n - 1], out)``, which writes row n + 1 into
    ``out`` and may overwrite row n - 1, handed finished to ``consume`` as by
    a row source; points whose seed lies below _TINY restart from the log
    ``log_seed(x)`` of their seed and the ratio ``lift(x)`` of row 1 to row 0.
    The seeds are overwritten."""
    prev, cur, nxt = seed0, seed1, np.empty(x.shape)
    exp = row = None
    far = prev < _TINY
    if top > 0 and far.any():
        log2 = log_seed(x[far]) / np.log(2.0)
        exp = np.zeros(x.shape, dtype=np.int32)
        exp[far] = np.maximum(np.floor(log2), -(2.0**30))
        prev[far] = np.exp2(log2 - exp[far])
        cur[far] = lift(x[far]) * prev[far]
        row = np.empty(x.shape)
    for n, mant in enumerate((prev, cur)[: top + 1]):
        consume(n, mant if exp is None else np.ldexp(mant, exp, out=row))
    for n in range(1, top):
        step(n, x, cur, prev, nxt)
        prev, cur, nxt = cur, nxt, prev
        if exp is not None and n % _RENORM == 0 and np.any(np.abs(cur) > _HUGE):
            big = np.abs(cur) > _HUGE
            shift = np.frexp(cur[big])[1]
            cur[big] = np.ldexp(cur[big], -shift)
            prev[big] = np.ldexp(prev[big], -shift)
            exp[big] += shift
        consume(n + 1, cur if exp is None else np.ldexp(cur, exp, out=row))


# A two-term step forms the point factors of a block of rows in one operation
# of at most _FACTOR_ENTRIES entries (at least one row): at a few points most
# of a row's cost is the Python call of each numpy operation.
_FACTOR_ENTRIES = 2**15


def _two_term(factor, coeff, top, x):
    """The step ``out = F_n cur - coeff[n] prev`` of rows n + 1 = 2..top at
    the flat points x, for ``_recur``; ``factor(lo, hi)`` returns the point
    factors F_lo..F_{hi-1} as rows, each formed in the order of a factor taken
    row by row, so a row keeps its bits at any number of points."""
    width = max(1, _FACTOR_ENTRIES // max(x.size, 1))
    coeff = coeff.tolist()
    rows = [None] * top  # the factors of the current block, each dropped once used

    def step(n, x, cur, prev, out):
        f = rows[n]
        if f is None:
            hi = min(n + width, top)
            rows[n:hi] = factor(n, hi)
            f = rows[n]
        rows[n] = None
        np.multiply(f, cur, out=out)
        prev *= coeff[n]
        out -= prev

    return step


def _chebyshev_rows(top, x, consume):
    """T_n(x) = cos(n arccos x) by T_{n+1} = 2x T_n - T_{n-1}."""
    x = np.asarray(x, dtype=float).reshape(-1)
    two_x = 2.0 * x

    def step(n, x, cur, prev, out):
        np.multiply(two_x, cur, out=out)
        out -= prev

    _recur(np.ones(x.shape), x.copy(), x, top, step, consume)


def _jacobi_rows(alpha, beta, top, x, consume):
    """Jacobi polynomials P_n^(alpha, beta)(x), P_n(1) = binom(n + alpha, n)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    s = alpha + beta

    def step(n, x, cur, prev, out):
        n += 1
        c0 = 2.0 * n * (n + s) * (2 * n + s - 2)
        c1 = (2 * n + s - 1) * (2 * n + s) * (2 * n + s - 2)
        c2 = (2 * n + s - 1) * (alpha**2 - beta**2)
        c3 = 2.0 * (n + alpha - 1) * (n + beta - 1) * (2 * n + s)
        # P_n = ((c1 x + c2) P_{n-1} - c3 P_{n-2}) / c0
        np.multiply(c1, x, out=out)
        out += c2
        out *= cur
        prev *= c3
        out -= prev
        out /= c0

    _recur(np.ones(x.shape), 0.5 * (alpha - beta + (s + 2.0) * x), x, top, step, consume)


def _jacobi_values(alpha, beta, n_max, x):
    return _table(_jacobi_rows, n_max, x, alpha, beta)


def jacobi_all(p, n_max, x):
    """Jacobi polynomials P_0..P_{n_max} at x in the traditional
    normalization P_n(1) = binom(n + alpha, n)."""
    n_max = _check_integer(n_max, 0, math.inf, "n_max must be an integer >= 0")
    x = _clamped(x, "evaluation points must lie in [-1, 1]")
    return OrthoValueTable("jacobi", (p.alpha, p.beta), n_max, x, _jacobi_values(p.alpha, p.beta, n_max, x))


def jacobi_norm(p, n):
    """Squared weighted-L2 norm h_n of the degree-n Jacobi polynomial.

    At n = 0 with alpha + beta + 1 = 0 the closed form degenerates and the
    value is the Beta integral of the weight itself (see jacobi_norms); that
    case is flagged with a warning.
    """
    n = _check_integer(n, 0, math.inf, "degree must be an integer >= 0")
    if n == 0 and abs(p.alpha + p.beta + 1.0) < 1e-12:
        warnings.warn(
            "norm formula is degenerate at n=0 for alpha+beta=-1; "
            "using direct integration of the weight",
            RuntimeWarning,
        )
    return float(jacobi_norms(p, n)[n])


# The norms h_n span double range: parameters whose norms leave it, such as
# alpha = 2000 at beta = 0 (h_0 = 2^2001 / 2001), are refused.
_NORM_RANGE = (np.finfo(float).tiny, np.finfo(float).max)


def jacobi_norms(p, n_max):
    """Vector of h_0..h_{n_max}.

    At n = 0 the closed form needs log(alpha + beta + 1): it degenerates when
    alpha + beta + 1 = 0 (Gamma pole against a vanishing prefactor) and is
    undefined below, so h_0 is then the Beta integral of the weight itself.
    Raises ValueError if a norm lies outside double range (``_NORM_RANGE``).
    """
    a, b = p.alpha, p.beta
    n = np.arange(n_max + 1, dtype=float)
    return _norms_from(p, _lgamma(n + a + 1.0), _lgamma(n + b + 1.0), _lgamma(n + 1.0), _lgamma(n + (a + b) + 1.0))


def _norms_from(p, lg_alpha, lg_beta, lg_n, lg_sum):
    """``jacobi_norms`` of p from its log-Gammas at n + alpha + 1, n + beta +
    1, n + 1 and n + alpha + beta + 1, n = 0..n_max, which a caller may share
    between parameters."""
    a, b = p.alpha, p.beta
    s = a + b
    n = np.arange(len(lg_n), dtype=float)
    n_max = len(n) - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logval = (s + 1.0) * np.log(2.0) - np.log(2.0 * n + s + 1.0) + lg_alpha + lg_beta - lg_n - lg_sum
        out = np.exp(logval)
    if s + 1.0 < 1e-12:
        out[0] = _jacobi_mass(a, b)
    lo, hi = _NORM_RANGE
    _check_values(
        out, lambda h: h >= lo,
        f"jacobi parameters alpha = {a:g}, beta = {b:g} put the norms h_0..h_{n_max} "
        f"outside double range [{lo:.4g}, {hi:.4g}]",
    )
    return out


# h_0..h_top of the parameters in use, each vector held at the largest degree
# asked for: h_n depends only on n, so a head sliced off a longer vector keeps
# its bits.  Cleared once it holds _NORMS_KEPT parameter pairs.
_NORMS = {}
_NORMS_KEPT = 64


def _jacobi_norms_upto(alpha, beta, n_max):
    """h_0..h_{n_max} of (alpha, beta), read-only, computed once per pair
    up to the largest degree asked for."""
    h = _NORMS.get((alpha, beta))
    if h is None or len(h) <= n_max:
        if len(_NORMS) >= _NORMS_KEPT:
            _NORMS.clear()
        h = jacobi_norms(JacobiParams(alpha, beta), n_max)
        h.flags.writeable = False
        _NORMS[(alpha, beta)] = h
    return h[: n_max + 1]


def _jacobi_fn_rows(alpha, beta, top, x, consume):
    """Orthonormal Jacobi polynomials P_n / sqrt(h_n), n = 0..top, at x."""
    root = np.sqrt(_jacobi_norms_upto(alpha, beta, top))
    out = np.empty(np.size(x))
    _jacobi_rows(alpha, beta, top, x, lambda n, row: consume(n, np.divide(row, root[n], out=out)))


def gegenbauer_all(lam, n_max, t):
    """Gegenbauer polynomials C_n^lam via their Jacobi relatives.

    Uses C_n^lam = [Gamma(lam+1/2)/Gamma(2 lam)] *
    [Gamma(n+2 lam)/Gamma(n+lam+1/2)] * P_n^(lam-1/2, lam-1/2) with all
    ratios in log space.
    """
    _check_values(lam, lambda v: v > 0.0, "gegenbauer parameter must be positive")
    _check_size(lam, "gegenbauer parameter")
    n_max = _check_integer(n_max, 0, math.inf, "n_max must be an integer >= 0")
    t = _clamped(t, "evaluation points must lie in [-1, 1]")
    vals = _jacobi_values(lam - 0.5, lam - 0.5, n_max, t) * _gegenbauer_ratio(lam, n_max).reshape((-1,) + (1,) * t.ndim)
    return OrthoValueTable("gegenbauer", (float(lam),), n_max, t, vals)


def _gegenbauer_ratio(lam, n_max):
    """C_n^lam / P_n^(lam - 1/2, lam - 1/2), n = 0..n_max."""
    n = np.arange(n_max + 1, dtype=float)
    logratio = (
        _lgamma(lam + 0.5)
        - _lgamma(2.0 * lam)
        + _lgamma(n + 2.0 * lam)
        - _lgamma(n + lam + 0.5)
    )
    return np.exp(logratio)


# Past _FAR a point's square leaves double range.  Every Hermite row there,
# and every Laguerre F-row, whose argument is that square, carries
# exp(-t^2 / 2) and lies far below double range, so such a point is held at
# _FAR: each of its rows comes out 0, as its true value rounds, with no
# overflow and no inf * 0; every other point keeps its bits.
_FAR = 2.0**511


def _square(t):
    """t^2 with |t| held at _FAR."""
    return np.square(np.clip(t, -_FAR, _FAR))


def _hermite_rows(top, t, consume):
    """L2-normalized Hermite functions h_n(t) by h_{n+1} = t sqrt(2 / (n + 1))
    h_n - sqrt(n / (n + 1)) h_{n-1}.  Each row is an odd or even function of
    t, and so is each step's arithmetic: the rows at -t are (-1)^n times
    those at t, bit for bit."""
    t = np.clip(np.asarray(t, dtype=float).reshape(-1), -_FAR, _FAR)
    n = np.arange(top, dtype=float)
    a, b = np.sqrt(2.0 / (n + 1)), np.sqrt(n / (n + 1.0))
    seed0 = np.pi**-0.25 * np.exp(-0.5 * t**2)
    step = _two_term(lambda lo, hi: np.multiply.outer(a[lo:hi], t), b, top, t)
    _recur(
        seed0, np.sqrt(2.0) * t * seed0, t, top, step, consume,
        lambda t: -0.5 * t**2 - 0.25 * np.log(np.pi), lambda t: np.sqrt(2.0) * t,
    )


def _hermite_fn_values(n_max, t):
    return _table(_hermite_rows, n_max, t)


def hermite_fn_all(n_max, t):
    """L2-normalized Hermite functions h_0..h_{n_max} at t.

    The recurrence carries exp(-t^2/2) in its initial values; a value is 0
    only where its true size lies below double range.
    """
    n_max = _check_integer(n_max, 0, math.inf, "n_max must be an integer >= 0")
    t = _check_values(t, np.isfinite, "evaluation points must be finite")
    return OrthoValueTable("hermite_fn", (), n_max, t, _hermite_fn_values(n_max, t))


def _laguerre_rows(alpha, top, s, consume):
    """Normalized Laguerre values ell_n(s) = sqrt(n!/Gamma(n+a+1)) *
    L_n^a(s) * exp(-s/2), the common core of all three function types."""
    s = np.asarray(s, dtype=float).reshape(-1)
    # ell_{n+1} = (2n + alpha + 1 - s) / sqrt((n + 1)(n + alpha + 1)) ell_n
    #   - sqrt(n (n + alpha) / ((n + 1)(n + alpha + 1))) ell_{n-1}
    n = np.arange(top, dtype=float)
    c, d = 2.0 * n + alpha + 1.0, np.sqrt((n + 1.0) * (n + alpha + 1.0))

    def factor(lo, hi):
        out = np.subtract.outer(c[lo:hi], s)
        out /= d[lo:hi, None]
        return out

    step = _two_term(factor, np.sqrt(n * (n + alpha) / ((n + 1.0) * (n + alpha + 1.0))), top, s)
    _recur(
        np.exp(-0.5 * s - 0.5 * _lgamma(alpha + 1.0)),
        (alpha + 1.0 - s) * np.exp(-0.5 * s - 0.5 * _lgamma(alpha + 2.0)),
        s, top, step, consume,
        lambda s: -0.5 * s - 0.5 * _lgamma(alpha + 1.0),
        lambda s: (alpha + 1.0 - s) / np.sqrt(alpha + 1.0),
    )


def _raw_laguerre_rows(alpha, top, t, consume):
    """Raw L_n^alpha(t) exp(-t/2) by the standard recurrence, the exponential
    carried in the seed rows."""
    t = np.asarray(t, dtype=float).reshape(-1)

    def step(n, t, cur, prev, out):
        # ((2n + alpha + 1 - t) cur - (n + alpha) prev) / (n + 1)
        np.subtract(2 * n + alpha + 1, t, out=out)
        out *= cur
        prev *= n + alpha
        out -= prev
        out /= n + 1.0

    seed0 = np.exp(-0.5 * t)
    _recur(
        seed0, (alpha + 1.0 - t) * seed0, t, top, step, consume,
        lambda t: -0.5 * t, lambda t: alpha + 1.0 - t,
    )


def _laguerre_core(alpha, n_max, s):
    return _table(_laguerre_rows, n_max, s, alpha)


def _laguerre_fn_rows(alpha, top, t, consume):
    """The F-type functions sqrt(2) ell_n(t^2), orthonormal in
    L2(R_+, t^(2a+1) dt)."""
    out, root2 = np.empty(np.size(t)), np.sqrt(2.0)
    s = _square(np.asarray(t, dtype=float))
    _laguerre_rows(alpha, top, s, lambda n, row: consume(n, np.multiply(row, root2, out=out)))


def _times_power(core, t, power):
    """The rows ``core`` times ``power(t)``, the power formed only at points
    with a nonzero row: a far point's rows are all 0, and its power may leave
    double range."""
    live = np.any(core != 0, axis=0)
    factor = np.zeros(t.shape)
    factor[live] = power(t[live])
    return core * factor


def laguerre_fn_all(alpha, n_max, t, which="F"):
    """Normalized Laguerre function families at t >= 0.

    which = "F": sqrt(2 n!/Gamma(n+a+1)) exp(-t^2/2) L_n^a(t^2),
            orthonormal in L2(R_+, t^(2a+1) dt);
    which = "L": sqrt(n!/Gamma(n+a+1)) exp(-t/2) t^(a/2) L_n^a(t),
            orthonormal in L2(R_+);
    which = "M": sqrt(2t) * L-type at t^2, orthonormal in L2(R_+).
    """
    (alpha,) = _laguerre_alpha(_one_number(alpha, "alpha"))
    n_max = _check_integer(n_max, 0, math.inf, "n_max must be an integer >= 0")
    if which not in ("F", "L", "M"):
        raise ValueError("which must be 'F', 'L', or 'M'")
    # clipped: the L and M types form t^(alpha / 2), nan at a negative t
    t = _clamped(t, "evaluation points must be nonnegative", 0.0, math.inf)
    if which == "F":
        vals = _table(_laguerre_fn_rows, n_max, t, alpha)
    elif which == "L":
        vals = _times_power(_laguerre_core(alpha, n_max, t), t, lambda t: t ** (0.5 * alpha))
    else:
        core = _laguerre_core(alpha, n_max, _square(t))
        vals = _times_power(core, t, lambda t: np.sqrt(2.0 * t) * t**alpha)
    return OrthoValueTable(f"laguerre_{which}", (float(alpha),), n_max, t, vals)


@dataclass
class LaguerreBoundReport:
    """Fitted constants for the half-line envelope of Laguerre polynomials.

    ``constants[i]`` is the smallest c with
    |L_n^alpha(t)| exp(-t/2) <= c 2^alpha (n/t)^(alpha/2) over the scanned
    t-range for n = degrees[i].  ``growth_flag`` is set when the fitted
    constants drift upward with n, which would contradict an n-uniform bound.
    """

    alpha: float
    degrees: np.ndarray
    constants: np.ndarray
    growth_flag: bool

    def spread(self, degrees):
        c = [self.constants[list(self.degrees).index(n)] for n in degrees]
        return max(c) / min(c)


def check_laguerre_bound(alpha, n_max, t_points=600):
    """Scan the weighted Laguerre envelope and fit its leading constant.

    Valid for -1/2 <= alpha <= n; degrees below ceil(alpha) are skipped so
    the precondition holds for every reported constant.
    """
    _check_values(alpha, lambda v: v >= -0.5, "alpha must be >= -1/2")
    n_max = _check_integer(n_max, 0, math.inf, "n_max must be an integer >= 0")
    t_points = _check_integer(t_points, 1, math.inf, "t_points must be an integer >= 1")
    n_lo = max(1, int(np.ceil(alpha)))
    if n_max < n_lo:
        raise ValueError("n_max too small for this alpha")
    t = np.geomspace(1e-3, 3.0 * (4.0 * n_max + 2.0 * alpha + 2.0), t_points)
    degrees = np.arange(n_lo, n_max + 1)
    constants = np.empty(len(degrees))
    envelope = (2.0**alpha) * np.where(t > 0, 1.0, np.inf)

    def scan(n, row):
        if n >= n_lo:
            constants[n - n_lo] = (np.abs(row) / (envelope * (n / t) ** (alpha / 2.0))).max()

    _raw_laguerre_rows(alpha, n_max, t, scan)
    half = max(1, len(degrees) // 2)
    growth = constants[half:].max() > 2.0 * constants[:half].min() if len(degrees) > 1 else False
    return LaguerreBoundReport(float(alpha), degrees, constants, bool(growth))


def save_table_csv(table, path):
    """Write a value table as CSV (degree, value); point arrays flatten."""
    vals = np.atleast_2d(table.values.reshape(table.n_max + 1, -1))
    header = ["degree"] + [f"v{i}" for i in range(vals.shape[1])]
    _write_csv(path, header, ([n, *row] for n, row in enumerate(vals)))

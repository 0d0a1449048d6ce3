"""Gaussian quadrature rules for the Jacobi, Hermite and Laguerre weights.

Nodes are the eigenvalues of the symmetric tridiagonal matrix of recurrence
coefficients (Golub and Welsch, Math. Comp. 1969).  Up to ``_DENSE_MAX`` =
256 nodes numpy's dense ``eigvalsh`` finds them, and above it scipy's
``eigh_tridiagonal``.  Both end in LAPACK's ``dsterf`` on the same diagonal
and squared off-diagonal (reducing a matrix that is already tridiagonal
takes zero Householder vectors), so either path gives the nodes the same
bits, and only rules above the cut load scipy.  The Hermite weight is even,
so an m-point Hermite rule takes its nodes as +-sqrt(s) from the
floor(m/2)-point Laguerre rule at alpha = -1/2 (m even) or +1/2 (m odd, with
a node at 0) (Gautschi, Orthogonal Polynomials, 2004): half the eigenproblem,
and nodes exactly antisymmetric; only Hermite rules above 513 nodes load
scipy.  Weights are the Christoffel numbers 1 / sum_k f_k(x)^2 of the
family's normalized functions f_0..f_{m-1} at the nodes: orthonormal Jacobi
polynomials, or Hermite and Laguerre functions that carry the root of their
weight, so no weight underflows before its true value does.  One pass over
the rows adds their squares as they come and keeps no table; Hermite rows
are recurred at the nodes x >= 0 only, since the rows at -x are (-1)^n times
those at x.  A frame level asks the same pass to write its band rows.  An
m-point rule integrates all polynomials of degree <= 2m-1 exactly against
its weight.

Two derived rules serve band-limited function spaces directly: they
integrate ``p(x) exp(-x^2)`` over the line and ``p(t^2) exp(-t^2)`` against
``t^(2a+1)`` over the half line, with weights the reciprocal Christoffel
sums of the normalized functions themselves.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import orthopoly

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "verify_exactness",
    "verify_orthonormality",
    "hermite_function_rule",
    "laguerre_function_rule",
    "rule_to_json",
    "save_rule_csv",
]

_FAMILIES = ("jacobi", "hermite", "laguerre")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights with declared polynomial exactness against a weight."""

    weight: str
    params: tuple
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int

    @property
    def m(self):
        return len(self.nodes)


def _jacobi_coeffs(m, alpha, beta):
    orthopoly._check_values((alpha, beta), lambda v: v > -1.0, "jacobi weight needs alpha, beta > -1")
    orthopoly._check_size((alpha, beta), "jacobi weight parameters alpha, beta")
    k = np.arange(m, dtype=float)
    s = alpha + beta
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (beta**2 - alpha**2) / ((2 * k + s) * (2 * k + s + 2))
    a[0] = (beta - alpha) / (s + 2.0)
    b2 = np.zeros(max(m - 1, 0))
    if m > 1:
        kk = k[2:]
        b2[0] = 4.0 * (alpha + 1) * (beta + 1) / ((s + 2) ** 2 * (s + 3))
        b2[1:] = (4.0 * kk * (kk + alpha) * (kk + beta) * (kk + s)
                  / ((2 * kk + s) ** 2 * (2 * kk + s + 1) * (2 * kk + s - 1)))
    return a, np.sqrt(b2), orthopoly._jacobi_mass(alpha, beta)


def _laguerre_coeffs(m, alpha):
    orthopoly._check_values(alpha, lambda v: v > -1.0, "laguerre weight needs alpha > -1")
    k = np.arange(m, dtype=float)
    a = 2 * k + alpha + 1
    kk = k[1:]
    b = np.sqrt(kk * (kk + alpha))
    return a, b, np.exp(orthopoly._lgamma(alpha + 1))


def gauss_rule(weight, m, alpha=None, beta=None, level=None):
    """Gaussian rule with m nodes for one of the classical weights.

    weight   "jacobi" ((1-x)^alpha (1+x)^beta on [-1, 1]),
             "hermite" (exp(-x^2) on R), or
             "laguerre" (x^alpha exp(-x) on (0, inf), alpha defaults to 0)
    level    optional (band, out): the pass that sums the weights also
             writes band[i] f_n(x), n = m - len(band) + i, into out[i]
             (len(band) x m), f_n the normalized functions of the weights
    """
    if weight not in _FAMILIES:
        raise ValueError(f"unknown weight {weight!r}; expected one of {_FAMILIES}")
    if weight == "jacobi" and (alpha is None or beta is None):
        raise ValueError("jacobi rule needs alpha and beta")
    params = {"jacobi": (alpha, beta), "hermite": (), "laguerre": (alpha or 0.0,)}[weight]
    params = tuple(float(v) for v in params)
    nodes, sums, mu0 = _christoffel_pass(weight, m, *params, level=level)
    # Christoffel numbers 1/sums; the Hermite and Laguerre functions carry the
    # root of their weight, which the line weights put back without leaving
    # range: full relative accuracy, and 0 only below double range
    with np.errstate(under="ignore"):
        if weight == "jacobi":
            weights = 1.0 / sums
        else:
            weights = np.exp(-nodes ** (2 if weight == "hermite" else 1) - np.log(sums))
    m = len(nodes)
    return QuadratureRule(weight, params, nodes, weights if m > 1 else np.array([mu0]), 2 * m - 1)


# The largest Jacobi matrix whose eigenvalues come from numpy's dense solver.
# Up to here the dense O(m^3) solve is small next to the import of
# scipy.linalg that it saves (about 0.34 s): 0.03, 0.2 and 4.4 ms at m = 8, 64
# and 256, against 0.04, 0.12 and 1.5 ms for the tridiagonal solver (2 shared
# vCPUs).  Above it the gap grows as m^3 against m^2 (19 against 5.6 ms at
# m = 512), and the frames' levels of 1,024 to 4,096 nodes would pay seconds.
_DENSE_MAX = 256


def _eigenvalues(a, b):
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal a and
    off-diagonal b: dense up to ``_DENSE_MAX`` rows, tridiagonal above."""
    if len(a) <= _DENSE_MAX:
        # eigvalsh reads the lower triangle
        return np.linalg.eigvalsh(np.diag(a) + np.diag(b, -1))
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(a, b, eigvals_only=True)


def _eigen_nodes(coeffs, support):
    """nodes(m, *params) -> (nodes, mu0): the sorted eigenvalues of the Jacobi
    matrix of ``coeffs``, mapped by ``support``, and the zeroth moment."""

    def nodes(m, *params):
        a, b, mu0 = coeffs(m, *params)
        try:
            return support(np.sort(_eigenvalues(a, b))), mu0
        except np.linalg.LinAlgError as err:  # pragma: no cover
            raise RuntimeError("tridiagonal eigensolver failed") from err

    return nodes


_laguerre_nodes = _eigen_nodes(_laguerre_coeffs, lambda x: np.clip(x, 0.0, None))


def _hermite_nodes(m):
    """The m Gauss-Hermite nodes +-sqrt(s), s the nodes of the k = floor(m/2)
    point Laguerre rule at alpha = -1/2 (m = 2k) or +1/2 (m = 2k + 1, with 0
    between), and the zeroth moment sqrt(pi)."""
    root = np.sqrt(_laguerre_nodes(m // 2, m % 2 - 0.5)[0])
    return np.concatenate([-root[::-1], np.zeros(m % 2), root]), np.sqrt(np.pi)


# Per rule weight: its nodes and zeroth moment from (m, *params); its
# normalized functions f_0..f_top at points x, as a table from (params, top,
# x) and as a row source rows(params, top, x, consume), both looked up in
# orthopoly at call time so a replaced attribute reaches them; and whether the
# weight is even, its rows at -x (-1)^n times those at x.  The weights of the
# function rules are the passes that ``gauss_rule`` does not build.
_PASSES = {
    "jacobi": (_eigen_nodes(_jacobi_coeffs, lambda x: np.clip(x, -1.0, 1.0)),
               lambda p, top, x: orthopoly._jacobi_fn_values(*p, top, x),
               lambda p, top, x, consume: orthopoly._jacobi_fn_rows(*p, top, x, consume), False),
    "hermite": (_hermite_nodes, lambda p, top, x: orthopoly._hermite_fn_values(top, x),
                lambda p, top, x, consume: orthopoly._hermite_rows(top, x, consume), True),
    "laguerre": (_laguerre_nodes, lambda p, top, x: orthopoly._laguerre_core(*p, top, x),
                 lambda p, top, x, consume: orthopoly._laguerre_rows(*p, top, x, consume), False),
    # the Laguerre weight in t = sqrt(s), whose functions are the F-type functions of t
    "laguerre_fn": (_eigen_nodes(_laguerre_coeffs, lambda x: np.sqrt(np.clip(x, 0.0, None))),
                    lambda p, top, x: orthopoly._laguerre_fn_values(*p, top, x),
                    lambda p, top, x, consume: orthopoly._laguerre_fn_rows(*p, top, x, consume), False),
}
_PASSES["hermite_fn"] = _PASSES["hermite"]


def _rule_functions(rule, top, x):
    """The normalized functions f_0..f_top of ``rule`` at x, rows by degree:
    the functions whose Christoffel sums at the nodes gave its weights."""
    return _PASSES[rule.weight][1](rule.params, top, x)


def _christoffel_pass(weight, m, *params, level=None):
    """(nodes, sums, mu0) of the m-point rule of a ``_PASSES`` entry: the
    nodes, the Christoffel sums sum_k f_k(x)^2 of the normalized functions
    f_0..f_{m-1} at them, added row by row as the rows come, and the zeroth
    moment.  ``level`` = (band, out) has the same pass write band[i] f_n,
    n = m - len(band) + i, into out[i].  An even weight's rows are recurred
    at its last ceil(m/2) nodes, those >= 0, and mirrored onto the first:
    out gets (-1)^n band[i] times them in reverse, and the sums their
    reverse."""
    m = orthopoly._check_integer(m, 1, math.inf, "node count m must be an integer >= 1")
    node_source, _, rows, even = _PASSES[weight]
    nodes, mu0 = node_source(m, *params)
    half = m // 2 if even else 0
    sums, square = np.zeros(m - half), np.empty(m - half)
    band, out = level if level is not None else ((), None)
    lo = m - len(band)

    def consume(n, row):
        np.add(sums, np.multiply(row, row, out=square), out=sums)
        if n >= lo:
            b = band[n - lo]
            np.multiply(row, b, out=out[n - lo, half:])
            if half:
                np.multiply(row[::-1][:half], -b if n % 2 else b, out=out[n - lo, :half])

    rows(params, m - 1, nodes[half:], consume)
    if half:
        sums = np.concatenate([sums[::-1][:half], sums])
    return nodes, sums, mu0


def _jacobi_moments(degree, alpha, beta):
    # mu_{k+1} = ((beta-alpha) mu_k + k mu_{k-1}) / (alpha+beta+2+k)
    mu = np.empty(degree + 1)
    mu[0] = orthopoly._jacobi_mass(alpha, beta)
    if degree >= 1:
        mu[1] = (beta - alpha) / (alpha + beta + 2.0) * mu[0]
    for k in range(1, degree):
        mu[k + 1] = ((beta - alpha) * mu[k] + k * mu[k - 1]) / (alpha + beta + 2.0 + k)
    return mu


def _log_sum(logs, signs):
    """(log |q|, sign q) of q = sum signs * exp(logs), with no exponential
    leaving double range; NaN in, NaN out."""
    top = np.max(logs)
    if top == -np.inf:
        return top, 0.0
    q = np.dot(signs, np.exp(logs - top))
    with np.errstate(divide="ignore"):
        return top + np.log(abs(q)), np.sign(q)


# the largest moment or orthonormality error a rule may show and pass
EXACTNESS_TOL = 1e-10


def _check_degree(rule, degree):
    """``degree`` as an int if it is a whole number in 0..the rule's
    exactness, else raise as ``orthopoly._check_integer`` does."""
    message = f"degree must be an integer in 0..{rule.exactness}, the declared exactness"
    return orthopoly._check_integer(degree, 0, rule.exactness, message)


def verify_exactness(rule, degree):
    """Max relative error of the rule's monomial moments up to ``degree``.

    Exact moments come from Beta/Gamma closed forms (a stable two-term
    recurrence for the Jacobi weight).  Hermite and Laguerre moments are
    compared in log space, where neither they nor any positive weight, however
    small, leave double range; odd Hermite moments vanish by symmetry and are
    checked against the neighboring even scale.  A non-finite error is
    returned, never dropped.
    """
    degree = _check_degree(rule, degree)
    x, w = rule.nodes, rule.weights
    errors = np.empty(degree + 1)
    if rule.weight == "jacobi":
        mu = _jacobi_moments(degree, *rule.params)
        for k in range(degree + 1):
            q = np.dot(w, x**k)
            # vanishing odd moments are judged against the absolute-mass
            # scale at the same degree instead of their zero value
            scale = max(abs(mu[k]), float(np.dot(w, np.abs(x) ** k)))
            errors[k] = abs(q - mu[k]) / scale if scale > 0 else abs(q - mu[k])
        return float(np.max(errors))
    with np.errstate(divide="ignore"):
        logw, logx = np.log(w), np.log(np.abs(x))
    sign = np.sign(x)
    for k in range(degree + 1):
        logq, qsign = _log_sum(logw + k * logx if k else logw, sign**k)
        if rule.weight == "laguerre":
            errors[k] = abs(np.expm1(logq - orthopoly._lgamma(rule.params[0] + k + 1)))
        elif k % 2 == 0:
            errors[k] = abs(qsign * np.exp(logq - orthopoly._lgamma((k + 1) / 2.0)) - 1.0)
        else:
            errors[k] = np.exp(logq - orthopoly._lgamma((k + 2) / 2.0))
    return float(np.max(errors))


def verify_orthonormality(rule, degree=None):
    """Largest |sum_i w_i f_j(x_i) f_k(x_i) - delta_jk| over j, k < m with
    j + k <= ``degree`` (default: the rule's exactness) for a function rule of
    ``hermite_function_rule`` or ``laguerre_function_rule``, whose weights
    integrate products of the normalized functions f_j.

    The functions are tabulated afresh at the rule's nodes.  Unlike the
    monomial moments and the Gauss weights, neither these sums nor the
    function rule's weights leave double range at any m.  A non-finite
    entry is returned as nan, never dropped.
    """
    if rule.weight not in _PASSES or rule.weight in _FAMILIES:
        raise ValueError(f"orthonormality is checked on function rules, not {rule.weight!r}")
    degree = rule.exactness if degree is None else _check_degree(rule, degree)
    rows = _rule_functions(rule, rule.m - 1, rule.nodes)
    gram = (rows * rule.weights) @ rows.T
    j = np.arange(rule.m)
    gram[np.diag_indices(rule.m)] -= 1.0
    err = np.abs(gram[j[:, None] + j <= degree]).max()
    return float(err) if np.isfinite(err) else math.nan


def hermite_function_rule(m, level=None):
    """Rule integrating ``p(x) exp(-x^2)`` over R exactly for deg p <= 2m-1.

    Weights are ``exp(x_i^2)`` times the Gauss-Hermite weights, formed as
    reciprocal Christoffel sums of the normalized Hermite functions so that
    no intermediate quantity underflows.  ``level`` is ``gauss_rule``'s.
    """
    nodes, sums, _ = _christoffel_pass("hermite_fn", m, level=level)
    return QuadratureRule("hermite_fn", (), nodes, 1.0 / sums, 2 * len(nodes) - 1)


def laguerre_function_rule(alpha, m, level=None):
    """Rule for ``integral_0^inf G(t) t^(2 alpha + 1) dt`` on Laguerre-type
    functions ``G(t) = p(t^2) exp(-t^2)``, exact for deg p <= 2m-1.

    Built from the generalized Gauss-Laguerre rule in the substituted
    variable s = t^2; the exponential factor is absorbed through Christoffel
    sums of the normalized F-type functions at the nodes t.  ``level`` is
    ``gauss_rule``'s.
    """
    orthopoly._check_values(alpha, lambda v: v >= 0.0, "alpha must be >= 0")
    nodes, sums, _ = _christoffel_pass("laguerre_fn", m, alpha, level=level)
    return QuadratureRule("laguerre_fn", (float(alpha),), nodes, 1.0 / sums, 2 * len(nodes) - 1)


def rule_to_json(rule):
    """JSON descriptor {weight, params, m} of a rule."""
    return orthopoly._to_json({"weight": rule.weight, "params": rule.params, "m": rule.m})


def save_rule_csv(rule, path):
    """Write nodes and weights as two-column CSV with header ``node,weight``."""
    orthopoly._write_csv(path, ("node", "weight"), zip(rule.nodes, rule.weights))

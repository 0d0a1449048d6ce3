"""Gaussian quadrature rules for the Jacobi, Hermite and Laguerre weights.

Nodes are the eigenvalues of the symmetric tridiagonal matrix of recurrence
coefficients (Golub and Welsch, Math. Comp. 1969).  Up to ``_DENSE_MAX`` =
256 nodes numpy's dense ``eigvalsh`` finds them, and above it scipy's
``eigh_tridiagonal``.  Both end in LAPACK's ``dsterf`` on the same diagonal
and squared off-diagonal (reducing a matrix that is already tridiagonal
takes zero Householder vectors), so either path gives the nodes the same
bits, and only rules above the cut load scipy.  Weights are the Christoffel
numbers 1 / sum_k f_k(x)^2 over one table of the family's normalized
functions f_0..f_{m-1} at the nodes: orthonormal Jacobi polynomials, or
Hermite and Laguerre functions that carry the root of their weight, so no
weight underflows before its true value does.  The rule keeps that table.
An m-point rule integrates all polynomials of degree <= 2m-1 exactly
against its weight.

Two derived rules serve band-limited function spaces directly: they
integrate ``p(x) exp(-x^2)`` over the line and ``p(t^2) exp(-t^2)`` against
``t^(2a+1)`` over the half line, with weights the reciprocal Christoffel
sums of the normalized functions themselves.
"""

import math
from dataclasses import dataclass, field

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
    """Nodes/weights with declared polynomial exactness against a weight,
    and the ``table`` of normalized functions f_0..f_{m-1} (rows) at the
    nodes whose Christoffel sums gave the weights."""

    weight: str
    params: tuple
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    table: np.ndarray = field(default=None, repr=False, compare=False)

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


def _hermite_coeffs(m):
    k = np.arange(1, m, dtype=float)
    return np.zeros(m), np.sqrt(k / 2.0), np.sqrt(np.pi)


def _laguerre_coeffs(m, alpha):
    orthopoly._check_values(alpha, lambda v: v > -1.0, "laguerre weight needs alpha > -1")
    k = np.arange(m, dtype=float)
    a = 2 * k + alpha + 1
    kk = k[1:]
    b = np.sqrt(kk * (kk + alpha))
    return a, b, np.exp(orthopoly._lgamma(alpha + 1))


def gauss_rule(weight, m, alpha=None, beta=None):
    """Gaussian rule with m nodes for one of the classical weights.

    weight   "jacobi" ((1-x)^alpha (1+x)^beta on [-1, 1]),
             "hermite" (exp(-x^2) on R), or
             "laguerre" (x^alpha exp(-x) on (0, inf), alpha defaults to 0)
    """
    if weight not in _FAMILIES:
        raise ValueError(f"unknown weight {weight!r}; expected one of {_FAMILIES}")
    if weight == "jacobi" and (alpha is None or beta is None):
        raise ValueError("jacobi rule needs alpha and beta")
    params = {"jacobi": (alpha, beta), "hermite": (), "laguerre": (alpha or 0.0,)}[weight]
    params = tuple(float(v) for v in params)
    nodes, table, sums, mu0 = _christoffel_pass(weight, m, *params)
    # Christoffel numbers 1/sums; the Hermite and Laguerre functions carry the
    # root of their weight, which the line weights put back without leaving
    # range: full relative accuracy, and 0 only below double range
    with np.errstate(under="ignore"):
        if weight == "jacobi":
            weights = 1.0 / sums
        else:
            weights = np.exp(-nodes ** (2 if weight == "hermite" else 1) - np.log(sums))
    m = len(nodes)
    return QuadratureRule(weight, params, nodes, weights if m > 1 else np.array([mu0]), 2 * m - 1, table)


# Per rule weight: its recurrence coefficients (a, b, mu0) from (m, *params),
# the map of the sorted eigenvalues onto the nodes, and its normalized functions
# f_0..f_top at points x from (params, top, x), looked up in orthopoly at call
# time so a replaced attribute reaches them.  The weights of the function rules
# are the passes that ``gauss_rule`` does not build.
_PASSES = {
    "jacobi": (_jacobi_coeffs, lambda x: np.clip(x, -1.0, 1.0),
               lambda p, top, x: orthopoly._jacobi_fn_values(*p, top, x)),
    "hermite": (_hermite_coeffs, lambda x: x, lambda p, top, x: orthopoly._hermite_fn_values(top, x)),
    "laguerre": (_laguerre_coeffs, lambda x: np.clip(x, 0.0, None),
                 lambda p, top, x: orthopoly._laguerre_core(*p, top, x)),
    # the Laguerre weight in t = sqrt(s), tabulating the F-type functions of t
    "laguerre_fn": (_laguerre_coeffs, lambda x: np.sqrt(np.clip(x, 0.0, None)),
                    lambda p, top, x: orthopoly._laguerre_fn_values(*p, top, x)),
}
_PASSES["hermite_fn"] = _PASSES["hermite"]


def _rule_functions(rule, top, x):
    """The normalized functions f_0..f_top of ``rule`` at x, rows by degree:
    the functions whose Christoffel sums at the nodes gave its weights."""
    return _PASSES[rule.weight][2](rule.params, top, x)


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


def _christoffel_pass(weight, m, *params):
    """(nodes, table, sums, mu0) of the m-point rule of a ``_PASSES`` entry:
    the nodes from the eigenvalues of the Jacobi matrix, the table of the
    normalized functions f_0..f_{m-1} at them, the Christoffel sums
    sum_k f_k(x)^2, taken row by row, and the zeroth moment."""
    m = orthopoly._check_integer(m, 1, math.inf, "node count m must be an integer >= 1")
    coeffs, support, functions = _PASSES[weight]
    a, b, mu0 = coeffs(m, *params)
    try:
        nodes = support(np.sort(_eigenvalues(a, b)))
    except np.linalg.LinAlgError as err:  # pragma: no cover
        raise RuntimeError("tridiagonal eigensolver failed") from err
    table = functions(params, m - 1, nodes)
    sums = np.zeros(m)
    for row in table:
        sums += row * row
    return nodes, table, sums, mu0


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


def verify_exactness(rule, degree):
    """Max relative error of the rule's monomial moments up to ``degree``.

    Exact moments come from Beta/Gamma closed forms (a stable two-term
    recurrence for the Jacobi weight).  Hermite and Laguerre moments are
    compared in log space, where neither they nor any positive weight, however
    small, leave double range; odd Hermite moments vanish by symmetry and are
    checked against the neighboring even scale.  A non-finite error is
    returned, never dropped.
    """
    message = f"degree must be an integer in 0..{rule.exactness}, the declared exactness"
    degree = orthopoly._check_integer(degree, 0, rule.exactness, message)
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
    rows = _rule_functions(rule, rule.m - 1, rule.nodes)
    degree = rule.exactness if degree is None else degree
    if not 0 <= degree <= rule.exactness:
        raise ValueError(f"degree must lie in 0..{rule.exactness}")
    gram = (rows * rule.weights) @ rows.T
    j = np.arange(rule.m)
    gram[np.diag_indices(rule.m)] -= 1.0
    err = np.abs(gram[j[:, None] + j <= degree]).max()
    return float(err) if np.isfinite(err) else math.nan


def hermite_function_rule(m):
    """Rule integrating ``p(x) exp(-x^2)`` over R exactly for deg p <= 2m-1.

    Weights are ``exp(x_i^2)`` times the Gauss-Hermite weights, formed as
    reciprocal Christoffel sums of the normalized Hermite functions so that
    no intermediate quantity underflows.
    """
    nodes, table, sums, _ = _christoffel_pass("hermite_fn", m)
    return QuadratureRule("hermite_fn", (), nodes, 1.0 / sums, 2 * len(nodes) - 1, table)


def laguerre_function_rule(alpha, m):
    """Rule for ``integral_0^inf G(t) t^(2 alpha + 1) dt`` on Laguerre-type
    functions ``G(t) = p(t^2) exp(-t^2)``, exact for deg p <= 2m-1.

    Built from the generalized Gauss-Laguerre rule in the substituted
    variable s = t^2; the exponential factor is absorbed through Christoffel
    sums of the normalized F-type functions at the nodes t.
    """
    orthopoly._check_values(alpha, lambda v: v >= 0.0, "alpha must be >= 0")
    nodes, table, sums, _ = _christoffel_pass("laguerre_fn", m, alpha)
    exactness = 2 * len(nodes) - 1
    return QuadratureRule("laguerre_fn", (float(alpha),), nodes, 1.0 / sums, exactness, table)


def rule_to_json(rule):
    """JSON descriptor {weight, params, m} of a rule."""
    return orthopoly._to_json({"weight": rule.weight, "params": rule.params, "m": rule.m})


def save_rule_csv(rule, path):
    """Write nodes and weights as two-column CSV with header ``node,weight``."""
    orthopoly._write_csv(path, ("node", "weight"), zip(rule.nodes, rule.weights))

"""Gaussian quadrature rules for the Jacobi, Hermite and Laguerre weights.

Nodes are the eigenvalues of the symmetric tridiagonal matrix of recurrence
coefficients; weights come from the first components of the normalized
eigenvectors scaled by the zeroth moment.  An m-point rule integrates all
polynomials of degree <= 2m-1 exactly against its weight.

Two derived rules serve band-limited function spaces directly: they
integrate ``p(x) exp(-x^2)`` over the line and ``p(t^2) exp(-t^2)`` against
``t^(2a+1)`` over the half line, with weights computed through Christoffel
sums of the exponentially normalized orthogonal functions (plain
Golub-Welsch weights underflow once the nodes are far out in the tail).
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln, gammaln, logsumexp

from . import orthopoly

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "verify_exactness",
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
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("jacobi weight needs alpha, beta > -1")
    k = np.arange(m, dtype=float)
    s = alpha + beta
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (beta**2 - alpha**2) / ((2 * k + s) * (2 * k + s + 2))
    a[0] = (beta - alpha) / (s + 2.0)
    b2 = np.zeros(m - 1) if m > 1 else np.zeros(0)
    if m > 1:
        b2[0] = 4.0 * (alpha + 1) * (beta + 1) / ((s + 2) ** 2 * (s + 3))
    if m > 2:
        kk = k[2:]
        b2[1:] = (
            4.0
            * kk
            * (kk + alpha)
            * (kk + beta)
            * (kk + s)
            / ((2 * kk + s) ** 2 * (2 * kk + s + 1) * (2 * kk + s - 1))
        )
    mu0 = np.exp((s + 1) * np.log(2.0) + betaln(alpha + 1, beta + 1))
    return a, np.sqrt(b2), mu0


def _hermite_coeffs(m):
    k = np.arange(1, m, dtype=float)
    return np.zeros(m), np.sqrt(k / 2.0), np.sqrt(np.pi)


def _laguerre_coeffs(m, alpha):
    if alpha <= -1.0:
        raise ValueError("laguerre weight needs alpha > -1")
    k = np.arange(m, dtype=float)
    a = 2 * k + alpha + 1
    kk = k[1:]
    b = np.sqrt(kk * (kk + alpha))
    return a, b, np.exp(gammaln(alpha + 1))


def gauss_rule(weight, m, alpha=None, beta=None):
    """Gaussian rule with m nodes for one of the classical weights.

    weight   "jacobi" ((1-x)^alpha (1+x)^beta on [-1, 1]),
             "hermite" (exp(-x^2) on R), or
             "laguerre" (x^alpha exp(-x) on (0, inf), alpha defaults to 0)
    """
    if weight not in _FAMILIES:
        raise ValueError(f"unknown weight {weight!r}; expected one of {_FAMILIES}")
    if weight != "jacobi":
        params = () if weight == "hermite" else (0.0 if alpha is None else float(alpha),)
        nodes, sums, mu0 = _christoffel_pass(weight, m, *params)
        # eigenvector first components underflow for the unbounded weights;
        # Christoffel sums of the exponentially normalized functions give
        # every weight to full relative accuracy, and 0 below double range
        with np.errstate(under="ignore"):
            weights = np.exp(-nodes ** (2 if weight == "hermite" else 1) - np.log(sums))
        return QuadratureRule(weight, params, nodes, weights if m > 1 else np.array([mu0]), 2 * m - 1)
    if m < 1:
        raise ValueError("node count m must be >= 1")
    if alpha is None or beta is None:
        raise ValueError("jacobi rule needs alpha and beta")
    a, b, mu0 = _jacobi_coeffs(m, alpha, beta)
    try:
        nodes, vecs = eigh_tridiagonal(a, b)
    except np.linalg.LinAlgError as err:  # pragma: no cover
        raise RuntimeError("tridiagonal eigensolver failed") from err
    order = np.argsort(nodes)
    nodes = np.clip(nodes[order], -1.0, 1.0)
    return QuadratureRule(weight, (float(alpha), float(beta)), nodes, mu0 * vecs[0, order] ** 2, 2 * m - 1)


def _christoffel_pass(weight, m, alpha=0.0):
    """(nodes, sums, mu0) of the m-point Hermite or Laguerre rule: the sorted
    nodes, clipped to the weight's support, the Christoffel sums
    sum_k f_k(x)^2 of the normalized functions f_0..f_{m-1} there, and the
    zeroth moment.  The sums are taken row by row over one table."""
    if m < 1:
        raise ValueError("node count m must be >= 1")
    a, b, mu0 = _hermite_coeffs(m) if weight == "hermite" else _laguerre_coeffs(m, alpha)
    try:
        nodes = np.sort(eigh_tridiagonal(a, b, eigvals_only=True))
    except np.linalg.LinAlgError as err:  # pragma: no cover
        raise RuntimeError("tridiagonal eigensolver failed") from err
    if weight == "hermite":
        table = orthopoly._hermite_fn_values(m - 1, nodes)
    else:
        nodes = np.clip(nodes, 0.0, None)
        table = orthopoly._laguerre_core(alpha, m - 1, nodes)
    sums = np.zeros(m)
    for row in table:
        sums += row * row
    return nodes, sums, mu0


def _jacobi_moments(degree, alpha, beta):
    # mu_{k+1} = ((beta-alpha) mu_k + k mu_{k-1}) / (alpha+beta+2+k)
    mu = np.empty(degree + 1)
    mu[0] = np.exp((alpha + beta + 1) * np.log(2.0) + betaln(alpha + 1, beta + 1))
    if degree >= 1:
        mu[1] = (beta - alpha) / (alpha + beta + 2.0) * mu[0]
    for k in range(1, degree):
        mu[k + 1] = ((beta - alpha) * mu[k] + k * mu[k - 1]) / (alpha + beta + 2.0 + k)
    return mu


def verify_exactness(rule, degree):
    """Max relative error of the rule's monomial moments up to ``degree``.

    Exact moments come from Beta/Gamma closed forms (a stable two-term
    recurrence for the Jacobi weight).  Sums for the half-line and line
    weights are taken in log space; odd Hermite moments vanish by symmetry
    and are checked against the neighboring even scale.
    """
    if degree > rule.exactness:
        raise ValueError(
            f"degree {degree} exceeds declared exactness {rule.exactness}"
        )
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    x, w = rule.nodes, rule.weights
    worst = 0.0
    if rule.weight == "jacobi":
        mu = _jacobi_moments(degree, *rule.params)
        for k in range(degree + 1):
            q = np.dot(w, x**k)
            # vanishing odd moments are judged against the absolute-mass
            # scale at the same degree instead of their zero value
            scale = max(abs(mu[k]), float(np.dot(w, np.abs(x) ** k)))
            if scale > 0:
                worst = max(worst, abs(q - mu[k]) / scale)
        return worst
    with np.errstate(divide="ignore"):
        logw = np.where(w > 0, np.log(np.maximum(w, 1e-300)), -np.inf)
    if rule.weight == "laguerre":
        alpha = rule.params[0]
        safe = x > 0
        logx = np.full_like(x, -np.inf)
        logx[safe] = np.log(x[safe])
        for k in range(degree + 1):
            logq = logsumexp(logw + k * logx)
            logmu = gammaln(alpha + k + 1)
            worst = max(worst, abs(np.expm1(logq - logmu)))
        return worst
    # hermite
    absx = np.abs(x)
    pos = absx > 0
    logax = np.full_like(x, -np.inf)
    logax[pos] = np.log(absx[pos])
    for k in range(degree + 1):
        sgn = np.sign(x) ** k
        sgn[x == 0] = 1.0 if k == 0 else 0.0
        keep = sgn != 0.0
        if not keep.any():
            continue
        logterm = logw[keep] + (k * logax[keep] if k else 0.0)
        logq, qsign = logsumexp(logterm, b=sgn[keep], return_sign=True)
        if k % 2 == 0:
            logmu = gammaln((k + 1) / 2.0)
            worst = max(worst, abs(qsign * np.exp(logq) - np.exp(logmu)) / np.exp(logmu))
        else:
            ref = np.exp(gammaln((k + 2) / 2.0))
            worst = max(worst, np.exp(logq) / ref)
    return worst


def hermite_function_rule(m):
    """Rule integrating ``p(x) exp(-x^2)`` over R exactly for deg p <= 2m-1.

    Weights are ``exp(x_i^2)`` times the Gauss-Hermite weights, formed as
    reciprocal Christoffel sums of the normalized Hermite functions so that
    no intermediate quantity underflows.
    """
    nodes, sums, _ = _christoffel_pass("hermite", m)
    return QuadratureRule("hermite_fn", (), nodes, 1.0 / sums, 2 * m - 1)


def laguerre_function_rule(alpha, m):
    """Rule for ``integral_0^inf G(t) t^(2 alpha + 1) dt`` on Laguerre-type
    functions ``G(t) = p(t^2) exp(-t^2)``, exact for deg p <= 2m-1.

    Built from the generalized Gauss-Laguerre rule in the substituted
    variable s = t^2; the exponential factor is absorbed through Christoffel
    sums of the normalized functions.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    nodes, sums, _ = _christoffel_pass("laguerre", m, alpha)
    return QuadratureRule("laguerre_fn", (float(alpha),), np.sqrt(nodes), 1.0 / (2.0 * sums), 2 * m - 1)


def rule_to_json(rule):
    """JSON descriptor {weight, params, m} of a rule."""
    return json.dumps(
        {"weight": rule.weight, "params": list(rule.params), "m": rule.m},
        sort_keys=True,
    )


def save_rule_csv(rule, path):
    """Write nodes and weights as two-column CSV with header ``node,weight``."""
    with open(path, "w") as fh:
        fh.write("node,weight\n")
        for n, w in zip(rule.nodes, rule.weights):
            fh.write(f"{n:.17g},{w:.17g}\n")

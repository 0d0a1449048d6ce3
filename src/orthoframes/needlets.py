"""Tight needlet frames for the Jacobi, Hermite and Laguerre families.

A frame level j carries a band-limited kernel ``L_j(x, y) = sum_nu b_j(nu)
phi_nu(x) phi_nu(y)`` over the orthonormal family, discretized by a Gaussian
cubature exact on products of two level functions; the frame elements are

    psi_xi(x) = sqrt(c_xi) * L_j(xi, x),   xi in the level node set.

Band profiles: for Jacobi, ``b_j(nu) = ahat(nu / 2^(j-1))``, so consecutive
levels overlap on dyadic bands and the kind-"c" partition identity makes the
system a tight frame for band-limited inputs.  For Hermite and Laguerre the
natural frequency of the degree-nu eigenfunction scales like sqrt(nu), so the
levels use ``b_j(nu) = ahat(sqrt(nu / 4^(j-1)))``: bands are 4-adic in nu,
dyadic in sqrt(nu), and the same partition identity applies.  Level node
counts are the smallest Gaussian rules whose polynomial exactness covers
products of two level functions (2^j nodes for Jacobi, 4^j for the others).

Analysis accepts either spectral coefficient vectors (exact sums, used for
tightness verification) or plain callables integrated by a recorded
fallback rule.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import orthopoly, quadrature
from .orthopoly import JacobiParams

__all__ = [
    "NeedletLevel",
    "NeedletSystem",
    "FrameCoefficients",
    "build_needlet_system",
    "analyze",
    "synthesize",
    "parseval_check",
    "needlet_decay_profile",
    "frame_to_json",
    "coefficients_to_csv",
]

_FAMILIES = ("jacobi", "hermite", "laguerre")


@dataclass
class NeedletLevel:
    """One frame level: band profile, cubature, and node-side needlet data."""

    j: int
    n_j: float
    band_lo: int
    band_hi: int
    band: np.ndarray
    rule: quadrature.QuadratureRule
    needlet_matrix: np.ndarray  # (#nodes, band_hi - band_lo)

    @property
    def nodes(self):
        return self.rule.nodes


@dataclass
class NeedletSystem:
    """Tight needlet frame up to level J_max.

    ``capacity`` is the largest spectral degree whose dyadic band partition
    is complete within the stored levels; tightness holds exactly (up to
    round-off) for inputs band-limited to that degree.
    """

    family: str
    params: dict
    cutoff: object
    j_max: int
    levels: list
    capacity: int

    def basis_values(self, degrees, x):
        """Orthonormal family values phi_nu(x) for nu in ``degrees``."""
        top = int(max(degrees))
        x = np.asarray(x, dtype=float)
        if self.family == "jacobi":
            p = JacobiParams(self.params["alpha"], self.params["beta"])
            vals = orthopoly._jacobi_values(p.alpha, p.beta, top, x)
            h = orthopoly.jacobi_norms(p, top)
            vals = vals / np.sqrt(h).reshape((-1,) + (1,) * x.ndim)
        elif self.family == "hermite":
            vals = orthopoly._hermite_fn_values(top, x)
        else:
            vals = np.sqrt(2.0) * orthopoly._laguerre_core(
                self.params["alpha"], top, x**2
            )
        return vals[np.asarray(degrees, dtype=int)]

    def psi(self, j, i, x):
        """Frame element psi_xi at node index i of level j."""
        lvl = self.levels[j]
        degs = np.arange(lvl.band_lo, lvl.band_hi)
        coeff = lvl.needlet_matrix[i]
        vals = self.basis_values(degs, x)
        out = np.tensordot(coeff, vals, axes=(0, 0))
        return out if out.ndim else float(out)

    def token(self):
        p = {k: (list(v) if isinstance(v, (tuple, np.ndarray)) else v) for k, v in self.params.items()}
        return (self.family, json.dumps(p, sort_keys=True), self.j_max)


@dataclass
class FrameCoefficients:
    """Per-level frame coefficients <f, psi_xi>."""

    token: tuple
    levels: list
    metadata: dict = field(default_factory=dict)

    def norm_squared(self):
        return float(sum(np.dot(c, c) for c in self.levels))


def _level_geometry(family, j):
    if family == "jacobi":
        if j == 0:
            return 1.0, 0, 1, 1
        n_j = 2.0 ** (j - 1)
        lo = int(math.floor(n_j / 2.0)) + 1
        hi = int(math.ceil(2.0 * n_j))
        return n_j, lo, hi, 2**j
    if j == 0:
        return 1.0, 0, 1, 1
    n_j = 4.0 ** (j - 1)
    lo = int(math.floor(n_j / 4.0)) + 1
    hi = int(math.ceil(4.0 * n_j))
    return n_j, lo, hi, 4**j


def _band_profile(family, cutoff, n_j, lo, hi):
    nu = np.arange(lo, hi, dtype=float)
    if family == "jacobi":
        return np.asarray(cutoff(nu / n_j), dtype=float)
    return np.asarray(cutoff(np.sqrt(nu / n_j)), dtype=float)


def build_needlet_system(family, params, cutoff, j_max):
    """Construct a tight needlet frame.

    family   "jacobi" (params alpha, beta), "hermite" (no params), or
             "laguerre" (param alpha >= 0)
    cutoff   a kind-"c" cutoff function (tightness relies on its quadratic
             partition identity)
    j_max    top level; at most 7 at desk scale
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}")
    if not (0 <= j_max <= 7):
        raise ValueError("j_max must lie in 0..7")
    if cutoff.spec.kind != "c":
        raise ValueError("needlet construction requires a TypeC cutoff")
    params = dict(params or {})
    system = NeedletSystem(family, params, cutoff, j_max, [], 0)
    levels = []
    for j in range(j_max + 1):
        n_j, lo, hi, m = _level_geometry(family, j)
        if family == "jacobi":
            rule = quadrature.gauss_rule(
                "jacobi", m, alpha=params["alpha"], beta=params["beta"]
            )
        elif family == "hermite":
            rule = quadrature.hermite_function_rule(m)
        else:
            rule = quadrature.laguerre_function_rule(params["alpha"], m)
        band = _band_profile(family, cutoff, n_j, lo, hi) if j > 0 else np.ones(1)
        degs = np.arange(lo, hi)
        basis = system.basis_values(degs, rule.nodes)  # (band, nodes)
        psi = np.sqrt(rule.weights)[:, None] * (band[None, :] * basis.T)
        levels.append(NeedletLevel(j, n_j, lo, hi, band, rule, psi))
    system.levels = levels
    system.capacity = int(levels[-1].n_j) if j_max >= 1 else 0
    return system


def _check_band_limit(system, coeffs, op):
    hi = system.levels[-1].band_hi
    if len(coeffs) > hi:
        raise ValueError(
            f"{op}: input band limit {len(coeffs) - 1} exceeds the top level "
            f"spectrum (degree < {hi})"
        )


def analyze(system, f, f_degree=None):
    """Frame coefficients of f.

    f may be a spectral coefficient vector over the orthonormal family
    (exact path) or a callable; callables are integrated against each
    needlet by a fallback Gaussian rule exact for inputs that are
    polynomials (times the family's root-weight) of degree <= f_degree.
    The rule used is recorded in the coefficient metadata.
    """
    meta = {}
    if callable(f):
        degree = int(f_degree if f_degree is not None else system.levels[-1].band_hi)
        f = _project_callable(system, f, degree, meta)
    coeffs = np.asarray(f, dtype=float)
    _check_band_limit(system, coeffs, "analyze")
    out = []
    for lvl in system.levels:
        seg = coeffs[lvl.band_lo : min(lvl.band_hi, len(coeffs))]
        if len(seg) < lvl.band_hi - lvl.band_lo:
            seg = np.pad(seg, (0, lvl.band_hi - lvl.band_lo - len(seg)))
        out.append(lvl.needlet_matrix @ seg)
    return FrameCoefficients(system.token(), out, meta)


def _project_callable(system, f, degree, meta):
    """Spectral coefficients of a callable via one high-order Gauss rule."""
    top = system.levels[-1].band_hi
    m = max(top, degree) + 2
    if system.family == "jacobi":
        rule = quadrature.gauss_rule(
            "jacobi", m, alpha=system.params["alpha"], beta=system.params["beta"]
        )
    elif system.family == "hermite":
        rule = quadrature.hermite_function_rule(m)
    else:
        rule = quadrature.laguerre_function_rule(system.params["alpha"], m)
    vals = np.asarray(f(rule.nodes), dtype=float)
    basis = system.basis_values(np.arange(top), rule.nodes)
    meta["fallback_rule"] = {"weight": rule.weight, "m": rule.m}
    return basis @ (rule.weights * vals)


def synthesize(system, coefficients, x):
    """Pointwise frame reconstruction sum over all levels and nodes."""
    if coefficients.token != system.token():
        raise ValueError("coefficients come from an incompatible system")
    top = system.levels[-1].band_hi
    spectral = np.zeros(top)
    for lvl, c in zip(system.levels, coefficients.levels):
        spectral[lvl.band_lo : lvl.band_hi] += lvl.needlet_matrix.T @ c
    vals = system.basis_values(np.arange(top), x)
    out = np.tensordot(spectral, vals, axes=(0, 0))
    return out if out.ndim else float(out)


def parseval_check(system, f, f_degree=None):
    """Relative Parseval defect |sum |<f, psi>|^2 - ||f||^2| / ||f||^2.

    Requires f band-limited within the system capacity; beyond it the
    dyadic partition is incomplete and no tightness claim is made.
    """
    if callable(f):
        meta = {}
        f = _project_callable(system, f, int(f_degree or system.capacity), meta)
    coeffs = np.asarray(f, dtype=float)
    if len(coeffs) > system.capacity + 1:
        raise ValueError(
            f"parseval_check: band limit {len(coeffs) - 1} exceeds system "
            f"capacity {system.capacity}"
        )
    norm2 = float(np.dot(coeffs, coeffs))
    if norm2 == 0.0:
        return 0.0
    frame = analyze(system, coeffs)
    return abs(frame.norm_squared() - norm2) / norm2


def needlet_decay_profile(system, j, xi_index, n_bins=48, points_per_bin=64, rho_max=None):
    """Envelope of |psi_xi| against the family distance from its node.

    Returns a decay envelope ready for bound fitting; the effective level
    parameter is n_j (Jacobi) or sqrt(n_j)-scaled (Hermite/Laguerre), matching
    how the kernels localize.
    """
    from . import decay

    lvl = system.levels[j]
    xi = float(lvl.nodes[xi_index])
    if system.family == "jacobi":
        diameter = np.pi
        sample = lambda r: np.cos(np.clip(np.arccos(xi) + r, 0.0, np.pi))
        dist = lambda pts: np.abs(np.arccos(np.clip(pts, -1, 1)) - np.arccos(xi))
        scale = lvl.n_j
    else:
        spread = math.sqrt(8.0 * lvl.n_j + 2.0) + 2.0
        diameter = rho_max if rho_max is not None else 2.0 * spread
        lo_clip = 0.0 if system.family == "laguerre" else -np.inf
        sample = lambda r: np.clip(xi + r, lo_clip, np.inf)
        dist = lambda pts: np.abs(pts - xi)
        scale = math.sqrt(lvl.n_j)
    if rho_max is not None:
        diameter = rho_max
    edges = np.linspace(0.0, diameter, n_bins + 1)
    rho_c = 0.5 * (edges[:-1] + edges[1:])
    maxima = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        offsets = np.linspace(edges[b], edges[b + 1], points_per_bin)
        pts = np.concatenate([sample(s * offsets) for s in (1.0, -1.0)])
        vals = np.abs(system.psi(j, xi_index, pts))
        rr = dist(pts)
        keep = (rr >= edges[b] - 1e-12) & (rr <= edges[b + 1] + 1e-12)
        counts[b] = np.count_nonzero(keep)
        if keep.any():
            maxima[b] = vals[keep].max()
    return decay.DecayEnvelope(
        family=system.family,
        n=max(int(lvl.n_j), 1),
        rho=rho_c,
        values=maxima,
        weighted=False,
        scale=scale,
        prefactor=scale if system.family == "jacobi" else max(lvl.n_j, 1.0) ** 0.5,
        counts=counts,
    )


def frame_to_json(system):
    """Frame dump {family, params, levels: [{j, n_j, nodes, weights}]}."""
    levels = [
        {
            "j": lvl.j,
            "n_j": lvl.n_j,
            "nodes": [float(v) for v in lvl.nodes],
            "weights": [float(v) for v in lvl.rule.weights],
        }
        for lvl in system.levels
    ]
    params = {
        k: (list(v) if isinstance(v, (tuple, np.ndarray)) else v)
        for k, v in system.params.items()
    }
    return json.dumps(
        {"family": system.family, "params": params, "levels": levels},
        sort_keys=True,
    )


def coefficients_to_csv(system, coefficients, path):
    """CSV dump of coefficients: level, node index, node coordinate, value."""
    with open(path, "w") as fh:
        fh.write("level,node_index,node,coeff\n")
        for lvl, c in zip(system.levels, coefficients.levels):
            for i, v in enumerate(c):
                fh.write(f"{lvl.j},{i},{lvl.nodes[i]:.17g},{v:.17g}\n")

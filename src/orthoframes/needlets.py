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

import math
from dataclasses import dataclass, field

import numpy as np

from . import decay, kernels, orthopoly, quadrature

__all__ = [
    "NeedletLevel",
    "NeedletSystem",
    "FrameCoefficients",
    "build_needlet_system",
    "analyze",
    "synthesize",
    "parseval_check",
    "roundtrip_defect",
    "check_tightness",
    "needlet_decay_profile",
    "frame_to_json",
    "coefficients_to_csv",
]

_FAMILIES = tuple(name for name, spec in kernels.FAMILIES.items() if spec.frame)


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
        """Orthonormal family values phi_nu(x) for nu in ``degrees``, the
        functions of the levels' rules; a run of consecutive degrees is a view
        of the table's rows."""
        degrees = np.asarray(degrees, dtype=int)
        rule = self.levels[0].rule
        vals = quadrature._rule_functions(rule, int(degrees.max()), np.asarray(x, dtype=float))
        run = np.array_equal(degrees, np.arange(degrees[0], degrees[-1] + 1))
        return vals[degrees[0] :] if run else vals[degrees]

    def psi(self, j, i, x):
        """Frame element psi_xi at node index i of level j."""
        lvl = self.levels[j]
        degs = np.arange(lvl.band_lo, lvl.band_hi)
        coeff = lvl.needlet_matrix[i]
        vals = self.basis_values(degs, x)
        out = np.tensordot(coeff, vals, axes=(0, 0))
        return out if out.ndim else float(out)

    def token(self):
        return (self.family, orthopoly._to_json(self.params), self.j_max)


@dataclass
class FrameCoefficients:
    """Per-level frame coefficients <f, psi_xi>."""

    token: tuple
    levels: list
    metadata: dict = field(default_factory=dict)

    def norm_squared(self):
        return float(sum(np.dot(c, c) for c in self.levels))


def _level(frame, cutoff, j):
    """(n_j, band_lo, band_hi, band) of level j, whose bands are base-adic in
    nu by the family's frame record; its rule has band_hi = base^j nodes."""
    if j == 0:
        return 1.0, 0, 1, np.ones(1)
    n_j = frame.base ** (j - 1)
    lo = int(math.floor(n_j / frame.base)) + 1
    hi = int(math.ceil(frame.base * n_j))
    t = np.arange(lo, hi, dtype=float) / n_j
    band = cutoff(frame.band_arg(t))
    return n_j, lo, hi, np.asarray(band, dtype=float)


def build_needlet_system(family, params, cutoff, j_max):
    """Construct a tight needlet frame.

    family   one of the families with a frame record, ``_FAMILIES``; params
             its parameters (Jacobi alpha, beta; Laguerre alpha >= 0,
             default 0), checked as a kernel's are; a frame lives on the
             line, and records every parameter but d
    cutoff   a kind-"c" cutoff function (tightness relies on its quadratic
             partition identity)
    j_max    top level; at most 7 at desk scale
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}")
    j_max = orthopoly._check_integer(j_max, 0, 7, "j_max must be an integer in 0..7")
    if cutoff.spec.kind != "c":
        raise ValueError("needlet construction requires a TypeC cutoff")
    params, _ = kernels._check_params(family, params or {})
    if not kernels.FAMILIES[family].scalar(params):
        raise ValueError(f"{family} frames live on the line (d = 1), got d = {params['d']}")
    # on the line each parameter is one number: a one-component alpha reads as it
    params = {name: np.reshape(value, ()).item() for name, value in params.items() if name != "d"}
    frame = kernels.FAMILIES[family].frame
    levels = []
    for j in range(j_max + 1):
        n_j, lo, hi, band = _level(frame, cutoff, j)
        # the pass that sums the rule's weights writes b_j(nu) phi_nu at its
        # nodes, nu = lo..hi-1, into the rows of psi; scaled by the roots of
        # the weights, they are the level's matrix as a (nodes, band) view
        psi = np.empty((hi - lo, hi))
        rule = frame.rule(params, hi, (band, psi))
        psi *= np.sqrt(rule.weights)
        levels.append(NeedletLevel(j, n_j, lo, hi, band, rule, psi.T))
    capacity = int(levels[-1].n_j) if j_max >= 1 else 0
    return NeedletSystem(family, params, cutoff, j_max, levels, capacity)


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
        # degrees past the input are zero: read only the columns it reaches
        seg = coeffs[lvl.band_lo : lvl.band_hi]
        out.append(lvl.needlet_matrix[:, : len(seg)] @ seg)
    return FrameCoefficients(system.token(), out, meta)


def _project_callable(system, f, degree, meta):
    """Spectral coefficients of a callable via one high-order Gauss rule."""
    top = system.levels[-1].band_hi
    rule = kernels.FAMILIES[system.family].frame.rule(system.params, max(top, degree) + 2)
    vals = np.asarray(f(rule.nodes), dtype=float)
    meta["fallback_rule"] = {"weight": rule.weight, "m": rule.m}
    return quadrature._rule_functions(rule, top - 1, rule.nodes) @ (rule.weights * vals)


def _spectral(system, coefficients):
    """The spectral coefficients, degrees 0 .. top - 1, of the frame expansion
    with the given frame coefficients."""
    if coefficients.token != system.token():
        raise ValueError("coefficients come from an incompatible system")
    spectral = np.zeros(system.levels[-1].band_hi)
    for lvl, c in zip(system.levels, coefficients.levels):
        spectral[lvl.band_lo : lvl.band_hi] += lvl.needlet_matrix.T @ c
    return spectral


def synthesize(system, coefficients, x):
    """Pointwise frame reconstruction sum over all levels and nodes."""
    spectral = _spectral(system, coefficients)
    out = np.tensordot(spectral, system.basis_values(np.arange(len(spectral)), x), axes=(0, 0))
    return out if out.ndim else float(out)


def parseval_check(system, coeffs):
    """Relative Parseval defect |sum |<f, psi>|^2 - ||f||^2| / ||f||^2 of f
    with spectral coefficients ``coeffs``.

    Requires f band-limited within the system capacity; beyond it the
    dyadic partition is incomplete and no tightness claim is made.  A
    callable is refused: ``analyze`` projects one onto the spectrum.
    """
    if callable(coeffs):
        raise ValueError("parseval_check takes spectral coefficients; project a callable with analyze")
    coeffs = np.asarray(coeffs, dtype=float)
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


def roundtrip_defect(system, coeffs, x):
    """max |synthesis of the analysis - f| at the points x over max |f| there
    (floored at 1e-30), f with spectral coefficients ``coeffs``.  One basis
    table serves both: the synthesis contracts it with the spectral
    coefficients of the analysis, and f reads its first rows, since the
    analysis accepts no degree past it."""
    frame = analyze(system, coeffs)
    vals = system.basis_values(np.arange(system.levels[-1].band_hi), x)
    rec = np.tensordot(_spectral(system, frame), vals, axes=(0, 0))
    ref = np.tensordot(coeffs, vals[: len(coeffs)], axes=(0, 0))
    return float(np.abs(rec - ref).max()) / max(float(np.abs(ref).max()), 1e-30)


# the largest Parseval and round-trip defects a tight frame passes with
PARSEVAL_TOL, ROUNDTRIP_TOL = 1e-8, 1e-7


def check_tightness(system, check, trials, seed, tol=None):
    """(worst, passed): the worst "parseval" or "roundtrip" defect of
    ``trials`` inputs, and whether it lies below ``tol`` (default
    ``PARSEVAL_TOL`` or ``ROUNDTRIP_TOL``); a nan or inf in any trial makes
    the worst nan, which fails.  A generator seeded with ``seed`` draws each
    input's coefficients, then a round trip's 50 points on the frame
    record's ``roundtrip`` interval."""
    if check not in ("parseval", "roundtrip"):
        raise ValueError('check must be "parseval" or "roundtrip"')
    trials = orthopoly._check_integer(trials, 1, math.inf, "trials must be a positive integer")
    lo, hi = kernels.FAMILIES[system.family].frame.roundtrip
    rng = np.random.default_rng(seed)
    defects = []
    for _ in range(trials):
        coeffs = rng.standard_normal(system.capacity + 1)
        if check == "parseval":
            defects.append(parseval_check(system, coeffs))
        else:
            defects.append(roundtrip_defect(system, coeffs, rng.uniform(lo, hi, 50)))
    worst = float(np.max(defects)) if np.all(np.isfinite(defects)) else math.nan
    tol = (PARSEVAL_TOL if check == "parseval" else ROUNDTRIP_TOL) if tol is None else tol
    return worst, worst < tol


# bins of a needlet decay profile, and offsets sampled per bin on each side
_PROFILE_BINS = 48
_PROFILE_OFFSETS = 64


def needlet_decay_profile(system, j, xi_index):
    """Envelope of |psi_xi| against the family distance from its node.

    Returns a decay envelope ready for bound fitting; the effective level
    parameter is n_j (Jacobi) or sqrt(n_j)-scaled (Hermite/Laguerre), matching
    how the kernels localize.  Each of the 48 bins samples 64 offsets on
    either side of the node and keeps those whose distance falls in the bin
    (within 1e-12, so a sample on a shared edge counts in both); every bin's
    samples are evaluated in one call, and ``decay._binned``, the builder of
    every envelope, keeps each bin's largest value and its count.  The bins'
    diameter and the offsets' sampler are the family's frame record's
    ``profile``.
    """
    lvl = system.levels[j]
    xi = float(lvl.nodes[xi_index])
    spec = kernels.FAMILIES[system.family]
    diameter, sample = spec.frame.profile(xi, lvl.n_j)
    # the system records no d, which the door fills in
    scale, prefactor = spec.scale(lvl.n_j, kernels._check_params(system.family, system.params)[0])
    edges = np.linspace(0.0, diameter, _PROFILE_BINS + 1)
    lo, hi = edges[:-1], edges[1:]
    offsets = np.linspace(lo, hi, _PROFILE_OFFSETS, axis=1)
    pts = np.concatenate([sample(offsets), sample(-offsets)], axis=1)  # (bins, samples)
    vals = np.abs(system.psi(j, xi_index, pts.ravel())).reshape(pts.shape)
    rr = kernels.distance(system.family, pts.reshape(-1, 1), xi).reshape(pts.shape)
    keep = (rr >= lo[:, None] - 1e-12) & (rr <= hi[:, None] + 1e-12)
    n = max(int(lvl.n_j), 1)
    return decay._binned(system.family, n, edges, np.nonzero(keep)[0], vals[keep], scale, prefactor)


def frame_to_json(system):
    """Frame dump {family, params, levels: [{j, n_j, nodes, weights}]}."""
    levels = [
        {"j": lvl.j, "n_j": lvl.n_j, "nodes": lvl.nodes, "weights": lvl.rule.weights}
        for lvl in system.levels
    ]
    return orthopoly._to_json({"family": system.family, "params": system.params, "levels": levels})


def coefficients_to_csv(system, coefficients, path):
    """CSV dump of coefficients: level, node index, node coordinate, value."""
    rows = (
        (lvl.j, i, lvl.nodes[i], v)
        for lvl, c in zip(system.levels, coefficients.levels)
        for i, v in enumerate(c)
    )
    orthopoly._write_csv(path, ("level", "node_index", "node", "coeff"), rows)

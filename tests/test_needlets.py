import json
import math

import numpy as np
import pytest

from orthoframes import cutoff as co
from orthoframes import decay as de
from orthoframes import kernels as ke
from orthoframes import needlets as ne
from orthoframes import orthopoly as op
from orthoframes import quadrature as qd


@pytest.fixture(scope="module")
def jacobi_system(cutoff_c):
    return ne.build_needlet_system("jacobi", {"alpha": 0.0, "beta": 0.0}, cutoff_c, 5)


@pytest.fixture(scope="module")
def hermite_system(cutoff_c):
    return ne.build_needlet_system("hermite", {}, cutoff_c, 3)


@pytest.fixture(scope="module")
def laguerre_system(cutoff_c):
    return ne.build_needlet_system("laguerre", {"alpha": 0.0}, cutoff_c, 3)


def test_rejects_flat_cutoff(cutoff_a):
    with pytest.raises(ValueError, match="TypeC"):
        ne.build_needlet_system("jacobi", {"alpha": 0.0, "beta": 0.0}, cutoff_a, 3)


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("jacobi", {"alpha": math.nan, "beta": 0.0}, "alpha, beta > -1"),
        ("laguerre", {"alpha": math.nan}, "alpha components must be >= 0"),
        ("laguerre", {"alpha": -0.5}, "alpha components must be >= 0"),
    ],
)
def test_frames_refuse_parameters_their_family_refuses(cutoff_c, family, params, message):
    # nan once reached scipy's eigensolver ("array must not contain infs or NaNs")
    with pytest.raises(ValueError, match=message):
        ne.build_needlet_system(family, params, cutoff_c, 2)


def test_level_zero_is_constant_projector(jacobi_system):
    lvl = jacobi_system.levels[0]
    assert lvl.band_lo == 0 and lvl.band_hi == 1
    # the single needlet is a constant multiple of the normalized constant
    xs = np.linspace(-1, 1, 7)
    vals = jacobi_system.psi(0, 0, xs)
    assert np.abs(vals - vals[0]).max() < 1e-14
    assert vals[0] == pytest.approx(
        math.sqrt(2.0) * (1.0 / math.sqrt(2.0)) ** 2, rel=1e-12
    )  # sqrt(c_0) * phi_0(xi) * phi_0(x) with c_0 = mass 2, phi_0 = 1/sqrt(2)


def test_jacobi_level_node_counts(jacobi_system):
    for j, lvl in enumerate(jacobi_system.levels):
        assert len(lvl.nodes) == 2**j


def test_band_overlap_structure(jacobi_system):
    # consecutive level spectra leave no gap and, once the integer lattice
    # resolves the dyadic bands, overlap on exactly one of them
    for j in range(1, 5):
        a = jacobi_system.levels[j]
        b = jacobi_system.levels[j + 1]
        assert a.band_lo >= a.n_j / 2
        assert b.band_lo <= a.band_hi <= b.band_hi
        if j >= 3:
            assert b.band_lo < a.band_hi  # overlap on (n_j, 2 n_j)
            assert b.band_lo > a.n_j


def test_hermite_level_geometry(hermite_system):
    for j, lvl in enumerate(hermite_system.levels):
        if j == 0:
            continue
        assert lvl.n_j == 4.0 ** (j - 1)
        assert len(lvl.nodes) == 4**j
        assert lvl.band_hi == 4**j


def test_partition_complete_within_capacity(jacobi_system, hermite_system):
    for system in (jacobi_system, hermite_system):
        total = np.zeros(system.capacity + 1)
        for lvl in system.levels:
            pad = np.zeros(system.capacity + 1)
            hi = min(lvl.band_hi, system.capacity + 1)
            if hi > lvl.band_lo:
                pad[lvl.band_lo : hi] = lvl.band[: hi - lvl.band_lo]
            total += pad**2
        assert np.abs(total - 1.0).max() < 1e-9


def test_analyze_single_basis_function(jacobi_system):
    # <phi_m, psi_xi> = band_j(m) sqrt(c_xi) phi_m(xi)
    m = 9
    coeffs = np.zeros(jacobi_system.capacity + 1)
    coeffs[m] = 1.0
    frame = ne.analyze(jacobi_system, coeffs)
    for lvl, cvec in zip(jacobi_system.levels, frame.levels):
        if lvl.band_lo <= m < lvl.band_hi:
            b = lvl.band[m - lvl.band_lo]
            phi = jacobi_system.basis_values([m], lvl.nodes)[0]
            expect = b * np.sqrt(lvl.rule.weights) * phi
            assert np.abs(cvec - expect).max() < 1e-12
        else:
            assert np.abs(cvec).max() < 1e-12


@pytest.mark.parametrize("name", ["jacobi_system", "hermite_system", "laguerre_system"])
def test_analyze_reads_only_the_columns_its_input_reaches(request, name, rng):
    # the product over the columns the input reaches against the one over
    # every column of a zero-padded input, for inputs ending in each level
    system = request.getfixturevalue(name)
    for length in (1, 3, system.capacity + 1, system.levels[-1].band_hi):
        coeffs = rng.standard_normal(length)
        frame = ne.analyze(system, coeffs)
        padded = np.pad(coeffs, (0, system.levels[-1].band_hi - length))
        for lvl, c in zip(system.levels, frame.levels):
            assert np.array_equal(c, lvl.needlet_matrix @ padded[lvl.band_lo : lvl.band_hi])


def test_analyze_zero_function(jacobi_system):
    frame = ne.analyze(jacobi_system, np.zeros(5))
    assert frame.norm_squared() == 0.0


def test_analyze_band_limit_error(jacobi_system):
    with pytest.raises(ValueError, match="band limit"):
        ne.analyze(jacobi_system, np.ones(jacobi_system.levels[-1].band_hi + 5))


def test_frame_element_self_test(jacobi_system):
    # analyzing a frame element returns coefficients whose square sum is its
    # norm squared (tight-frame self consistency)
    lvl = jacobi_system.levels[3]
    i = 2
    spectral = np.zeros(jacobi_system.capacity + 1)
    width = min(lvl.band_hi, len(spectral)) - lvl.band_lo
    spectral[lvl.band_lo : lvl.band_lo + width] = lvl.needlet_matrix[i][:width]
    norm2 = float(np.dot(spectral, spectral))
    frame = ne.analyze(jacobi_system, spectral)
    assert frame.norm_squared() == pytest.approx(norm2, rel=1e-12)


def test_parseval_constant_function(jacobi_system):
    defect = ne.parseval_check(jacobi_system, np.array([1.3]))
    assert defect < 1e-12


def test_parseval_random_inputs(jacobi_system, hermite_system, laguerre_system, rng):
    for system in (jacobi_system, hermite_system, laguerre_system):
        worst = 0.0
        for _ in range(10):
            coeffs = rng.standard_normal(system.capacity + 1)
            worst = max(worst, ne.parseval_check(system, coeffs))
        assert worst < 1e-8


def test_parseval_refuses_a_callable(jacobi_system):
    # a callable's projection held more coefficients than the capacity
    # check accepts at every J >= 2, so parseval_check takes coefficients only
    with pytest.raises(ValueError, match="analyze"):
        ne.parseval_check(jacobi_system, lambda x: np.ones_like(x))


def test_parseval_rejects_beyond_capacity(jacobi_system):
    with pytest.raises(ValueError, match="capacity"):
        ne.parseval_check(jacobi_system, np.ones(jacobi_system.capacity + 10))


def test_jacobi_degree_20_needs_level_six(cutoff_c, rng):
    # a degree-20 input fits the dyadic partition once levels reach j = 6
    system = ne.build_needlet_system("jacobi", {"alpha": 0.0, "beta": 0.0}, cutoff_c, 6)
    assert system.capacity >= 20
    coeffs = np.zeros(21)
    coeffs[: 21] = rng.standard_normal(21)
    assert ne.parseval_check(system, coeffs) < 1e-8


def test_roundtrip_reconstruction(jacobi_system, rng):
    coeffs = rng.standard_normal(jacobi_system.capacity + 1)
    frame = ne.analyze(jacobi_system, coeffs)
    pts = rng.uniform(-1, 1, 50)
    rec = ne.synthesize(jacobi_system, frame, pts)
    ref = np.tensordot(
        coeffs, jacobi_system.basis_values(np.arange(len(coeffs)), pts), axes=(0, 0)
    )
    assert np.abs(rec - ref).max() < 1e-7 * np.abs(ref).max()


def test_roundtrip_defect_keeps_the_bits_of_its_two_tables(jacobi_system, hermite_system, laguerre_system):
    # the reference once tabulated its own rows, a prefix of the synthesis's
    rng = np.random.default_rng(11)
    for system in (jacobi_system, hermite_system, laguerre_system):
        lo, hi = ke.FAMILIES[system.family].frame.roundtrip
        for size in (1, system.capacity + 1, system.levels[-1].band_hi):
            coeffs = rng.standard_normal(size)
            pts = rng.uniform(lo, hi, 50)
            rec = ne.synthesize(system, ne.analyze(system, coeffs), pts)
            ref = np.tensordot(coeffs, system.basis_values(np.arange(size), pts), axes=(0, 0))
            expected = float(np.abs(rec - ref).max()) / max(float(np.abs(ref).max()), 1e-30)
            assert ne.roundtrip_defect(system, coeffs, pts) == expected


def test_synthesize_zero_coefficients(jacobi_system):
    frame = ne.analyze(jacobi_system, np.zeros(3))
    assert ne.synthesize(jacobi_system, frame, 0.3) == 0.0


def test_synthesize_rejects_foreign_coefficients(jacobi_system, cutoff_c):
    other = ne.build_needlet_system("jacobi", {"alpha": 1.0, "beta": 0.0}, cutoff_c, 2)
    frame = ne.analyze(other, np.ones(2))
    with pytest.raises(ValueError, match="incompatible"):
        ne.synthesize(jacobi_system, frame, 0.1)


def test_single_band_occupies_two_levels(jacobi_system):
    # a pure basis function is captured by at most two adjacent levels
    m = 12
    coeffs = np.zeros(jacobi_system.capacity + 1)
    coeffs[m] = 1.0
    frame = ne.analyze(jacobi_system, coeffs)
    active = [j for j, c in enumerate(frame.levels) if np.abs(c).max() > 1e-10]
    assert len(active) <= 2
    assert all(
        jacobi_system.levels[j].band_lo <= m < jacobi_system.levels[j].band_hi
        for j in active
    )


def test_analyze_callable_matches_spectral(jacobi_system):
    m = 5
    coeffs = np.zeros(jacobi_system.capacity + 1)
    coeffs[m] = 1.0
    h5 = op.jacobi_norms(op.JacobiParams(0.0, 0.0), m)[m]
    fun = lambda x: op._jacobi_values(0.0, 0.0, m, x)[m] / math.sqrt(h5)
    direct = ne.analyze(jacobi_system, coeffs)
    from_callable = ne.analyze(jacobi_system, fun, f_degree=m)
    assert "fallback_rule" in from_callable.metadata
    worst = max(
        np.abs(a - b).max() for a, b in zip(direct.levels, from_callable.levels)
    )
    assert worst < 1e-10


@pytest.mark.parametrize("f_degree", [2.5, -3, math.nan, math.inf])
def test_analyze_refuses_an_f_degree_that_is_not_a_whole_number_at_least_0(jacobi_system, f_degree):
    # 2.5 was truncated to 2, -3 accepted and nan raised numpy's conversion error
    fun = lambda x: np.ones_like(x)
    with pytest.raises(ValueError, match="f_degree must be an integer >= 0"):
        ne.analyze(jacobi_system, fun, f_degree=f_degree)
    with pytest.raises(ValueError, match="f_degree"):
        ne.analyze(jacobi_system, np.ones(3), f_degree=f_degree)


@pytest.mark.parametrize("j, i, message", [
    (-1, 0, "level j must be an integer in 0..5"),
    (6, 0, "level j must be an integer in 0..5"),
    (1.5, 0, "level j must be an integer in 0..5"),
    (math.nan, 0, "level j"),
    (1, -1, "node index must be an integer in 0..1 at level 1"),
    (1, 2, "node index must be an integer in 0..1 at level 1"),
    (4, 0.5, "node index must be an integer in 0..15 at level 4"),
    (4, math.inf, "node index"),
])
def test_frame_elements_refuse_levels_and_node_indices_out_of_range(jacobi_system, j, i, message):
    # a negative j or i once wrapped round to the top level or the last node,
    # and a float node index raised numpy's IndexError
    with pytest.raises(ValueError, match=message):
        jacobi_system.psi(j, i, 0.5)
    with pytest.raises(ValueError, match=message):
        ne.needlet_decay_profile(jacobi_system, j, i)


def test_frame_elements_read_whole_float_indices_as_their_integers(jacobi_system):
    x = np.linspace(-0.9, 0.9, 5)
    assert np.array_equal(jacobi_system.psi(4.0, 7.0, x), jacobi_system.psi(4, 7, x))
    assert np.array_equal(
        ne.needlet_decay_profile(jacobi_system, np.int64(4), 7.0).values,
        ne.needlet_decay_profile(jacobi_system, 4, 7).values,
    )


def test_needlet_positive_at_own_node(hermite_system):
    lvl = 2
    i = len(hermite_system.levels[lvl].nodes) // 2
    xi = hermite_system.levels[lvl].nodes[i]
    assert hermite_system.psi(lvl, i, xi) > 0


def test_needlet_is_weighted_kernel_slice(jacobi_system, cutoff_c):
    # psi_xi(x) = sqrt(c_xi) L_{n_j}(xi, x) by definition
    j, i = 4, 7
    lvl = jacobi_system.levels[j]
    xi = lvl.nodes[i]
    xs = np.linspace(-0.95, 0.95, 9)
    direct = math.sqrt(lvl.rule.weights[i]) * ke.jacobi_kernel(
        cutoff_c, lvl.n_j, 0.0, 0.0, np.full_like(xs, xi), xs
    )
    assert np.abs(jacobi_system.psi(j, i, xs) - direct).max() < 1e-10


def test_needlet_profile_definition(jacobi_system):
    prof = ne.needlet_decay_profile(jacobi_system, 4, 7)
    assert len(prof.rho) == 48
    # bin 0 contains the node itself
    assert prof.values[0] >= abs(jacobi_system.psi(4, 7, jacobi_system.levels[4].nodes[7]))
    # the bins end at the farthest point from the node, so each holds samples
    assert prof.counts.min() >= 64
    assert de.fit_bound(prof, de.SubExponential(1.0)).violations == 0


def test_hermite_needlet_gaussian_tail(hermite_system):
    j = 3
    i = len(hermite_system.levels[j].nodes) // 2
    cstar = 1.5 * 2**j
    xs = np.linspace(cstar, 1.3 * cstar, 30)
    vals = np.abs(hermite_system.psi(j, i, xs))
    logs = np.log(np.maximum(vals, 1e-290))
    a = np.vstack([np.ones_like(xs), -(xs**2)]).T
    coef, *_ = np.linalg.lstsq(a, logs, rcond=None)
    assert coef[1] > 0.05


def test_needlet_profile_subexponential_fit(hermite_system):
    prof = ne.needlet_decay_profile(hermite_system, 3, 32)
    fit = de.fit_bound(prof, de.SubExponential(1.0))
    assert fit.satisfied and fit.c_rate > 0


def _profile_per_bin(system, j, xi_index):
    # the per-bin loop the one-pass profile must reproduce: 48 bins, 64
    # offsets on each side of the node, each bin keeping its own samples
    xi = float(system.levels[j].nodes[xi_index])
    if system.family == "jacobi":
        diameter = max(np.arccos(xi), np.pi - np.arccos(xi))
        sample = lambda r: np.cos(np.clip(np.arccos(xi) + r, 0.0, np.pi))
    else:
        diameter = 2.0 * (math.sqrt(8.0 * system.levels[j].n_j + 2.0) + 2.0)
        sample = lambda r: np.clip(xi + r, 0.0 if system.family == "laguerre" else -np.inf, np.inf)
    edges = np.linspace(0.0, diameter, 49)
    maxima, counts = np.zeros(48), np.zeros(48, dtype=int)
    for b in range(48):
        offsets = np.linspace(edges[b], edges[b + 1], 64)
        pts = np.concatenate([sample(offsets), sample(-offsets)])
        vals = np.abs(system.psi(j, xi_index, pts))
        rr = ke.distance(system.family, pts[:, None], xi)
        keep = (rr >= edges[b] - 1e-12) & (rr <= edges[b + 1] + 1e-12)
        counts[b] = np.count_nonzero(keep)
        maxima[b] = vals[keep].max() if keep.any() else 0.0
    return maxima, counts


@pytest.mark.parametrize(
    "name, j, i", [("jacobi_system", 4, 7), ("hermite_system", 3, 32), ("laguerre_system", 3, 10)]
)
def test_needlet_profile_evaluates_every_bin_in_one_call(request, monkeypatch, name, j, i):
    system = request.getfixturevalue(name)
    maxima, counts = _profile_per_bin(system, j, i)
    calls = []
    psi = system.psi
    monkeypatch.setattr(system, "psi", lambda *args: calls.append(args) or psi(*args))
    prof = ne.needlet_decay_profile(system, j, i)
    assert len(calls) == 1
    assert np.array_equal(prof.values, maxima) and np.array_equal(prof.counts, counts)


def test_a_jacobi_round_trip_computes_each_norm_once(cutoff_c, monkeypatch):
    # one J = 7 build and the command line's 20-trial round trip once took
    # 16,484 log-Gammas: every basis table recomputed its norms
    monkeypatch.setattr(op, "_NORMS", {}, raising=False)
    lgamma, count = op._lgamma, []
    monkeypatch.setattr(op, "_lgamma", lambda x: count.append(np.size(x)) or lgamma(x))
    system = ne.build_needlet_system("jacobi", {"alpha": 2.0, "beta": 0.5}, cutoff_c, 7)
    worst, passed = ne.check_tightness(system, "roundtrip", 20, 0)
    assert passed and sum(count) < 2000


def test_frame_json_dump(jacobi_system):
    raw = json.loads(ne.frame_to_json(jacobi_system))
    assert raw["family"] == "jacobi"
    assert raw["params"] == {"alpha": 0.0, "beta": 0.0}
    assert len(raw["levels"]) == 6
    assert len(raw["levels"][3]["nodes"]) == 8
    assert raw["levels"][2]["n_j"] == 2.0


def test_coefficients_csv(tmp_path, jacobi_system, rng):
    coeffs = rng.standard_normal(jacobi_system.capacity + 1)
    frame = ne.analyze(jacobi_system, coeffs)
    path = tmp_path / "coeffs.csv"
    ne.coefficients_to_csv(jacobi_system, frame, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,node_index,node,coeff"
    assert len(lines) == 1 + sum(len(l.nodes) for l in jacobi_system.levels)


# the front end's pinned tolerances
_PARSEVAL_TOL, _ROUNDTRIP_TOL = 1e-8, 1e-7


@pytest.mark.parametrize("family", ne._FAMILIES)
def test_frame_roundtrip_intervals_lie_in_their_family_domain(family):
    # the front end's default parameters: every one but d, at 0
    spec = ke.FAMILIES[family]
    params = {name: 0.0 for name in spec.params if name != "d"}
    lo, hi = spec.frame.roundtrip
    assert lo < hi
    ke._check_params(family, params, np.array([lo]), np.array([hi]))


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("jacobi", {}, r"jacobi kernels need the parameter\(s\) alpha, beta"),
        ("jacobi", {"alpha": 0.0, "beta": 0.0, "d": 1}, r"jacobi kernels do not read the parameter\(s\) d"),
        ("hermite", {"alpha": 0.0}, r"hermite kernels do not read the parameter\(s\) alpha"),
        ("hermite", {"d": 2}, r"hermite frames live on the line \(d = 1\), got d = 2"),
        ("laguerre", {"alpha": (0.0, 1.0)}, r"laguerre frames live on the line \(d = 1\), got d = 2"),
        ("laguerre", {"alpha": -1.0}, "alpha components must be >= 0"),
    ],
)
def test_frames_take_their_parameters_through_the_kernels_check(cutoff_c, family, params, message):
    # {} once raised KeyError: 'alpha', Laguerre alpha = (0, 1) a numpy
    # broadcast error, and Hermite d = 2 built a 1-d frame recording d = 2
    with pytest.raises(ValueError, match=message):
        ne.build_needlet_system(family, params, cutoff_c, 2)


def test_frames_fill_their_family_defaults_and_record_no_d(cutoff_c):
    laguerre = ne.build_needlet_system("laguerre", {}, cutoff_c, 3)
    assert laguerre.params == {"alpha": 0.0}
    given = ne.build_needlet_system("laguerre", {"alpha": 0.0, "d": 1}, cutoff_c, 3)
    assert ne.frame_to_json(given) == ne.frame_to_json(laguerre)
    assert ne.build_needlet_system("hermite", {"d": 1}, cutoff_c, 3).params == {}


@pytest.fixture(
    scope="session",
    params=[("hermite", 5), ("hermite", 6), ("laguerre", 5), ("laguerre", 6)],
    ids=lambda p: f"{p[0]}-J{p[1]}",
)
def line_frame(request, cutoff_c):
    family, j_max = request.param
    params = {"alpha": 0.0} if family == "laguerre" else {}
    return ne.build_needlet_system(family, params, cutoff_c, j_max)


def test_line_frames_stay_tight_past_1024_nodes(line_frame):
    # levels of 1,024 and 4,096 nodes reach far enough into the tails that
    # plain Christoffel sums of their rules underflow
    for lvl in line_frame.levels:
        assert np.all(np.isfinite(lvl.rule.weights)) and np.all(lvl.rule.weights > 0)
        assert np.all(np.isfinite(lvl.needlet_matrix))
    rng = np.random.default_rng(5)
    lo, hi = ke.FAMILIES[line_frame.family].frame.roundtrip
    for _ in range(2):
        coeffs = rng.standard_normal(line_frame.capacity + 1)
        assert ne.parseval_check(line_frame, coeffs) < _PARSEVAL_TOL
        pts = rng.uniform(lo, hi, 50)
        rec = ne.synthesize(line_frame, ne.analyze(line_frame, coeffs), pts)
        ref = np.tensordot(coeffs, line_frame.basis_values(np.arange(len(coeffs)), pts), axes=(0, 0))
        assert np.abs(rec - ref).max() < _ROUNDTRIP_TOL * np.abs(ref).max()


def test_needlet_matrices_match_the_copying_reference(jacobi_system, hermite_system, laguerre_system):
    for system in (jacobi_system, hermite_system, laguerre_system):
        for lvl in system.levels:
            basis = system.basis_values(np.arange(lvl.band_hi), lvl.nodes)
            ref = np.sqrt(lvl.rule.weights)[:, None] * (
                lvl.band[None, :] * basis[np.arange(lvl.band_lo, lvl.band_hi)].T
            )
            assert np.array_equal(lvl.needlet_matrix, ref)


def _tabulated_level(lvl):
    """A level's (weights, matrix) by a table of f_0..f_{m-1} at the nodes:
    the squares summed row by row into the Christoffel sums, and the band
    rows of the table scaled in place into a (nodes, band) view."""
    rule = lvl.rule
    table = qd._rule_functions(rule, rule.m - 1, rule.nodes)
    sums = np.zeros(rule.m)
    for row in table:
        sums += row * row
    weights = 1.0 / sums
    if rule.weight == "jacobi" and rule.m == 1:
        weights = np.array([op._jacobi_mass(*rule.params)])
    psi = table[lvl.band_lo :]
    psi *= lvl.band[:, None]
    psi *= np.sqrt(weights)
    return weights, psi.T


@pytest.mark.parametrize("family, params, j_max", [
    ("jacobi", {"alpha": 0.0, "beta": 0.0}, 6), ("jacobi", {"alpha": 2.0, "beta": 0.5}, 6),
    ("jacobi", {"alpha": -0.5, "beta": -0.5}, 6), ("laguerre", {"alpha": 0.0}, 6), ("laguerre", {"alpha": 1.5}, 5),
])
def test_streamed_levels_keep_the_bits_of_the_tabulated_levels(cutoff_c, family, params, j_max):
    # the one pass writes each band row, times its band weight, as the table
    # path scaled it, and adds the same squares in the same order; the matrix
    # keeps the table view's layout, so products with it keep their bits too
    system = ne.build_needlet_system(family, params, cutoff_c, j_max)
    for lvl in system.levels:
        weights, matrix = _tabulated_level(lvl)
        assert np.array_equal(lvl.rule.weights, weights), lvl.j
        assert np.array_equal(lvl.needlet_matrix, matrix), lvl.j
        assert lvl.needlet_matrix.strides == matrix.strides


def test_hermite_level_rows_at_mirrored_nodes_are_sign_mirrors(cutoff_c):
    # phi_nu(-x) = (-1)^nu phi_nu(x) holds bit for bit at the exactly
    # antisymmetric nodes, for the rows recurred at x >= 0 and mirrored
    system = ne.build_needlet_system("hermite", {}, cutoff_c, 5)
    for lvl in system.levels:
        sign = (-1.0) ** np.arange(lvl.band_lo, lvl.band_hi)
        assert np.array_equal(lvl.nodes, -lvl.nodes[::-1])
        assert np.array_equal(lvl.needlet_matrix[::-1], lvl.needlet_matrix * sign)


@pytest.mark.parametrize("family, params, rows, table", [
    ("jacobi", {"alpha": 2.0, "beta": 0.5}, "_jacobi_rows", "_jacobi_values"),
    ("hermite", {}, "_hermite_rows", "_hermite_fn_values"),
    ("laguerre", {"alpha": 0.0}, "_laguerre_rows", "_laguerre_core"),
])
def test_needlet_build_recurs_each_level_once_and_forms_no_table(monkeypatch, cutoff_c, family, params, rows, table):
    # one pass over each level's rows sums its rule's weights and writes its
    # matrix: the rows phi_0..phi_{m-1} are recurred once at the m nodes (the
    # Hermite rows at the nodes >= 0 only, the others mirrored) and no m x m
    # table is formed
    calls, recur = [], getattr(op, rows)
    monkeypatch.setattr(op, rows, lambda *args: calls.append((args[-3], len(args[-2]))) or recur(*args))
    monkeypatch.setattr(op, table, lambda *args: pytest.fail(f"{table} formed a table"))
    system = ne.build_needlet_system(family, params, cutoff_c, 4)
    half = family == "hermite"
    assert calls == [(lvl.rule.m - 1, -(-lvl.rule.m // 2) if half else lvl.rule.m) for lvl in system.levels]


def test_basis_values_slices_consecutive_degrees(laguerre_system):
    x = np.array([0.3, 1.1, 2.5])
    run = laguerre_system.basis_values(np.arange(3, 9), x)
    assert run.base is not None  # a view of the table
    picked = laguerre_system.basis_values([8, 3, 5], x)
    assert np.array_equal(picked, run[[5, 0, 2]])


def test_a_one_component_laguerre_alpha_reads_as_its_number(cutoff_c):
    # build_needlet_system once ended in a TypeError from the Laguerre rule
    one = ne.build_needlet_system("laguerre", {"alpha": (0.5,)}, cutoff_c, 2)
    ref = ne.build_needlet_system("laguerre", {"alpha": 0.5}, cutoff_c, 2)
    assert one.params == ref.params == {"alpha": 0.5}
    for a, b in zip(one.levels, ref.levels, strict=True):
        assert np.array_equal(a.needlet_matrix, b.needlet_matrix)


def test_coefficients_from_a_system_on_another_cutoff_are_refused():
    # the two systems once shared a token, and the mix-up read 7.5e-4 off
    cuts = [co.assemble_cutoff(co.CutoffSpec("c", epsilon=e, m_max=512, grid_points=4096)) for e in (1.0, 0.5)]
    first, second = (ne.build_needlet_system("jacobi", {"alpha": 0.0, "beta": 0.0}, cut, 4) for cut in cuts)
    assert first.token() != second.token()
    frame = ne.analyze(first, np.ones(8))
    assert ne.synthesize(first, frame, 0.3) == pytest.approx(np.ones(8) @ first.basis_values(np.arange(8), 0.3))
    with pytest.raises(ValueError, match="incompatible"):
        ne.synthesize(second, frame, 0.3)

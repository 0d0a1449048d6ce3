import dataclasses
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthoframes import orthopoly as op
from orthoframes import quadrature as qd


def test_legendre_two_point_rule():
    # solve the moment equations directly: int 1 = 2, int t^2 = 2/3
    rule = qd.gauss_rule("jacobi", 2, alpha=0.0, beta=0.0)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)
    assert rule.exactness == 3


def test_hermite_one_point_rule():
    rule = qd.gauss_rule("hermite", 1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([math.sqrt(math.pi)], rel=1e-14)


def test_laguerre_one_point_rule():
    rule = qd.gauss_rule("laguerre", 1)
    assert rule.nodes == pytest.approx([1.0], abs=1e-14)
    assert rule.weights == pytest.approx([1.0], rel=1e-14)


def test_laguerre_two_point_rule():
    rule = qd.gauss_rule("laguerre", 2)
    assert rule.nodes == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], rel=1e-13)
    assert rule.weights == pytest.approx(
        [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], rel=1e-12
    )


def test_chebyshev_rule_closed_form():
    m = 8
    rule = qd.gauss_rule("jacobi", m, alpha=-0.5, beta=-0.5)
    expect = np.sort(np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m)))
    assert np.abs(rule.nodes - expect).max() < 1e-13
    assert np.abs(rule.weights - np.pi / m).max() < 1e-13


def test_exactness_legendre_degree_19():
    rule = qd.gauss_rule("jacobi", 10, alpha=0.0, beta=0.0)
    assert qd.verify_exactness(rule, 19) < 1e-12


def test_exactness_zeroth_moment():
    for rule in (
        qd.gauss_rule("jacobi", 5, alpha=1.0, beta=0.25),
        qd.gauss_rule("hermite", 5),
        qd.gauss_rule("laguerre", 5, alpha=0.5),
    ):
        assert qd.verify_exactness(rule, 0) < 1e-13


def test_exactness_rejects_degree_past_guarantee():
    rule = qd.gauss_rule("jacobi", 4, alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        qd.verify_exactness(rule, 8)


@pytest.mark.parametrize(
    "weight,kwargs",
    [
        ("jacobi", {"alpha": 0.0, "beta": 0.0}),
        ("jacobi", {"alpha": 2.0, "beta": 0.5}),
        ("jacobi", {"alpha": -0.5, "beta": -0.5}),
        ("hermite", {}),
        ("laguerre", {"alpha": 0.0}),
        ("laguerre", {"alpha": 2.0}),
    ],
)
def test_exactness_at_maximal_degree(weight, kwargs):
    for m in (1, 2, 3, 5, 9, 17, 33, 64):
        rule = qd.gauss_rule(weight, m, **kwargs)
        assert qd.verify_exactness(rule, rule.exactness) < 1e-10, (weight, m)


@pytest.mark.parametrize(
    "weight,kwargs",
    [
        ("jacobi", {"alpha": 0.5, "beta": 1.5}),
        ("hermite", {}),
        ("laguerre", {"alpha": 1.0}),
    ],
)
def test_positivity_and_interlacing(weight, kwargs):
    for m in (1, 2, 5, 12, 31, 63):
        a = qd.gauss_rule(weight, m, **kwargs)
        b = qd.gauss_rule(weight, m + 1, **kwargs)
        assert np.all(a.weights > 0) and np.all(b.weights > 0)
        assert np.all(np.diff(a.nodes) > 0)
        # nodes of the m-rule interlace nodes of the (m+1)-rule
        assert np.all(b.nodes[:-1] < a.nodes) and np.all(a.nodes < b.nodes[1:])


def test_invalid_arguments():
    with pytest.raises(ValueError):
        qd.gauss_rule("fourier", 3)
    with pytest.raises(ValueError):
        qd.gauss_rule("jacobi", 0, alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        qd.gauss_rule("jacobi", 3)
    with pytest.raises(ValueError):
        qd.gauss_rule("jacobi", 3, alpha=-1.5, beta=0.0)


def test_function_rules_integrate_products_exactly():
    m = 16
    hr = qd.hermite_function_rule(m)
    # integral of x^(2k) exp(-x^2): Gamma(k + 1/2)
    for k in (0, 3, 10, 15):
        val = float(np.dot(hr.weights, hr.nodes ** (2 * k) * np.exp(-hr.nodes**2)))
        assert val == pytest.approx(math.gamma(k + 0.5), rel=1e-12)
    lr = qd.laguerre_function_rule(1.0, m)
    # integral of t^(2k) exp(-t^2) t^(2 alpha + 1) dt = Gamma(k + alpha + 1)/2
    for k in (0, 3, 10, 15):
        val = float(
            np.dot(lr.weights, lr.nodes ** (2 * k) * np.exp(-lr.nodes**2))
        )
        assert val == pytest.approx(math.gamma(k + 2.0) / 2.0, rel=1e-12)


def test_large_function_rules_stay_finite():
    hr = qd.hermite_function_rule(256)
    lr = qd.laguerre_function_rule(0.0, 256)
    for rule in (hr, lr):
        assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0)


_LINE_RULES = st.sampled_from([("hermite", None), ("laguerre", 0.0), ("laguerre", 0.5), ("laguerre", 2.0)])


@settings(max_examples=6, deadline=None, derandomize=True)
@given(m=st.integers(1, 2048), rule=_LINE_RULES)
@example(m=1, rule=("laguerre", 0.5))
@example(m=2048, rule=("hermite", None))
@example(m=2048, rule=("laguerre", 0.0))
def test_plain_line_rules_have_finite_weights_summing_to_mu0(m, rule):
    # the far nodes' weights lie below double range: 0, never inf
    weight, alpha = rule
    w = qd.gauss_rule(weight, m, alpha=alpha).weights
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    mu0 = math.sqrt(math.pi) if weight == "hermite" else math.gamma(alpha + 1.0)
    assert abs(w.sum() - mu0) <= 1e-12 * mu0


@settings(max_examples=6, deadline=None, derandomize=True)
@given(m=st.integers(1, 2048), rule=_LINE_RULES, seed=st.integers(0, 2**32 - 1))
@example(m=1, rule=("hermite", None), seed=0)
@example(m=2048, rule=("hermite", None), seed=1)
@example(m=2048, rule=("laguerre", 0.0), seed=2)
def test_function_rules_keep_the_normalized_functions_orthonormal(m, rule, seed):
    # products f_a f_b with a + b <= 2m - 1 are integrated exactly
    weight, alpha = rule
    if weight == "hermite":
        fr = qd.hermite_function_rule(m)
        table = op.hermite_fn_all(2 * m - 1, fr.nodes).values
    else:
        fr = qd.laguerre_function_rule(alpha, m)
        table = op.laguerre_fn_all(alpha, 2 * m - 1, fr.nodes, "F").values
    assert np.all(np.isfinite(fr.weights)) and np.all(fr.weights > 0)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2 * m, 8)
    pairs = [(i, int(rng.integers(0, 2 * m - i))) for i in a]
    pairs += [(0, 0), (m - 1, m - 1), (m - 1, m), (2 * m - 1, 0)]
    for i, j in pairs:
        gram = float(np.dot(fr.weights, table[i] * table[j]))
        assert abs(gram - (i == j)) < 1e-10, (i, j)


def test_function_rules_share_the_plain_rules_nodes():
    # one Christoffel pass gives both rules: w_fn = w exp(x^p) wherever the
    # plain weight is representable; far out, plain weights truly underflow
    for m in (40, 1024):
        plain, fn = qd.gauss_rule("hermite", m), qd.hermite_function_rule(m)
        assert np.array_equal(plain.nodes, fn.nodes)
        keep = plain.weights > 1e-280
        assert np.allclose(plain.weights[keep] * np.exp(fn.nodes[keep] ** 2), fn.weights[keep], rtol=1e-12)
        plain, fn = qd.gauss_rule("laguerre", m, alpha=1.5), qd.laguerre_function_rule(1.5, m)
        assert np.array_equal(np.sqrt(plain.nodes), fn.nodes)
        keep = plain.weights > 1e-280
        assert np.allclose(plain.weights[keep] * np.exp(plain.nodes[keep]) / 2, fn.weights[keep], rtol=1e-12)
    assert not np.all(qd.gauss_rule("laguerre", 1024).weights > 0)


# every Jacobi matrix of the rules: the Jacobi weights of the needlets and of
# the ball at mu = 1/2, 1 and 3/2, and the line weights' (the function rules
# share the Laguerre matrices, and the Hermite rules take the Laguerre
# matrices at alpha = -1/2 and +1/2)
_EIGEN_CASES = [
    ("jacobi", (0.0, 0.0)), ("jacobi", (2.0, 0.5)), ("jacobi", (-0.9, 3.0)), ("jacobi", (-0.5, -0.5)),
    ("jacobi", (0.5, 0.5)), ("laguerre", (-0.5,)), ("laguerre", (0.5,)), ("laguerre", (0.0,)),
    ("laguerre", (5.0,)),
]


@pytest.mark.parametrize("weight, params", _EIGEN_CASES)
def test_dense_eigenvalues_keep_the_tridiagonal_solvers_bits(weight, params):
    # both solvers end in LAPACK's dsterf on the same entries; if a platform's
    # two LAPACK builds differ, this fails rather than the nodes moving
    from scipy.linalg import eigh_tridiagonal

    coeffs = {"jacobi": qd._jacobi_coeffs, "laguerre": qd._laguerre_coeffs}[weight]
    for m in range(1, qd._DENSE_MAX + 1):
        a, b, _ = coeffs(m, *params)
        dense = np.sort(qd._eigenvalues(a, b))
        assert np.array_equal(dense, np.sort(eigh_tridiagonal(a, b, eigvals_only=True))), m


@pytest.mark.parametrize("weight, table", [
    ("hermite", lambda m, x: op._hermite_fn_values(m - 1, x)),
    ("laguerre", lambda m, x: op._laguerre_core(0.5, m - 1, x)),
])
def test_christoffel_sums_match_squared_table_sums(weight, table):
    # summing squares row by row takes the additions in numpy's axis-0 order
    for m in (1, 2, 17, 300):
        nodes, sums, _ = qd._christoffel_pass(weight, m, *(() if weight == "hermite" else (0.5,)))
        assert np.array_equal(sums, np.sum(table(m, nodes) ** 2, axis=0))


def _jacobi_weight_reference(x, m, a, b):
    """1 / sum_k p_k(x)^2 over the orthonormal Jacobi polynomials p_0..p_{m-1}
    for integer a, b, by their three-term recurrence in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, x = Decimal(a), Decimal(b), Decimal(x)
        s = a + b
        mu0 = 2 ** (s + 1) * math.factorial(int(a)) * math.factorial(int(b)) / Decimal(math.factorial(int(s + 1)))
        prev, cur, b_k = Decimal(0), 1 / mu0.sqrt(), Decimal(0)
        total = cur * cur
        for k in range(1, m):
            a_k = (b * b - a * a) / ((2 * k + s - 2) * (2 * k + s))
            b_next = (
                4 * k * (k + a) * (k + b) * (k + s) / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
            ).sqrt()
            prev, cur, b_k = cur, ((x - a_k) * cur - b_k * prev) / b_next, b_next
            total += cur * cur
        return 1 / total


def test_jacobi_weights_at_the_end_nodes_are_christoffel_numbers():
    # eigenvector components lose relative accuracy at the end nodes, where
    # the weights are smallest (7e-8 at m = 512); Christoffel sums do not
    m = 512
    rule = qd.gauss_rule("jacobi", m, alpha=5.0, beta=5.0)
    for i in (0, 1, 2, m - 3, m - 2, m - 1):
        ref = _jacobi_weight_reference(rule.nodes[i], m, 5, 5)
        assert abs(Decimal(rule.weights[i]) / ref - 1) < Decimal("1e-12"), i


def test_line_moments_are_compared_in_log_space():
    # Hermite moments past degree 341 overflow a double; the far nodes'
    # weights lie below double range (0), so the top moments are all missed
    assert qd.verify_exactness(qd.gauss_rule("hermite", 1024), 2047) == pytest.approx(1.0, abs=1e-6)
    assert qd.verify_exactness(qd.gauss_rule("hermite", 300), 599) < 1e-10
    # subnormal Laguerre weights keep their own logs, not a clamped 1e-300
    assert 0.9 < qd.verify_exactness(qd.gauss_rule("laguerre", 400), 799) < 1.0
    assert qd.verify_exactness(qd.gauss_rule("laguerre", 200, alpha=0.5), 399) < 1e-10


@pytest.mark.parametrize("weight, kwargs", [
    ("jacobi", {"alpha": 1.0, "beta": 0.5}), ("hermite", {}), ("laguerre", {"alpha": 0.5}),
])
def test_a_nonfinite_moment_error_is_returned(weight, kwargs):
    rule = qd.gauss_rule(weight, 8, **kwargs)
    weights = rule.weights.copy()
    weights[3] = np.nan
    assert math.isnan(qd.verify_exactness(dataclasses.replace(rule, weights=weights), 15))


def test_rule_serialization(tmp_path):
    rule = qd.gauss_rule("jacobi", 3, alpha=1.0, beta=0.5)
    desc = json.loads(qd.rule_to_json(rule))
    assert desc == {"weight": "jacobi", "params": [1.0, 0.5], "m": 3}
    path = tmp_path / "rule.csv"
    qd.save_rule_csv(rule, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,weight"
    assert len(lines) == 4


@pytest.mark.parametrize("build", [qd.hermite_function_rule, lambda m: qd.laguerre_function_rule(1.5, m)])
def test_function_rules_are_orthonormal_and_a_perturbed_weight_is_not(build):
    rule = build(96)
    assert qd.verify_orthonormality(rule) < 1e-13
    # a low degree reads only the leading rows
    assert qd.verify_orthonormality(rule, 10) < 1e-14
    weights = rule.weights.copy()
    weights[40] *= 1.0 + 1e-6
    assert qd.verify_orthonormality(dataclasses.replace(rule, weights=weights)) > 1e-9
    weights[40] = np.nan
    assert math.isnan(qd.verify_orthonormality(dataclasses.replace(rule, weights=weights)))
    with pytest.raises(ValueError, match="degree"):
        qd.verify_orthonormality(rule, rule.exactness + 1)


@pytest.mark.parametrize("degree", [3.5, -1, 16, math.nan, math.inf])
def test_orthonormality_reads_the_degree_as_exactness_does(degree):
    # a fractional degree once passed verify_orthonormality unchecked
    message = r"degree must be an integer in 0\.\.15, the declared exactness"
    with pytest.raises(ValueError, match=message):
        qd.verify_orthonormality(qd.hermite_function_rule(8), degree)
    with pytest.raises(ValueError, match=message):
        qd.verify_exactness(qd.gauss_rule("hermite", 8), degree)


def test_orthonormality_reads_a_whole_float_degree_as_its_integer():
    rule = qd.laguerre_function_rule(0.5, 8)
    assert qd.verify_orthonormality(rule, 6.0) == qd.verify_orthonormality(rule, 6)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 256, 257, 512, 513, 514, 515, 1024, 4097])
def test_hermite_rules_come_from_the_half_size_laguerre_problem(m):
    # nodes +-sqrt(s) over the floor(m/2)-point Laguerre rule at alpha =
    # -1/2 (m even) or +1/2 (m odd, with 0 between): exactly antisymmetric,
    # with symmetric weights, for the plain and the function rule alike
    k = m // 2
    half = qd.gauss_rule("laguerre", k, alpha=m % 2 - 0.5).nodes if k else np.empty(0)
    for rule in (qd.gauss_rule("hermite", m), qd.hermite_function_rule(m)):
        assert np.array_equal(rule.nodes[m - k :], np.sqrt(half))
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        if m % 2:
            assert rule.nodes[k] == 0.0 and not np.signbit(rule.nodes[k])
        assert np.all(np.diff(rule.nodes) > 0)


# verify_orthonormality of the Hermite function rules when their nodes came
# from the full m x m Hermite matrix, which the half problem stays within
_HERMITE_ORTHONORMALITY = {1: 0.0, 2: 2.3e-16, 3: 6.7e-16, 513: 4.6e-13, 1024: 8.1e-13, 2048: 1.5e-12}


@pytest.mark.parametrize("m", sorted(_HERMITE_ORTHONORMALITY))
def test_hermite_function_rules_stay_as_orthonormal_as_from_the_full_problem(m):
    assert qd.verify_orthonormality(qd.hermite_function_rule(m)) <= _HERMITE_ORTHONORMALITY[m]


def test_orthonormality_is_checked_on_function_rules_only():
    with pytest.raises(ValueError, match="function rules"):
        qd.verify_orthonormality(qd.gauss_rule("hermite", 8))


@pytest.mark.parametrize("build", [
    lambda: qd.gauss_rule("jacobi", 32, alpha=2.0, beta=0.5),
    lambda: qd.hermite_function_rule(512),
    lambda: qd.laguerre_function_rule(1.0, 400),
], ids=["jacobi", "hermite_fn", "laguerre_fn"])
def test_the_rule_functions_are_those_whose_christoffel_sums_gave_the_weights(build):
    rule = build()
    rows = qd._rule_functions(rule, rule.m - 1, rule.nodes)
    sums = np.zeros(rule.m)
    for row in rows:
        sums += row * row
    assert np.array_equal(1.0 / sums, rule.weights)

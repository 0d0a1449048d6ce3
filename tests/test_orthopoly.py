import math
import warnings
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from orthoframes import kernels as ke
from orthoframes import orthopoly as op
from orthoframes import quadrature as qd


def test_jacobi_degree_zero():
    table = op.jacobi_all(op.JacobiParams(1.3, -0.4), 0, 0.2)
    assert table.values[0] == 1.0


def test_jacobi_endpoint_normalization():
    for a, b in [(0.0, 0.0), (2.0, 0.5), (-0.5, -0.5), (1.5, 3.0)]:
        vals = op.jacobi_all(op.JacobiParams(a, b), 30, 1.0).values
        for n in range(31):
            expect = math.exp(gammaln(n + a + 1) - gammaln(a + 1) - gammaln(n + 1))
            assert vals[n] == pytest.approx(expect, rel=1e-10)
    assert op.jacobi_all(op.JacobiParams(0.0, 0.0), 2, 1.0).values[2] == pytest.approx(1.0)


def test_jacobi_gram_schmidt_oracle():
    # orthogonalize {1, t} under (1 - t) by numerical integration, rescale to
    # the endpoint normalization, compare at x = 0.3
    w = lambda t: (1.0 - t)
    m0, _ = quad(w, -1, 1)
    m1, _ = quad(lambda t: t * w(t), -1, 1)
    # direction t - <t,1>/<1,1>
    c = m1 / m0
    direction = lambda t: t - c
    scale = 2.0 / direction(1.0)  # P_1^{(1,0)}(1) = binom(2,1) = 2
    oracle = scale * direction(0.3)
    val = op.jacobi_all(op.JacobiParams(1.0, 0.0), 1, 0.3).values[1]
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(0.95, rel=1e-12)


def test_jacobi_rejects_outside_domain():
    with pytest.raises(ValueError):
        op.jacobi_all(op.JacobiParams(0.0, 0.0), 3, 1.2)


_PUBLIC_TABLES = {
    "jacobi": lambda t: op.jacobi_all(op.JacobiParams(0.0, 0.0), 3, t),
    "gegenbauer": lambda t: op.gegenbauer_all(1.5, 3, t),
    "hermite": lambda t: op.hermite_fn_all(3, t),
    **{f"laguerre-{w}": lambda t, w=w: op.laguerre_fn_all(0.5, 3, t, which=w) for w in "FLM"},
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("table", sorted(_PUBLIC_TABLES))
def test_public_tables_refuse_non_finite_points(table, bad):
    # jacobi_all at nan once returned rows 1, nan, nan, nan and laguerre_fn_all
    # nan rows: a nan passed the "reject if outside" tests
    tabulate = _PUBLIC_TABLES[table]
    assert np.all(np.isfinite(tabulate(np.array([0.2, 0.7])).values))
    with pytest.raises(ValueError, match=r"evaluation points must .*\(got nan or inf\)"):
        tabulate(np.array([0.2, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: op.JacobiParams(v, 0.0), "alpha, beta > -1"),
        (lambda v: op.gegenbauer_all(v, 3, 0.2), "gegenbauer parameter must be positive"),
        (lambda v: op.laguerre_fn_all(v, 3, 0.2), "alpha must be >= 0"),
        (lambda v: qd.gauss_rule("jacobi", 4, alpha=0.0, beta=v), "jacobi weight needs alpha, beta > -1"),
        (lambda v: qd.gauss_rule("laguerre", 4, alpha=v), "laguerre weight needs alpha > -1"),
        (lambda v: qd.laguerre_function_rule(v, 4), "alpha must be >= 0"),
    ],
    ids=["jacobi-params", "gegenbauer", "laguerre-fn", "jacobi-rule", "laguerre-rule", "laguerre-fn-rule"],
)
def test_parameters_refuse_nan_and_inf(build, message, bad):
    with pytest.raises(ValueError, match=message + r".*\(got nan or inf\)"):
        build(bad)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: op.JacobiParams(v, 0.0), "jacobi parameters alpha, beta must be at most 1e"),
        (lambda v: op.gegenbauer_all(v, 3, 0.2), "gegenbauer parameter must be at most 1e"),
        (lambda v: qd.gauss_rule("jacobi", 4, alpha=0.0, beta=v), "jacobi weight parameters alpha, beta must be at most 1e"),
    ],
    ids=["jacobi-params", "gegenbauer", "jacobi-rule"],
)
def test_jacobi_parameters_past_the_recurrences_range_are_refused(build, message):
    # the rule's coefficients once squared a Python float into OverflowError
    with pytest.raises(ValueError, match=message):
        build(1e308)


def test_jacobi_norm_legendre():
    p = op.JacobiParams(0.0, 0.0)
    assert op.jacobi_norm(p, 1) == pytest.approx(2.0 / 3.0, rel=1e-13)
    for n in (0, 3, 10):
        oracle, _ = quad(lambda t: op.jacobi_all(p, n, t).values[n] ** 2, -1, 1)
        assert op.jacobi_norm(p, n) == pytest.approx(oracle, rel=1e-9)


def test_jacobi_norm_chebyshev_degenerate():
    p = op.JacobiParams(-0.5, -0.5)
    with pytest.warns(RuntimeWarning):
        h0 = op.jacobi_norm(p, 0)
    assert h0 == pytest.approx(np.pi, rel=1e-12)
    assert op.jacobi_norm(p, 1) == pytest.approx(np.pi / 8.0, rel=1e-12)
    oracle, _ = quad(
        lambda t: (t / 2.0) ** 2 / np.sqrt(1 - t * t), -1, 1, points=[-1, 1]
    )
    assert op.jacobi_norm(p, 1) == pytest.approx(oracle, rel=1e-8)


def test_jacobi_norm_beta_integral_at_zero():
    a, b = 1.2, 0.3
    expect = 2.0 ** (a + b + 1) * math.exp(
        gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2)
    )
    assert op.jacobi_norm(op.JacobiParams(a, b), 0) == pytest.approx(expect, rel=1e-13)


def test_vector_norms_take_the_beta_integral_without_warning():
    # every Chebyshev-weight Gauss rule and ball rule at mu = 1/2 takes this
    # path; below alpha + beta = -1 the closed form would need log of a negative
    for a, b in [(-0.5, -0.5), (-0.7, -0.7), (-0.9, 0.2)]:
        expect = 2.0 ** (a + b + 1) * math.exp(gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = op.jacobi_norms(op.JacobiParams(a, b), 4)
            qd.gauss_rule("jacobi", 8, alpha=a, beta=b)
        assert h[0] == pytest.approx(expect, rel=1e-13)
        assert np.all(np.isfinite(h))


def test_norms_sliced_off_a_longer_vector_keep_their_bits(monkeypatch):
    monkeypatch.setattr(op, "_NORMS", {})
    for a, b in [(0.0, 0.0), (2.0, 0.5), (-0.5, -0.5), (-0.9, 0.2), (30.0, 0.5)]:
        longest = op._jacobi_norms_upto(a, b, 300)
        assert not longest.flags.writeable
        for top in (0, 1, 7, 127, 300):
            assert np.array_equal(op._jacobi_norms_upto(a, b, top), op.jacobi_norms(op.JacobiParams(a, b), top))


def test_gegenbauer_normalization_and_recurrence():
    lam = 1.0
    vals = op.gegenbauer_all(lam, 6, 1.0).values
    for n in range(7):
        expect = math.exp(gammaln(n + 2 * lam) - gammaln(2 * lam) - gammaln(n + 1))
        assert vals[n] == pytest.approx(expect, rel=1e-12)
    assert op.gegenbauer_all(0.7, 0, 0.3).values[0] == 1.0
    # independent forward recurrence oracle
    t = 0.5
    c0, c1 = 1.0, 2 * lam * t
    c2 = (2 * (1 + lam) * t * c1 - (1 + 2 * lam - 1) * c0) / 2.0
    assert op.gegenbauer_all(lam, 2, t).values[2] == pytest.approx(c2, abs=1e-14)
    with pytest.raises(ValueError):
        op.gegenbauer_all(0.0, 3, 0.5)


def test_emn_weighted_envelope_bound():
    # sup (1-x)^(a+1/2) (1+x)^(b+1/2) P_n^2 <= (2e/pi)(2+|(a,b)|) h_n, 1% slack
    th = np.linspace(1e-4, np.pi - 1e-4, 4000)
    x = np.cos(th)
    for a, b in [(0.0, 0.0), (2.0, 0.5), (0.5, 0.5), (-0.5, -0.5)]:
        p = op.JacobiParams(a, b)
        for n in (5, 20, 50):
            pv = op._jacobi_values(a, b, n, x)[n]
            lhs = ((1 - x) ** (a + 0.5) * (1 + x) ** (b + 0.5) * pv**2).max()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rhs = (2 * np.e / np.pi) * (2 + math.hypot(a, b)) * op.jacobi_norm(p, n)
            assert lhs <= 1.01 * rhs


def test_hermite_function_values():
    vals = op.hermite_fn_all(3, 0.0).values
    assert vals[0] == pytest.approx(np.pi**-0.25, rel=1e-14)
    assert vals[1] == 0.0
    # closed form h_0(t) = pi^(-1/4) exp(-t^2/2)
    t = 1.7
    assert op.hermite_fn_all(0, t).values[0] == pytest.approx(
        np.pi**-0.25 * math.exp(-t * t / 2), rel=1e-14
    )


def test_hermite_orthonormality_by_quadrature():
    rule = qd.hermite_function_rule(64)
    vals = op.hermite_fn_all(50, rule.nodes).values
    gram = (vals * rule.weights) @ vals.T
    assert np.abs(gram - np.eye(51)).max() < 1e-10


def test_jacobi_orthonormality_by_quadrature():
    for a, b in [(0.0, 0.0), (2.0, 0.5)]:
        rule = qd.gauss_rule("jacobi", 24, alpha=a, beta=b)
        p = op.JacobiParams(a, b)
        h = np.array([op.jacobi_norm(p, k) for k in range(20)])
        vals = op._jacobi_values(a, b, 19, rule.nodes) / np.sqrt(h)[:, None]
        gram = (vals * rule.weights) @ vals.T
        assert np.abs(gram - np.eye(20)).max() < 1e-8


def test_value_table_csv(tmp_path):
    table = op.jacobi_all(op.JacobiParams(0.0, 0.0), 4, 0.3)
    path = tmp_path / "table.csv"
    op.save_table_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("degree,")
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == 1.0


def test_hermite_tail_decay_rate():
    # fitted gamma with |h_n(t)| <= exp(-gamma t^2) beyond sqrt(4n+2)
    gammas = []
    for n in (5, 10, 20, 40):
        t0 = math.sqrt(4 * n + 2)
        ts = np.linspace(t0, 1.4 * t0, 200)
        h = op.hermite_fn_all(n, ts).values[n]
        gammas.append((-np.log(np.maximum(np.abs(h), 1e-290)) / ts**2).min())
    assert min(gammas) > 0.05


def test_laguerre_function_values():
    assert op.laguerre_fn_all(0.0, 0, 0.0, "F").values[0] == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )
    m = op.laguerre_fn_all(1.5, 4, 0.0, "M")
    assert np.all(m.values == 0.0)
    with pytest.raises(ValueError):
        op.laguerre_fn_all(-0.2, 3, 1.0)
    with pytest.raises(ValueError):
        op.laguerre_fn_all(0.0, 3, -1.0)


def test_laguerre_orthonormality_by_quadrature():
    for alpha in (0.0, 2.0):
        rule = qd.laguerre_function_rule(alpha, 64)
        vals = op.laguerre_fn_all(alpha, 50, rule.nodes, "F").values
        gram = (vals * rule.weights) @ vals.T
        assert np.abs(gram - np.eye(51)).max() < 1e-10


def test_laguerre_l_type_orthonormality():
    # L-type functions are orthonormal on the half line with plain measure
    rule = qd.gauss_rule("laguerre", 40, alpha=0.0)
    # int f g dt with f = ell-type at alpha: use substitution-free rule:
    # L-type at alpha=0 reduces to exp(-t/2) L_n(t); weights e^{+t} needed
    vals = op.laguerre_fn_all(0.0, 20, rule.nodes, "L").values
    lift = np.exp(rule.nodes)
    finite = np.isfinite(lift)
    gram = (vals[:, finite] * (rule.weights * lift)[finite]) @ vals[:, finite].T
    assert np.abs(gram - np.eye(21)).max() < 1e-8


def test_laguerre_bound_report():
    rep = op.check_laguerre_bound(2.0, 40)
    sel = [5, 10, 20, 40]
    assert rep.spread(sel) < 2.0
    assert not rep.growth_flag
    # n = 1, alpha = 0: the fitted constant dominates sup |1 - t| e^{-t/2}
    rep0 = op.check_laguerre_bound(0.0, 1)
    ts = np.linspace(1e-3, 18.0, 20000)
    oracle = (np.abs(1.0 - ts) * np.exp(-ts / 2.0)).max()
    assert rep0.constants[0] >= oracle - 1e-6


def test_laguerre_bound_preconditions():
    with pytest.raises(ValueError):
        op.check_laguerre_bound(-0.6, 10)
    with pytest.raises(ValueError):
        op.check_laguerre_bound(5.0, 3)


_ORDERED = {
    "jacobi_all": lambda v: op.jacobi_all(op.JacobiParams(0.0, 0.0), v, 0.2),
    "jacobi_norm": lambda v: op.jacobi_norm(op.JacobiParams(0.5, 0.0), v),
    "gegenbauer_all": lambda v: op.gegenbauer_all(1.5, v, 0.2),
    "hermite_fn_all": lambda v: op.hermite_fn_all(v, 0.2),
    "laguerre_fn_all": lambda v: op.laguerre_fn_all(0.5, v, 0.2),
    "check_laguerre_bound-n_max": lambda v: op.check_laguerre_bound(0.0, v),
    "check_laguerre_bound-t_points": lambda v: op.check_laguerre_bound(0.0, 4, t_points=v),
}


@pytest.mark.parametrize("bad", [2.5, math.nan, -1, math.inf], ids=["2.5", "nan", "-1", "inf"])
@pytest.mark.parametrize("entry", sorted(_ORDERED))
def test_public_entry_points_refuse_orders_that_are_not_whole_numbers(entry, bad):
    # an order of 2.5 once raised TypeError or IndexError, and
    # check_laguerre_bound(nan, 8) numpy's "cannot convert float NaN to integer"
    _ORDERED[entry](3)
    with pytest.raises(ValueError, match="must be an integer >= "):
        _ORDERED[entry](bad)
    if not math.isfinite(bad):
        with pytest.raises(ValueError, match=r"alpha must be >= -1/2 \(got nan or inf\)"):
            op.check_laguerre_bound(bad, 8)


def _decimal_rows(seed, lift, step, n_max):
    """Rows 0..n_max of a three-term recurrence in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        rows = [seed(), seed() * lift()]
        for n in range(1, n_max):
            rows.append(step(Decimal(n), rows[-1], rows[-2]))
        return np.array([float(v) for v in rows])


def _assert_rows_match(values, reference):
    # rows whose true value lies below double range are 0
    err = np.abs(values - reference)
    assert np.all(err <= 1e-11 * np.abs(reference) + 1e-300)
    assert np.all(values[reference == 0.0] == 0.0)


def test_hermite_functions_keep_far_tail_points():
    # seeds below 2^-1000 recur with a power-of-two exponent; the others recur
    # exactly as when no such point is present
    t = np.array([-85.0, 0.5, 40.0, -3.0, 60.0, 7.25, 45.0])
    n_max = 3000
    vals = op._hermite_fn_values(n_max, t)
    near = np.abs(t) < 30
    assert np.array_equal(vals[:, near], op._hermite_fn_values(n_max, t[near]))
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
    two = Decimal(2)
    for i in np.flatnonzero(~near):
        x = Decimal(float(t[i]))
        ref = _decimal_rows(
            lambda: (-x * x / two).exp() / pi.sqrt().sqrt(),
            lambda: two.sqrt() * x,
            lambda n, cur, prev: x * (two / (n + 1)).sqrt() * cur - (n / (n + 1)).sqrt() * prev,
            n_max,
        )
        assert ref[-1] != 0.0 and ref[0] == 0.0
        _assert_rows_match(vals[:, i], ref)


def test_lgamma_matches_scipy_gammaln():
    gen = np.random.default_rng(21)
    positive = np.concatenate([np.geomspace(1e-300, 1e64, 4001), 10 ** gen.uniform(-300, 64, 4000),
                               gen.uniform(0.0, 200.0, 4000), 1.0 + gen.uniform(-1e-3, 1e-3, 500),
                               2.0 + gen.uniform(-1e-3, 1e-3, 500)])
    negative = np.concatenate([-gen.uniform(0.0, 200.0, 4000), -np.arange(200) - 0.5,
                               -np.arange(1, 50) + 1e-9, -np.arange(1, 50) - 1e-9])
    x = np.concatenate([positive, negative[negative % 1 != 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = op._lgamma(x)
        poles = op._lgamma(np.array([0.0, -0.0, -1.0, -2.0, -171.0, -1e20]))
        at_nan = op._lgamma(math.nan)
    ref = gammaln(x)
    assert np.all(np.abs(got - ref) <= 4e-15 * np.maximum(1.0, np.abs(ref)))
    assert np.all(poles == np.inf) and np.all(gammaln(np.array([0.0, -1.0, -2.0])) == np.inf)
    assert isinstance(at_nan, float) and math.isnan(at_nan)
    assert isinstance(op._lgamma(2.5), float) and op._lgamma(np.array(2.5)) == op._lgamma(2.5)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("which, far", [("L", 1e300), ("L", 1.7e308), ("M", 1e100), ("M", 1e160), ("M", 1.7e308)])
def test_laguerre_l_and_m_types_read_zero_at_far_points(alpha, which, far):
    # these once read nan: M squared t unheld, and both multiplied an
    # infinite power t^alpha or t^(alpha/2) by the far point's 0 core
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = op.laguerre_fn_all(alpha, 3, [far, 1.0], which).values
    assert np.all(values[:, 0] == 0.0)
    assert np.array_equal(values[:, 1], op.laguerre_fn_all(alpha, 3, 1.0, which).values)


@pytest.mark.parametrize("alpha", [0, 2])
def test_laguerre_core_keeps_far_tail_points(alpha):
    s = np.array([1.0, 30.0, 2500.0, 8000.0, 16000.0])
    n_max = 4095
    vals = op._laguerre_core(float(alpha), n_max, s)
    near = s < 1000
    assert np.array_equal(vals[:, near], op._laguerre_core(float(alpha), n_max, s[near]))
    a = Decimal(alpha)
    for i in np.flatnonzero(~near):
        x = Decimal(float(s[i]))
        ref = _decimal_rows(
            lambda: (-x / 2).exp() / Decimal(math.factorial(alpha)).sqrt(),
            lambda: (a + 1 - x) / (a + 1).sqrt(),
            lambda n, cur, prev: (2 * n + a + 1 - x) / ((n + 1) * (n + a + 1)).sqrt() * cur
            - (n * (n + a) / ((n + 1) * (n + a + 1))).sqrt() * prev,
            n_max,
        )
        assert ref[-1] != 0.0 and ref[0] == 0.0
        _assert_rows_match(vals[:, i], ref)


# ---------------------------------------------------------------------------
# in-place row sources against the allocating recurrences they replace
#
# The references below are the recurrences as they stood before the row
# sources wrote into rotating buffers: one new array per operation.


def _ref_chebyshev_rows(top, x, consume):
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones(x.shape), x
    consume(0, prev)
    if top > 0:
        consume(1, cur)
    two_x = 2.0 * x
    for n in range(2, top + 1):
        prev, cur = cur, two_x * cur - prev
        consume(n, cur)


def _ref_jacobi_rows(alpha, beta, top, x, consume):
    x = np.asarray(x, dtype=float)
    prev = np.ones(x.shape)
    consume(0, prev)
    if top == 0:
        return
    s = alpha + beta
    cur = 0.5 * (alpha - beta + (s + 2.0) * x)
    consume(1, cur)
    for n in range(2, top + 1):
        c0 = 2.0 * n * (n + s) * (2 * n + s - 2)
        c1 = (2 * n + s - 1) * (2 * n + s) * (2 * n + s - 2)
        c2 = (2 * n + s - 1) * (alpha**2 - beta**2)
        c3 = 2.0 * (n + alpha - 1) * (n + beta - 1) * (2 * n + s)
        prev, cur = cur, ((c1 * x + c2) * cur - c3 * prev) / c0
        consume(n, cur)


def _ref_recur(seed0, seed1, x, top, step, log_seed, lift, consume):
    prev, cur = seed0, seed1
    if top == 0:
        consume(0, prev)
        return
    far = prev < op._TINY
    log2 = log_seed(x[far]) / np.log(2.0)
    exp = np.zeros(x.shape, dtype=np.int32)
    exp[far] = np.maximum(np.floor(log2), -(2.0**30))
    prev[far] = np.exp2(log2 - exp[far])
    cur[far] = lift(x[far]) * prev[far]
    scaled = exp if far.any() else None
    consume(0, prev if scaled is None else np.ldexp(prev, scaled))
    consume(1, cur if scaled is None else np.ldexp(cur, scaled))
    for n in range(1, top):
        prev, cur = cur, step(n, x, cur, prev)
        if n % op._RENORM == 0 and np.any(np.abs(cur) > op._HUGE):
            big = np.abs(cur) > op._HUGE
            shift = np.frexp(cur[big])[1]
            cur[big] = np.ldexp(cur[big], -shift)
            prev[big] = np.ldexp(prev[big], -shift)
            exp[big] += shift
            scaled = exp
        consume(n + 1, cur if scaled is None else np.ldexp(cur, scaled))


def _ref_hermite_rows(top, t, consume):
    t = np.asarray(t, dtype=float).reshape(-1)
    seed0 = np.pi**-0.25 * np.exp(-0.5 * t**2)
    _ref_recur(
        seed0, np.sqrt(2.0) * t * seed0, t, top,
        lambda n, t, cur, prev: t * np.sqrt(2.0 / (n + 1)) * cur - np.sqrt(n / (n + 1.0)) * prev,
        lambda t: -0.5 * t**2 - 0.25 * np.log(np.pi), lambda t: np.sqrt(2.0) * t, consume,
    )


def _ref_laguerre_rows(alpha, top, s, consume):
    s = np.asarray(s, dtype=float).reshape(-1)

    def step(n, s, cur, prev):
        c1 = (2.0 * n + alpha + 1.0 - s) / np.sqrt((n + 1.0) * (n + alpha + 1.0))
        c2 = np.sqrt(n * (n + alpha) / ((n + 1.0) * (n + alpha + 1.0)))
        return c1 * cur - c2 * prev

    _ref_recur(
        np.exp(-0.5 * s - 0.5 * op._lgamma(alpha + 1.0)),
        (alpha + 1.0 - s) * np.exp(-0.5 * s - 0.5 * op._lgamma(alpha + 2.0)),
        s, top, step,
        lambda s: -0.5 * s - 0.5 * op._lgamma(alpha + 1.0),
        lambda s: (alpha + 1.0 - s) / np.sqrt(alpha + 1.0),
        consume,
    )


def _ref_raw_laguerre_rows(alpha, top, t, consume):
    t = np.asarray(t, dtype=float)
    prev = np.exp(-0.5 * t)
    consume(0, prev)
    if top == 0:
        return
    cur = (alpha + 1.0 - t) * prev
    consume(1, cur)
    for n in range(1, top):
        prev, cur = cur, ((2 * n + alpha + 1 - t) * cur - (n + alpha) * prev) / (n + 1.0)
        consume(n + 1, cur)


# (row source, its reference, top, points); the Hermite and Laguerre points
# past 30 and 1000 have seeds below 2^-1000 and recur on scaled mantissas
_ROW_SOURCES = {
    "chebyshev": (op._chebyshev_rows, _ref_chebyshev_rows, 700,
                  np.cos(np.linspace(0.0, np.pi, 41))),
    "jacobi": (partial(op._jacobi_rows, 1.5, -0.5), partial(_ref_jacobi_rows, 1.5, -0.5), 700,
               np.linspace(-1.0, 1.0, 37)),
    "jacobi-a": (partial(op._jacobi_rows, 2.0, 0.5), partial(_ref_jacobi_rows, 2.0, 0.5), 300,
                 np.linspace(-1.0, 1.0, 29)),
    "hermite": (op._hermite_rows, _ref_hermite_rows, 3000,
                np.array([-85.0, 0.5, 40.0, -3.0, 60.0, 7.25, 45.0, 0.0])),
    "laguerre": (partial(op._laguerre_rows, 2.0), partial(_ref_laguerre_rows, 2.0), 4095,
                 np.array([1.0, 30.0, 2500.0, 8000.0, 16000.0, 0.0])),
    "raw-laguerre": (partial(op._raw_laguerre_rows, 3.0), partial(_ref_raw_laguerre_rows, 3.0),
                     400, np.linspace(0.0, 200.0, 23)),
}


@pytest.mark.parametrize("name", sorted(_ROW_SOURCES))
def test_row_sources_keep_the_bits_of_the_allocating_recurrence(name):
    rows, ref, top, pts = _ROW_SOURCES[name]
    assert np.array_equal(op._table(rows, top, pts), op._table(ref, top, pts))
    coeff = np.random.default_rng(3).standard_normal(top + 1)
    coeff[::7] = 0.0  # skipped rows
    assert np.array_equal(ke._series(rows, coeff, pts, pts[::-1]), ke._series(ref, coeff, pts, pts[::-1]))
    assert np.array_equal(ke._series(rows, coeff, pts), ke._series(ref, coeff, pts))


# each row source's interval, and that of its far points (None: none), whose
# seeds lie below 2^-1000
_ROW_DOMAINS = {
    "chebyshev": ((-1.0, 1.0), None), "jacobi": ((-1.0, 1.0), None), "jacobi-a": ((-1.0, 1.0), None),
    "hermite": ((-30.0, 30.0), (38.0, 85.0)), "laguerre": ((0.0, 1000.0), (1400.0, 16000.0)),
    "raw-laguerre": ((0.0, 200.0), None),
}


@pytest.mark.parametrize("name", sorted(_ROW_SOURCES))
@pytest.mark.parametrize("count", [1, 50, 4096, 40000])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), far=st.floats(0.0, 1.0))
@example(seed=0, far=1.0)
def test_row_sources_keep_their_bits_at_any_number_of_points(name, count, seed, far):
    # the two-term steps form their point factors a block of rows at a time,
    # as many rows as fit _FACTOR_ENTRIES at this count: every row keeps the
    # bits of the step formed row by row
    rows, ref, top, _ = _ROW_SOURCES[name]
    top = min(top, 2**21 // count)
    (lo, hi), far_range = _ROW_DOMAINS[name]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, count)
    if far_range is not None:
        out = rng.random(count) < far
        sign = -1.0 if name == "hermite" else 1.0
        pts[out] = rng.uniform(*far_range, out.sum()) * np.where(rng.random(out.sum()) < 0.5, sign, 1.0)
    assert np.array_equal(op._table(rows, top, pts), op._table(ref, top, pts))


@pytest.mark.parametrize("name", sorted(_ROW_SOURCES))
@pytest.mark.parametrize("through", ["table", "series"])
def test_row_sources_take_a_float_a_0d_and_a_1_element_point_alike(name, through):
    rows, _, top, pts = _ROW_SOURCES[name]
    top = min(top, 40)
    coeff = np.linspace(1.0, 2.0, top + 1)
    v = float(pts[len(pts) // 2])

    def value(point):
        if through == "table":
            return op._table(rows, top, point).reshape(top + 1)
        return np.reshape(ke._series(rows, coeff, point, point), 1)

    got = [value(point) for point in (v, np.array(v), np.array([v]))]
    assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


# L_n^(1/2)(t) exp(-t/2) from a 60-digit mpmath evaluation (20 digits kept);
# the seed exp(-t/2) lies below double range at both points
_RAW_LAGUERRE_FAR = [
    (2000, 0, "5.0759588975494567653e-435"),
    (2000, 1, "-1.0144303856752589345e-431"),
    (2000, 100, "3.445400362503224802e-265"),
    (2000, 300, "8.2589454819008860092e-83"),
    (2000, 500, "0.027843107648812290288"),
    (2000, 700, "0.017226282434553022683"),
    (2000, 1000, "0.01254128020668495728"),
    (2000, 1500, "0.0079131998014112822758"),
    (2000, 2000, "0.0094503963726415876516"),
    (2000, 2500, "0.0091550136704161741203"),
    (2000, 2999, "0.0057331029490499117767"),
    (2000, 3000, "-0.005043009282901307149"),
    (3000, 0, "3.6164057003069365778e-652"),
    (3000, 1, "-1.0843792492370349328e-648"),
    (3000, 100, "6.226726012498515941e-464"),
    (3000, 300, "3.7757963740103661028e-238"),
    (3000, 500, "1.201425260578529136e-92"),
    (3000, 700, "3.9045243514060122744e-10"),
    (3000, 1000, "0.0073686534485783693338"),
    (3000, 1500, "-0.0059075013420293669647"),
    (3000, 2000, "-0.0050029947792569883778"),
    (3000, 2500, "0.0048462950581584845978"),
    (3000, 2999, "0.0030876814032056788277"),
    (3000, 3000, "-0.0076609460558478244147"),
]


def test_raw_laguerre_rows_keep_far_points_whose_exponential_underflows():
    # e^(-t/2) underflows past t ~ 1,489; the rows grown from it do not, and
    # a row is 0 only where its true value lies below double range
    t = np.array([2000.0, 3000.0])
    rows = op._table(partial(op._raw_laguerre_rows, 0.5), 3000, t)
    for point, n, ref in _RAW_LAGUERRE_FAR:
        got, ref = rows[n, [2000, 3000].index(point)], float(ref)
        if ref == 0.0:
            assert got == 0.0
        else:
            assert abs(got - ref) <= 1e-10 * abs(ref), (point, n, got, ref)
    # the same rows through a streamed sum
    coeff = np.zeros(3001)
    coeff[500] = 1.0
    assert ke._series(partial(op._raw_laguerre_rows, 0.5), coeff, t[:1])[0] == rows[500, 0]

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from orthoframes import cutoff as co


def test_delta_sequence_leading_entries():
    d = co.build_delta_sequence(0.7, 1, 16)
    assert d[0] == 1.0 and d[1] == 1.0


def test_delta_sequence_closed_formula():
    d = co.build_delta_sequence(1.0, 1, 8)
    assert d[2] == pytest.approx(1.0 / (2.0 * math.log(2.0) ** 2), rel=1e-14)
    assert d[2] == pytest.approx(1.04068, abs=5e-6)
    assert d[5] == pytest.approx(1.0 / (5.0 * math.log(5.0) ** 2), rel=1e-14)


def test_delta_sequence_sum_budget():
    d = co.build_delta_sequence(1.0, 1, co.DEFAULT_M_MAX)
    assert d.sum() <= 4.0
    d = co.build_delta_sequence(0.5, 1, co.DEFAULT_M_MAX)
    assert d.sum() <= 8.0


def test_delta_sequence_multilog_offset():
    d = co.build_delta_sequence(1.0, 2, 64)
    # entries stay 1 until both log j and loglog j exceed 1 (j = 16)
    assert np.all(d[:16] == 1.0)
    j = 16
    expected = 1.0 / (j * math.log(j) * math.log(math.log(j)) ** 2)
    assert d[16] == pytest.approx(expected, rel=1e-13)


def test_delta_sequence_rejects_bad_args():
    with pytest.raises(ValueError):
        co.build_delta_sequence(0.0, 1, 8)
    with pytest.raises(ValueError):
        co.build_delta_sequence(1.5, 1, 8)
    with pytest.raises(ValueError):
        co.build_delta_sequence(1.0, 1, 1)


def test_bump_mass_and_support():
    spec = co.CutoffSpec("a", epsilon=1.0, m_max=512, grid_points=4096)
    b = co.build_bump(spec)
    assert abs(b.total_mass - 1.0) < 1e-10
    assert b.support_radius <= 4.0
    outside = np.abs(b.t) >= b.support_radius
    assert np.abs(b.values[outside]).max() < 1e-12 * b.values.max()
    assert b.values.min() >= 0.0


def _convolution_oracle_h0(dt, m_max=4, epsilon=1.0):
    # brute-force time-domain convolution of area-sampled indicators
    delta = co.build_delta_sequence(epsilon, 1, m_max)
    half = delta.sum() + 0.5
    n = int(round(2 * half / dt))
    t = -half + dt * np.arange(n)

    def box(d):
        left = np.clip(t + dt / 2.0, -d, d)
        right = np.clip(t - dt / 2.0, -d, d)
        return (left - right) / (2.0 * d * dt)

    g = box(delta[0])
    for d in delta[1:]:
        g = fftconvolve(g, box(d), mode="same") * dt
    return g[int(round(half / dt))]


def test_bump_center_matches_convolution_oracle():
    v1 = _convolution_oracle_h0(5e-5)
    v2 = _convolution_oracle_h0(2.5e-5)
    oracle = v2 + (v2 - v1) / 3.0
    assert oracle == pytest.approx(0.36618304819403036, abs=2e-9)
    spec = co.CutoffSpec("a", epsilon=1.0, m_max=4, grid_points=8192)
    h0 = co.build_bump(spec)(0.0)
    assert abs(h0 - oracle) < 1e-8


def _full_grid_sinc_product(delta, n, dt):
    # the sinc product over every fftfreq frequency, one np.sinc per factor
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    transform = np.ones(n)
    for d in delta:
        transform *= np.sinc(d * omega / np.pi)
    return transform


@pytest.mark.parametrize(
    "spec",
    [
        co.CutoffSpec("c", epsilon=1.0),
        co.CutoffSpec("a", epsilon=0.5),
        co.CutoffSpec("c", epsilon=0.25),
        co.CutoffSpec("c", epsilon=1.0, log_depth=2),
        co.CutoffSpec("a", epsilon=1.0, m_max=512, grid_points=4096),
    ],
)
def test_half_spectrum_bump_is_bit_identical_to_the_full_grid(spec, monkeypatch):
    bump = co.build_bump(spec)
    monkeypatch.setattr(co, "_sinc_product", _full_grid_sinc_product)
    ref = co.build_bump(spec)
    assert np.array_equal(bump.values, ref.values)
    assert np.array_equal(bump.cdf, ref.cdf)


def test_half_spectrum_control_cutoff_is_bit_identical_to_the_full_grid(
    control_cutoff, monkeypatch
):
    monkeypatch.setattr(co, "_sinc_product", _full_grid_sinc_product)
    ref = co.build_control_cutoff(1.0)
    assert np.array_equal(control_cutoff.values, ref.values)


def _bump_or_error(delta, grid_points):
    try:
        return co._bump_from_delta(delta, 1.0, 1, grid_points)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    delta=st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=64),
    grid_points=st.integers(2048, 8192).map(lambda k: 2 * k),
)
def test_half_spectrum_product_matches_the_full_grid(delta, grid_points):
    # random widths and even grids: the same transform bits, and the same
    # bump and CDF wherever the bump accepts the widths
    support = sum(delta)
    dt = 2.0 * (support + max(1.0, 0.25 * support)) / grid_points
    half = co._sinc_product(delta, grid_points, dt)
    assert np.array_equal(half, _full_grid_sinc_product(delta, grid_points, dt))
    bump = _bump_or_error(delta, grid_points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(co, "_sinc_product", _full_grid_sinc_product)
        ref = _bump_or_error(delta, grid_points)
    if isinstance(ref, str):
        assert bump == ref
    else:
        assert np.array_equal(bump.values, ref.values)
        assert np.array_equal(bump.cdf, ref.cdf)


def test_multilog_delta_sequence_takes_no_fractional_power_of_a_negative_log():
    # log log j < 0 for j < e^e; those entries are 1 and raise no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = co.build_delta_sequence(0.5, 2, 64)
    assert np.all(d[:16] == 1.0) and np.all(np.isfinite(d))


def test_bump_grid_too_coarse_is_detected():
    # huge widths with a small grid leave visible mass at the boundary
    with pytest.raises(ValueError):
        co._bump_from_delta(np.full(3, 100.0), 1.0, 1, 4096)


def test_bump_rejects_width_budget_overrun():
    # enough factors push the width sum past 4/epsilon
    with pytest.raises(ValueError, match="4/epsilon"):
        co.build_bump(co.CutoffSpec("a", epsilon=1.0, m_max=20000, grid_points=4096))


@pytest.mark.parametrize(
    "spec, message",
    [
        (co.CutoffSpec("a", epsilon=1.5, grid_points=4096), "epsilon must lie in"),
        (co.CutoffSpec("a", m_max=1, grid_points=4096), "m_max must be at least 2"),
    ],
)
def test_bump_rejects_bad_widths(spec, message):
    # the width sequence checks epsilon and m_max for the bump
    with pytest.raises(ValueError, match=message):
        co.build_bump(spec)


def test_type_a_profile(cutoff_a):
    t = np.linspace(0.0, 1.0, 1001)
    assert np.abs(cutoff_a(t) - 1.0).max() < 1e-9
    assert cutoff_a(0.7) == pytest.approx(1.0, abs=1e-9)
    assert cutoff_a(2.0) == 0.0
    assert cutoff_a(2.3) == 0.0
    vals = cutoff_a(np.linspace(0, 2.5, 4001))
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_type_c_support_and_identity(cutoff_c):
    assert cutoff_c(0.49) == 0.0
    assert cutoff_c(2.01) == 0.0
    assert cutoff_c(1.3) ** 2 + cutoff_c(0.65) ** 2 == pytest.approx(1.0, abs=1e-8)
    t = np.linspace(1.0, 2.0, 2001)
    dev = np.abs(cutoff_c(t) ** 2 + cutoff_c(t / 2.0) ** 2 - 1.0).max()
    assert dev < 1e-8


def test_type_b_served_by_type_c():
    spec = co.CutoffSpec("b", epsilon=1.0, m_max=512, grid_points=4096)
    f = co.assemble_cutoff(spec)
    assert f(0.49) == 0.0 and f(2.01) == 0.0
    assert 0.0 <= f(1.1) <= 1.0


def test_phase_symmetry(cutoff_c):
    # ahat(3/2 - u)^2 + ahat(3/2 + u)^2 = 1 encodes g(u) + g(-u) = pi/2
    u = np.linspace(-0.5, 0.5, 501)
    lhs = cutoff_c(1.5 - u) ** 2 + cutoff_c(1.5 + u) ** 2
    assert np.abs(lhs - 1.0).max() < 1e-9


def test_partition_of_unity(cutoff_c):
    dev = co.check_partition_of_unity(cutoff_c, 1.0, 1.0e4)
    assert dev < 1e-8


def test_partition_two_terms_at_dyadic_points(cutoff_c):
    for m in (0, 3, 7):
        t = 2.0**m
        terms = [float(cutoff_c(t / 2.0**nu)) for nu in range(m + 3)]
        assert sum(1 for v in terms if abs(v) > 1e-12) <= 2


def test_partition_requires_type_c(cutoff_a):
    with pytest.raises(ValueError, match="TypeC"):
        co.check_partition_of_unity(cutoff_a, 1.0, 10.0)


def test_derivative_norms_k0(cutoff_c):
    est = co.estimate_derivative_norms(cutoff_c, 0)
    assert est.values[0] == pytest.approx(1.0, abs=1e-9)


def test_derivative_norm_first_order_oracle(cutoff_a):
    # for the flat-top profile, sup |ahat'| equals the rescaled bump peak
    spec = cutoff_a.spec
    bump = co.build_bump(spec)
    oracle = (8.0 / spec.epsilon) * bump.values.max()
    est = co.estimate_derivative_norms(cutoff_a, 1)
    assert est.values[1] == pytest.approx(oracle, rel=1e-6)


def test_derivative_norm_bound_k3(cutoff_c):
    est = co.estimate_derivative_norms(cutoff_c, 3)
    bound = 88.0 * 88.0**3 * 3.0**3 * math.log(3.0) ** 6
    assert est.values[3] <= bound


def test_derivative_bound_small_epsilon(cutoff_c_half, cutoff_a_half):
    eps = 0.5
    for f in (cutoff_c_half, cutoff_a_half):
        est = co.estimate_derivative_norms(f, 6)
        for k in range(1, 7):
            bound = (
                88.0 * (88.0 / eps) ** k * k**k * math.log(max(k, 3)) ** (k * (1 + eps))
            )
            assert est.values[k] <= bound


def test_derivatives_vanish_at_one(cutoff_a, cutoff_c):
    # the phase function is fully flat at the matching point, so every
    # low-order difference quotient at t = 1 sits at round-off level
    for f in (cutoff_a, cutoff_c):
        for k in (1, 2, 3):
            h = 0.02
            i = np.arange(k + 1)
            coeff = (-1.0) ** i * np.array([math.comb(k, int(v)) for v in i])
            pts = 1.0 + (k / 2.0 - i) * h
            fd = abs(np.dot(coeff, f(pts)) / h**k)
            assert fd < 1e-8


def test_derivative_norms_flagging_and_cap(cutoff_c):
    est = co.estimate_derivative_norms(cutoff_c, 8)
    assert est.reliable[:4].all()
    assert est.values.shape == (9,)
    with pytest.raises(ValueError):
        co.estimate_derivative_norms(cutoff_c, 11)


def test_derivative_norm_cache(cutoff_c):
    est1 = co.estimate_derivative_norms(cutoff_c, 6)
    est2 = co.estimate_derivative_norms(cutoff_c, 4)
    assert np.array_equal(est2.values, est1.values[:5])


def test_truncation_convergence():
    # doubling the factor count moves the profile by less than 1e-8
    base = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0, m_max=co.DEFAULT_M_MAX))
    dbl = co.assemble_cutoff(co.CutoffSpec("c", epsilon=1.0, m_max=2 * co.DEFAULT_M_MAX))
    t = np.linspace(0.0, 2.0, 4001)
    assert np.abs(base(t) - dbl(t)).max() < 1e-8


def test_multilog_cutoff_is_admissible():
    spec = co.CutoffSpec("c", epsilon=1.0, log_depth=2, m_max=256, grid_points=4096)
    f = co.assemble_cutoff(spec)
    t = np.linspace(1.0, 2.0, 501)
    assert np.abs(f(t) ** 2 + f(t / 2.0) ** 2 - 1.0).max() < 1e-8
    assert f(0.49) == 0.0 and f(2.01) == 0.0


def test_control_cutoff_is_valid_type_c(control_cutoff):
    t = np.linspace(1.0, 2.0, 501)
    dev = np.abs(control_cutoff(t) ** 2 + control_cutoff(t / 2.0) ** 2 - 1.0).max()
    assert dev < 1e-8
    assert control_cutoff(0.49) == 0.0 and control_cutoff(2.01) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        co.CutoffSpec("d").validate()
    with pytest.raises(ValueError):
        co.CutoffSpec("a", epsilon=0.0).validate()
    with pytest.raises(ValueError):
        co.CutoffSpec("a", m_max=4).validate()
    with pytest.raises(ValueError):
        co.CutoffSpec("a", grid_points=1000).validate()
    with pytest.raises(ValueError):
        co.CutoffSpec("a", log_depth=3).validate()


def test_spec_rejects_fractional_log_depth():
    with pytest.raises(ValueError, match="log_depth must be a positive integer"):
        co.CutoffSpec("a", log_depth=1.5).validate()


def test_spec_rejects_fractional_m_max():
    with pytest.raises(ValueError, match="m_max must be an integer"):
        co.CutoffSpec("a", m_max=4096.5).validate()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"epsilon": 0.0}, "epsilon must lie in"),
        ({"epsilon": -1.0}, "epsilon must lie in"),
        ({"epsilon": 2.0}, "epsilon must lie in"),
        ({"grid_points": 4097}, "grid_points must be an even integer"),
        ({"grid_points": 1000}, "grid_points must be an even integer"),
        ({"m_max": 1}, "m_max must be at least 2"),
    ],
)
def test_control_cutoff_validates_like_the_spec(kwargs, message):
    with pytest.raises(ValueError, match=message):
        co.build_control_cutoff(**kwargs)


def test_spec_json_round_trip():
    spec = co.CutoffSpec("c", epsilon=0.5, log_depth=2, m_max=256, grid_points=4096)
    text = co.spec_to_json(spec)
    raw = json.loads(text)
    assert set(raw) == {"kind", "epsilon", "log_depth", "m_max", "grid"}
    back = co.spec_from_json(text)
    assert back == spec


def test_samples_csv(tmp_path, cutoff_c):
    path = tmp_path / "cut.csv"
    co.save_samples_csv(cutoff_c, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,ahat"
    assert len(lines) == len(cutoff_c.t) + 1
    t0, v0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(v0) == 0.0


def test_inverse_transform_mass(cutoff_c):
    # a(0) = (1/pi) * integral of the profile
    a0 = co.inverse_transform(cutoff_c, 0.0)
    assert a0 == pytest.approx(co.integrate_profile(cutoff_c) / np.pi, abs=1e-10)


def test_integrate_profile_closed_form(cutoff_a):
    # flat part contributes 1, the symmetric roll-off contributes 1/2
    assert co.integrate_profile(cutoff_a) == pytest.approx(1.5, abs=1e-9)

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

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


def _delta_by_the_general_loops(epsilon, log_depth, m_max):
    # the width sequence as formed by the loops over any log depth that the
    # depth-1 and depth-2 closed forms replace
    delta = np.ones(m_max + 1)
    j = np.arange(2, m_max + 1, dtype=float)
    if log_depth == 1:
        delta[2:] = 1.0 / (j * np.log(j) ** (1.0 + epsilon))
        return delta
    factors = [np.log(j)]
    for _ in range(log_depth - 1):
        prev = factors[-1]
        nxt = np.full_like(prev, np.nan)
        ok = prev > 0
        nxt[ok] = np.log(prev[ok])
        factors.append(nxt)
    valid = np.ones(j.shape, dtype=bool)
    for f in factors:
        valid &= np.isfinite(f) & (f > 1.0)
    prod = np.ones_like(j)
    for f in factors[:-1]:
        prod = prod * f
    with np.errstate(invalid="ignore"):
        vals = 1.0 / (j * prod * factors[-1] ** (1.0 + epsilon))
    delta[2:] = np.where(valid, vals, 1.0)
    return delta


@pytest.mark.parametrize("log_depth", [1, 2])
@pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0])
def test_delta_sequence_keeps_the_bits_of_the_general_loops(epsilon, log_depth):
    for m_max in (2, 3, 15, 16, 17, 64, 1000, 4096):
        expected = _delta_by_the_general_loops(epsilon, log_depth, m_max)
        assert np.array_equal(co.build_delta_sequence(epsilon, log_depth, m_max), expected)


def test_log_depth_three_is_refused_by_the_widths_and_the_spec():
    # its iterated logs stay below 1 for every j < e^(e^e), about 3.8 million,
    # so the loops once returned 4,097 unit widths here
    message = "log_depth > 2 needs astronomically many"
    with pytest.raises(ValueError, match=message):
        co.build_delta_sequence(1.0, 3, 4096)
    with pytest.raises(ValueError, match=message):
        co.CutoffSpec("c", log_depth=3).validate()
    with pytest.raises(ValueError, match=message):
        co.build_bump(co.CutoffSpec("a", grid_points=4096, log_depth=3, m_max=64))


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


def _narrow_widths(delta, n, dt):
    # how many widths _sinc_product sums as one log-sinc series: those with
    # d * omega <= _NARROW at its largest formed frequency
    delta = np.asarray(delta, dtype=float)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)[1:]
    top = omega[max(co._formed_frequencies(delta, omega), 1) - 1]
    return int(np.count_nonzero(delta * top <= co._NARROW))


def _assert_matches_full_grid(got, ref, narrow, scale=1.0):
    # bit for bit without a narrow width; within 1e-14 of ``scale`` with one
    if narrow:
        assert np.abs(got - ref).max() <= 1e-14 * scale
    else:
        assert np.array_equal(got, ref)


def _bump_grid(bump):
    n = len(bump.t)
    return n, 2.0 * -bump.t[0] / n  # the bump's own grid step, bit for bit


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
    # bit for bit where every width is formed by np.sinc; the narrow widths'
    # series moves the bump and its CDF by under 1e-14 of the bump's peak
    bump = co.build_bump(spec)
    narrow = _narrow_widths(bump.delta, *_bump_grid(bump))
    assert narrow > 0
    monkeypatch.setattr(co, "_sinc_product", _full_grid_sinc_product)
    ref = co.build_bump(spec)
    peak = ref.values.max()
    _assert_matches_full_grid(bump.values, ref.values, narrow, peak)
    _assert_matches_full_grid(bump.cdf, ref.cdf, narrow, peak)


def test_half_spectrum_control_cutoff_is_bit_identical_to_the_full_grid(
    control_cutoff, monkeypatch
):
    monkeypatch.setattr(co, "_sinc_product", _full_grid_sinc_product)
    ref = co.build_control_cutoff(1.0)
    assert np.array_equal(control_cutoff.values, ref.values)


@pytest.mark.parametrize(
    "spec",
    [
        co.CutoffSpec("c"),
        co.CutoffSpec("c", epsilon=0.25),
        co.CutoffSpec("c", log_depth=2),
    ],
)
def test_bump_forms_under_a_third_of_its_frequencies(spec):
    # the cut at the specs' own widths: formed entries lie within 1e-14 of
    # the full grid's (whose peak is 1), and the full grid holds at most the
    # floor past them
    bump = co.build_bump(spec)
    n, formed = spec.grid_points, bump.sinc_frequencies
    assert 0 < formed < (n // 2) / 3
    n, dt = _bump_grid(bump)
    full = _full_grid_sinc_product(bump.delta, n, dt)
    half = co._sinc_product(bump.delta, n, dt)
    narrow = _narrow_widths(bump.delta, n, dt)
    cut = slice(formed + 1, n - formed)
    _assert_matches_full_grid(half[: formed + 1], full[: formed + 1], narrow)
    _assert_matches_full_grid(half[n - formed :], full[n - formed :], narrow)
    assert not half[cut].any() and np.abs(full[cut]).max() <= co._SINC_FLOOR


# prod_d sin(d omega) / (d omega) over the specs' widths at 12 of their formed
# frequencies (index into the transform), from a 40-digit mpmath product over
# the exact double widths and frequencies
_SINC_PRODUCT_ORACLE = [
    (
        co.CutoffSpec("c"),
        [
            (1, "0.8076884979507737787022649925074081032869"),
            (124, "3.905408209017818315140965551680299403416e-15"),
            (248, "1.68230196816005754811328337242735503297e-19"),
            (371, "3.035171004722769657437979348299718142455e-25"),
            (494, "3.471176095780172767618338883367710143187e-33"),
            (618, "2.790805279129456730003800911200452437789e-34"),
            (741, "-7.707457006093132555690415634778751206612e-38"),
            (865, "2.322432872888828226426353656216609610304e-45"),
            (988, "-1.109858232271836646343114203205548173863e-45"),
            (1111, "3.473304097338343411176223769209381492415e-48"),
            (1235, "-5.669617005178481869471635912371526610379e-50"),
            (1358, "-7.209372827495537021616076712387157111859e-55"),
        ],
    ),
    (
        co.CutoffSpec("c", epsilon=0.5),
        [
            (1, "0.8434527865206765738104362332486502700717"),
            (78, "0.000000000002345537860218026138627660732189647325766"),
            (155, "-8.211449092853288273229828173722161816046e-20"),
            (233, "-7.68551091058301142746027352423713325725e-25"),
            (310, "-2.140822200421313016375802148956590036968e-30"),
            (387, "2.331646714809298569210736175108506889193e-35"),
            (464, "1.499331660016299042403470203011596685383e-36"),
            (541, "-8.603488642480358879648000318302496181932e-43"),
            (618, "-5.142728362027566750509986402499383955695e-45"),
            (696, "-8.939687774648009472071910039200111524603e-49"),
            (773, "-3.126304952239890143883056287736423499462e-52"),
            (850, "1.093238004641105042202143955008370694236e-56"),
        ],
    ),
    (
        co.CutoffSpec("c", epsilon=0.25),
        [
            (1, "0.8649643231702685144960161357229119185331"),
            (63, "-0.00000000001448709566392287978636713905913649080112"),
            (126, "-2.110972978609602014158408138390892006133e-16"),
            (188, "-1.841354913391182896305900119875366913299e-22"),
            (250, "-3.596989751409875480578273479460295155301e-27"),
            (313, "-1.620879761993924378759401988637808125645e-31"),
            (375, "-6.331015891646588585577629305576611965741e-36"),
            (438, "-6.6260563274543291331673524321443583158e-41"),
            (500, "-2.079201268588125385637253729571209819417e-43"),
            (562, "-8.487813387373143042720277550939237499751e-52"),
            (625, "4.893195429718187561064254476917266407145e-53"),
            (687, "-4.503539848810232941595790297339535475601e-56"),
        ],
    ),
    (
        co.CutoffSpec("c", log_depth=2),
        [
            (1, "0.9400875581413156438301146192289320158192"),
            (104, "4.803759293163916120176527806314269747891e-35"),
            (206, "7.542657527829926656421740846216234109769e-43"),
            (309, "3.986963922547195134190542704538697096904e-43"),
            (412, "1.599461958335743980737552150907320614899e-43"),
            (514, "5.195443711332847057727733444903622249119e-40"),
            (617, "3.061580559283656116706327245136101826662e-41"),
            (719, "1.611329839891625912883882109867890046389e-40"),
            (822, "3.718989188343279300036225033690218141606e-42"),
            (925, "2.280470547079629874845218066281015135629e-44"),
            (1027, "-9.842161697163119841038085845592242888392e-45"),
            (1130, "3.309345521575603201912432713697093574798e-46"),
        ],
    ),
]


@pytest.mark.parametrize("spec, entries", _SINC_PRODUCT_ORACLE)
def test_sinc_product_is_no_less_accurate_than_the_sequential_product(spec, entries):
    # the narrow widths' series against one np.sinc pass per width, the full
    # grid's product at the oracle's entries: the worst relative error over
    # them, taken exactly in fractions
    bump = co.build_bump(spec)
    n, dt = _bump_grid(bump)
    assert _narrow_widths(bump.delta, n, dt) > 0
    index = [i for i, _ in entries]
    half = co._sinc_product(bump.delta, n, dt)[index]
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)[index]
    sequential = np.ones(len(index))
    for d in bump.delta:
        sequential *= np.sinc(d * omega / np.pi)

    def worst(values):
        return max(abs(Fraction(float(v)) / Fraction(ref) - 1) for v, (_, ref) in zip(values, entries))

    assert worst(half) <= worst(sequential)


def test_log_sinc_coefficients_are_the_series_of_log_sinc():
    # a_k = 2^(2k-1) |B_2k| / (k (2k)!) from the Bernoulli numbers, exact in
    # fractions; at y = 1/2 the tenth term reaches 2^-53 of the first and
    # the eleventh does not
    bernoulli = [Fraction(1)]
    for m in range(1, 23):
        bernoulli.append(-sum(math.comb(m + 1, i) * b for i, b in enumerate(bernoulli)) / (m + 1))
    exact = [2 ** (2 * k - 1) * abs(bernoulli[2 * k]) / (k * math.factorial(2 * k)) for k in range(1, 12)]
    assert co._LOG_SINC == tuple(float(a) for a in exact[:10])
    term = [a * Fraction(co._NARROW) ** (2 * k) for k, a in enumerate(exact, 1)]
    assert term[9] >= term[0] / 2**53 > term[10]
    y = np.array([0.1, 0.3, 0.5])
    z = np.array([0.0, 0.25, 1.0])
    series = co._narrow_log_sinc(y, z)
    exact = [-sum(math.log(math.sin(v * math.sqrt(w)) / (v * math.sqrt(w))) for v in y) for w in z[1:]]
    assert series[0] == 0.0 and series[1:] == pytest.approx(exact, rel=1e-13)


def test_control_bump_forms_every_frequency():
    # five equal widths: the transform decays only polynomially
    bump = co._bump_from_delta(np.full(5, 0.8), 1.0, 1, co.DEFAULT_GRID)
    assert bump.sinc_frequencies == co.DEFAULT_GRID // 2


def _bump_or_error(delta, grid_points):
    try:
        return co._bump_from_delta(delta, 1.0, 1, grid_points)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    delta=st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=64),
    tail=st.lists(st.floats(1e-7, 1e-2), max_size=256),
    grid_points=st.integers(2048, 8192).map(lambda k: 2 * k),
)
def test_half_spectrum_product_matches_the_full_grid(delta, tail, grid_points):
    # random widths and even grids, with a tail of small widths that are
    # mostly narrow: the formed entries carry the full grid's bits without a
    # narrow width and lie within 1e-14 of them with one, and every zeroed one
    # is at most the floor there; the same bump and CDF, to the same measure
    # of the bump's peak, wherever the bump accepts the widths
    delta = delta + tail
    support = sum(delta)
    dt = 2.0 * (support + max(1.0, 0.25 * support)) / grid_points
    narrow = _narrow_widths(delta, grid_points, dt)
    half = co._sinc_product(delta, grid_points, dt)
    full = _full_grid_sinc_product(delta, grid_points, dt)
    zeroed = half == 0.0
    _assert_matches_full_grid(half[~zeroed], full[~zeroed], narrow)
    assert np.all(np.abs(full[zeroed]) <= co._SINC_FLOOR)
    bump = _bump_or_error(delta, grid_points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(co, "_sinc_product", _full_grid_sinc_product)
        ref = _bump_or_error(delta, grid_points)
    if isinstance(ref, str):
        assert bump == ref
    else:
        peak = ref.values.max()
        _assert_matches_full_grid(bump.values, ref.values, narrow, peak)
        _assert_matches_full_grid(bump.cdf, ref.cdf, narrow, peak)


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


def _partition_by_masks(f, t_lo, t_hi, samples):
    # one boolean window (0.4, 2.1) per scale over the whole sample set
    t = np.geomspace(t_lo, t_hi, samples)
    total = np.zeros_like(t)
    for nu in range(int(np.ceil(np.log2(t_hi))) + 2):
        arg = t / 2.0**nu
        keep = (arg > 0.4) & (arg < 2.1)
        if keep.any():
            total[keep] += f(arg[keep]) ** 2
    return float(np.abs(total - 1.0).max())


@pytest.mark.parametrize(
    "name, t_lo, t_hi, samples",
    [
        ("cutoff_c", 1.0, 1.0e4, 200_000),
        ("cutoff_c", 1.3, 37.0, 9_999),
        ("cutoff_c_half", 1.0, 1.0e4, 200_000),
        ("control_cutoff", 2.0, 512.0, 4_097),
    ],
)
def test_partition_slices_match_the_mask_windows(request, name, t_lo, t_hi, samples):
    f = request.getfixturevalue(name)
    dev = co.check_partition_of_unity(f, t_lo, t_hi, samples)
    assert dev == _partition_by_masks(f, t_lo, t_hi, samples)


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


def test_bump_rejects_fractional_m_max():
    # build_bump does not call validate; the width sequence checks m_max
    with pytest.raises(ValueError, match="m_max must be an integer"):
        co.build_bump(co.CutoffSpec("a", grid_points=4096, m_max=100.5))
    with pytest.raises(ValueError, match="m_max must be an integer"):
        co.build_control_cutoff(m_max=4.5)


def test_delta_sequence_rejects_fractional_log_depth():
    with pytest.raises(ValueError, match="log_depth must be a positive integer"):
        co.build_delta_sequence(1.0, 1.5, 64)
    with pytest.raises(ValueError, match="log_depth must be a positive integer"):
        co.build_bump(co.CutoffSpec("a", grid_points=4096, log_depth=1.5, m_max=64))


def test_spec_json_round_trip():
    spec = co.CutoffSpec("c", epsilon=0.5, log_depth=2, m_max=256, grid_points=4096)
    text = co.spec_to_json(spec)
    raw = json.loads(text)
    assert set(raw) == {"kind", "epsilon", "log_depth", "m_max", "grid"}
    back = co.spec_from_json(text)
    assert back == spec


# each spec the wire format refuses, and the key its message names
REFUSED_SPECS = [
    pytest.param({"kind": "c", "epsilon": 1.0, "grid_points": 4096}, "grid_points", id="unknown-key"),
    pytest.param({"kind": "c", "epsilon": 1.0, "log_depth": 2.5}, "log_depth", id="fractional-log_depth"),
    pytest.param({"kind": "c", "epsilon": 1.0, "m_max": 512.9}, "m_max", id="fractional-m_max"),
    pytest.param({"kind": "c", "epsilon": 1.0, "grid": 4096.5}, "grid", id="fractional-grid"),
    pytest.param({"kind": "c"}, "epsilon", id="missing-epsilon"),
    pytest.param({"epsilon": 1.0}, "kind", id="missing-kind"),
    pytest.param({"kind": "c", "epsilon": "1"}, "epsilon", id="string-epsilon"),
    pytest.param([1, 2], "JSON object", id="non-object"),
]


@pytest.mark.parametrize("raw, key", REFUSED_SPECS)
def test_spec_from_json_refuses_by_name(raw, key):
    with pytest.raises(ValueError, match=key):
        co.spec_from_json(json.dumps(raw))


def test_spec_from_json_reads_whole_floats_as_counts_and_defaults_the_rest():
    spec = co.spec_from_json('{"kind": "a", "epsilon": 0.5, "log_depth": 2.0, "m_max": 512.0}')
    assert spec == co.CutoffSpec("a", 0.5, 2, 512)
    assert all(type(v) is int for v in (spec.log_depth, spec.m_max, spec.grid_points))
    assert co.spec_from_json('{"kind": "c", "epsilon": 1}') == co.CutoffSpec("c")


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


# ---------------------------------------------------------------------------
# numpy B-splines against FITPACK's interpolating splines

_SPLINE_SPECS = [
    co.CutoffSpec(kind, epsilon=eps) for kind in ("a", "c") for eps in (1.0, 0.5, 0.25)
] + [co.CutoffSpec(kind, log_depth=2) for kind in ("a", "c")]


def _spec_id(spec):
    return f"{spec.kind}-eps{spec.epsilon:g}-depth{spec.log_depth}"


@pytest.fixture(scope="module", params=_SPLINE_SPECS, ids=_spec_id)
def spline_case(request):
    spec = request.param
    return co.build_bump(spec), co.assemble_cutoff(spec)


def _transform_samples(f):
    # the trapezoid sums a(s_k) on the FFT grid, as the transform spline forms them
    g = f.spec.grid_points
    step = 2.0 / g
    m = int(round(96.0 / step))
    c = np.zeros(m)
    c[: g + 1] = f.values
    a_grid = (step / np.pi) * (np.fft.rfft(c).real - 0.5 * f.values[0])
    return 2.0 * np.pi * np.fft.rfftfreq(m, d=step), a_grid


def test_phase_and_profile_splines_match_fitpack(spline_case):
    from scipy.interpolate import InterpolatedUnivariateSpline

    bump, f = spline_case
    g = 0.5 * np.pi * bump.cdf
    u = np.linspace(bump.t[0], bump.t[-1], 40_001)
    ref = InterpolatedUnivariateSpline(bump.t, g, k=5)(u)
    assert np.abs(co._Spline(bump.t, g, 5)(u) - ref).max() < 1e-14
    t = np.linspace(0.0, 2.0, 40_001)
    ref = InterpolatedUnivariateSpline(f.t, f.values, k=3, ext="zeros")(t)
    assert np.abs(f._spline(t) - ref).max() < 1e-14


def test_transform_spline_matches_fitpack_and_is_closer_at_the_origin(spline_case):
    from scipy.interpolate import InterpolatedUnivariateSpline

    _, f = spline_case
    s_grid, a_grid = _transform_samples(f)
    fitpack = InterpolatedUnivariateSpline(s_grid, a_grid, k=3, ext="zeros")
    ours = co._transform_spline(f)
    peak = np.abs(a_grid).max()
    s = np.linspace(2.0, s_grid[-1], 200_001)
    assert np.abs(ours(s) - fitpack(s)).max() < 1e-14 * peak
    # a(s) is even, which the mirror end keeps; next to s = 0 both splines
    # are held to the trapezoid sum itself, taken off the grid
    s = np.linspace(0.003, 0.5, 100)
    step = f.grid_step
    direct = (step / np.pi) * (np.cos(np.outer(s, f.t)) @ f.values - 0.5 * f.values[0])
    ours_err = np.abs(ours(s) - direct).max()
    assert ours_err < np.abs(fitpack(s) - direct).max()
    assert ours_err < 1e-6 * peak


@pytest.mark.parametrize("point", [0.9, 1.37, 1.999, 2.0, 2.5, 0.0, 0.3])
def test_profile_and_transform_take_a_float_a_0d_and_a_1_element_point_alike(cutoff_a, cutoff_c, point):
    for evaluate in (cutoff_a, cutoff_c, lambda s: co.inverse_transform(cutoff_c, 7.0 * s)):
        got = [evaluate(p) for p in (point, np.array(point), np.array([point]))]
        assert isinstance(got[0], float) and isinstance(got[1], float)
        assert got[2].shape == (1,)
        assert got[0] == got[1] == got[2][0]


def test_splines_vanish_exactly_outside_their_grid(cutoff_c):
    outside = np.array([-1e-9, -3.0, 2.0 + 1e-9, 7.0, np.inf, -np.inf])
    assert np.array_equal(cutoff_c._spline(outside), np.zeros(len(outside)))
    s_grid, _ = _transform_samples(cutoff_c)
    far = np.array([s_grid[-1] * (1 + 1e-12), 2.0 * s_grid[-1], np.inf])
    assert np.array_equal(co._transform_spline(cutoff_c)(far), np.zeros(3))
    assert co.inverse_transform(cutoff_c, -2.0 * s_grid[-1]) == 0.0


def test_spline_prefilter_taps_come_from_the_poles():
    # 1 / b_k has unit gain at z = 1 and inverts the sampled B-spline, to the
    # rounding of this check's own sums (the quintic taps reach 2.8)
    for k, samples in ((3, [1.0, 4.0, 1.0]), (5, [1.0, 26.0, 66.0, 26.0, 1.0])):
        taps = co._TAPS[k]
        assert len(taps) == {3: 55, 5: 85}[k]
        assert abs(taps.sum() - 1.0) < 1e-15
        delta = np.convolve(taps, np.array(samples) / math.factorial(k))
        mid = len(delta) // 2
        assert abs(delta[mid] - 1.0) < 1e-14
        assert np.abs(np.delete(delta, mid)).max() < 1e-14


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter importing the package these tests
    import, and assert that it succeeds."""
    src = os.path.dirname(os.path.dirname(co.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_importing_and_assembling_loads_no_scipy_until_a_rule():
    _run_fresh(
        "import sys, orthoframes\n"
        "from orthoframes import cutoff, decay, kernels, quadrature\n"
        "prof = cutoff.assemble_cutoff(cutoff.CutoffSpec('c'))\n"
        "env = decay.measure_envelope(kernels.KernelInstance('chebyshev', prof, 32), decay.SamplingPlan())\n"
        "loaded = [m for m in ('scipy.interpolate', 'scipy.special', 'scipy.linalg') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "rule = quadrature.gauss_rule('hermite', 514)\n"
        "assert abs(rule.weights.sum() - 3.141592653589793 ** 0.5) < 1e-13\n"
        "assert 'scipy.linalg' in sys.modules\n"
    )


def test_envelopes_and_fits_load_no_scipy_and_a_jacobi_rule_only_its_eigensolver():
    # every Gamma ratio of the Jacobi, Gegenbauer and Laguerre norms once
    # imported scipy.special
    _run_fresh(
        "import sys\n"
        "from orthoframes import cutoff, decay, kernels, quadrature\n"
        "prof = cutoff.assemble_cutoff(cutoff.CutoffSpec('c'))\n"
        "jacobi = {'alpha': 1.0, 'beta': 0.5}\n"
        "cases = [('jacobi', jacobi, False), ('jacobi', jacobi, True), ('laguerre', {'alpha': 1.0}, True),\n"
        "         ('sphere', {'d': 2}, False), ('chebleg', {}, False)]\n"
        "for family, params, weighted in cases:\n"
        "    kernel = kernels.KernelInstance(family, prof, 16, params)\n"
        "    env = decay.measure_envelope(kernel, decay.SamplingPlan(weighted=weighted))\n"
        "    assert decay.fit_bound(env, decay.SubExponential(1.0)).satisfied, family\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "rule = quadrature.gauss_rule('jacobi', 257, alpha=1.0, beta=0.5)\n"
        "assert quadrature.verify_exactness(rule, rule.exactness) < quadrature.EXACTNESS_TOL\n"
        "assert 'scipy.linalg' in sys.modules and 'scipy.special' not in sys.modules\n"
    )


def test_simplex_kernels_build_no_rule_and_load_no_scipy():
    # the simplex kernel once integrated over a tensor Gauss-Jacobi rule
    _run_fresh(
        "import sys\n"
        "from orthoframes import cutoff, kernels, quadrature\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('a quadrature rule was built')\n"
        "quadrature.QuadratureRule.__init__ = refuse\n"
        "prof = cutoff.assemble_cutoff(cutoff.CutoffSpec('c'))\n"
        "cases = [((0.5, 0.5), 0.3, 0.6), ((0.0, 0.0), 1.0, 0.0),\n"
        "         ((0.5, 0.5, 0.5), (0.2, 0.3), (0.5, 0.1)), ((0.0, 1.0, 0.0), (1.0, 0.0), (0.0, 0.0))]\n"
        "for kappa, x, y in cases:\n"
        "    assert abs(kernels.simplex_kernel(prof, 8, kappa, x, y)) < 1e6\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )


def test_ball_and_simplex_runs_and_rules_up_to_256_nodes_load_no_scipy():
    # the ball's Gauss-Jacobi rule once loaded scipy.linalg, and the ball and
    # simplex samplers scipy.special for a normal CDF
    _run_fresh(
        "import sys\n"
        "from orthoframes import cutoff, decay, kernels, quadrature\n"
        "prof = cutoff.assemble_cutoff(cutoff.CutoffSpec('c'))\n"
        "cases = [('ball', {'mu': 1.0, 'd': 2}, 8, False), ('ball', {'mu': 0.5, 'd': 3}, 8, True),\n"
        "         ('simplex', {'kappa': (0.5, 0.5, 0.5)}, 16, False)]\n"
        "for family, params, n, weighted in cases:\n"
        "    kernel = kernels.KernelInstance(family, prof, n, params)\n"
        "    env = decay.measure_envelope(kernel, decay.SamplingPlan(weighted=weighted))\n"
        "    fit = decay.fit_bound(env, decay.SubExponential(1.0))\n"
        "    assert fit.satisfied and fit.violations == 0, family\n"
        "for weight, params in [('jacobi', {'alpha': 0.0, 'beta': 0.0}), ('hermite', {}), ('laguerre', {})]:\n"
        "    rule = quadrature.gauss_rule(weight, 256, **params)\n"
        "    assert quadrature.verify_exactness(rule, 40) < quadrature.EXACTNESS_TOL, weight\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "rule = quadrature.gauss_rule('jacobi', 257, alpha=0.0, beta=0.0)\n"
        "assert quadrature.verify_exactness(rule, 40) < quadrature.EXACTNESS_TOL\n"
        "assert 'scipy.linalg' in sys.modules and 'scipy.special' not in sys.modules\n"
    )

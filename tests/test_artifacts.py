"""Every CSV and JSON artifact against a copy of the format its writer held
inline before one writer and one encoder owned them all: the bytes must not
move.  The copies below are the reference; the package's writers must match
them byte for byte."""

import dataclasses
import json

import numpy as np
import pytest

from orthoframes import cutoff as co
from orthoframes import decay as de
from orthoframes import kernels as ke
from orthoframes import needlets as ne
from orthoframes import orthopoly as op
from orthoframes import quadrature as qd
from orthoframes.cli import run


# ---------------------------------------------------------------------------
# the reference formats, each as its writer spelled it out


def _two_columns(header, a, b):
    return header + "\n" + "".join(f"{u:.17g},{v:.17g}\n" for u, v in zip(a, b))


def _table_csv(table):
    vals = np.atleast_2d(table.values.reshape(table.n_max + 1, -1))
    text = "degree," + ",".join(f"v{i}" for i in range(vals.shape[1])) + "\n"
    for n in range(table.n_max + 1):
        text += str(n) + "," + ",".join(f"{v:.17g}" for v in vals[n]) + "\n"
    return text


def _envelope_csv(env):
    text = "rho,max_abs,n,family,weighted\n"
    for r, v in zip(env.rho, env.values):
        text += f"{r:.17g},{v:.17g},{env.n},{env.family},{int(env.weighted)}\n"
    return text


def _coefficients_csv(system, coefficients):
    text = "level,node_index,node,coeff\n"
    for lvl, c in zip(system.levels, coefficients.levels):
        for i, v in enumerate(c):
            text += f"{lvl.j},{i},{lvl.nodes[i]:.17g},{v:.17g}\n"
    return text


def _grid_csv(kernel, xs, ys):
    xs = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x in xs])
    ys = np.array([np.atleast_1d(np.asarray(y, dtype=float)) for y in ys])
    dim = xs.shape[1]
    px, py = (xs[:, 0], ys[:, 0]) if ke.FAMILIES[kernel.family].scalar(kernel.params) else (xs, ys)
    rho, vals = kernel.distance(px, py), kernel.pair_values(px, py)
    header = [f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)] + ["rho", "value"]
    text = ",".join(header) + "\n"
    for row in np.column_stack([xs, ys, rho, vals]):
        text += ",".join(f"{v:.17g}" for v in row) + "\n"
    return text


def _plain_params(params):
    return {k: list(v) if isinstance(v, (tuple, list, np.ndarray)) else v for k, v in params.items()}


def _frame_json(system):
    levels = [
        {"j": lvl.j, "n_j": lvl.n_j, "nodes": [float(v) for v in lvl.nodes],
         "weights": [float(v) for v in lvl.rule.weights]}
        for lvl in system.levels
    ]
    return json.dumps(
        {"family": system.family, "params": _plain_params(system.params), "levels": levels},
        sort_keys=True,
    )


def _fit_json(fit):
    if isinstance(fit.form, de.Polynomial):
        form, eps, depth, sigma = "polynomial", None, None, fit.form.sigma
    else:
        form, eps, depth, sigma = "sub_exponential", fit.form.epsilon, fit.form.log_depth, None
    return json.dumps(
        {"form": form, "epsilon": eps, "log_depth": depth, "sigma": sigma, "c": fit.c,
         "c_rate": fit.c_rate, "violations": fit.violations, "satisfied": fit.satisfied},
        sort_keys=True,
    )


def _counterexample_json(report):
    def conv(d):
        return {k: [float(x) for x in v] for k, v in d.items()}

    return json.dumps(
        {
            "n_list": list(report.n_list),
            "profile_integral": report.profile_integral,
            "first_moment": report.first_moment,
            "a0": report.a0,
            "values": conv(report.values),
            "predicted": conv(report.predicted),
            "residuals": conv(report.residuals),
            "slice_fprime": conv(report.slice_fprime),
            "slice_predicted": conv(report.slice_predicted),
            "sup_norms": conv(report.sup_norms),
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def small_cutoff():
    return co.assemble_cutoff(co.CutoffSpec("c", m_max=512, grid_points=4096))


@pytest.fixture(scope="module")
def frame(small_cutoff):
    return ne.build_needlet_system("jacobi", {"alpha": 1.0, "beta": 0.5}, small_cutoff, 4)


# ---------------------------------------------------------------------------
# CSV writers


def test_samples_csv_keeps_its_bytes(tmp_path, small_cutoff):
    path = tmp_path / "cut.csv"
    co.save_samples_csv(small_cutoff, path)
    assert path.read_text() == _two_columns("t,ahat", small_cutoff.t, small_cutoff.values)


@pytest.mark.parametrize("weight, m, params", [
    ("jacobi", 12, {"alpha": 1.0, "beta": 0.5}), ("hermite", 20, {}), ("laguerre", 15, {"alpha": 1.0}),
])
def test_rule_csv_keeps_its_bytes(tmp_path, weight, m, params):
    rule = qd.gauss_rule(weight, m, **params)
    path = tmp_path / "rule.csv"
    qd.save_rule_csv(rule, path)
    assert path.read_text() == _two_columns("node,weight", rule.nodes, rule.weights)


@pytest.mark.parametrize("points", [0.3, np.linspace(-1.0, 1.0, 5), np.linspace(-0.9, 0.9, 6).reshape(2, 3)])
def test_table_csv_keeps_its_bytes(tmp_path, points):
    table = op.jacobi_all(op.JacobiParams(1.0, 0.5), 9, points)
    path = tmp_path / "table.csv"
    op.save_table_csv(table, path)
    assert path.read_text() == _table_csv(table)


@pytest.mark.parametrize("n", [128, 128.0])
@pytest.mark.parametrize("weighted", [False, True])
def test_envelope_csv_keeps_its_bytes_at_an_integer_and_a_float_level(tmp_path, n, weighted):
    rho = np.geomspace(1e-3, np.pi, 7)
    env = de.DecayEnvelope("chebyshev", n, rho, np.exp(-rho) / 3.0, weighted, 1.0, 1.0)
    path = tmp_path / "env.csv"
    de.envelope_to_csv(env, path)
    text = path.read_text()
    assert text == _envelope_csv(env)
    assert text.splitlines()[1].split(",")[2] == str(n)  # "128" or "128.0"


def test_coefficients_csv_over_several_levels_keeps_its_bytes(tmp_path, frame):
    coeffs = ne.analyze(frame, np.random.default_rng(5).standard_normal(frame.capacity + 1))
    assert len(coeffs.levels) == 5
    path = tmp_path / "coeffs.csv"
    ne.coefficients_to_csv(frame, coeffs, path)
    assert path.read_text() == _coefficients_csv(frame, coeffs)


@pytest.mark.parametrize("family, params, d", [
    ("chebyshev", {}, 1), ("jacobi", {"alpha": 1.0, "beta": 0.5}, 1), ("hermite", {"d": 2}, 2),
])
def test_kernel_grid_csv_keeps_its_bytes(tmp_path, small_cutoff, family, params, d):
    kernel = ke.KernelInstance(family, small_cutoff, 16, params)
    rng = np.random.default_rng(3)
    shape = (2, 25) if d == 1 else (2, 25, d)
    xs, ys = rng.uniform(-0.9, 0.9, shape)
    path = tmp_path / "grid.csv"
    ke.export_grid(kernel, xs, ys, path)
    assert path.read_text() == _grid_csv(kernel, xs, ys)
    # a list of points reads as the array of them
    ke.export_grid(kernel, list(xs), list(ys), tmp_path / "listed.csv")
    assert (tmp_path / "listed.csv").read_text() == path.read_text()


def test_cli_wavelet_csv_keeps_its_bytes_and_reads_back_exactly(tmp_path):
    assert run(["decay", "wavelet", "--out", str(tmp_path)]) == 0
    w = de.build_wavelet(1.0)
    text = (tmp_path / "wavelet.csv").read_text()
    assert text == _two_columns("x,psi", w.x, w.values)
    back = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
    assert np.array_equal(back[:, 0], w.x) and np.array_equal(back[:, 1], w.values)


def test_every_written_float_reads_back_as_its_double(tmp_path):
    # doubles that need all 17 digits, the ends of double range, and signed zero
    values = np.array([0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), 5e-324, 1.7976931348623157e308,
                       -0.0, -2.2250738585072014e-308, np.pi * 1e-200])
    path = tmp_path / "floats.csv"
    op._write_csv(path, ("i", "v"), enumerate(values))
    lines = path.read_text().splitlines()
    assert lines[0] == "i,v"
    back = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(back, values) and np.array_equal(np.signbit(back), np.signbit(values))


# ---------------------------------------------------------------------------
# JSON serializers


@pytest.mark.parametrize("spec", [co.CutoffSpec("c"), co.CutoffSpec("a", 0.5, 2, 512, 4096)])
def test_spec_json_keeps_its_bytes(spec):
    text = co.spec_to_json(spec)
    assert text == json.dumps(
        {"kind": spec.kind, "epsilon": spec.epsilon, "log_depth": spec.log_depth,
         "m_max": spec.m_max, "grid": spec.grid_points}, sort_keys=True)
    assert co.spec_from_json(text) == spec


def test_rule_json_keeps_its_bytes():
    rule = qd.gauss_rule("jacobi", 12, alpha=1.0, beta=0.5)
    assert qd.rule_to_json(rule) == json.dumps(
        {"weight": rule.weight, "params": list(rule.params), "m": rule.m}, sort_keys=True)


def test_frame_json_keeps_its_bytes(frame, small_cutoff):
    assert ne.frame_to_json(frame) == _frame_json(frame)
    laguerre = ne.build_needlet_system("laguerre", {"alpha": 1.0}, small_cutoff, 2)
    assert ne.frame_to_json(laguerre) == _frame_json(laguerre)
    token = (frame.family, json.dumps(_plain_params(frame.params), sort_keys=True), frame.j_max)
    assert frame.token() == token


@pytest.mark.parametrize("form", [de.Polynomial(4.0), de.SubExponential(1.0, 1), de.SubExponential(0.5, 2)])
def test_fit_json_keeps_its_bytes(small_cutoff, form):
    env = de.measure_envelope(ke.KernelInstance("chebyshev", small_cutoff, 16))
    fit = de.fit_bound(env, form)
    assert de.fit_to_json(fit) == _fit_json(fit)


@pytest.mark.parametrize("family, params", [("chebyshev", {}), ("laguerre", {"alpha": (0.0, 1.0)}),
                                            ("simplex", {"kappa": np.array([0.5, 0.5, 0.5])})])
def test_kernel_json_keeps_its_bytes(small_cutoff, family, params):
    kernel = ke.KernelInstance(family, small_cutoff, 8, params)
    assert kernel.to_json() == json.dumps(kernel.descriptor(), sort_keys=True)


def test_counterexample_json_keeps_its_bytes_and_names_every_field(small_cutoff):
    report = de.counterexample_suite(small_cutoff, [8, 16])
    text = report.to_json()
    assert text == _counterexample_json(report)
    assert set(json.loads(text)) == {f.name for f in dataclasses.fields(de.CounterexampleReport)}


def test_cli_compare_json_keeps_its_bytes(tmp_path):
    args = ["decay", "compare", "--family", "chebyshev", "--n", "32", "--m-max", "512", "--grid", "4096"]
    assert run(args + ["--out", str(tmp_path)]) in (0, 1)
    cut = co.assemble_cutoff(co.CutoffSpec("c", m_max=512, grid_points=4096))
    fits = de.compare_cutoffs("chebyshev", 32, [cut, co.build_control_cutoff(1.0)], epsilon=1.0,
                              plan=de.SamplingPlan(seed=42))
    rows = [json.loads(_fit_json(f)) for f in fits]
    assert (tmp_path / "compare.json").read_text() == json.dumps(rows, sort_keys=True)


def test_the_encoder_takes_numpy_values_and_refuses_other_objects():
    record = {"b": np.arange(3), "a": np.float64(0.5), "c": np.bool_(True), "d": np.int64(7)}
    assert op._to_json(record) == '{"a": 0.5, "b": [0, 1, 2], "c": true, "d": 7}'
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        op._to_json({"a": object()})

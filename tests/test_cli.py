import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from orthoframes import cutoff, decay, kernels, needlets, quadrature
from orthoframes.cli import run

FAST = ["--m-max", "512", "--grid", "4096"]


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_cutoff_build_writes_artifacts(tmp_path):
    out = str(tmp_path / "o")
    code = run(["cutoff", "build", "--type", "c"] + FAST + ["--out", out])
    assert code == 0
    csv = (tmp_path / "o" / "cutoff_c.csv").read_text().splitlines()
    assert csv[0] == "t,ahat"
    spec = json.loads((tmp_path / "o" / "cutoff_c.json").read_text())
    assert spec["kind"] == "c" and spec["grid"] == 4096


def test_cutoff_check_partition(tmp_path, capsys):
    out = str(tmp_path / "o")
    code = run(["cutoff", "check", "--type", "c", "--epsilon", "1"] + FAST + ["--out", out])
    assert code == 0
    captured = capsys.readouterr()
    assert "partition-of-unity deviation" in captured.out


def test_cutoff_check_prints_the_quadratic_identity_of_kind_b(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["cutoff", "check", "--type", "b"] + FAST + ["--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("cutoff check: quadratic identity deviation ")
    report = json.loads((out / "cutoff_check.json").read_text())
    assert f"{report['quadratic_identity_deviation']:.3e}" in line


def test_cutoff_check_reads_json_config(tmp_path):
    cfg = tmp_path / "spec.json"
    cfg.write_text(
        json.dumps({"kind": "a", "epsilon": 1.0, "log_depth": 1, "m_max": 512, "grid": 4096})
    )
    out = str(tmp_path / "o")
    assert run(["cutoff", "check", "--config", str(cfg), "--out", out]) == 0


@pytest.mark.parametrize("raw, key", [
    pytest.param({"kind": "c", "epsilon": 1.0, "grid_points": 4096}, "grid_points", id="unknown-key"),
    pytest.param({"kind": "c", "epsilon": 1.0, "log_depth": 2.5}, "log_depth", id="fractional-log_depth"),
    pytest.param({"kind": "c", "epsilon": 1.0, "m_max": 512.9}, "m_max", id="fractional-m_max"),
    pytest.param({"kind": "c", "epsilon": 1.0, "grid": 4096.5}, "grid", id="fractional-grid"),
    pytest.param({"kind": "c"}, "epsilon", id="missing-epsilon"),
    pytest.param([1, 2], "JSON object", id="non-object"),
])
def test_a_refused_config_is_a_usage_error_naming_the_key(tmp_path, capsys, raw, key):
    # a missing key or a non-object once died on a traceback and exit 1
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(raw))
    assert run(["cutoff", "build", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "o").exists()


def test_kernel_eval_and_grid(tmp_path, capsys):
    out = str(tmp_path / "o")
    code = run(
        ["kernel", "eval", "--family", "chebyshev", "--n", "16", "--x", "0.5", "--y", "0.25"]
        + FAST
        + ["--out", out]
    )
    assert code == 0
    assert "value=" in capsys.readouterr().out
    code = run(
        ["kernel", "grid", "--family", "chebyshev", "--n", "16", "--count", "20"]
        + FAST
        + ["--out", out]
    )
    assert code == 0
    lines = (tmp_path / "o" / "kernel_grid_chebyshev.csv").read_text().splitlines()
    assert lines[0] == "x0,y0,rho,value"
    assert len(lines) == 21


def test_kernel_grid_of_a_family_it_draws_no_points_for_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    args = ["kernel", "grid", "--family", "sphere", "--dim", "2", "--n", "8", "--count", "5"]
    assert run(args + FAST + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "kernel grid: family sphere not supported\n"
    assert not (out / "kernel_grid_sphere.csv").exists()


def test_kernel_grid_draws_points_of_the_kernels_dimension(tmp_path, capsys):
    out = str(tmp_path / "o")
    args = ["kernel", "grid", "--n", "8", "--count", "30"] + FAST + ["--out", out]
    assert run(args + ["--family", "hermite", "--dim", "3"]) == 0
    lines = (tmp_path / "o" / "kernel_grid_hermite.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,x2,y0,y1,y2,rho,value" and len(lines) == 31
    # a 2-d Laguerre kernel needs one alpha per axis, written as --x is
    assert run(args + ["--family", "laguerre", "--dim", "2"]) == 2
    assert "alpha must have one component per axis (d = 2)" in capsys.readouterr().err
    assert not (tmp_path / "o" / "kernel_grid_laguerre.csv").exists()
    assert run(args + ["--family", "laguerre", "--dim", "2", "--alpha", "0,1"]) == 0
    lines = (tmp_path / "o" / "kernel_grid_laguerre.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,y0,y1,rho,value" and len(lines) == 31


def test_laguerre_kernel_at_d_2_evaluates_one_alpha_per_axis(tmp_path):
    # no command reached a 2-d Laguerre kernel while --alpha took one number
    args = ["--family", "laguerre", "--dim", "2", "--n", "16", "--alpha", "0.5,1"]
    args += ["--x", "0.5,0.2", "--y", "0.1,0.3"] + FAST + ["--out", str(tmp_path)]
    assert run(["kernel", "eval"] + args) == 0
    record = json.loads((tmp_path / "kernel_eval.json").read_text())
    cut = cutoff.assemble_cutoff(cutoff.CutoffSpec("c", m_max=512, grid_points=4096))
    value = kernels.laguerre_kernel(cut, 16, (0.5, 1.0), [0.5, 0.2], [0.1, 0.3], d=2)
    assert record["value"] == float(value) and record["descriptor"]["alpha"] == [0.5, 1.0]


def test_laguerre_alpha_per_axis_alone_gives_the_2d_kernel(tmp_path):
    # --alpha 0,1 once fitted or evaluated the 1-d alpha = 0 kernel
    args = ["kernel", "eval", "--family", "laguerre", "--alpha", "0,1", "--x", "0.5,0.2", "--y", "0.1,0.3"]
    assert run(args + FAST + ["--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "kernel_eval.json").read_text())
    cut = cutoff.assemble_cutoff(cutoff.CutoffSpec("c", m_max=512, grid_points=4096))
    value = kernels.laguerre_kernel(cut, 32, (0.0, 1.0), [0.5, 0.2], [0.1, 0.3], d=2)
    assert record["value"] == float(value)
    assert record["descriptor"]["d"] == 2 and record["descriptor"]["alpha"] == [0.0, 1.0]


@pytest.mark.parametrize(
    "args, message",
    [
        (["decay", "fit", "--family", "laguerre", "--alpha", "0,1", "--n", "16"],
         "laguerre envelopes sample d = 1 only, got d = 2"),
        (["decay", "fit", "--family", "simplex", "--dim", "2", "--n", "16"],
         "simplex kernels do not read the parameter(s) d"),
        (["kernel", "eval", "--family", "chebyshev", "--dim", "3"], "chebyshev kernels do not read the parameter(s) d"),
        (["kernel", "eval", "--family", "hermite", "--alpha", "1"], "hermite kernels do not read the parameter(s) alpha"),
        (["kernel", "eval", "--family", "chebyshev", "--x", "0.5,0.25", "--y", "0.1,0.3"],
         "kernel eval takes one pair: chebyshev points have 1 coordinate"),
        (["kernel", "eval", "--family", "ball", "--x", "0.1,0.2", "--y=0,0.1"], "ball kernels need the parameter(s) d"),
        (["kernel", "eval", "--family", "jacobi", "--alpha", "0,1"], "jacobi parameter alpha must be one number"),
        (["needlet", "build", "--family", "hermite", "--alpha", "1"], "hermite kernels do not read the parameter(s) alpha"),
        (["needlet", "build", "--family", "laguerre", "--alpha", "-1"], "alpha components must be >= 0"),
    ],
)
def test_family_options_are_read_by_the_family_or_refused(tmp_path, capsys, args, message):
    # the first two once ran on d = 1, and a pair of 2-coordinate Chebyshev
    # points ended in a TypeError traceback with exit 1
    assert run(args + FAST + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list((tmp_path / "o").glob("*.*"))


@pytest.mark.parametrize("args, message", [
    (["quad", "build", "--weight", "laguerre", "--alpha", "200", "--m", "16"],
     "the laguerre rule at alpha = 200, m = 16 has non-finite weights"),
    (["quad", "verify", "--weight", "laguerre", "--alpha", "200", "--m", "16"],
     "the laguerre_fn rule at alpha = 200, m = 16 has non-finite weights"),
    (["needlet", "parseval", "--family", "laguerre", "--alpha", "200", "--jmax", "3"] + FAST,
     "the laguerre_fn rule at alpha = 200, m = 1 has non-finite weights"),
    (["quad", "build", "--weight", "jacobi", "--alpha", "1500", "--m", "4"],
     "jacobi parameters alpha = 1500, beta = 0 put the norms"),
], ids=["laguerre-build", "laguerre-verify", "laguerre-frame", "jacobi-build"])
def test_rules_whose_weights_leave_double_range_exit_2(tmp_path, capsys, args, message):
    # the Laguerre build once wrote inf weights and exited 0, the verify and
    # the frame printed nan and exited 1, and the Jacobi build warned first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list((tmp_path / "o").glob("*.*"))


# one point of each width, inside every domain that has points of that width
_POINT_OF_WIDTH = {1: ("1", "0"), 2: ("1,0", "0,1"), 3: ("1,0,0", "0,0,1")}


@pytest.mark.parametrize("family", sorted(kernels.FAMILIES))
def test_kernel_eval_exits_0_or_2_at_every_dimension_and_point_width(tmp_path, capsys, family):
    # an exception other than a usage error would leave run() uncaught
    for dim in (None, 1, 2, 3):
        for width, (x, y) in _POINT_OF_WIDTH.items():
            out = tmp_path / f"{dim}-{width}"
            args = ["kernel", "eval", "--family", family, "--n", "4", "--x", x, "--y", y] + FAST + ["--out", str(out)]
            code = run(args + ([] if dim is None else ["--dim", str(dim)]))
            assert code in (0, 2), (dim, width)
            if code == 0:
                assert isinstance(json.loads((out / "kernel_eval.json").read_text())["value"], float)
            else:
                assert not (out / "kernel_eval.json").exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--dim", "1", "--x", "0.5", "--y", "0.2"], "sphere dimension d must be >= 2"),
        (["--dim", "2", "--x", "0.5", "--y", "0.2"], "points must have dimension d + 1 = 3"),
        (["--dim", "2", "--x", "1,0,0", "--y", "0,1"], "points must have dimension d + 1 = 3"),
        # once read rho = 1.318 between two equal points off the sphere
        (["--dim", "2", "--x", "0.5,0,0", "--y", "0.5,0,0"], "points must lie on the unit sphere"),
    ],
)
def test_sphere_points_of_the_wrong_dimension_are_usage_errors(tmp_path, capsys, args, message):
    # exit 1 is kept for failed checks
    out = str(tmp_path / "o")
    assert run(["kernel", "eval", "--family", "sphere"] + args + FAST + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "kernel_eval.json").exists()
    args = ["--dim", "2", "--x", "1,0,0", "--y", "0,1,0"]
    assert run(["kernel", "eval", "--family", "sphere"] + args + FAST + ["--out", out]) == 0


def test_jacobi_points_within_round_off_of_the_interval_evaluate(tmp_path, capsys):
    # the kernel once refused 1 + 1e-13 while the instance's distance took it
    out = str(tmp_path / "o")
    args = ["--alpha", "0.5", "--beta", "0.5", "--x", "1.0000000000001", "--y", "0.2"]
    assert run(["kernel", "eval", "--family", "jacobi"] + args + FAST + ["--out", out]) == 0
    record = json.loads((tmp_path / "o" / "kernel_eval.json").read_text())
    assert math.isfinite(record["value"]) and math.isfinite(record["rho"])


@pytest.mark.parametrize("x", ["-0.4,0.1", "-0.2,-0.3"])
def test_points_with_a_negative_first_coordinate_read_in_either_spelling(tmp_path, x):
    # "--y -0.4,0.1" once exited 2: argparse read the point as an option
    ball = ["kernel", "eval", "--family", "ball", "--dim", "2"] + FAST
    assert run(ball + ["--x", x, "--y", "-0.4,0.1", "--out", str(tmp_path / "a")]) == 0
    assert run(ball + [f"--x={x}", "--y=-0.4,0.1", "--out", str(tmp_path / "b")]) == 0
    written = [(tmp_path / d / "kernel_eval.json").read_bytes() for d in ("a", "b")]
    assert written[0] == written[1]


@pytest.mark.parametrize("family, x", [("hermite", "nan"), ("hermite", "-inf"), ("trig", "nan"), ("laguerre", "inf")])
def test_non_finite_points_are_usage_errors(tmp_path, capsys, family, x):
    # these once printed value=nan, or an infinite distance, and exited 0
    assert run(["kernel", "eval", "--family", family, "--x", x] + FAST + ["--out", str(tmp_path)]) == 2
    assert "(got nan or inf)" in capsys.readouterr().err
    assert not (tmp_path / "kernel_eval.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["kernel", "eval", "--family", "laguerre", "--alpha", "nan"],
        ["kernel", "eval", "--family", "jacobi", "--alpha", "inf", "--beta", "0"],
        ["needlet", "parseval", "--family", "laguerre", "--alpha", "nan", "--jmax", "2"],
        ["decay", "fit", "--family", "chebyshev", "--n", "32", "--form", "poly", "--sigma", "nan"],
    ],
    ids=["kernel-laguerre", "kernel-jacobi", "needlet-laguerre", "fit-sigma"],
)
def test_non_finite_parameters_are_usage_errors(tmp_path, capsys, args):
    # the kernels once printed value=nan and exited 0; the frame exited 2
    # only through scipy's eigensolver; the fit wrote "c": NaN as satisfied
    assert run(args + FAST + ["--out", str(tmp_path)]) == 2
    assert "(got nan or inf)" in capsys.readouterr().err


def test_huge_jacobi_parameters_are_usage_errors(tmp_path, capsys):
    # this once died with an OverflowError traceback (exit 1)
    args = ["kernel", "eval", "--family", "ball", "--dim", "2", "--mu", "1e308", "--x", "0.1,0.2", "--y=0,0.1"]
    assert run(args + FAST + ["--out", str(tmp_path)]) == 2
    assert "ball parameter mu must be at most" in capsys.readouterr().err


def test_hermite_points_farther_apart_than_double_range_are_usage_errors(tmp_path, capsys):
    # this once stopped on "overflow encountered in subtract" in the distance
    args = ["kernel", "eval", "--family", "hermite", "--x", "-1.7e308", "--y", "1.7e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args + FAST + ["--out", str(tmp_path)]) == 2
    assert "farther apart than the largest double" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e6", "2000"])
def test_jacobi_parameters_whose_norms_leave_double_range_are_usage_errors(tmp_path, capsys, alpha):
    # this once warned of an overflow in the norms and printed value=0
    args = ["kernel", "eval", "--family", "jacobi", "--alpha", alpha, "--beta", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args + FAST + ["--out", str(tmp_path)]) == 2
    assert "outside double range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "jacobi", "--alpha", "1000", "--beta", "0", "--n", "512", "--x", "0.99", "--y", "0.98"],
        ["--family", "simplex", "--kappa", "0.5,0.5,0.5", "--n", "256", "--x", "0.2,0.3", "--y", "0.25,0.3"],
        ["--family", "ball", "--dim", "2", "--mu", "1e8", "--x", "0.1,0.2", "--y=0,0.1"],
    ],
    ids=["jacobi", "simplex", "ball"],
)
def test_rows_whose_products_leave_double_range_are_usage_errors(tmp_path, capsys, family):
    # the Jacobi kernel once printed value=nan here and exited 0, and so did
    # the ball, whose Gegenbauer rows themselves overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["kernel", "eval", *family, *FAST, "--out", str(tmp_path)]) == 2
    assert "leave double range" in capsys.readouterr().err


def test_far_laguerre_point_reads_zero(tmp_path, capsys):
    # this once printed value=nan
    args = ["kernel", "eval", "--family", "laguerre", "--x", "1e160", "--y", "0"]
    assert run(args + FAST + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" value=0")


def test_quad_build_and_verify(tmp_path):
    out = str(tmp_path / "o")
    assert run(["quad", "build", "--weight", "jacobi", "--m", "8", "--out", out]) == 0
    desc = json.loads((tmp_path / "o" / "quad_jacobi_8.json").read_text())
    assert desc["m"] == 8
    assert (
        run(["quad", "verify", "--weight", "jacobi", "--m", "10", "--degree", "19", "--out", out])
        == 0
    )
    assert (
        run(["quad", "verify", "--weight", "hermite", "--m", "16", "--out", out]) == 0
    )
    # no Laguerre function rule below alpha = 0: the moments are checked there
    args = ["quad", "verify", "--weight", "laguerre", "--alpha", "-0.5", "--m", "16"]
    assert run(args + ["--out", out]) == 0


@pytest.mark.parametrize("weight, m", [("hermite", 1024), ("laguerre", 400)])
def test_quad_verify_passes_large_line_rules_by_orthonormality(tmp_path, capsys, weight, m):
    # the monomial moments of these rules leave double range (they read
    # 1.000 and 0.962 against the 1e-10 tolerance); the function rule's rows
    # stay orthonormal to rounding
    assert run(["quad", "verify", "--weight", weight, "--m", str(m), "--out", str(tmp_path)]) == 0
    assert "orthonormality error" in capsys.readouterr().out


@pytest.mark.parametrize("weight", ["hermite", "laguerre"])
def test_quad_verify_fails_a_rule_with_one_weight_off_by_a_millionth(tmp_path, monkeypatch, weight):
    name = f"{weight}_function_rule"
    build = getattr(quadrature, name)

    def wrong(*args):
        rule = build(*args)
        weights = rule.weights.copy()
        weights[len(weights) // 3] *= 1.0 + 1e-6
        return dataclasses.replace(rule, weights=weights)

    monkeypatch.setattr(quadrature, name, wrong)
    assert run(["quad", "verify", "--weight", weight, "--m", "64", "--out", str(tmp_path)]) == 1


def test_needlet_subcommands(tmp_path):
    out = str(tmp_path / "o")
    args = ["--family", "jacobi", "--jmax", "4", "--trials", "5"] + FAST + ["--out", out]
    assert run(["needlet", "build"] + args) == 0
    dump = json.loads((tmp_path / "o" / "needlet_jacobi.json").read_text())
    assert len(dump["levels"]) == 5
    assert run(["needlet", "parseval"] + args) == 0
    assert run(["needlet", "roundtrip"] + args) == 0


@pytest.mark.parametrize("action", ["parseval", "roundtrip"])
def test_needlet_nonfinite_defect_fails(tmp_path, capsys, monkeypatch, action):
    # a trial whose defect is NaN must be reported as nan and fail the verdict
    monkeypatch.setattr(needlets, "parseval_check", lambda system, coeffs: math.nan)
    monkeypatch.setattr(needlets, "roundtrip_defect", lambda system, coeffs, x: math.nan)
    out = str(tmp_path / "o")
    args = ["--family", "jacobi", "--jmax", "3", "--trials", "2"] + FAST + ["--out", out]
    assert run(["needlet", action] + args) == 1
    assert "worst defect nan" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["hermite", "laguerre"])
@pytest.mark.parametrize("action", ["parseval", "roundtrip"])
def test_needlet_line_families_pass_at_jmax_5(tmp_path, capsys, family, action):
    # 1,024-node levels, whose far nodes once gave infinite weights
    out = str(tmp_path / "o")
    args = ["--family", family, "--jmax", "5", "--trials", "2"] + FAST + ["--out", out]
    assert run(["needlet", action] + args) == 0
    assert "worst defect nan" not in capsys.readouterr().out


@pytest.mark.parametrize("family", needlets._FAMILIES)
@pytest.mark.parametrize("action", ["parseval", "roundtrip"])
def test_needlet_checks_pass_for_every_frame_family(tmp_path, capsys, family, action):
    # every family with a frame record, so a new record is covered as it lands
    out = str(tmp_path / "o")
    args = ["--family", family, "--jmax", "4", "--trials", "2"] + FAST + ["--out", out]
    assert run(["needlet", action] + args) == 0
    assert f"needlet {action}: {family} J=4 worst defect" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-3", "1.5"])
@pytest.mark.parametrize(
    "command",
    [["cutoff", "check"], ["decay", "fit", "--family", "chebyshev", "--n", "32"],
     ["decay", "fit", "--family", "ball", "--dim", "2", "--mu", "1", "--n", "4"]],
)
def test_negative_seeds_are_usage_errors(tmp_path, capsys, command, seed):
    # one rule for every family: a seed is a non-negative integer
    out = str(tmp_path / "o")
    assert run(command + [f"--seed={seed}"] + FAST + ["--out", out]) == 2
    assert "argument --seed: seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize(
    "command, flag",
    [(["needlet", "parseval"], "--trials"), (["needlet", "roundtrip"], "--trials"),
     (["kernel", "grid"], "--count")],
)
def test_nonpositive_counts_are_usage_errors(tmp_path, capsys, command, flag, count):
    # a run of no trials or no pairs verifies nothing, so it must not pass
    out = str(tmp_path / "o")
    assert run(command + [f"{flag}={count}"] + FAST + ["--out", out]) == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_decay_envelope_and_fit(tmp_path):
    out = str(tmp_path / "o")
    args = ["--family", "chebyshev", "--n", "32"] + FAST + ["--out", out]
    assert run(["decay", "envelope"] + args) == 0
    lines = (tmp_path / "o" / "envelope_chebyshev_32.csv").read_text().splitlines()
    assert lines[0] == "rho,max_abs,n,family,weighted"
    assert run(["decay", "fit", "--form", "subexp"] + args) == 0
    fit = json.loads((tmp_path / "o" / "fit.json").read_text())
    assert fit["form"] == "sub_exponential" and fit["violations"] == 0


@pytest.mark.parametrize(
    "args, message",
    [
        (["--family", "chebcheb", "--n", "8", "--weighted"], "no bound weight"),
        (["--family", "hermite", "--n", "8", "--dim", "2"], "envelopes sample d = 1 only"),
    ],
)
def test_decay_envelope_rejects_unsupported_plans(tmp_path, capsys, args, message):
    out = str(tmp_path / "o")
    assert run(["decay", "envelope"] + args + FAST + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.csv"))


def test_decay_counterexample(tmp_path, capsys):
    out = str(tmp_path / "o")
    code = run(
        ["decay", "counterexample", "--variant", "chebcheb", "--type", "a", "--n-list", "16,32"]
        + FAST
        + ["--out", out]
    )
    assert code == 0
    assert "match=True" in capsys.readouterr().out
    report = json.loads((tmp_path / "o" / "counterexample.json").read_text())
    assert report["a0"] == 1.0


def test_decay_fit_fits_the_shape_of_the_measured_cutoff(tmp_path):
    # the fit once took --epsilon (default 1) and depth 1 whatever the cutoff:
    # depth 2 read rate 2.105 for 1.099, a config at eps = 1/2 fitted eps = 1
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"kind": "c", "epsilon": 0.5, "m_max": 512, "grid": 4096}))
    base = ["decay", "fit", "--family", "chebyshev", "--n", "32", "--out", str(tmp_path)]
    for options, epsilon, depth in [(["--log-depth", "2"] + FAST, 1.0, 2), (["--config", str(config)], 0.5, 1)]:
        assert run(base + options) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        spec = cutoff.CutoffSpec("c", epsilon=epsilon, log_depth=depth, m_max=512, grid_points=4096)
        kernel = kernels.KernelInstance("chebyshev", cutoff.assemble_cutoff(spec), 32)
        env = decay.measure_envelope(kernel, decay.SamplingPlan())
        expected = decay.fit_bound(env, decay.SubExponential(epsilon, depth))
        assert (fit["epsilon"], fit["log_depth"], fit["c_rate"]) == (epsilon, depth, expected.c_rate)


def test_decay_compare_measures_each_cutoff_once(tmp_path, monkeypatch):
    # compare once measured the first cutoff's envelope twice
    measured = []

    def measure(kernel, plan=None):
        measured.append(kernel.cutoff)
        return measure_envelope(kernel, plan)

    measure_envelope = decay.measure_envelope
    monkeypatch.setattr(decay, "measure_envelope", measure)
    args = ["decay", "compare", "--family", "chebyshev", "--n", "32"] + FAST
    assert run(args + ["--out", str(tmp_path)]) in (0, 1)  # the count is under test, not the order
    assert len(measured) == 2 and measured[0] is not measured[1]


def test_decay_compare(tmp_path, capsys):
    out = str(tmp_path / "o")
    code = run(
        ["decay", "compare", "--family", "chebyshev", "--n", "128", "--type", "c", "--out", out]
    )
    assert code == 0
    assert "ordered=True" in capsys.readouterr().out
    rows = json.loads((tmp_path / "o" / "compare.json").read_text())
    assert len(rows) == 2


def test_decay_compare_prints_close_rates_apart(tmp_path, capsys):
    # these rates, 2.635972 and 2.635910, once both printed as 2.636
    run(["decay", "compare", "--family", "chebyshev", "--n", "32"] + FAST + ["--out", str(tmp_path)])
    smooth, control = (row["c_rate"] for row in json.loads((tmp_path / "compare.json").read_text()))
    words = capsys.readouterr().out.split()
    shown = [float(words[words.index("rate") + 1]), float(words[words.index("control") + 1])]
    assert (shown[0] > shown[1]) == (smooth > control) and shown[0] != shown[1]
    gap = float(words[words.index("gap") + 1])
    assert gap == pytest.approx((smooth - control) / control, rel=1e-2)


def test_decay_wavelet(tmp_path, capsys):
    out = str(tmp_path / "o")
    code = run(["decay", "wavelet", "--epsilon", "1.0", "--out", out])
    assert code == 0
    fit = json.loads((tmp_path / "o" / "wavelet_fit.json").read_text())
    assert fit["form"] == "sub_exponential"
    lines = (tmp_path / "o" / "wavelet.csv").read_text().splitlines()
    assert lines[0] == "x,psi"


def test_csv_outputs_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["decay", "envelope", "--family", "chebyshev", "--n", "32", "--seed", "7"] + FAST
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    a = (tmp_path / "a" / "envelope_chebyshev_32.csv").read_bytes()
    b = (tmp_path / "b" / "envelope_chebyshev_32.csv").read_bytes()
    assert a == b


def test_verification_failure_maps_to_exit_one(tmp_path):
    out = str(tmp_path / "o")
    # an impossible tolerance turns the quad verification into a failure
    code = run(
        ["quad", "verify", "--weight", "jacobi", "--m", "10", "--degree", "19",
         "--tolerance", "1e-30", "--out", out]
    )
    assert code == 1


def test_bad_value_maps_to_usage_error(tmp_path):
    out = str(tmp_path / "o")
    code = run(["cutoff", "build", "--type", "c", "--epsilon", "7"] + FAST + ["--out", out])
    assert code == 2


@pytest.mark.parametrize("weight, m, alpha, beta, degree", [
    ("hermite", 1024, 0.0, 0.0, None),
    ("laguerre", 400, 0.0, 0.0, None),
    ("laguerre", 20, -0.5, 0.0, None),
    ("jacobi", 30, 0.5, 1.5, None),
    ("hermite", 2048, 0.0, 0.0, 10),
], ids=["hermite", "laguerre", "laguerre-moments", "jacobi", "hermite-degree"])
def test_quad_verify_prints_the_verdict_of_check_rule(tmp_path, capsys, weight, m, alpha, beta, degree):
    check, reached, err, ok = quadrature.check_rule(weight, m, alpha, beta, degree)
    assert (check == "moment") == (weight == "jacobi" or alpha < 0) and ok is True
    args = ["quad", "verify", "--weight", weight, "--m", str(m), "--alpha", str(alpha), "--beta", str(beta)]
    args += [] if degree is None else ["--degree", str(degree)]
    assert run(args + ["--out", str(tmp_path)]) == 0
    line = f"quad verify: {weight} m={m} degree={reached} {check} error {err:.3e}"
    assert capsys.readouterr().out.strip() == line

import json

import numpy as np
import pytest

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


def test_cutoff_check_reads_json_config(tmp_path):
    cfg = tmp_path / "spec.json"
    cfg.write_text(
        json.dumps({"kind": "a", "epsilon": 1.0, "log_depth": 1, "m_max": 512, "grid": 4096})
    )
    out = str(tmp_path / "o")
    assert run(["cutoff", "check", "--config", str(cfg), "--out", out]) == 0


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


def test_needlet_subcommands(tmp_path):
    out = str(tmp_path / "o")
    args = ["--family", "jacobi", "--jmax", "4", "--trials", "5"] + FAST + ["--out", out]
    assert run(["needlet", "build"] + args) == 0
    dump = json.loads((tmp_path / "o" / "needlet_jacobi.json").read_text())
    assert len(dump["levels"]) == 5
    assert run(["needlet", "parseval"] + args) == 0
    assert run(["needlet", "roundtrip"] + args) == 0


@pytest.mark.parametrize("action", ["parseval", "roundtrip"])
def test_needlet_nonfinite_defect_fails(tmp_path, capsys, action):
    # Hermite J=5 levels carry non-finite quadrature weights, so the trial
    # defects are NaN; the verdict must report nan and fail
    out = str(tmp_path / "o")
    args = ["--family", "hermite", "--jmax", "5", "--trials", "2"] + FAST + ["--out", out]
    with np.errstate(all="ignore"):
        assert run(["needlet", action] + args) == 1
    assert "worst defect nan" in capsys.readouterr().out


def test_decay_envelope_and_fit(tmp_path):
    out = str(tmp_path / "o")
    args = ["--family", "chebyshev", "--n", "32"] + FAST + ["--out", out]
    assert run(["decay", "envelope"] + args) == 0
    lines = (tmp_path / "o" / "envelope_chebyshev_32.csv").read_text().splitlines()
    assert lines[0] == "rho,max_abs,n,family,weighted"
    assert run(["decay", "fit", "--form", "subexp"] + args) == 0
    fit = json.loads((tmp_path / "o" / "fit.json").read_text())
    assert fit["form"] == "sub_exponential" and fit["violations"] == 0


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


def test_decay_compare(tmp_path, capsys):
    out = str(tmp_path / "o")
    code = run(
        ["decay", "compare", "--family", "chebyshev", "--n", "128", "--type", "c", "--out", out]
    )
    assert code == 0
    assert "ordered=True" in capsys.readouterr().out
    rows = json.loads((tmp_path / "o" / "compare.json").read_text())
    assert len(rows) == 2


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

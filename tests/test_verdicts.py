"""Every pass or fail that the command line and the demos print is decided by
one library call, and a nan in the value it checks fails it."""

import dataclasses
import math

import pytest

from orthoframes import cutoff as co
from orthoframes import decay as de
from orthoframes import needlets as ne
from orthoframes import quadrature as qd


def _partition(cutoffs, monkeypatch, nan):
    if nan:
        monkeypatch.setattr(co, "check_partition_of_unity", lambda *args: math.nan)
    return co.check_profile(cutoffs["c"], seed=42)[1]


def _second_trial(check, defect):
    def verdict(cutoffs, monkeypatch, nan):
        if nan:
            # a nan among finite trials once vanished in max(worst, defect)
            real, calls = getattr(ne, defect), []

            def one_nan(*args):
                calls.append(args)
                return math.nan if len(calls) == 2 else real(*args)

            monkeypatch.setattr(ne, defect, one_nan)
        system = ne.build_needlet_system("jacobi", {"alpha": 0.0, "beta": 0.0}, cutoffs["c"], 3)
        return ne.check_tightness(system, check, trials=3, seed=42)[1]

    return verdict


def _plancherel(cutoffs, monkeypatch, nan):
    wavelet = de.build_wavelet(1.0)
    if nan:
        wavelet = dataclasses.replace(wavelet, plancherel_defect=math.nan)
    return wavelet.check()[1]


def _corner(variant):
    def verdict(cutoffs, monkeypatch, nan):
        report = de.counterexample_suite(cutoffs["a"], [16, 32])
        if nan:
            report.values[variant][1] = math.nan
            report.residuals[variant] = report.values[variant] - report.predicted[variant]
        return report.matches(variant)

    return verdict


def _rule(weight, verify):
    def verdict(cutoffs, monkeypatch, nan):
        if nan:
            monkeypatch.setattr(qd, verify, lambda *args: math.nan)
        return qd.check_rule(weight, 16)[3]

    return verdict


@pytest.mark.parametrize(
    "verdict",
    [
        _partition,
        _second_trial("parseval", "parseval_check"),
        _second_trial("roundtrip", "roundtrip_defect"),
        _plancherel,
        _corner("chebcheb"),
        _corner("legleg"),
        _rule("jacobi", "verify_exactness"),
        _rule("hermite", "verify_orthonormality"),
    ],
    ids=["partition", "parseval-trial", "roundtrip-trial", "plancherel", "exact-corner", "leading-term-corner",
         "rule-moments", "rule-orthonormality"],
)
def test_a_nan_fails_every_verdict(cutoff_a, cutoff_c, monkeypatch, verdict):
    cutoffs = {"a": cutoff_a, "c": cutoff_c}
    assert verdict(cutoffs, monkeypatch, nan=False) is True
    assert verdict(cutoffs, monkeypatch, nan=True) is False

"""The benchmark's workloads: shared set-up and the operations of each mix.

An operation (op) is one library pipeline that ends in the verdict the
command-line front end would print for the same inputs.  Each op returns
``(verdict, values)``: the verdict at the pinned tolerance, and every number
the op produced, which the harness checks for finiteness and digests.

The workload seed sets every ``SamplingPlan.seed`` and every coefficient
generator; the library receives only the generated inputs.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from orthoframes import cutoff, decay, kernels, needlets

# tolerances pinned by the command-line front end
PARTITION_TOL = 1e-8
PARSEVAL_TOL = 1e-8
ROUNDTRIP_TOL = 1e-7
COUNTEREXAMPLE_TOL = 1e-10
TRIALS = 20

# the smallest plan SamplingPlan.validate accepts
SMALL_PLAN = {"n_bins": 40, "pairs_per_bin": 200}


@dataclass(frozen=True)
class Op:
    name: str
    run: object  # () -> (verdict, values)


def setup(workload):
    """What every command-line invocation of this workload pays before its
    work: the import (done by the caller) and the shared cutoff profile(s)."""
    if workload == "profiles":
        # shared by the counterexample op; the other ops assemble their own
        return {"a": cutoff.assemble_cutoff(cutoff.CutoffSpec("a"))}
    shared = {"c": cutoff.assemble_cutoff(cutoff.CutoffSpec("c"))}
    if workload == "envelope-line":
        shared["control"] = cutoff.build_control_cutoff(1.0)
    return shared


def _envelope(prof, family, n, params, seed, weighted=False, plan=None):
    kernel = kernels.KernelInstance(family, prof, n, dict(params))
    env = decay.measure_envelope(
        kernel, decay.SamplingPlan(seed=seed, weighted=weighted, **(plan or {}))
    )
    fit = decay.fit_bound(env, decay.SubExponential(1.0))
    values = {
        "rho": env.rho,
        "envelope": env.values,
        "c": fit.c,
        "c_rate": fit.c_rate,
        "violations": fit.violations,
    }
    return fit.satisfied and fit.violations == 0, values


def _compare(prof, control, n, seed):
    fits = decay.compare_cutoffs(
        "chebyshev", n, [prof, control], epsilon=1.0, plan=decay.SamplingPlan(seed=seed)
    )
    values = {
        "c": [f.c for f in fits],
        "c_rate": [f.c_rate for f in fits],
        "violations": [f.violations for f in fits],
    }
    return fits[0].c_rate > fits[1].c_rate, values


_ROUNDTRIP_POINTS = {"jacobi": (-1.0, 1.0), "hermite": (-3.0, 3.0), "laguerre": (0.05, 3.0)}


def _frame(prof, family, params, j_max, seed):
    """``needlet parseval`` and ``needlet roundtrip`` on one built system,
    each trial stream seeded as the front end seeds it."""
    system = needlets.build_needlet_system(family, dict(params), prof, j_max)
    rng = np.random.default_rng(seed)
    parseval = [
        needlets.parseval_check(system, rng.standard_normal(system.capacity + 1))
        for _ in range(TRIALS)
    ]
    rng = np.random.default_rng(seed)
    lo, hi = _ROUNDTRIP_POINTS[family]
    roundtrip = []
    for _ in range(TRIALS):
        coeffs = rng.standard_normal(system.capacity + 1)
        frame = needlets.analyze(system, coeffs)
        pts = rng.uniform(lo, hi, 50)
        rec = needlets.synthesize(system, frame, pts)
        basis = system.basis_values(np.arange(len(coeffs)), pts)
        ref = np.tensordot(coeffs, basis, axes=(0, 0))
        scale = max(float(np.abs(ref).max()), 1e-30)
        roundtrip.append(float(np.abs(rec - ref).max()) / scale)
    # np.max propagates NaN, so a non-finite defect fails the comparison
    ok = bool(np.max(parseval) < PARSEVAL_TOL) and bool(np.max(roundtrip) < ROUNDTRIP_TOL)
    return ok, {"parseval": parseval, "roundtrip": roundtrip}


def _profile(kind, epsilon, seed, log_depth=1):
    """``cutoff check`` on a freshly assembled profile, plus derivative norms."""
    prof = cutoff.assemble_cutoff(cutoff.CutoffSpec(kind, epsilon=epsilon, log_depth=log_depth))
    t = np.random.default_rng(seed).uniform(0.0, 2.5, 4096)
    vals = prof(t)
    ok = bool(np.all((vals >= 0) & (vals <= 1)))
    if kind == "a":
        devs = [
            float(np.abs(prof(np.linspace(0, 1, 2048)) - 1.0).max()),
            float(np.abs(prof(np.linspace(2.0, 2.5, 256))).max()),
        ]
    else:
        tt = np.linspace(1.0, 2.0, 2048)
        devs = [
            float(np.abs(prof(tt) ** 2 + prof(tt / 2.0) ** 2 - 1.0).max()),
            cutoff.check_partition_of_unity(prof, 1.0, 1.0e4),
        ]
    norms = cutoff.estimate_derivative_norms(prof, k_max=6)
    ok = ok and max(devs) < PARTITION_TOL
    return ok, {"range_samples": vals, "deviations": devs, "derivative_norms": norms.values}


def _wavelet(epsilon):
    w = decay.build_wavelet(epsilon)
    fit = decay.fit_bound(w.envelope, decay.SubExponential(epsilon))
    ok = (
        w.plancherel_defect < 1e-8
        and w.mean_abs < 1e-8
        and fit.satisfied
        and fit.c_rate > 0
    )
    values = {
        "plancherel": w.plancherel_defect,
        "mean_abs": w.mean_abs,
        "envelope": w.envelope.values,
        "c": fit.c,
        "c_rate": fit.c_rate,
        "violations": fit.violations,
    }
    return ok, values


def _counterexample(prof, n_list):
    report = decay.counterexample_suite(prof, n_list)
    vals = report.values["chebcheb"]
    pred = report.predicted["chebcheb"]
    ok = bool(np.all(np.abs(vals - pred) < COUNTEREXAMPLE_TOL))
    return ok, {"values": vals, "predicted": pred, "slice_fprime": report.slice_fprime["chebcheb"]}


def ops(workload, shared, seed):
    """The workload's op mix, one entry per op, in cycle order."""
    if workload == "envelope-line":
        c = shared["c"]
        env = partial(_envelope, c, seed=seed)
        return [
            Op("chebyshev-n64", partial(env, "chebyshev", 64, {})),
            Op("chebyshev-n128", partial(env, "chebyshev", 128, {})),
            Op("chebyshev-n256", partial(env, "chebyshev", 256, {})),
            Op("jacobi-2-0.5-w-n128", partial(env, "jacobi", 128, {"alpha": 2.0, "beta": 0.5}, weighted=True)),
            Op("jacobi-0-0-n256", partial(env, "jacobi", 256, {"alpha": 0.0, "beta": 0.0})),
            Op("hermite-n64", partial(env, "hermite", 64, {"d": 1})),
            Op("hermite-n128", partial(env, "hermite", 128, {"d": 1})),
            Op("laguerre-1-w-n64", partial(env, "laguerre", 64, {"alpha": 1.0, "d": 1}, weighted=True)),
            Op("laguerre-0-n128", partial(env, "laguerre", 128, {"alpha": 0.0, "d": 1})),
            Op("sphere-d2-n128", partial(env, "sphere", 128, {"d": 2})),
            Op("compare-chebyshev-n128", partial(_compare, c, shared["control"], 128, seed)),
        ]
    if workload == "envelope-ball":
        # the simplex (about 30 s per 1-D envelope, same per-pair rule and
        # rejection-sampling path) would make one cycle three runs long
        return [
            Op("ball-d2-mu1-n8", partial(_envelope, shared["c"], "ball", 8, {"mu": 1.0, "d": 2}, seed, plan=SMALL_PLAN)),
        ]
    if workload == "frames":
        c = shared["c"]
        frame = partial(_frame, c, seed=seed)
        mix = [Op(f"jacobi-{a:g}-{b:g}-J7", partial(frame, "jacobi", {"alpha": a, "beta": b}, 7))
               for a, b in ((0.0, 0.0), (-0.5, -0.5), (2.0, 0.5))]
        mix += [Op(f"hermite-J{j}", partial(frame, "hermite", {}, j)) for j in (4, 5, 6)]
        mix += [Op(f"laguerre-0-J{j}", partial(frame, "laguerre", {"alpha": 0.0}, j)) for j in (4, 5, 6)]
        return mix
    if workload == "profiles":
        return [
            Op("c-eps1", partial(_profile, "c", 1.0, seed)),
            Op("c-eps0.5", partial(_profile, "c", 0.5, seed)),
            Op("c-eps0.25", partial(_profile, "c", 0.25, seed)),
            Op("c-eps1-logdepth2", partial(_profile, "c", 1.0, seed, log_depth=2)),
            Op("a-eps1", partial(_profile, "a", 1.0, seed)),
            Op("a-eps0.5", partial(_profile, "a", 0.5, seed)),
            Op("wavelet-eps1", partial(_wavelet, 1.0)),
            Op("counterexample-a", partial(_counterexample, shared["a"], [32, 64, 128])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("envelope-line", "envelope-ball", "frames", "profiles")

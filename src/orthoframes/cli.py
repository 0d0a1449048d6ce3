"""Command-line front end.

Subcommands mirror the library surface: ``cutoff build|check``,
``kernel eval|grid``, ``quad build|verify``, ``needlet
build|parseval|roundtrip``, and ``decay
envelope|fit|compare|wavelet|counterexample``.  Every run reads its options
(or a JSON config), writes CSV/JSON artifacts under --out, and prints a
one-line summary.  Exit codes: 0 success, 1 verification failure, 2 usage
error.  A fixed default seed keeps CSV outputs byte-identical across runs.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import cutoff as cutoff_mod
from . import decay, kernels, needlets, quadrature

_DEF_TOL = {
    "partition": 1e-8,
    "exactness": 1e-10,
    "parseval": 1e-8,
    "roundtrip": 1e-7,
    "counterexample": 1e-10,
}


def _cutoff_from_args(args):
    spec = cutoff_mod.CutoffSpec(
        kind=args.type,
        epsilon=args.epsilon,
        log_depth=args.log_depth,
        m_max=args.m_max,
        grid_points=args.grid,
    )
    return cutoff_mod.assemble_cutoff(spec)


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _add_cutoff_opts(p):
    p.add_argument("--type", default="c", choices=("a", "b", "c"))
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--log-depth", dest="log_depth", type=int, default=1)
    p.add_argument("--m-max", dest="m_max", type=int, default=cutoff_mod.DEFAULT_M_MAX)
    p.add_argument("--grid", type=int, default=cutoff_mod.DEFAULT_GRID)
    p.add_argument("--config", default=None, help="JSON cutoff spec (overrides flags)")


def _resolve_cutoff(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            spec = cutoff_mod.spec_from_json(fh.read())
        return cutoff_mod.assemble_cutoff(spec)
    return _cutoff_from_args(args)


def _kernel_from_args(args, cut):
    params = {}
    fam = args.family
    if fam == "jacobi":
        params = {"alpha": args.alpha, "beta": args.beta}
    elif fam == "sphere":
        params = {"d": args.dim}
    elif fam == "ball":
        params = {"mu": args.mu, "d": args.dim}
    elif fam == "simplex":
        params = {"kappa": tuple(float(v) for v in args.kappa.split(","))}
    elif fam == "hermite":
        params = {"d": args.dim}
    elif fam == "laguerre":
        params = {"alpha": args.alpha, "d": args.dim}
    return kernels.KernelInstance(fam, cut, args.n, params)


def _parse_point(text):
    return np.array([float(v) for v in text.split(",")])


def cmd_cutoff(args):
    cut = _resolve_cutoff(args)
    out = _outdir(args)
    if args.action == "build":
        path = os.path.join(out, f"cutoff_{cut.spec.kind}.csv")
        cutoff_mod.save_samples_csv(cut, path)
        with open(os.path.join(out, f"cutoff_{cut.spec.kind}.json"), "w") as fh:
            fh.write(cutoff_mod.spec_to_json(cut.spec))
        print(f"cutoff build: kind={cut.spec.kind} eps={cut.spec.epsilon} -> {path}")
        return 0
    # check
    tol = args.tolerance if args.tolerance is not None else _DEF_TOL["partition"]
    rng = np.random.default_rng(args.seed)
    t = rng.uniform(0.0, 2.5, 4096)
    vals = cut(t)
    ok = bool(np.all((vals >= 0) & (vals <= 1)))
    report = {"range_ok": ok}
    if cut.spec.kind == "a":
        dev = max(
            float(np.abs(cut(np.linspace(0, 1, 2048)) - 1.0).max()),
            float(np.abs(cut(np.linspace(2.0, 2.5, 256))).max()),
        )
        report["flat_deviation"] = dev
        ok = ok and dev < tol
        print(f"cutoff check: kind=a flat/support deviation {dev:.3e}")
    else:
        tt = np.linspace(1.0, 2.0, 2048)
        quad_dev = float(np.abs(cut(tt) ** 2 + cut(tt / 2.0) ** 2 - 1.0).max())
        report["quadratic_identity_deviation"] = quad_dev
        ok = ok and quad_dev < tol
        if cut.spec.kind == "c":
            dev = cutoff_mod.check_partition_of_unity(cut, 1.0, 1.0e4)
            report["partition_deviation"] = dev
            ok = ok and dev < tol
            print(f"cutoff check: partition-of-unity deviation {dev:.3e}")
        else:
            print(f"cutoff check: quadratic identity deviation {quad_dev:.3e}")
    with open(os.path.join(_outdir(args), "cutoff_check.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True)
    return 0 if ok else 1


def cmd_kernel(args):
    cut = _resolve_cutoff(args)
    kernel = _kernel_from_args(args, cut)
    out = _outdir(args)
    if args.action == "eval":
        x = _parse_point(args.x)
        y = _parse_point(args.y)
        xs = x if len(x) > 1 else float(x[0])
        ys = y if len(y) > 1 else float(y[0])
        val = kernel(xs, ys)
        rho = kernel.distance(xs, ys)
        print(f"kernel eval: {args.family} n={args.n} rho={rho:.6g} value={val:.12g}")
        with open(os.path.join(out, "kernel_eval.json"), "w") as fh:
            json.dump(
                {"descriptor": kernel.descriptor(), "rho": rho, "value": val},
                fh,
                sort_keys=True,
            )
        return 0
    # grid
    rng = np.random.default_rng(args.seed)
    if args.family in ("chebyshev", "jacobi"):
        th = rng.uniform(0, np.pi, args.count)
        ph = rng.uniform(0, np.pi, args.count)
        xs, ys = np.cos(th), np.cos(ph)
    elif args.family == "hermite":
        r = np.sqrt(8.0 * args.n + 2.0)
        xs = rng.uniform(-r, r, args.count)
        ys = rng.uniform(-r, r, args.count)
    elif args.family == "laguerre":
        r = np.sqrt(12.0 * args.n + 3.0 * args.alpha + 3.0)
        xs = rng.uniform(0, r, args.count)
        ys = rng.uniform(0, r, args.count)
    else:
        print(f"kernel grid: family {args.family} not supported", file=sys.stderr)
        return 2
    path = os.path.join(out, f"kernel_grid_{args.family}.csv")
    kernels.export_grid(kernel, xs, ys, path)
    print(f"kernel grid: wrote {args.count} pairs -> {path}")
    return 0


def cmd_quad(args):
    rule = quadrature.gauss_rule(
        args.weight, args.m, alpha=args.alpha, beta=args.beta
    )
    out = _outdir(args)
    if args.action == "build":
        path = os.path.join(out, f"quad_{args.weight}_{args.m}.csv")
        quadrature.save_rule_csv(rule, path)
        with open(os.path.join(out, f"quad_{args.weight}_{args.m}.json"), "w") as fh:
            fh.write(quadrature.rule_to_json(rule))
        print(f"quad build: {args.weight} m={args.m} -> {path}")
        return 0
    degree = args.degree if args.degree is not None else rule.exactness
    err = quadrature.verify_exactness(rule, degree)
    tol = args.tolerance if args.tolerance is not None else _DEF_TOL["exactness"]
    print(f"quad verify: {args.weight} m={args.m} degree={degree} moment error {err:.3e}")
    return 0 if err < tol else 1


def _system_from_args(args, cut):
    params = {}
    if args.family == "jacobi":
        params = {"alpha": args.alpha, "beta": args.beta}
    elif args.family == "laguerre":
        params = {"alpha": args.alpha}
    return needlets.build_needlet_system(args.family, params, cut, args.jmax)


def cmd_needlet(args):
    cut = _resolve_cutoff(args)
    system = _system_from_args(args, cut)
    out = _outdir(args)
    if args.action == "build":
        path = os.path.join(out, f"needlet_{args.family}.json")
        with open(path, "w") as fh:
            fh.write(needlets.frame_to_json(system))
        counts = [len(l.nodes) for l in system.levels]
        print(f"needlet build: {args.family} J={args.jmax} node counts {counts} -> {path}")
        return 0
    rng = np.random.default_rng(args.seed)
    defects = []
    for _ in range(args.trials):
        coeffs = rng.standard_normal(system.capacity + 1)
        if args.action == "parseval":
            defects.append(needlets.parseval_check(system, coeffs))
        else:
            frame = needlets.analyze(system, coeffs)
            if args.family == "jacobi":
                pts = rng.uniform(-1, 1, 50)
            elif args.family == "hermite":
                pts = rng.uniform(-3, 3, 50)
            else:
                pts = rng.uniform(0.05, 3, 50)
            rec = needlets.synthesize(system, frame, pts)
            ref = np.tensordot(
                coeffs, system.basis_values(np.arange(len(coeffs)), pts), axes=(0, 0)
            )
            scale = max(float(np.abs(ref).max()), 1e-30)
            defects.append(float(np.abs(rec - ref).max()) / scale)
    # a non-finite defect is a failure: report it as nan, which no tolerance passes
    defects = np.asarray(defects, dtype=float)
    worst = float(np.max(defects, initial=0.0)) if np.all(np.isfinite(defects)) else math.nan
    key = "parseval" if args.action == "parseval" else "roundtrip"
    tol = args.tolerance if args.tolerance is not None else _DEF_TOL[key]
    print(f"needlet {key}: {args.family} J={args.jmax} worst defect {worst:.3e}")
    return 0 if worst < tol else 1


def cmd_decay(args):
    out = _outdir(args)
    if args.action == "wavelet":
        w = decay.build_wavelet(args.epsilon)
        fit = decay.fit_bound(w.envelope, decay.SubExponential(args.epsilon))
        path = os.path.join(out, "wavelet.csv")
        with open(path, "w") as fh:
            fh.write("x,psi\n")
            for xv, pv in zip(w.x, w.values):
                fh.write(f"{xv:.17g},{pv:.17g}\n")
        with open(os.path.join(out, "wavelet_fit.json"), "w") as fh:
            fh.write(decay.fit_to_json(fit))
        ok = (
            w.plancherel_defect < 1e-8
            and w.mean_abs < 1e-8
            and fit.satisfied
            and fit.c_rate > 0
        )
        print(
            f"decay wavelet: plancherel {w.plancherel_defect:.3e} mean {w.mean_abs:.3e} "
            f"rate {fit.c_rate:.3g} -> {path}"
        )
        return 0 if ok else 1
    if args.action == "counterexample":
        cut = _resolve_cutoff(args)
        n_list = [int(v) for v in args.n_list.split(",")]
        report = decay.counterexample_suite(cut, n_list)
        with open(os.path.join(out, "counterexample.json"), "w") as fh:
            fh.write(report.to_json())
        variant = args.variant
        vals = report.values[variant]
        pred = report.predicted[variant]
        tol = args.tolerance if args.tolerance is not None else _DEF_TOL["counterexample"]
        if variant == "chebcheb":
            ok = bool(np.all(np.abs(vals - pred) < tol))
        else:
            resid_scaled = np.abs(report.residuals[variant]) * np.asarray(n_list)
            ok = bool(resid_scaled.max() < 10.0)
        print(
            f"decay counterexample: {variant} values {np.array2string(vals, precision=8)} "
            f"predicted {np.array2string(pred, precision=8)} match={ok}"
        )
        return 0 if ok else 1
    cut = _resolve_cutoff(args)
    kernel = _kernel_from_args(args, cut)
    plan = decay.SamplingPlan(seed=args.seed, weighted=args.weighted)
    env = decay.measure_envelope(kernel, plan)
    if args.action == "envelope":
        path = os.path.join(out, f"envelope_{args.family}_{args.n}.csv")
        decay.envelope_to_csv(env, path)
        print(f"decay envelope: {args.family} n={args.n} -> {path}")
        return 0
    if args.action == "fit":
        if args.form == "poly":
            fit = decay.fit_bound(env, decay.Polynomial(args.sigma))
        else:
            fit = decay.fit_bound(env, decay.SubExponential(args.epsilon))
        with open(os.path.join(out, "fit.json"), "w") as fh:
            fh.write(decay.fit_to_json(fit))
        print(
            f"decay fit: {args.family} n={args.n} form={args.form} c={fit.c:.4g} "
            f"rate={fit.c_rate} violations={fit.violations}"
        )
        return 0 if fit.satisfied else 1
    # compare
    rough = cutoff_mod.build_control_cutoff(args.epsilon)
    fits = decay.compare_cutoffs(
        args.family,
        args.n,
        [cut, rough],
        epsilon=args.epsilon,
        plan=plan,
        params=kernel.params,
    )
    rows = [json.loads(decay.fit_to_json(f)) for f in fits]
    with open(os.path.join(out, "compare.json"), "w") as fh:
        json.dump(rows, fh, sort_keys=True)
    ordered = fits[0].c_rate > fits[1].c_rate
    print(
        f"decay compare: smooth rate {fits[0].c_rate:.4g} vs control {fits[1].c_rate:.4g} "
        f"ordered={ordered}"
    )
    return 0 if ordered else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orthoframes",
        description="localized kernels and needlet frames for orthogonal expansions",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--out", default="orthoframes-out")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tolerance", type=float, default=None)

    p = sub.add_parser("cutoff", help="build or check cutoff profiles")
    p.add_argument("action", choices=("build", "check"))
    _add_cutoff_opts(p)
    common(p)
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("kernel", help="evaluate kernels or export value grids")
    p.add_argument("action", choices=("eval", "grid"))
    p.add_argument("--family", default="chebyshev")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--kappa", default="0.5,0.5")
    p.add_argument("--x", default="0.5")
    p.add_argument("--y", default="0.25")
    p.add_argument("--count", type=int, default=200)
    _add_cutoff_opts(p)
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("quad", help="build or verify Gaussian rules")
    p.add_argument("action", choices=("build", "verify"))
    p.add_argument("--weight", default="jacobi", choices=("jacobi", "hermite", "laguerre"))
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--degree", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("needlet", help="build frames, verify tightness")
    p.add_argument("action", choices=("build", "parseval", "roundtrip"))
    p.add_argument("--family", default="jacobi", choices=("jacobi", "hermite", "laguerre"))
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    _add_cutoff_opts(p)
    common(p)
    p.set_defaults(func=cmd_needlet)

    p = sub.add_parser("decay", help="envelopes, bound fits, wavelet, counterexamples")
    p.add_argument(
        "action", choices=("envelope", "fit", "compare", "wavelet", "counterexample")
    )
    p.add_argument("--family", default="chebyshev")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--kappa", default="0.5,0.5")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--form", default="subexp", choices=("poly", "subexp"))
    p.add_argument("--sigma", type=float, default=4.0)
    p.add_argument("--variant", default="chebcheb", choices=kernels.TENSOR_VARIANTS)
    p.add_argument("--n-list", dest="n_list", default="32,64,128")
    _add_cutoff_opts(p)
    common(p)
    p.set_defaults(func=cmd_decay)

    return parser


def run(argv):
    """Entry point returning the process exit code."""
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

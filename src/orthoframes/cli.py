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
import os
import sys

import numpy as np

from . import cutoff as cutoff_mod
from . import decay, kernels, needlets, orthopoly, quadrature


def _artifact(args, name, text=None):
    """The path of the artifact ``name`` under --out, which is made if
    missing; ``text``, when given, is written there."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    if text is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return path


def _add_cutoff_opts(p):
    p.add_argument("--type", default="c", choices=("a", "b", "c"))
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--log-depth", dest="log_depth", type=int, default=1)
    p.add_argument("--m-max", dest="m_max", type=int, default=cutoff_mod.DEFAULT_M_MAX)
    p.add_argument("--grid", type=int, default=cutoff_mod.DEFAULT_GRID)
    p.add_argument("--config", default=None, help="JSON cutoff spec (overrides flags)")


# The family options, each the parameter of its name (--dim is d), and the
# defaults that apply to the families that read them.  d has none: the
# families that read it need it, or take it from their record.
_FAMILY_OPTIONS = {"alpha": 0.0, "beta": 0.0, "mu": 1.0, "d": None, "kappa": (0.5, 0.5)}


def _add_family_opts(p, n):
    p.add_argument("--family", default="chebyshev")
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--alpha", type=_numbers, help="one value, or one per axis: 0,1 (default 0)")
    p.add_argument("--beta", type=float, help="default 0")
    p.add_argument("--mu", type=float, help="default 1")
    p.add_argument("--dim", dest="d", type=int)
    p.add_argument("--kappa", type=_numbers, help="default 0.5,0.5")


def _resolve_cutoff(args):
    """The cutoff of the JSON spec that --config names, else of the flags."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            spec = cutoff_mod.spec_from_json(fh.read())
    else:
        spec = cutoff_mod.CutoffSpec(args.type, args.epsilon, args.log_depth, args.m_max, args.grid)
    return cutoff_mod.assemble_cutoff(spec)


def _params_from_args(args):
    """The family parameters: every family option given, and the default of
    each one not given that the family reads.  The family refuses a given
    option it does not read."""
    read = kernels.FAMILIES[args.family].params if args.family in kernels.FAMILIES else ()
    given = {name: getattr(args, name, None) for name in _FAMILY_OPTIONS}
    params = {name: v for name, v in _FAMILY_OPTIONS.items() if name in read and v is not None}
    return params | {name: v for name, v in given.items() if v is not None}


def _kernel_from_args(args, cut):
    return kernels.KernelInstance(args.family, cut, args.n, _params_from_args(args))


def _positive_int(text):
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _seed(text):
    try:
        seed = int(text)
    except ValueError:
        seed = text
    try:
        return decay.check_seed(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _numbers(text):
    """One number, or a tuple of them written comma-separated (a point, or one value per axis)."""
    values = tuple(float(v) for v in text.split(","))
    return values if len(values) > 1 else values[0]


def cmd_cutoff(args):
    cut = _resolve_cutoff(args)
    if args.action == "build":
        path = _artifact(args, f"cutoff_{cut.spec.kind}.csv")
        cutoff_mod.save_samples_csv(cut, path)
        _artifact(args, f"cutoff_{cut.spec.kind}.json", cutoff_mod.spec_to_json(cut.spec))
        print(f"cutoff build: kind={cut.spec.kind} eps={cut.spec.epsilon} -> {path}")
        return 0
    report, ok = cutoff_mod.check_profile(cut, args.seed, args.tolerance)
    if cut.spec.kind == "a":
        print(f"cutoff check: kind=a flat/support deviation {report['flat_deviation']:.3e}")
    elif cut.spec.kind == "c":
        print(f"cutoff check: partition-of-unity deviation {report['partition_deviation']:.3e}")
    else:
        dev = report["quadratic_identity_deviation"]
        print(f"cutoff check: quadratic identity deviation {dev:.3e}")
    _artifact(args, "cutoff_check.json", orthopoly._to_json(report))
    return 0 if ok else 1


def cmd_kernel(args):
    cut = _resolve_cutoff(args)
    kernel = _kernel_from_args(args, cut)
    if args.action == "eval":
        if kernels.FAMILIES[args.family].scalar(kernel.params) and (np.ndim(args.x) or np.ndim(args.y)):
            raise ValueError(f"kernel eval takes one pair: {args.family} points have 1 coordinate")
        val = kernel(args.x, args.y)
        rho = kernel.distance(args.x, args.y)
        print(f"kernel eval: {args.family} n={args.n} rho={rho:.6g} value={val:.12g}")
        record = {"descriptor": kernel.descriptor(), "rho": rho, "value": val}
        _artifact(args, "kernel_eval.json", orthopoly._to_json(record))
        return 0
    # grid
    rng = np.random.default_rng(args.seed)
    r = kernels.FAMILIES[args.family].diameter(args.n, kernel.params)
    if args.family in ("chebyshev", "jacobi"):
        xs, ys = np.cos(rng.uniform(0, r, (2, args.count)))
    elif args.family in ("hermite", "laguerre"):
        # d > 1 points fill the same box; d = 1 keeps its draws
        d = kernel.params["d"]
        shape = (2, args.count) if d == 1 else (2, args.count, d)
        xs, ys = rng.uniform(0 if args.family == "laguerre" else -r, r, shape)
    else:
        print(f"kernel grid: family {args.family} not supported", file=sys.stderr)
        return 2
    path = _artifact(args, f"kernel_grid_{args.family}.csv")
    kernels.export_grid(kernel, xs, ys, path)
    print(f"kernel grid: wrote {args.count} pairs -> {path}")
    return 0


def cmd_quad(args):
    # past a few hundred nodes the Hermite and Laguerre moments, and the
    # smallest Gauss weights, leave double range; the frame's function rule on
    # the same nodes does not, so it is checked by orthonormality of its rows
    # (the Laguerre function rule needs alpha >= 0; below, the moments remain)
    line_rule = args.weight == "hermite" or args.weight == "laguerre" and args.alpha >= 0
    if args.action == "verify" and line_rule:
        rule = kernels.FAMILIES[args.weight].frame.rule({"alpha": args.alpha}, args.m)
        check, verify = "orthonormality", quadrature.verify_orthonormality
    else:
        rule = quadrature.gauss_rule(args.weight, args.m, alpha=args.alpha, beta=args.beta)
        check, verify = "moment", quadrature.verify_exactness
    if args.action == "build":
        path = _artifact(args, f"quad_{args.weight}_{args.m}.csv")
        quadrature.save_rule_csv(rule, path)
        _artifact(args, f"quad_{args.weight}_{args.m}.json", quadrature.rule_to_json(rule))
        print(f"quad build: {args.weight} m={args.m} -> {path}")
        return 0
    degree = args.degree if args.degree is not None else rule.exactness
    err = verify(rule, degree)
    tol = quadrature.EXACTNESS_TOL if args.tolerance is None else args.tolerance
    print(f"quad verify: {args.weight} m={args.m} degree={degree} {check} error {err:.3e}")
    return 0 if err < tol else 1


def cmd_needlet(args):
    cut = _resolve_cutoff(args)
    system = needlets.build_needlet_system(args.family, _params_from_args(args), cut, args.jmax)
    if args.action == "build":
        path = _artifact(args, f"needlet_{args.family}.json", needlets.frame_to_json(system))
        counts = [len(l.nodes) for l in system.levels]
        print(f"needlet build: {args.family} J={args.jmax} node counts {counts} -> {path}")
        return 0
    worst, ok = needlets.check_tightness(
        system, args.action, args.trials, args.seed, args.tolerance
    )
    print(f"needlet {args.action}: {args.family} J={args.jmax} worst defect {worst:.3e}")
    return 0 if ok else 1


def cmd_decay(args):
    if args.action == "wavelet":
        w = decay.build_wavelet(args.epsilon)
        fit, ok = w.check(args.tolerance)
        path = _artifact(args, "wavelet.csv")
        orthopoly._write_csv(path, ("x", "psi"), zip(w.x, w.values))
        _artifact(args, "wavelet_fit.json", decay.fit_to_json(fit))
        print(
            f"decay wavelet: plancherel {w.plancherel_defect:.3e} mean {w.mean_abs:.3e} "
            f"rate {fit.c_rate:.3g} -> {path}"
        )
        return 0 if ok else 1
    if args.action == "counterexample":
        cut = _resolve_cutoff(args)
        report = decay.counterexample_suite(cut, [int(v) for v in args.n_list.split(",")])
        _artifact(args, "counterexample.json", report.to_json())
        ok = report.matches(args.variant, args.tolerance)
        vals = np.array2string(report.values[args.variant], precision=8)
        pred = np.array2string(report.predicted[args.variant], precision=8)
        print(f"decay counterexample: {args.variant} values {vals} predicted {pred} match={ok}")
        return 0 if ok else 1
    cut = _resolve_cutoff(args)
    kernel = _kernel_from_args(args, cut)
    plan = decay.SamplingPlan(seed=args.seed, weighted=args.weighted)
    if args.action == "envelope":
        path = _artifact(args, f"envelope_{args.family}_{args.n}.csv")
        decay.envelope_to_csv(decay.measure_envelope(kernel, plan), path)
        print(f"decay envelope: {args.family} n={args.n} -> {path}")
        return 0
    if args.action == "fit":
        if args.form == "poly":
            form = decay.Polynomial(args.sigma)
        else:
            form = decay.SubExponential(cut.spec.epsilon, cut.spec.log_depth)
        fit = decay.fit_bound(decay.measure_envelope(kernel, plan), form)
        _artifact(args, "fit.json", decay.fit_to_json(fit))
        print(
            f"decay fit: {args.family} n={args.n} form={args.form} c={fit.c:.4g} "
            f"rate={fit.c_rate} violations={fit.violations}"
        )
        return 0 if fit.satisfied else 1
    # compare
    cutoffs = [cut, cutoff_mod.build_control_cutoff(cut.spec.epsilon)]
    fits = decay.compare_cutoffs(
        args.family, args.n, cutoffs, epsilon=cut.spec.epsilon, plan=plan, params=kernel.params
    )
    _artifact(args, "compare.json", orthopoly._to_json([decay._fit_record(f) for f in fits]))
    smooth, control = fits[0].c_rate, fits[1].c_rate
    ordered = smooth > control
    # a fitted rate is nan or at least 1e-3, so the gap's divisor is never 0
    print(
        "decay compare: smooth rate {} vs control {} ".format(*_distinct(smooth, control))
        + f"relative gap {(smooth - control) / control:.2e} ordered={ordered}"
    )
    return 0 if ordered else 1


def _distinct(a, b):
    """a and b with the fewest significant digits, at least 4, that tell
    them apart (17 when they are equal)."""
    for digits in range(4, 18):
        if f"{a:.{digits}g}" != f"{b:.{digits}g}":
            break
    return f"{a:#.{digits}g}", f"{b:#.{digits}g}"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orthoframes",
        description="localized kernels and needlet frames for orthogonal expansions",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--out", default="orthoframes-out")
        p.add_argument("--seed", type=_seed, default=42)
        p.add_argument("--tolerance", type=float, default=None)

    p = sub.add_parser("cutoff", help="build or check cutoff profiles")
    p.add_argument("action", choices=("build", "check"))
    _add_cutoff_opts(p)
    common(p)
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("kernel", help="evaluate kernels or export value grids")
    p.add_argument("action", choices=("eval", "grid"))
    _add_family_opts(p, n=32)
    point = "a point: its coordinates, comma-separated (0.2,0.3 or -0.4,0.1)"
    p.add_argument("--x", type=_numbers, default="0.5", help=point)
    p.add_argument("--y", type=_numbers, default="0.25", help=point)
    p.add_argument("--count", type=_positive_int, default=200)
    _add_cutoff_opts(p)
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("quad", help="build or verify Gaussian rules")
    p.add_argument("action", choices=("build", "verify"))
    p.add_argument("--weight", default="jacobi", choices=quadrature._FAMILIES)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--degree", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("needlet", help="build frames, verify tightness")
    p.add_argument("action", choices=("build", "parseval", "roundtrip"))
    p.add_argument("--family", default="jacobi", choices=needlets._FAMILIES)
    p.add_argument("--alpha", type=float, help="default 0")
    p.add_argument("--beta", type=float, help="default 0")
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--trials", type=_positive_int, default=20)
    _add_cutoff_opts(p)
    common(p)
    p.set_defaults(func=cmd_needlet)

    p = sub.add_parser("decay", help="envelopes, bound fits, wavelet, counterexamples")
    p.add_argument(
        "action", choices=("envelope", "fit", "compare", "wavelet", "counterexample")
    )
    _add_family_opts(p, n=128)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--form", default="subexp", choices=("poly", "subexp"))
    p.add_argument("--sigma", type=float, default=4.0)
    p.add_argument("--variant", default="chebcheb", choices=kernels.TENSOR_VARIANTS)
    p.add_argument("--n-list", dest="n_list", default="32,64,128")
    _add_cutoff_opts(p)
    common(p)
    p.set_defaults(func=cmd_decay)

    return parser


def _join_points(argv):
    """argv with ``--x V`` and ``--y V`` written ``--x=V``: argparse would read
    a point whose first coordinate is negative, such as -0.4,0.1, as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--x", "--y"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv):
    """Entry point returning the process exit code."""
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(_join_points(argv))
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

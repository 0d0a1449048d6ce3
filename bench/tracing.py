"""Layer spans recorded from outside the library.

The layers call each other through module attributes (``quadrature.gauss_rule``,
``orthopoly._jacobi_values``, ...) and through a few class methods, which are
looked up at call time.  ``Tracer.install`` replaces those attributes with
timing wrappers and ``Tracer.uninstall`` puts the originals back, so the
library's source is untouched and untraced runs pay nothing.

Every wrapped call records one span (name, start, end, parent span, op id) in
compact in-memory columns.  A span's self time (its duration minus the time
its child spans cover) is charged to its layer group.  Counters are read from
the arguments and return values at the same boundaries, including the
numerical-health counts: non-finite and zero quadrature weights, empty
envelope bins, and needlet levels holding non-finite entries.
"""

import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from orthoframes import cutoff, decay, kernels, needlets, orthopoly, quadrature

# self-time groups, in report order
GROUPS = (
    "cutoff",
    "quadrature",
    "orthopoly",
    "kernels",
    "decay.envelope",
    "decay.fit",
    "needlets.build",
    "needlets.analyze",
    "needlets.synthesize",
    "needlets.basis",
)

_KERNEL_FUNCS = (
    "trig_kernel",
    "chebyshev_kernel",
    "jacobi_kernel",
    "jacobi_Q",
    "sphere_kernel",
    "ball_kernel",
    "simplex_kernel",
    "hermite_kernel",
    "laguerre_kernel",
    "laguerre_K_kernel",
    "tensor2d_kernel",
)
_ORTHOPOLY_FUNCS = (
    "_jacobi_values",
    "jacobi_all",
    "jacobi_norm",
    "jacobi_norms",
    "gegenbauer_all",
    "_hermite_fn_values",
    "hermite_fn_all",
    "_laguerre_core",
    "laguerre_fn_all",
)
_QUADRATURE_FUNCS = ("gauss_rule", "hermite_function_rule", "laguerre_function_rule")
_CUTOFF_FUNCS = (
    "assemble_cutoff",
    "build_control_cutoff",
    "build_bump",
    "estimate_derivative_norms",
    "check_partition_of_unity",
    "inverse_transform",
    "integrate_profile",
)


def _size(result):
    values = getattr(result, "values", result)  # OrthoValueTable or ndarray
    return int(np.size(values)), int(getattr(values, "nbytes", 8))


class Tracer:
    """Spans and counters for one traced run; one op is open at a time."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.op_names = []
        self._stack = []  # [span index, self-time key, child time]
        self._depth = defaultdict(int)
        self._patches = []
        self.op = None
        self._op_rules = set()
        self._wrap_layers()

    # -- op bookkeeping ---------------------------------------------------

    def begin_op(self, name):
        self.op_names.append(name)
        self.op = defaultdict(float)
        self._op_rules = set()

    def end_op(self):
        stats, self.op = self.op, None
        if self._op_rules:
            stats["quadrature.distinct_rules"] = len(self._op_rules)
        return dict(stats)

    # -- spans ------------------------------------------------------------

    def _enter(self, name_id, self_key, tag):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(len(self.op_names) - 1)
        self.span_end.append(math.nan)
        outer = self._depth[tag] == 0
        self._depth[tag] += 1
        self._stack.append([idx, self_key, 0.0])
        self.span_start.append(perf_counter())
        return outer

    def _exit(self, tag):
        end = perf_counter()
        idx, self_key, child = self._stack.pop()
        self._depth[tag] -= 1
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if self.op is not None:
            self.op[self_key] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, owner, attr, group, on_return=None, tag=None):
        """Prepare a span-recording wrapper for ``owner.attr``.

        ``on_return(result, args, outer)`` reads counters from the call;
        ``outer`` is true when no call with the same ``tag`` (default: the
        group's module) is already open, so nested calls count once.
        """
        orig = owner.__dict__[attr]
        tag = tag or group.split(".")[0]
        self_key = f"{group}.self_s"
        name_id = len(self.names)
        self.names.append(f"{group}:{attr}")
        tracer = self

        def wrapper(*args, **kwargs):
            outer = tracer._enter(name_id, self_key, tag)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit(tag)
            if on_return is not None and tracer.op is not None:
                on_return(result, args, outer)
            return result

        self._patches.append((owner, attr, orig, wrapper))

    def install(self):
        """Swap the wrappers in; the library runs traced until uninstall."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    # -- counters at the layer boundaries ---------------------------------

    def _on_rule(self, rule, args, outer):
        if not outer:
            return
        w = rule.weights
        self.op["quadrature.rules_built"] += 1
        self.op["quadrature.nodes_built"] += rule.m
        self.op["quadrature.nonfinite_weights"] += int(np.count_nonzero(~np.isfinite(w)))
        self.op["quadrature.zero_weights"] += int(np.count_nonzero(w == 0.0))
        self._op_rules.add((rule.weight, rule.m, rule.params))

    def _on_table(self, table, args, outer):
        if not outer:
            return
        entries, nbytes = _size(table)
        self.op["orthopoly.calls"] += 1
        self.op["orthopoly.table_entries"] += entries
        self.op["orthopoly.table_bytes"] += nbytes

    def _on_kernel(self, value, args, outer):
        if not outer:
            return
        pairs = int(np.size(value))
        self.op["kernels.pairs_evaluated"] += pairs
        if np.ndim(value) == 0:
            self.op["kernels.scalar_calls"] += 1
        if self._depth["decay.envelope"]:
            self.op["envelope_pairs"] += pairs

    def _on_distance(self, value, args, outer):
        self.op["kernels.distance_calls"] += 1
        if self._depth["decay.envelope"]:
            self.op["envelope_distances"] += 1

    def _on_profile(self, value, args, outer):
        self.op["cutoff.profile_points"] += int(np.size(args[1]))

    def _on_bump(self, bump, args, outer):
        delta, grid_points = args[0], args[3]
        self.op["cutoff.assemblies"] += 1
        self.op["cutoff.sinc_evals"] += len(delta) * int(grid_points)

    def _on_envelope(self, env, args, outer):
        self.op["decay.envelopes"] += 1
        self.op["decay.empty_bins"] += int(np.count_nonzero(env.values == 0.0))

    def _on_system(self, system, args, outer):
        for lvl in system.levels:
            self.op["needlets.matrix_bytes"] += lvl.needlet_matrix.nbytes
            if not np.all(np.isfinite(lvl.needlet_matrix)):
                self.op["needlets.nonfinite_levels"] += 1

    def _wrap_layers(self):
        for name in _CUTOFF_FUNCS:
            self.wrap(cutoff, name, "cutoff")
        self.wrap(cutoff, "_bump_from_delta", "cutoff", self._on_bump)
        self.wrap(cutoff.CutoffFunction, "__call__", "cutoff", self._on_profile)
        for name in _QUADRATURE_FUNCS:
            self.wrap(quadrature, name, "quadrature", self._on_rule)
        for name in _ORTHOPOLY_FUNCS:
            self.wrap(orthopoly, name, "orthopoly", self._on_table)
        for name in _KERNEL_FUNCS:
            self.wrap(kernels, name, "kernels", self._on_kernel, tag="kernels.eval")
        for name in ("__call__", "pair_values"):
            self.wrap(kernels.KernelInstance, name, "kernels", self._on_kernel, tag="kernels.eval")
        self.wrap(kernels, "distance", "kernels", self._on_distance)
        self.wrap(decay, "measure_envelope", "decay.envelope", self._on_envelope, tag="decay.envelope")
        self.wrap(decay, "fit_bound", "decay.fit")
        self.wrap(needlets, "build_needlet_system", "needlets.build", self._on_system)
        self.wrap(needlets, "analyze", "needlets.analyze")
        self.wrap(needlets, "parseval_check", "needlets.analyze")
        self.wrap(needlets, "synthesize", "needlets.synthesize")
        self.wrap(needlets.NeedletSystem, "basis_values", "needlets.basis")

    # -- output -----------------------------------------------------------

    def layer_calls(self):
        """Spans recorded per layer module."""
        counts = np.bincount(np.frombuffer(self.span_name, dtype=np.int32), minlength=len(self.names))
        out = defaultdict(int)
        for name, n in zip(self.names, counts):
            out[name.split(".")[0].split(":")[0]] += int(n)
        return dict(out)

    def save(self, path):
        """Write every span as compressed columns (names indexed by ``name``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            ops=np.array(self.op_names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )

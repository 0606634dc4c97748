"""Tracer for the benchmark's traced runs.

It wraps the public functions of each finslerlab layer from outside the
package.  A function is often bound in several module namespaces (for
example ``from .geodesics import integrate_geodesic`` in curvature, cli and
measures), so every finslerlab module attribute that *is* a wrapped
function is replaced, not only the defining module's.  The wrappers are
made once; install and uninstall put them in and take them out, so a run
can alternate traced and untraced ops.  Each wrapped call
becomes a span kept in memory.  Jet arithmetic is counted and timed in
aggregate instead, since one verify pass makes hundreds of thousands of
jet operations; only the outermost jet call is timed and its time is
charged to the enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import Counter

from stats import AGG, END, NAME, OP, PARENT, SIZE, START, layer_of, self_times

LAYERS = ("jets", "metrics", "minkowski", "geodesics", "curvature", "measures", "cli")

# Public functions left unwrapped.  The metric evaluators run inside every F
# evaluation; the jets module's polymorphic math also runs on plain floats
# and arrays, and on jets it calls the wrapped Jet methods.
SKIP = {
    "metrics": {"funk_unit_ball", "funk_general", "hilbert_metric"},
    "jets": {"sqrt", "log", "exp", "sin", "cos", "sinh", "cosh", "power",
             "smooth_max", "fd_oracle"},
}

# Jet methods and jets functions, by the counter they feed.
JET_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "_series": "series",
    "lift": "lift",
    "__neg__": "other", "__truediv__": "other", "__rtruediv__": "other",
    "__pow__": "other", "dx": "other", "dy": "other", "partial": "other",
    "_const_like": "other", "constant": "other",
}

RHS_NAMES = ("geodesics.spray_values", "geodesics.spray_gradients", "geodesics.spray_G_N")
TRANSPORT_NAMES = ("curvature.landsberg_by_transport", "curvature.landsberg_dot",
                   "curvature.mean_landsberg_by_transport")
DISTANCE_BATCH = ("metrics.funk_distance_batch", "metrics.hilbert_distance_batch")


def mul_table_len(n, mx, my):
    """Length of a jet product table: index pairs (a1, a2) in n variables
    with |a1 + a2| <= order are the multi-indices of total order <= order in
    2n variables, for the base and the fiber part alike."""
    return math.comb(2 * n + mx, 2 * n) * math.comb(2 * n + my, 2 * n)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.jet_depth = 0
        self.jet_counts = Counter()
        self.jet_seconds = Counter()   # outermost jet calls, by counter
        self.loose_jet_s = 0.0         # jet time outside every span
        self.mul_specs = Counter()     # jet x jet products by (n, mx, my)
        self._patches = None           # (owner, attribute, wrapper), made once
        self._sigma = []               # the same, for sigma_bh of metrics built traced
        self._restore = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, size=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapped(*args, **kw):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kw)
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args, kw, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def jet_op(self, counter, fn):
        counts, seconds, spans, stack = self.jet_counts, self.jet_seconds, self.spans, self.stack
        clock = time.perf_counter
        specs = self.mul_specs if counter == "mul" else None
        from finslerlab.jets import Jet

        def wrapped(*args, **kw):
            counts[counter] += 1
            if specs is not None and len(args) == 2 and type(args[1]) is Jet:
                specs[args[0].ctx.spec] += 1
            if self.jet_depth:
                return fn(*args, **kw)
            self.jet_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                dt = clock() - t0
                self.jet_depth = 0
                seconds[counter] += dt
                if stack:
                    spans[stack[-1]][AGG] += dt
                else:
                    self.loose_jet_s += dt

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions in every namespace binding them."""
        if self._patches is None:
            self._patches = self._make_patches()
        for owner, attr, value in self._patches + self._sigma:
            self._set(owner, attr, value)
        return self

    def _make_patches(self):
        patches = []
        mods = {layer: importlib.import_module(f"finslerlab.{layer}") for layer in LAYERS}
        from scipy.integrate import solve_ivp

        wrappers = {}  # original function -> wrapper
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in SKIP.get(layer, ())):
                    if layer == "jets":
                        wrappers[obj] = self.jet_op(JET_OPS.get(name, "other"), obj)
                    else:
                        wrappers[obj] = self.span(f"{layer}.{name}", obj, _size_for(name, obj))
        # the ODE solver is scipy's, but every flow calls it through geodesics
        wrappers[solve_ivp] = self.span("geodesics.solve_ivp", solve_ivp,
                                        lambda a, k, out: int(out.status == 1))

        for mod in [m for k, m in sorted(sys.modules.items())
                    if (k == "finslerlab" or k.startswith("finslerlab.")) and m is not None]:
            for name, obj in list(vars(mod).items()):
                try:
                    w = wrappers.get(obj)
                except TypeError:  # unhashable attribute
                    continue
                if w is not None:
                    patches.append((mod, name, w))

        Jet = mods["jets"].Jet
        for name, counter in JET_OPS.items():
            if name in Jet.__dict__:
                patches.append((Jet, name, self.jet_op(counter, Jet.__dict__[name])))

        MetricSpec = mods["metrics"].MetricSpec
        for name in ("F", "F_batch", "jet"):
            fn = MetricSpec.__dict__[name]
            patches.append((MetricSpec, name,
                            self.span(f"metrics.{name}", fn, _size_for(name, fn))))
        init = MetricSpec.__init__

        def init_and_wrap_sigma(spec, *args, **kw):
            init(spec, *args, **kw)
            if spec.sigma_bh is not None:
                patch = (spec, "sigma_bh",
                         self.span("metrics.sigma_bh", spec.sigma_bh, _out_points))
                self._sigma.append(patch)
                self._set(*patch)

        patches.append((MetricSpec, "__init__", init_and_wrap_sigma))

        geo = mods["geodesics"]
        patches.append((geo.VariationalFlow, "unpack",
                        self.span("geodesics.VariationalFlow.unpack", geo.VariationalFlow.unpack)))
        patches.append((geo.GeodesicPath, "state",
                        self.span("geodesics.GeodesicPath.state", geo.GeodesicPath.state)))
        return patches

    def start_ops(self):
        """Forget the jet counters of set-up: per-layer metrics cover the ops."""
        self.jet_counts.clear()
        self.jet_seconds.clear()
        self.mul_specs.clear()
        self.loose_jet_s = 0.0

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def layer_table(self, step_widenings=0):
        """Per-layer counts and self times of the ops, derived from the spans;
        metrics.make_s also counts set-up.  Returns the table, self time by
        layer, and the self time of every span."""
        all_spans = self.spans
        selfs = self_times(all_spans)
        self_s = Counter()
        calls = Counter()
        sizes = Counter()
        for rec, s in zip(all_spans, selfs):
            if rec[OP] >= 0:
                self_s[layer_of(rec[NAME])] += s
                calls[rec[NAME]] += 1
                sizes[rec[NAME]] += rec[SIZE]
        spans = [rec for rec in all_spans if rec[OP] >= 0]

        def parent_name(rec):
            return all_spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""

        def outermost(rec, name):
            p = rec[PARENT]
            while p >= 0:
                if all_spans[p][NAME] == name:
                    return False
                p = all_spans[p][PARENT]
            return True

        jets_self = sum(rec[AGG] for rec in spans) + self.loose_jet_s
        mc_points = sizes["measures.bh_volume"]
        density_points = sum(rec[SIZE] if rec[NAME] == "metrics.sigma_bh" else 1
                             for rec in spans
                             if rec[NAME] in ("metrics.sigma_bh", "minkowski.bh_density")
                             and parent_name(rec) == "measures.bh_volume")
        ivp = calls["geodesics.solve_ivp"]
        rhs = sum(calls[n] for n in RHS_NAMES)
        t = {
            "jets.mul_calls": self.jet_counts["mul"],
            "jets.add_calls": self.jet_counts["add"],
            "jets.series_calls": self.jet_counts["series"],
            "jets.lift_calls": self.jet_counts["lift"],
            "jets.other_calls": self.jet_counts["other"],
            "jets.mul_terms": sum(c * mul_table_len(s.n, s.max_x_order, s.max_y_order)
                                  for s, c in self.mul_specs.items()),
            "jets.self_s": jets_self,
            "metrics.F_calls": calls["metrics.F"],
            "metrics.F_batch_points": sizes["metrics.F_batch"],
            "metrics.jet_calls": calls["metrics.jet"],
            "metrics.distance_batch_points": sum(
                rec[SIZE] for rec in spans
                if rec[NAME] in DISTANCE_BATCH and parent_name(rec) not in DISTANCE_BATCH),
            "metrics.make_s": sum(rec[END] - rec[START] for rec in all_spans
                                  if rec[NAME] == "metrics.make_metric"
                                  and outermost(rec, "metrics.make_metric")),
            "metrics.self_s": self_s["metrics"],
            "minkowski.fundamental_tensor_calls": calls["minkowski.fundamental_tensor"],
            "minkowski.bh_density_calls": calls["minkowski.bh_density"],
            "minkowski.self_s": self_s["minkowski"],
            "geodesics.ivp_solves": ivp,
            "geodesics.rhs_evals": rhs,
            "geodesics.rhs_per_solve": rhs / ivp if ivp else 0.0,
            "geodesics.spray_jets_calls": calls["geodesics.spray_jets"],
            "geodesics.chart_exits": sizes["geodesics.solve_ivp"],
            "geodesics.self_s": self_s["geodesics"],
            "curvature.riemann_calls": calls["curvature.riemann_curvature"],
            "curvature.s_curvature_calls": calls["curvature.s_curvature"],
            "curvature.landsberg_transport_calls": sum(calls[n] for n in TRANSPORT_NAMES),
            "curvature.step_widenings": step_widenings,
            "curvature.self_s": self_s["curvature"],
            "measures.mc_points": mc_points,
            "measures.polar_dirs": sum(1 for rec in spans
                                       if rec[NAME] == "geodesics.variational_flow"
                                       and parent_name(rec) == "measures.polar_ball_volumes"),
            "measures.mc_density_ratio": density_points / mc_points if mc_points else 0.0,
            "measures.self_s": self_s["measures"],
            "cli.self_s": self_s["cli"],
            "trace.spans": len(spans),
        }
        return t, self_s, selfs


def _out_points(args, kw, out):
    """Points of a batch call, read off its per-point output."""
    return int(getattr(out, "size", 1))


def _requested_samples(fn):
    sig = inspect.signature(fn)
    default = sig.parameters["n_samples"].default
    return lambda args, kw, out: sig.bind(*args, **kw).arguments.get("n_samples", default)


# per-name span sizes: factories taking the wrapped function
_SIZES = {
    "F_batch": lambda fn: _out_points,
    "funk_distance_batch": lambda fn: _out_points,
    "hilbert_distance_batch": lambda fn: _out_points,
    "bh_volume": _requested_samples,
}


def _size_for(name, fn):
    factory = _SIZES.get(name)
    return factory(fn) if factory else None

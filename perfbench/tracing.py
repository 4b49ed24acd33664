"""Spans and counts around slicereg's public entry points.

The tracer patches functions and methods of the imported ``slicereg``
modules from outside; nothing in the program changes.  Each wrapped call
records a span (name, start, end, parent span, operation id) in flat
arrays kept in memory, written out once at the end.  Counts that need a
look at arguments or results (products, points, series orders) are
gathered by small hooks at the same boundaries.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

import slicereg
from slicereg import hyperbolic, interpolation, moebius, qarray, series, verify

LAYERS = ("qarray", "series", "moebius", "hyperbolic", "interpolation", "verify")
SUITE_NAMES = ("spl", "spl3", "multi", "dieudonne", "goluzin", "balpha")
NODE_CLASSES = ("Const", "Identity", "Moebius", "Sum", "StarMul", "StarInv",
                "Conj", "Bullet", "SeriesFunc")

# wrapped functions, as (module, attribute, span name)
FUNCTIONS = [
    (qarray, "qmul", "qarray.qmul"),
    (qarray, "qrotate", "qarray.qrotate"),
    (series, "evaluate", "series.evaluate"),
    (series, "evaluate_many", "series.evaluate_many"),
    (series, "star_mul", "series.star_mul"),
    (series, "star_inverse", "series.star_inverse"),
    (series, "left_linear_divide", "series.left_linear_divide"),
    (moebius, "expr_to_series", "moebius.expr_to_series"),
    (hyperbolic, "hyperbolic_quotient", "hyperbolic.hyperbolic_quotient"),
    (hyperbolic, "quotient_series", "hyperbolic.quotient_series"),
    (hyperbolic, "hyperbolic_derivative", "hyperbolic.hyperbolic_derivative"),
    (hyperbolic, "detect_unimodular_constant",
     "hyperbolic.detect_unimodular_constant"),
    (interpolation, "build_q_table", "interpolation.build_q_table"),
    (interpolation, "classify", "interpolation.classify"),
    (interpolation, "pick_matrix", "interpolation.pick_matrix"),
    (interpolation, "psd_check", "interpolation.psd_check"),
    (interpolation, "build_solution", "interpolation.build_solution"),
    (verify, "check_self_map", "verify.check_self_map"),
    (verify, "crosscheck", "verify.crosscheck"),
]
SPAN_NAMES = ([name for _, _, name in FUNCTIONS]
              + ["moebius.eval", "moebius.eval_many", "hyperbolic.eval_series"]
              + [f"verify.run_suite.{s}" for s in SUITE_NAMES])


class Tracer:
    """Span store and counters for one traced pass."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.layer_of = [LAYERS.index(n.split(".")[0]) for n in self.names]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_outer = array("b")  # no enclosing span of the same name
        self.span_layer_outer = array("b")  # ... of the same layer
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.active_name = [0] * len(self.names)
        self.active_layer = [0] * len(LAYERS)
        self.counts = defaultdict(float)
        self.op = -1
        self.tag = None
        self._last_lowered = None  # series of the latest expr_to_series
        self._last_quotient_order = 0  # latest HyperbolicQuotient order
        self._undo = []

    # -- spans ------------------------------------------------------------

    def begin(self, nid: int) -> int:
        layer = self.layer_of[nid]
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_outer.append(self.active_name[nid] == 0)
        self.span_layer_outer.append(self.active_layer[layer] == 0)
        self.active_name[nid] += 1
        self.active_layer[layer] += 1
        self.stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()
        nid = self.span_name[idx]
        self.active_name[nid] -= 1
        self.active_layer[self.layer_of[nid]] -= 1

    def _span(self, name, fn, hook=None):
        nid = self.name_ids[name]

        def wrapper(*args, **kwargs):
            idx = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(args, kwargs, out, idx)
            return out
        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind every slicereg module name that refers to ``original``."""
        for mod in (slicereg, qarray, series, moebius, hyperbolic,
                    interpolation, verify):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        hooks = {
            "qarray.qmul": self._count_qmul,
            "series.evaluate_many": self._count_terms,
            "moebius.expr_to_series": self._count_lowering,
            "interpolation.build_q_table": self._count_cells,
            "verify.crosscheck": self._count_vacuous,
        }
        for mod, attr, name in FUNCTIONS:
            fn = vars(mod)[attr]
            self._replace_everywhere(fn, self._span(name, fn, hooks.get(name)))
        self._install_methods()
        self._install_run_suite()
        self._install_counters()

    def _install_methods(self):
        base = moebius.FunctionExpr
        self._set(base, "eval", self._span("moebius.eval", base.eval))
        for cls_name in NODE_CLASSES:
            cls = getattr(moebius, cls_name)
            self._set(cls, "eval_many", self._span(
                "moebius.eval_many", cls.eval_many, self._count_node_eval))
            self._set(cls, "to_series", self._counter(
                "moebius.to_series.calls", cls.to_series))
        hq = hyperbolic.HyperbolicQuotient
        self._set(hq, "eval_series", self._span(
            "hyperbolic.eval_series", hq.eval_series, self._count_eval_series))
        orig_to_series = hq.to_series

        def to_series(obj, order=series.DEFAULT_ORDER):
            self._last_quotient_order = order
            return orig_to_series(obj, order)
        self._set(hq, "to_series", to_series)

    def _install_run_suite(self):
        orig = verify.run_suite
        ids = {s: self.name_ids[f"verify.run_suite.{s}"] for s in SUITE_NAMES}

        def run_suite(name, f, cfg):
            idx = self.begin(ids[name])
            try:
                return orig(name, f, cfg)
            finally:
                self.end(idx)
        self._replace_everywhere(orig, run_suite)

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _install_counters(self):
        for cls, key in ((slicereg.Quaternion, "quaternion.objects"),
                         (series.TaylorSeries, "series.TaylorSeries.created")):
            self._set(cls, "__init__", self._counter(key, cls.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- count hooks ------------------------------------------------------

    def _count_qmul(self, args, kwargs, out, idx):
        self.counts["qarray.qmul.products"] += out.size // 4
        # computed from array sizes: both operands read, the result written
        self.counts["qarray.qmul.bytes"] += 8 * (np.size(args[0])
                                                 + np.size(args[1]) + out.size)

    def _count_terms(self, args, kwargs, out, idx):
        f, points = args[0], args[1]
        self.counts["series.evaluate_many.terms"] += len(points) * f.order

    def _count_lowering(self, args, kwargs, out, idx):
        self.counts["moebius.series_order.sum"] += out.order
        tail = out.tail_bound(kwargs.get("r_max", 0.95))
        self.counts["moebius.series_tail"] = max(
            self.counts["moebius.series_tail"], tail)
        self._last_lowered = out

    def _count_cells(self, args, kwargs, out, idx):
        self.counts["interpolation.q_cells"] += len(out.cells)

    def _count_vacuous(self, args, kwargs, out, idx):
        lowered, self._last_lowered = self._last_lowered, None
        if lowered is not None and \
                lowered.tail_bound(args[1].radius_cap) > out.tolerance:
            self.counts["verify.crosscheck.vacuous"] += 1

    def _count_node_eval(self, args, kwargs, out, idx):
        tag = self.tag
        self.counts[f"node_evals.{tag}"] += 1
        if self.span_outer[idx]:
            self.counts[f"tree_evals.{tag}"] += 1
            self.counts["moebius.eval_many.points"] += len(args[1])

    def _count_eval_series(self, args, kwargs, out, idx):
        self.counts["hyperbolic.eval_series.order.sum"] += \
            self._last_quotient_order

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def summary(self, ops: int):
        """Per-name and per-layer calls, time_s and self_s, and the counts.

        time_s sums the spans with no enclosing span of the same name (or
        layer), so recursion is not counted twice; self_s is a span's
        duration minus the durations of its direct children.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        self_t = dur - child
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        louter = np.frombuffer(self.span_layer_outer, dtype=np.int8).astype(bool)
        layer = np.asarray(self.layer_of)[name]
        out = {}
        for nid, n in enumerate(self.names):
            sel = name == nid
            out[f"{n}.calls"] = int(sel.sum())
            out[f"{n}.time_s"] = float(dur[sel & outer].sum())
            out[f"{n}.self_s"] = float(self_t[sel].sum())
        for lid, lname in enumerate(LAYERS):
            sel = layer == lid
            out[f"{lname}.calls"] = int(sel.sum())
            out[f"{lname}.time_s"] = float(dur[sel & louter].sum())
            out[f"{lname}.self_s"] = float(self_t[sel].sum())
        c = self.counts
        out["quaternion.objects"] = c["quaternion.objects"] / max(ops, 1)
        for key in ("qarray.qmul.products", "qarray.qmul.bytes",
                    "series.evaluate_many.terms", "series.TaylorSeries.created",
                    "moebius.eval_many.points", "moebius.to_series.calls",
                    "interpolation.q_cells", "verify.crosscheck.vacuous",
                    "moebius.series_tail"):
            out[key] = c[key]
        out["moebius.series_order"] = _ratio(
            c["moebius.series_order.sum"], out["moebius.expr_to_series.calls"])
        out["hyperbolic.eval_series.order"] = _ratio(
            c["hyperbolic.eval_series.order.sum"],
            out["hyperbolic.eval_series.calls"])
        trees = sum(v for k, v in c.items() if k.startswith("tree_evals."))
        nodes = sum(v for k, v in c.items() if k.startswith("node_evals."))
        out["moebius.node_evals"] = _ratio(nodes, trees)
        for n in range(2, 9):
            out[f"moebius.node_evals.n{n}"] = _ratio(
                c[f"node_evals.{n}"], c[f"tree_evals.{n}"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0

"""Spans recorded from outside qholo, and the per-layer metrics derived from them.

`Tracer.install` replaces every binding of each traced function -- the
defining module's attribute, names imported into other qholo modules, the
re-exports in `qholo/__init__` and the `ModelDomain` sampling methods -- with
a wrapper that records a span (name, start, end, parent, work count).  Spans
stay in memory until `Tracer.dump`.  `layer_metrics` turns one dump into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# Layers are the qholo modules; the cli layer is the public cli.run alone.
LAYERS = ("expr", "forms", "levi", "hull", "peak", "cli", "fileio")
METHODS = (("peak", "ModelDomain", "sample_interior"),
           ("peak", "ModelDomain", "sample_boundary"))


def _path_bytes(args, result):
    return os.path.getsize(args[0])


# Work counts recorded with the span, from the call's arguments or result.
WORK = {
    "expr.eval_batch": lambda args, result: len(result),
    "levi.sample_boundary": lambda args, result: len(result),
    "hull.discrete_hull": lambda args, result: len(args[0].Z),
    "fileio.dump_json": _path_bytes,
    "fileio.write_points_csv": _path_bytes,
}


class Tracer:
    """Wraps qholo's public functions; one instance per traced process."""

    def __init__(self):
        self.names = []
        self.spans = []         # (name index, start ns, end ns, parent, work)
        self._stack = []
        self._patches = []      # (owner, attribute, original)

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, 0)
            if work is not None:
                spans[idx] = (nid, start, end, parent, work(args, result))
            return result

        return traced

    def install(self, qholo):
        """Wrap every public function of each layer wherever it is bound."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{qholo.__name__}.{layer}")
            names = ["run"] if layer == "cli" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "qholo" or k.startswith("qholo.")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, val, wrappers[val])
        for layer, cls_name, attr in METHODS:
            cls = getattr(getattr(qholo, layer), cls_name)
            fn = cls.__dict__[attr]
            self._patch(cls, attr, fn,
                        self._wrap(fn, f"{layer}.{cls_name}.{attr}"))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


# ---------------------------------------------------------------- derivation

# name -> (unit, better); the per-layer metrics, in report order.
LAYER_METRICS = {
    "expr.eval_jet2.calls": ("count", "lower"),
    "expr.eval_jet2.self_s": ("s", "lower"),
    "expr.eval_batch.calls": ("count", "lower"),
    "expr.eval_batch.points": ("count", "higher"),
    "expr.eval_batch.self_s": ("s", "lower"),
    "expr.eval_value.calls": ("count", "lower"),
    "expr.eval_value.self_s": ("s", "lower"),
    "expr.finite_diff_jet.calls": ("count", "lower"),
    "expr.finite_diff_jet.self_s": ("s", "lower"),
    "expr.parse.self_s": ("s", "lower"),
    "forms.residual_from_jet.calls": ("count", "lower"),
    "forms.residual_from_jet.s": ("s", "lower"),
    "forms.wedge.calls": ("count", "lower"),
    "forms.wedge.self_s": ("s", "lower"),
    "levi.eig_signature.calls": ("count", "lower"),
    "levi.eig_signature.s": ("s", "lower"),
    "levi.sample_boundary.points": ("count", "higher"),
    "levi.sample_boundary.s": ("s", "lower"),
    "levi.sample_boundary.jets_per_point": ("ratio", "lower"),
    "levi.classify_boundary_point.s": ("s", "lower"),
    "hull.certify_member.calls": ("count", "lower"),
    "hull.certify_member.s": ("s", "lower"),
    "hull.discrete_hull.candidates": ("count", "higher"),
    "hull.discrete_hull.s": ("s", "lower"),
    "hull.run_theorem2_batch.s": ("s", "lower"),
    "peak.assemble_peak.s": ("s", "lower"),
    "peak.assemble_peak.tries": ("count", "lower"),
    "peak.verify_peak.s": ("s", "lower"),
    "peak.select_slice.s": ("s", "lower"),
    "peak.sample_interior.s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "fileio.write.self_s": ("s", "lower"),
    "fileio.write.bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit != "s")


def _summarize(names, spans):
    """Per span name: calls, self seconds, outermost inclusive seconds, work,
    and calls of each name nested under each other name."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_ns, incl_ns, work, under = {}, {}, {}, {}, {}
    for i, (nid, start, end, parent, k) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start - child[i])
        work[name] = work.get(name, 0) + k
        ancestors = set()
        a = parent
        while a >= 0:
            ancestors.add(names[spans[a][0]])
            a = spans[a][3]
        if name not in ancestors:
            incl_ns[name] = incl_ns.get(name, 0) + (end - start)
        for anc in ancestors:
            under[(name, anc)] = under.get((name, anc), 0) + 1
    return calls, self_ns, incl_ns, work, under


def layer_metrics(dump):
    """Per-layer metrics of one traced iteration (all but trace.overhead_s).

    Also returns the sum of all self times, which equals the time covered by
    the top-level spans.
    """
    calls, self_ns, incl_ns, work, under = _summarize(dump["names"], dump["spans"])

    def c(name):
        return calls.get(name, 0)

    def self_s(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def s(name):
        return incl_ns.get(name, 0) / 1e9

    points = work.get("levi.sample_boundary", 0)
    out = {
        "expr.eval_jet2.calls": c("expr.eval_jet2"),
        "expr.eval_jet2.self_s": self_s("expr.eval_jet2"),
        "expr.eval_batch.calls": c("expr.eval_batch"),
        "expr.eval_batch.points": work.get("expr.eval_batch", 0),
        "expr.eval_batch.self_s": self_s("expr.eval_batch"),
        "expr.eval_value.calls": c("expr.eval_value"),
        "expr.eval_value.self_s": self_s("expr.eval_value"),
        "expr.finite_diff_jet.calls": c("expr.finite_diff_jet"),
        "expr.finite_diff_jet.self_s": self_s("expr.finite_diff_jet"),
        "expr.parse.self_s": self_s("expr.parse"),
        "forms.residual_from_jet.calls": c("forms.residual_from_jet"),
        "forms.residual_from_jet.s": s("forms.residual_from_jet"),
        "forms.wedge.calls": c("forms.wedge"),
        "forms.wedge.self_s": self_s("forms.wedge"),
        "levi.eig_signature.calls": c("levi.eig_signature"),
        "levi.eig_signature.s": s("levi.eig_signature"),
        "levi.sample_boundary.points": points,
        "levi.sample_boundary.s": s("levi.sample_boundary"),
        "levi.sample_boundary.jets_per_point":
            under.get(("expr.eval_jet2", "levi.sample_boundary"), 0) / points
            if points else 0.0,
        "levi.classify_boundary_point.s": s("levi.classify_boundary_point"),
        "hull.certify_member.calls": c("hull.certify_member"),
        "hull.certify_member.s": s("hull.certify_member"),
        "hull.discrete_hull.candidates": work.get("hull.discrete_hull", 0),
        "hull.discrete_hull.s": s("hull.discrete_hull"),
        "hull.run_theorem2_batch.s": s("hull.run_theorem2_batch"),
        "peak.assemble_peak.s": s("peak.assemble_peak"),
        "peak.assemble_peak.tries":
            under.get(("expr.eval_batch", "peak.assemble_peak"), 0),
        "peak.verify_peak.s": s("peak.verify_peak"),
        "peak.select_slice.s": s("peak.select_slice"),
        "peak.sample_interior.s": s("peak.ModelDomain.sample_interior"),
        "cli.run.self_s": self_s("cli.run"),
        "fileio.write.self_s": self_s("fileio.dump_json", "fileio.write_points_csv"),
        "fileio.write.bytes": (work.get("fileio.dump_json", 0)
                               + work.get("fileio.write_points_csv", 0)),
    }
    return out, sum(self_ns.values()) / 1e9

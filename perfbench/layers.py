"""Per-layer tracing of treeselect from outside the package.

The traced run replaces each public function named in LAYERS with a wrapper
at every place that binds it (the defining module, the package namespace and
every module that imported the name), so calls made inside the library are
seen too.  A wrapper records calls, busy time (inclusive) and self time
(busy time minus the time of traced calls nested directly in it), plus the
work counters listed per layer.  Spans live in memory only.

The wrapping fails loudly: a function in LAYERS that no longer exists, or
that has left one of its REQUIRED_SITES, raises TraceError instead of
reporting zero.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter


class TraceError(RuntimeError):
    """The layers to trace no longer match the program."""


def _best_split(counters, args, result, parent):
    data, rows = args[0], args[1]
    counters["cells"] += len(rows) * data.p
    counters["hits"] += result is not None


def _grow_maximal(counters, args, result, parent):
    counters["leaves"] += result.n_leaves


def _weakest_link(counters, args, result, parent):
    counters["leaves_in"] += args[0].n_leaves
    counters["seq_len"] += len(result.subtrees)
    # cv_select_alpha scores one candidate alpha per critical-alpha interval
    # of the sequence it builds first, on the full data
    if parent is not None and parent.layer == "penalties.cv_select_alpha" \
            and not parent.saw_full_sequence:
        parent.saw_full_sequence = True
        parent.counters["candidates"] += len(result.alphas)


def _loss_estimate(counters, args, result, parent):
    spec, m = args[1], args[2]
    counters["cells"] += m * spec.p


def _predict_batch(counters, args, result, parent):
    counters["rows"] += len(args[1])


def _generate(counters, args, result, parent):
    spec = args[0]
    counters["cells"] += spec.n * spec.p


# layer name -> (attribute path inside treeselect, measures reported, hook)
LAYERS = {
    "designs.generate": ("designs.generate", ("calls", "busy_s", "cells"), _generate),
    "grow.best_split": ("grow.best_split", ("calls", "busy_s", "cells", "hit_frac"),
                        _best_split),
    "grow.grow_maximal": ("grow.grow_maximal", ("calls", "busy_s", "self_s", "leaves"),
                          _grow_maximal),
    "prune.weakest_link": ("prune.weakest_link",
                           ("calls", "busy_s", "leaves_in", "seq_len"), _weakest_link),
    "prune.best_in_sequence": ("prune.best_in_sequence", ("calls", "busy_s"), None),
    "penalties.cv_select_alpha": ("penalties.cv_select_alpha",
                                  ("calls", "busy_s", "self_s", "candidates"), None),
    "penalties.select_tree": ("penalties.select_tree", ("calls", "busy_s"), None),
    "tree.loss_estimate": ("tree.loss_estimate", ("calls", "busy_s", "self_s", "cells"),
                           _loss_estimate),
    "tree.predict_batch": ("tree.TreeClassifier.predict_batch",
                           ("calls", "busy_s", "rows"), _predict_batch),
    "oracle.brute_force_best_subtree": ("oracle.brute_force_best_subtree",
                                        ("calls", "busy_s"), None),
    "oracle.exhaustive_select": ("oracle.exhaustive_select", ("calls", "busy_s"), None),
}

# Bindings the library's own call paths go through.  Losing one would make a
# layer read zero without any error, so each must be present and wrapped.
REQUIRED_SITES = (
    "treeselect.designs.generate",
    "treeselect.tree.generate",
    "treeselect.grow.best_split",
    "treeselect.grow.grow_maximal",
    "treeselect.penalties.grow_maximal",
    "treeselect.prune.weakest_link",
    "treeselect.penalties.weakest_link",
    "treeselect.prune.best_in_sequence",
    "treeselect.penalties.best_in_sequence",
    "treeselect.penalties.cv_select_alpha",
    "treeselect.penalties.select_tree",
    "treeselect.tree.loss_estimate",
    "treeselect.tree.TreeClassifier.predict_batch",
    "treeselect.oracle.brute_force_best_subtree",
    "treeselect.oracle.exhaustive_select",
)

UNITS = {"calls": "count/op", "busy_s": "s/op", "self_s": "s/op", "cells": "count/op",
         "hit_frac": "frac", "leaves": "count/op", "leaves_in": "count/op",
         "seq_len": "count/op", "candidates": "count/op", "rows": "count/op"}


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    return [(f"{layer}.{measure}", UNITS[measure])
            for layer, (_, measures, _) in LAYERS.items() for measure in measures]


class _Span:
    __slots__ = ("layer", "counters", "child_s", "saw_full_sequence")

    def __init__(self, layer, counters):
        self.layer = layer
        self.counters = counters
        self.child_s = 0.0
        self.saw_full_sequence = False


class Tracer:
    """Per-layer totals over the operations run inside `traced()`."""

    def __init__(self):
        self._stack: list[_Span] = []
        self.totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "cells": 0,
                               "hits": 0, "leaves": 0, "leaves_in": 0, "seq_len": 0,
                               "candidates": 0, "rows": 0}
                       for layer in LAYERS}
        self._sites = _find_sites()

    def _wrap(self, layer, fn, hook):
        stack = self._stack
        counters = self.totals[layer]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = _Span(layer, counters)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                stack.pop()
                counters["calls"] += 1
                counters["busy_s"] += busy
                counters["self_s"] += busy - span.child_s
                if parent is not None:
                    parent.child_s += busy
            if hook is not None:
                hook(counters, args, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def traced(self):
        """Install the wrappers for the duration of the block."""
        wrappers = {layer: self._wrap(layer, fn, LAYERS[layer][2])
                    for layer, (fn, _) in self._sites.items()}
        try:
            for layer, (_, owners) in self._sites.items():
                for owner, attr in owners:
                    setattr(owner, attr, wrappers[layer])
            yield
        finally:
            for layer, (fn, owners) in self._sites.items():
                for owner, attr in owners:
                    setattr(owner, attr, fn)

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation averages over `ops` traced operations."""
        out = {}
        for layer, (_, measures, _) in LAYERS.items():
            tot = self.totals[layer]
            for measure in measures:
                if measure == "hit_frac":
                    value = tot["hits"] / tot["calls"] if tot["calls"] else 0.0
                else:
                    value = tot[measure] / ops
                out[f"{layer}.{measure}"] = value
        return out

    def missing(self, expected) -> list[str]:
        """Layers among `expected` that recorded no call."""
        return [layer for layer in expected if self.totals[layer]["calls"] == 0]


def _find_sites() -> dict:
    """layer -> (original function, [(owner, attribute), ...]) for every
    binding of the function in the loaded treeselect modules."""
    ts = importlib.import_module("treeselect")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "treeselect" or name.startswith("treeselect."))]
    sites = {}
    found_names = set()
    for layer, (path, _, _) in LAYERS.items():
        owner, fn = None, ts
        for part in path.split("."):
            owner, fn = fn, getattr(fn, part, None)
            if fn is None:
                raise TraceError(f"layer {layer}: treeselect.{path} no longer exists")
        owners = []
        if isinstance(owner, type):  # a method: bound on its class only
            owners.append((owner, part))
            found_names.add(f"treeselect.{path}")
        else:
            for mod in modules:
                for attr, val in vars(mod).items():
                    if val is fn:
                        owners.append((mod, attr))
                        found_names.add(f"{mod.__name__}.{attr}")
        sites[layer] = (fn, owners)
    lost = [site for site in REQUIRED_SITES if site not in found_names]
    if lost:
        raise TraceError("traced functions no longer bound where the library calls "
                         "them: " + ", ".join(lost))
    return sites

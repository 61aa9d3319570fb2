"""In-memory span tracer for the setdecomp layers.

The tracer wraps the public functions of each setdecomp module at every
place the function object is bound: in its defining module, in every
module that did ``from .x import name``, and in the package namespace.
It also wraps ``scipy.optimize.linprog``, which the simplex presolve
imports afresh on each call.  Nothing inside the program is edited; the
spans sit at the boundaries between the benchmark and each layer and
between layers.

A span records (id, parent id, request id, layer, function, start, end).
A layer's self time is the sum over its spans of the duration minus the
duration of the span's direct children.  Counters are recorded at the
same boundaries, so every count is made where the work happens.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

LAYERS = ("cli", "core", "alternating", "coverage", "charges", "simplex", "decompose", "graphs")

# Public helpers called once per table entry or per assignment; a span
# around each call would cost more than the work it measures.
HOT_HELPERS = {
    "core": {"popcount", "to_rational", "format_rational"},
    "alternating": {"alt_sum", "alt_sum_recursive_check"},
}

CORE_PREDICATES = {
    "is_submodular", "is_supermodular", "is_increasing", "is_decreasing",
    "is_modular", "is_modular_on_pair", "global_submodularity_check",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 1
        self._request = -1
        self._scanned: set = set()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import scipy.optimize

        modules = {layer: sys.modules[f"setdecomp.{layer}"] for layer in LAYERS}
        binders = list(modules.values()) + [sys.modules["setdecomp"]]
        for layer, mod in modules.items():
            skip = HOT_HELPERS.get(layer, set())
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or name in skip
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for binder in binders:
                    for attr, value in list(vars(binder).items()):
                        if value is fn:
                            self._patch(binder, attr, wrapper)
        self._patch(scipy.optimize, "linprog", self._wrap_linprog(scipy.optimize.linprog))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording -------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self._request = request_id
        self._scanned = set()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent_id, parent_layer = stack[-1] if stack else (0, "")
            if parent_layer != layer:
                tracer.counts[f"{layer}.calls"] += 1
            tracer._count(layer, name, args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent_id, tracer._request, layer, name, start, end))

        return wrapper

    def _wrap_linprog(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # counted inside the simplex layer's self time, not as a child
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.counts["simplex.presolve_calls"] += 1
                tracer.counts["simplex.presolve_s"] += time.perf_counter() - start

        return wrapper

    def _in_layer(self, layer: str) -> bool:
        return any(entry[1] == layer for entry in self._stack)

    def _count(self, layer: str, name: str, args, kwargs) -> None:
        c = self.counts
        if layer == "core" and name in CORE_PREDICATES:
            c["core.predicate_calls"] += 1
            c["core.table_cells"] += len(args[0].values)
            if self._in_layer("charges"):
                c["charges.predicate_calls"] += 1
        elif layer == "alternating" and name == "is_weakly_k_alternating":
            f, k = args[0], (args[1] if len(args) > 1 else kwargs["k"])
            c["alternating.weak_scans"] += 1
            c["alternating.assignments"] += (k + 2) ** f.ground.n
            key = (f.values, k)
            if key in self._scanned:
                c["alternating.repeat_scans"] += 1
            self._scanned.add(key)
        elif layer == "coverage" and name in ("to_coefficients", "from_coefficients"):
            c["coverage.transforms"] += 1
            c["coverage.cells"] += args[0].ground.size
        elif layer == "simplex" and name == "solve_lp":
            lp = args[0]
            c["simplex.generic_calls"] += 1
            c["simplex.lp_cells"] += len(lp.constraints) * lp.num_vars
        elif layer == "simplex" and name == "solve_min_nonneg":
            rows, costs = args[0], args[2]
            c["simplex.structured_calls"] += 1
            c["simplex.lp_cells"] += len(rows) * len(costs)
        elif layer == "graphs" and name == "cut_function":
            c["graphs.cut_table_builds"] += 1

    # -- reduction -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        child_time: Dict[int, float] = {}
        for _, parent, _, _, _, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {layer: 0.0 for layer in LAYERS}
        for span_id, _, _, layer, _, start, end in self.spans:
            out[layer] += (end - start) - child_time.get(span_id, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id\tparent_id\trequest\tlayer\tfunction\tstart_s\tend_s\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


def layer_metrics(tracer: Tracer, requests: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}."""
    c = tracer.counts
    self_s = tracer.self_times()
    out: Dict[str, Tuple[float, str]] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["cli.calls"] = (c["cli.calls"], "count")
    out["core.predicate_calls"] = (c["core.predicate_calls"], "count")
    out["core.table_cells"] = (c["core.table_cells"], "count")
    out["alternating.weak_scans"] = (c["alternating.weak_scans"], "count")
    out["alternating.assignments"] = (c["alternating.assignments"], "count")
    out["alternating.repeat_scan_ratio"] = (ratio(c["alternating.repeat_scans"], c["alternating.weak_scans"]), "ratio")
    out["coverage.transforms"] = (c["coverage.transforms"], "count")
    out["coverage.cells"] = (c["coverage.cells"], "count")
    out["charges.ops"] = (c["charges.calls"], "count")
    out["charges.predicate_calls_per_op"] = (ratio(c["charges.predicate_calls"], c["charges.calls"]), "ratio")
    out["simplex.structured_calls"] = (c["simplex.structured_calls"], "count")
    out["simplex.generic_calls"] = (c["simplex.generic_calls"], "count")
    out["simplex.lp_cells"] = (c["simplex.lp_cells"], "count")
    out["simplex.presolve_calls"] = (c["simplex.presolve_calls"], "count")
    out["simplex.presolve_s"] = (c["simplex.presolve_s"], "s")
    out["simplex.exact_s"] = (max(self_s["simplex"] - c["simplex.presolve_s"], 0.0), "s")
    out["decompose.calls"] = (c["decompose.calls"], "count")
    out["graphs.cut_table_builds"] = (c["graphs.cut_table_builds"], "count")
    out["graphs.cut_tables_per_instance"] = (ratio(c["graphs.cut_table_builds"], requests), "ratio")
    return out

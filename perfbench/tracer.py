"""Span recorder that measures warpmatch's layers from outside the library.

`Tracer.installed()` replaces every public function of the layer modules with
a timing wrapper, under every name a warpmatch module binds it to (so
`warpmatch.sloma.train_on_pairs` is wrapped as well as
`warpmatch.adapter.train_on_pairs`), plus scipy's `cdist` as the swim module
imports it.  Nothing under `src/` changes.  Spans live in memory as
`[name, start, end, parent index]` and are written out once, at the end.

Spans recorded inside forked pool workers stay in the workers and are lost;
the benchmark therefore takes per-layer numbers inside the distance matrix
from a 1-worker pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("adapter", "dpw", "dtw", "sloma", "swim", "evaluate", "matrix", "synth")

# Wrapped functions whose calls, busy time and self time are reported.  Every
# public function of LAYERS is wrapped; these are the ones a workload calls
# and an optimisation can move.
REPORTED = (
    "adapter.train_on_pairs",
    "adapter.training_loss_and_gradients",
    "adapter.sigmoid",
    "adapter.adapt_matrix",
    "dpw.dpw",
    "dpw.optimal_hipa",
    "dtw.element_cost_volume",
    "dtw.accumulate_tables",
    "dtw.accumulate_final",
    "dtw.dtw_path",
    "sloma.run_sloma",
    "swim.run_swim",
    "swim.dpw_distance_matrix",
    "swim.cdist",
    "evaluate.match_topk",
    "evaluate.knn_baseline",
    "matrix.as_feature_array",
    "matrix.load_dataset",
    "matrix.save_dataset",
    "synth.gen_task",
)

# Per-call latency percentiles are reported for these spans.
LATENCY = ("dpw.dpw", "dpw.optimal_hipa")

# Counters reported as they are; `sloma.eps_stops` only feeds the ratio.
COUNTS = (
    "adapter.rows_trained",
    "adapter.opt_steps",
    "sloma.iters",
    "swim.pairs",
    "dtw.cells",
)


def _count_train(counts, bound, result):
    pairs = bound.arguments["pairs"]
    if isinstance(pairs, tuple) and len(pairs) == 2 and hasattr(pairs[0], "shape"):
        rows = pairs[0].shape[0] if len(pairs[0].shape) == 2 else 1
    else:
        rows = len(pairs)
    counts["adapter.rows_trained"] += rows
    counts["adapter.opt_steps"] += result[0].opt_steps - bound.arguments["params"].opt_steps


def _count_sloma(counts, bound, result):
    steps = result[1]
    counts["sloma.iters"] += len(steps)
    if steps and steps[-1].weight_delta <= bound.arguments["eps"]:
        counts["sloma.eps_stops"] += 1


def _count_matrix(counts, bound, result):
    counts["swim.pairs"] += len(bound.arguments["seen"]) * len(bound.arguments["emerging"])


def _count_cells(counts, bound, result):
    counts["dtw.cells"] += bound.arguments["vol"].size


HOOKS = {
    "adapter.train_on_pairs": _count_train,
    "sloma.run_sloma": _count_sloma,
    "swim.dpw_distance_matrix": _count_matrix,
    "dtw.accumulate_tables": _count_cells,
    "dtw.accumulate_final": _count_cells,
}


class Tracer:
    """In-memory spans and counters, grouped under named benchmark phases."""

    def __init__(self):
        self.spans = []                      # [name, start, end, parent]
        self.counts = defaultdict(lambda: defaultdict(int))  # phase -> key -> n
        self._stack = []
        self._phase = None
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def phase(self, name):
        """Root span for one benchmark phase; counters are kept per phase."""
        idx = len(self.spans)
        self.spans.append([f"phase.{name}", time.perf_counter(), 0.0, -1])
        self._stack.append(idx)
        self._phase = name
        try:
            yield
        finally:
            self._stack.pop()
            self._phase = None
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(self.counts[self._phase], sig.bind(*args, **kwargs), result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "warpmatch" or n.startswith("warpmatch.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"warpmatch.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patches = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        swim = sys.modules["warpmatch.swim"]
        patches.append((swim, "cdist", swim.cdist))
        swim.cdist = self._wrap("swim.cdist", swim.cdist)
        try:
            yield
        finally:
            for mod, attr, obj in reversed(patches):
                setattr(mod, attr, obj)

    # -----------------------------------------------------------------
    # Analysis

    def _roots(self):
        roots = []
        for _, _, _, parent in self.spans:
            roots.append(len(roots) if parent < 0 else roots[parent])
        return roots

    def _child_time(self):
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def phase_seconds(self, phase, name):
        """Summed duration of spans called `name` under one phase."""
        roots = self._roots()
        return sum(end - start for (n, start, end, _), r in zip(self.spans, roots)
                   if n == name and self.spans[r][0] == f"phase.{phase}")

    def layer_metrics(self, phases):
        """Per-function calls, busy (inclusive) and self time, span latency
        percentiles and counters, over spans rooted in the given phases."""
        roots = self._roots()
        keep = {f"phase.{p}" for p in phases}
        child_time = self._child_time()
        matrix_inner = defaultdict(float)    # cdist and DP time per matrix span
        for name, start, end, parent in self.spans:
            if (parent >= 0 and self.spans[parent][0] == "swim.dpw_distance_matrix"
                    and name in ("swim.cdist", "dtw.accumulate_final")):
                matrix_inner[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        latencies = defaultdict(list)
        other = 0.0
        for idx, (name, start, end, _) in enumerate(self.spans):
            if self.spans[roots[idx]][0] not in keep or name.startswith("phase."):
                continue
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            own[name] += dur - child_time[idx]
            if name in LATENCY:
                latencies[name].append(dur)
            if name == "swim.dpw_distance_matrix":
                other += dur - matrix_inner[idx]
        out = {}
        for name in REPORTED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
        for name in LATENCY:
            values = sorted(latencies[name])
            out[f"{name}.p50_ms"] = (percentile(values, 0.50) * 1e3, "ms")
            out[f"{name}.p99_ms"] = (percentile(values, 0.99) * 1e3, "ms")
        totals = defaultdict(int)
        for p in phases:
            for key, value in self.counts[p].items():
                totals[key] += value
        for key in COUNTS:
            out[key] = (totals[key], "count")
        runs = calls["sloma.run_sloma"]
        out["sloma.eps_stop_ratio"] = (totals["sloma.eps_stops"] / runs if runs else 0.0,
                                       "ratio")
        out["swim.matrix.other_s"] = (other, "s")
        return out

    def write(self, path):
        """Dump spans as JSON lines: name, start and end (s from tracer
        creation), parent index, self time."""
        child_time = self._child_time()
        with open(path, "w", encoding="utf-8") as f:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": idx, "name": name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent,
                    "self": end - start - child_time[idx],
                }) + "\n")


def percentile(sorted_values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]

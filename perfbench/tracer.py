"""Span recorder that wraps weldlab's public functions from outside.

Nothing in weldlab is edited.  `Tracer.install()` replaces each public
function of each layer module with a wrapper, on every weldlab module that
binds it (so `weldlab.cart.best_split`, the name `build_tree` calls, is
wrapped, not only `weldlab.kernels.best_split`).  `uninstall()` puts the
originals back.

A span is `(span_id, name, start, end, parent_id)`; parent 0 is the op
itself.  A function that re-enters itself (`tree_arity`, recursion through
its module global) records only its outermost call.  Per-draw functions of
the PRNG get counters, not spans: a report makes ~20k draws, and a span
each would swamp the op being measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("_rng", "dataset", "kernels", "cart", "ensemble", "taguchi",
          "anova", "pipeline", "cli")

# Called once per random draw: counted, never timed.
_COUNTED_ONLY = {"_rng.mix64", "_rng.SplitMix64.next_u64",
                 "_rng.SplitMix64.next_below"}

KERNEL_BUCKETS = ("n9", "n27", "n81")


def kernel_bucket(n: int) -> str:
    """Kernel-cost bucket of a node of n rows: n <= 9, 10-27, or larger."""
    return "n9" if n <= 9 else "n27" if n <= 27 else "n81"


class Tracer:
    """Spans and counters of the ops run while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack = [0]
        self._active: set[str] = set()
        self._next_id = 1
        self._patches: list[tuple] = []
        self._count_nodes = None

    # --- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            self._active.add(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._active.discard(name)
                self.spans.append((sid, name, t0, t1, parent))
            if observe is not None:
                observe(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- observers: counters that need a call's arguments or result -------

    def _observe_kernel(self, args, kwargs, result, dt):
        n = args[1].shape[0]
        bucket = kernel_bucket(n)
        c = self.counters
        c["kernels.cells"] += n * len(args[2])
        c["kernels.splits"] += int(result[0] >= 0)
        c[f"kernels.calls.{bucket}"] += 1
        c[f"kernels.s.{bucket}"] += dt

    def _observe_build(self, args, kwargs, result, dt):
        internal, leaves = self._count_nodes(result)
        self.counters["cart.nodes"] += internal + leaves

    def _observe_run(self, args, kwargs, result, dt):
        self.counters["pipeline.sections_computed"] = len(result.sections)

    def _observe_render(self, args, kwargs, result, dt):
        self.counters["pipeline.sections_rendered"] = len(args[0].sections)

    # --- installation ------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every wrapped callable."""
        for layer in LAYERS:
            mod = sys.modules[f"weldlab.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", mod, attr, obj
                elif inspect.isclass(obj) and layer == "_rng":
                    for meth, fn in sorted(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{layer}.{attr}.{meth}", obj, meth, fn

    def install(self) -> None:
        import weldlab.cart
        import weldlab.cli  # noqa: F401  (loads every layer module)

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._count_nodes = weldlab.cart.count_nodes
        observers = {
            "kernels.best_split": self._observe_kernel,
            "cart.build_tree": self._observe_build,
            "pipeline.run_pipeline": self._observe_run,
            "pipeline.report_json": self._observe_render,
            "pipeline.report_text": self._observe_render,
            "pipeline.render": self._observe_render,
        }
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "weldlab" or k.startswith("weldlab."))]
        for name, owner, attr, original in self._targets():
            if name in _COUNTED_ONLY:
                wrapper = self._count_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, observers.get(name))
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, bound, original))
                        setattr(mod, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _outermost_s(spans, names, name_of, parent_of) -> float:
    """Seconds in spans named in `names` that no such span encloses."""

    def nested(sid):
        p = parent_of[sid]
        while p:
            if name_of[p] in names:
                return True
            p = parent_of[p]
        return False

    return sum(t1 - t0 for sid, name, t0, t1, _ in spans
               if name in names and not nested(sid))


def op_summary(spans, counters) -> dict[str, float]:
    """Per-layer figures of one op from its spans and counters.

    Times are seconds of the op; a layer's self time is its span minus the
    part covered by its child spans.  Kernel per-call figures are summed
    here and divided by call counts once ops are pooled (`pool`).
    """
    name_of = {s[0]: s[1] for s in spans}
    parent_of = {s[0]: s[4] for s in spans}
    child_s: dict[int, float] = {}
    for sid, _, t0, t1, parent in spans:
        child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    for sid, name, t0, t1, _ in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += (t1 - t0) - child_s.get(sid, 0.0)

    def layer_names(prefix):
        return {n for n in name_of.values() if n.startswith(prefix + ".")}

    out = {
        "_rng.draws": counters["_rng.SplitMix64.next_u64"],
        "_rng.subset_calls": calls["_rng.SplitMix64.sample_without_replacement"],
        "_rng.subset_s": total["_rng.SplitMix64.sample_without_replacement"],
        "dataset.bootstrap_calls": calls["dataset.bootstrap_indices"],
        "dataset.bootstrap_s": total["dataset.bootstrap_indices"],
        "dataset.load_s": total["dataset.load_csv"],
        "kernels.calls": calls["kernels.best_split"],
        "kernels.s": total["kernels.best_split"],
        "kernels.cells": counters["kernels.cells"],
        "kernels.splits": counters["kernels.splits"],
        "cart.builds": calls["cart.build_tree"],
        "cart.nodes": counters["cart.nodes"],
        "cart.build_self_s": self_s["cart.build_tree"],
        "cart.predict_calls": calls["cart.predict_tree"],
        "cart.predict_s": total["cart.predict_tree"],
        "cart.arity_walks": calls["cart.tree_arity"],
        "cart.arity_s": total["cart.tree_arity"],
        "ensemble.forest_fit_s": total["ensemble.fit_random_forest"],
        "ensemble.gbm_fit_s": total["ensemble.fit_gbm"],
        "ensemble.cv_s": total["ensemble.cross_validate"],
        "ensemble.predict_s": _outermost_s(
            spans, {"ensemble.predict_ensemble", "ensemble.predict_ensemble_many"},
            name_of, parent_of),
        "ensemble.importance_s": total["ensemble.feature_importance"],
        "taguchi.s": _outermost_s(spans, layer_names("taguchi"), name_of, parent_of),
        "anova.s": _outermost_s(spans, layer_names("anova"), name_of, parent_of),
        "pipeline.run_s": total["pipeline.run_pipeline"],
        "pipeline.self_s": self_s["pipeline.run_pipeline"],
        "pipeline.render_s": _outermost_s(
            spans, {"pipeline.report_json", "pipeline.report_text", "pipeline.render"},
            name_of, parent_of),
        "pipeline.sections_computed": counters["pipeline.sections_computed"],
        "pipeline.sections_rendered": counters["pipeline.sections_rendered"],
    }
    for bucket in KERNEL_BUCKETS:
        out[f"kernels.calls.{bucket}"] = counters[f"kernels.calls.{bucket}"]
        out[f"kernels.s.{bucket}"] = counters[f"kernels.s.{bucket}"]
    return {k: float(v) for k, v in out.items()}


def _per_call_us(seconds: float, calls: float) -> float:
    return 1e6 * seconds / calls if calls else 0.0


def pool(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Mean per op over `summaries`, with kernel ratios over the pooled sums.

    A kernel bucket no call fell into reads 0.
    """
    n = len(summaries)
    mean = {k: sum(s[k] for s in summaries) / n for k in summaries[0]}
    internal = ("kernels.calls.", "kernels.s.", "kernels.splits", "pipeline.sections")
    out = {k: v for k, v in mean.items() if not k.startswith(internal)}
    calls = mean["kernels.calls"]
    out["kernels.us_per_call"] = _per_call_us(mean["kernels.s"], calls)
    out["kernels.split_share"] = mean["kernels.splits"] / calls if calls else 0.0
    for bucket in KERNEL_BUCKETS:
        out[f"kernels.us_per_call.{bucket}"] = _per_call_us(
            mean[f"kernels.s.{bucket}"], mean[f"kernels.calls.{bucket}"])
    return out

"""Spans around the calls into each rnnsent module, recorded from outside.

`Tracer.install` wraps every public module-level function of the package's
modules, plus the two RngState methods that derive random streams, and
rebinds every name under which another rnnsent module imported the original.
A function added to a module later is therefore timed as part of that module
with no change here. `uninstall` puts the originals back, so an untraced
stretch of the same process runs the program's own code unchanged.

A span is [name, start, end, parent, items]: parent is the index of the
enclosing span or -1, and items is the sequence length for model.forward.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("corpus", "embedding", "model", "numeric", "training", "evaluation", "analysis", "cli")

# name -> the functions whose outermost spans it sums (seconds) or counts
TIMED = {
    "model.forward_s": ("model.forward",),
    "model.backward_s": ("model.backward_full", "model.backward_truncated", "model.backward_for_config"),
    "model.predict_s": ("model.predict",),
    "model.io_s": ("model.save_model", "model.load_model"),
    "numeric.rng_s": ("numeric.RngState.child", "numeric.RngState.generator"),
    "numeric.dropout_s": ("numeric.dropout_mask",),
    "numeric.clip_sgd_s": ("numeric.clip_gradients", "numeric.sgd_step", "numeric.global_norm"),
    "analysis.classify_s": ("analysis.classify_corpus",),
    "analysis.buckets_s": ("analysis.sentiment_distribution", "analysis.temporal_buckets"),
    "analysis.io_s": ("analysis.save_classified", "analysis.export_report", "analysis.load_report"),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "embedding.train_s": ("embedding.train_embeddings",),
    "embedding.io_s": ("embedding.save_embeddings", "embedding.load_embeddings", "embedding.load_embeddings_with_tokens"),
    "embedding.neighbors_s": ("embedding.nearest_neighbors",),
    "corpus.load_tweets_s": ("corpus.load_tweets",),
    "corpus.preprocess_s": ("corpus.preprocess_corpus",),
    "corpus.io_s": (
        "corpus.save_clean_corpus", "corpus.load_clean_corpus",
        "corpus.save_vocabulary", "corpus.load_vocabulary", "corpus.save_stats",
    ),
}
COUNTED = {
    "model.forward_calls": TIMED["model.forward_s"],
    "model.backward_calls": TIMED["model.backward_s"],
    "numeric.rng_calls": TIMED["numeric.rng_s"],
    "training.steps": ("numeric.sgd_step",),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module derives, with its unit."""
    units = {name: "s" for name in TIMED}
    units.update({name: "count" for name in COUNTED})
    units["model.timesteps"] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.calls"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, sized: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            items = len(args[2] if len(args) > 2 else kwargs["sequence"]) if sized else 0
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, items])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n == "rnnsent" or n.startswith("rnnsent.")]
        bindings: dict[int, list[tuple[object, str]]] = defaultdict(list)
        for module in package:
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    bindings[id(value)].append((module, attr))
        for short in MODULES:
            module = importlib.import_module(f"rnnsent.{short}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn, sized=(short, attr) == ("model", "forward"))
                for owner, name in bindings[id(fn)]:
                    self._undo.append((owner, name, fn))
                    setattr(owner, name, wrapper)
        rng_state = importlib.import_module("rnnsent.numeric").RngState
        for attr in ("child", "generator"):
            fn = rng_state.__dict__[attr]
            self._undo.append((rng_state, attr, fn))
            setattr(rng_state, attr, self._wrap(f"numeric.RngState.{attr}", fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\titems\n")
            for i, (name, start, end, parent, items) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{items}\n")


def layer_metrics(spans: list[list], lo: int, hi: int, seconds) -> dict[str, float]:
    """Per-layer figures of spans[lo:hi], one traced round, with each span's
    duration taken as seconds(start, end).

    A span's self time is its duration less that of its direct children. A
    named time sums only the outermost spans of its function set, so a call
    nested in another of the same set is not counted twice.
    """
    out = {name: 0.0 for name in metric_units() if name != "trace.overhead_s"}
    duration = {i: seconds(spans[i][1], spans[i][2]) for i in range(lo, hi)}
    child_time: dict[int, float] = defaultdict(float)
    for i in range(lo, hi):
        if spans[i][3] >= lo:
            child_time[spans[i][3]] += duration[i]
    for i in range(lo, hi):
        name, _, _, _, items = spans[i]
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] += duration[i] - child_time[i]
        out[f"{module}.calls"] += 1
        if name == "model.forward":
            out["model.timesteps"] += items
    for metric, members in list(TIMED.items()) + list(COUNTED.items()):
        members = set(members)
        covered = {}
        for i in range(lo, hi):
            parent = spans[i][3]
            covered[i] = parent >= lo and (spans[parent][0] in members or covered[parent])
            if spans[i][0] in members and not covered[i]:
                out[metric] += 1 if metric in COUNTED else duration[i]
    return out

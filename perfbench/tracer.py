"""Span tracing for the benchmark's traced runs.

Wrappers go around public functions of the ``hsiatl`` modules. A function
imported by name (``from hsiatl.model import forward_batch``) is bound in
several module namespaces, so each wrapper replaces every module-level name
that points at the original, not only the one in the defining module.
Methods are patched on their class. Nothing under ``src/`` changes.

Each call becomes a span ``(id, parent id, name, start, end)`` kept in
memory; ``Tracer.write`` dumps them as NDJSON when the run ends. The first
dotted component of a span name is its layer, and a layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "autodiff", "optim", "model", "training", "queries",
    "transfer", "data", "checkpoint", "metrics", "cli",
)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _forward_batch_name(args, kwargs):
    training = _arg(args, kwargs, 2, "training", False)
    return "model.forward_batch.train" if training else "model.forward_batch.eval"


def _encode_name(args, kwargs):
    # Plain encode calls sit inside forward_batch spans; only feature capture
    # (transfer's freeze plan) is a span of its own.
    return "model.encode.capture" if _arg(args, kwargs, 4, "capture", False) else None


def _count_matmul(tracer, args, kwargs, result):
    a, b = args[0], args[1]
    *batch_a, m, k = a.shape
    *batch_b, _, n = b.shape
    batch = math.prod(np.broadcast_shapes(tuple(batch_a), tuple(batch_b)))
    tracer.counts["matmul_flop"] += 2.0 * m * n * k * batch


def _count_backward(tracer, args, kwargs, result):
    tracer.counts["tape_records"] += len(args[0].records)


def _count_train_model(tracer, args, kwargs, result):
    n = args[1].shape[0]
    cfg = _arg(args, kwargs, 3, "cfg")
    tracer.counts["train_steps"] += cfg.epochs * math.ceil(n / cfg.batch_size)
    tracer.counts["train_samples"] += cfg.epochs * n


def _count_rows(key, index, name):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += len(_arg(args, kwargs, index, name))
    return hook


def _count_frozen(tracer, args, kwargs, result):
    tracer.counts["frozen_layers"] += len(result.frozen)


def _count_file_bytes(index):
    def hook(tracer, args, kwargs, result):
        tracer.counts["checkpoint_bytes"] += os.path.getsize(args[index])
    return hook


def _zero_grad_start(tracer, args, kwargs, result):
    tracer.step_start = tracer.spans[-1][3]


def _step_end(tracer, args, kwargs, result):
    if tracer.step_start is not None:
        tracer.step_ms.append((tracer.spans[-1][4] - tracer.step_start) * 1e3)
        tracer.step_start = None


# (module, attribute, span name or name function, hook after the call)
FUNCTIONS = (
    ("hsiatl.cli", "main", "cli.main", None),
    ("hsiatl.autodiff", "backward", "autodiff.backward", _count_backward),
    ("hsiatl.autodiff", "matmul", "autodiff.matmul", _count_matmul),
    ("hsiatl.autodiff", "softmax", "autodiff.softmax", None),
    ("hsiatl.autodiff", "layer_norm", "autodiff.layer_norm", None),
    ("hsiatl.model", "forward_batch", _forward_batch_name, None),
    ("hsiatl.model", "predict_probs", "model.predict_probs",
     _count_rows("predict_samples", 1, "features")),
    ("hsiatl.model", "encode", _encode_name, None),
    ("hsiatl.training", "train_model", "training.train_model", _count_train_model),
    ("hsiatl.training", "evaluate", "training.evaluate", None),
    ("hsiatl.queries", "query_pool", "queries.query_pool", None),
    ("hsiatl.queries", "neighborhood_diversity_batch",
     "queries.neighborhood_diversity_batch", _count_rows("diversity_pixels", 1, "pixels")),
    ("hsiatl.transfer", "freeze_plan", "transfer.freeze_plan", _count_frozen),
    ("hsiatl.transfer", "mmd", "transfer.mmd", None),
    ("hsiatl.transfer", "fine_tune", "transfer.fine_tune", None),
    ("hsiatl.data", "extract_windows_batch", "data.extract_windows_batch",
     _count_rows("windows", 1, "pixel_indices")),
    ("hsiatl.data", "load_cube", "data.load_cube", None),
    ("hsiatl.data", "load_labels", "data.load_labels", None),
    ("hsiatl.data", "make_split", "data.make_split", None),
    ("hsiatl.checkpoint", "save_model", "checkpoint.save_model", _count_file_bytes(1)),
    ("hsiatl.checkpoint", "load_model", "checkpoint.load_model", _count_file_bytes(0)),
    ("hsiatl.metrics", "report", "metrics.report", None),
)

# (module, class, method, span name, hook after the call)
METHODS = (
    ("hsiatl.optim", "Adam", "zero_grad", "optim.Adam.zero_grad", _zero_grad_start),
    ("hsiatl.optim", "Adam", "step", "optim.Adam.step", _step_end),
    ("hsiatl.training", "WindowBank", "__init__", "training.WindowBank", None),
)


class Tracer:
    """Collects spans, counters and garbage-collector pauses for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.step_ms: list[float] = []
        self.step_start: float | None = None
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, span_name, start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a module binds its name."""
        import hsiatl.cli  # noqa: F401  (imports every hsiatl module)

        modules = [m for n, m in sys.modules.items()
                   if n == "hsiatl" or n.startswith("hsiatl.")]
        for module_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, name, hook in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, hook))
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run, keyed ``<module>.<function>.<unit>``."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered: dict[int, float] = defaultdict(float)
        for _, parent, name, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                covered[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        for span_id, _, name, start, end in self.spans:
            self_s[name.split(".", 1)[0]] += end - start - covered[span_id]

        c = self.counts
        train_fwd = total["model.forward_batch.train"]
        predict_samples = c["predict_samples"]
        gflop = c["matmul_flop"] / 1e9
        out = {
            "autodiff.backward.s": total["autodiff.backward"],
            "autodiff.backward.calls": calls["autodiff.backward"],
            "autodiff.tape.records_per_step": _ratio(c["tape_records"], calls["autodiff.backward"]),
            "autodiff.backward_over_forward": _ratio(total["autodiff.backward"], train_fwd),
            "autodiff.matmul.fwd_s": total["autodiff.matmul"],
            "autodiff.matmul.fwd_calls": calls["autodiff.matmul"],
            "autodiff.matmul.fwd_gflop": gflop,
            "autodiff.matmul.fwd_gflops_per_s": _ratio(gflop, total["autodiff.matmul"]),
            "autodiff.softmax.fwd_s": total["autodiff.softmax"],
            "autodiff.layer_norm.fwd_s": total["autodiff.layer_norm"],
            "optim.Adam.step.s": total["optim.Adam.step"],
            "optim.Adam.step.calls": calls["optim.Adam.step"],
            "model.forward_batch.train_s": train_fwd,
            "model.forward_batch.eval_s": total["model.forward_batch.eval"],
            "model.predict_probs.s": total["model.predict_probs"],
            "model.predict_probs.samples": predict_samples,
            "model.predict_probs.us_per_sample":
                _ratio(total["model.predict_probs"] * 1e6, predict_samples),
            "model.encode.capture_s": total["model.encode.capture"],
            "training.train_model.s": total["training.train_model"],
            "training.train_model.steps": c["train_steps"],
            "training.train_model.samples": c["train_samples"],
            "training.train_step.n": len(self.step_ms),
            "training.train_step.p50_ms": _percentile(self.step_ms, 50),
            "training.train_step.p95_ms": _percentile(self.step_ms, 95),
            "training.evaluate.s": total["training.evaluate"],
            "training.WindowBank.s": total["training.WindowBank"],
            "queries.query_pool.s": total["queries.query_pool"],
            "queries.query_pool.calls": calls["queries.query_pool"],
            "queries.neighborhood_diversity_batch.s": total["queries.neighborhood_diversity_batch"],
            "queries.neighborhood_diversity_batch.pixels": c["diversity_pixels"],
            "transfer.freeze_plan.s": total["transfer.freeze_plan"],
            "transfer.mmd.s": total["transfer.mmd"],
            "transfer.mmd.calls": calls["transfer.mmd"],
            "transfer.fine_tune.s": total["transfer.fine_tune"],
            "transfer.frozen_layers": c["frozen_layers"],
            "data.extract_windows_batch.s": total["data.extract_windows_batch"],
            "data.extract_windows_batch.windows": c["windows"],
            "data.load_cube.s": total["data.load_cube"],
            "data.load_labels.s": total["data.load_labels"],
            "checkpoint.save_model.s": total["checkpoint.save_model"],
            "checkpoint.load_model.s": total["checkpoint.load_model"],
            "checkpoint.bytes": c["checkpoint_bytes"],
            "metrics.report.s": total["metrics.report"],
            "cli.main.self_s": self_s["cli"],
            "gc.collections.gen2": self.gc_gen2,
            "gc.pause_s": self.gc_pause_s,
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS[:-1]:  # cli's self time is cli.main.self_s
            out[f"{layer}.self_s"] = self_s[layer]
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

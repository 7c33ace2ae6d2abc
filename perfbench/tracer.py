"""Span tracer that wraps phishlens functions at their call-site bindings.

Modules that import a function by name (``from .model import forward``) hold
their own binding, so patching ``phishlens.model.forward`` alone would miss
the calls made from ``phishlens.training``. ``BINDINGS`` therefore lists
every module attribute through which a traced function is reached, and the
tracer replaces each of them. Nothing inside the package is changed on disk.

Spans are kept in memory as ``[name, start, end, parent, unit, step]`` and
written out when the run ends. A span's self time is its duration minus the
durations of its direct children. Counters that are read from the objects a
call returns (shapes, dtypes and ``nbytes``) are accumulated in
``Tracer.counts``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> modules (under phishlens) whose attribute of that name is wrapped
BINDINGS = {
    "corpus.load_corpus": ("corpus",),
    "corpus.split": ("corpus",),
    "tokenizer.load_vocabulary": ("tokenizer",),
    "tokenizer.encode": ("tokenizer", "training", "intgrad"),
    "model.init_parameters": ("model",),
    "model.load_checkpoint": ("model",),
    "model.forward": ("model", "training", "intgrad"),
    # model.forward calls forward_from_embeddings through its own module
    # global, which stays unwrapped, so only intgrad's direct calls get a span.
    "model.forward_from_embeddings": ("intgrad",),
    "model.backward": ("model", "training"),
    "model.grad_wrt_embeddings": ("model", "intgrad"),
    "training.train": ("training",),
    "training.evaluate": ("training",),
    "training.adamw_step": ("training",),
    "metrics.confusion": ("metrics",),
    "metrics.report_to_dict": ("metrics",),
    "metrics.report_to_text": ("metrics",),
    "lime_text.explain": ("lime_text",),
    "lime_text.sample_perturbations": ("lime_text",),
    "lime_text.fit_local_model": ("lime_text",),
    "intgrad.word_attributions": ("intgrad",),
    "intgrad.path_integrate": ("intgrad",),
    "report.render_explanation_html": ("report",),
    "report.comparison_rows": ("report",),
    "report.comparison_csv": ("report",),
}


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _cache_arrays(obj, out: dict[int, np.ndarray]) -> None:
    """Collect the distinct buffers a forward cache keeps alive."""
    if isinstance(obj, np.ndarray):
        root = _root(obj)
        out[id(root)] = root
    elif isinstance(obj, dict):
        for v in obj.values():
            _cache_arrays(v, out)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _cache_arrays(v, out)


def forward_flop(config, rows: int, t: int) -> float:
    """Multiply-add FLOPs of one encoder forward, from shapes alone."""
    d, f, h, hd = config.hidden_dim, config.ffn_dim, config.num_heads, config.head_dim
    per_layer = 2.0 * rows * t * (4 * d * d + 2 * d * f) + 2.0 * 2.0 * rows * h * t * t * hd
    head = 2.0 * rows * (d * d + d * config.num_classes)
    return config.num_layers * per_layer + head


class Tracer:
    def __init__(self):
        self.enabled = False
        self.unit = None
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.unit, int(tracer.counts["training.steps"])]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every binding in BINDINGS; undone by uninstall()."""
        hooks = {
            "tokenizer.encode": self._count_encode,
            "model.forward": self._count_forward,
            "model.forward_from_embeddings": self._count_forward,
            "training.adamw_step": self._count_step,
            "lime_text.sample_perturbations": self._count_samples,
        }
        for name, modules in BINDINGS.items():
            attr = name.split(".", 1)[1]
            for mod_name in modules:
                module = getattr(package, mod_name)
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ counters

    def _count_encode(self, args, seq) -> None:
        self.counts["tokenizer.encode_calls"] += 1
        self.counts["tokenizer.pieces"] += seq.real_length - 2

    def _count_step(self, args, state) -> None:
        self.counts["training.steps"] += 1

    def _count_samples(self, args, samples) -> None:
        self.counts["lime_text.samples"] += len(samples)
        self.counts["lime_text.unique_samples"] += len({s.mask.tobytes() for s in samples})

    def _count_forward(self, args, out) -> None:
        params, inputs = args[0], args[1]
        if isinstance(inputs, np.ndarray):  # forward_from_embeddings(params, emb, mask)
            mask = np.asarray(args[2])
        else:  # forward(params, [TokenSequence, ...])
            mask = np.array([seq.attention_mask for seq in inputs])
        rows = out.logits.shape[0]
        positions = mask.shape[1]
        if out.cache is not None and "mask" in out.cache:
            positions = out.cache["mask"].shape[1]  # what the encoder actually ran on
            buffers: dict[int, np.ndarray] = {}
            _cache_arrays(out.cache, buffers)
            nbytes = sum(b.nbytes for b in buffers.values())
            self.counts["cache.bytes"] += nbytes
            self.counts["cache.f64_bytes"] += sum(
                b.nbytes for b in buffers.values() if b.dtype == np.float64
            )
        self.counts["model.forward_calls"] += 1
        self.counts["forward.rows"] += rows
        self.counts["forward.real_tokens"] += float(mask.sum())
        self.counts["forward.positions"] += rows * positions
        self.counts["forward.flop"] += forward_flop(params.config, rows, positions)

    # ------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def total_times(self) -> dict[str, float]:
        """Total inclusive time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _, _ in self.spans:
            totals[name] += end - start
        return totals

    def write(self, path, header: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, unit, step) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "unit": unit, "step": step,
                }) + "\n")

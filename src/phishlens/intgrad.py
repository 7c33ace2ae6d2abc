"""Per-token attributions via integrated gradients on the embedding path.

The attribution for one input is (input_embed - baseline_embed) times the
average gradient of the target-class logit along the straight line between
the two embeddings, accumulated with a midpoint Riemann sum. Completeness
(attributions summing to the logit difference) is tracked per record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    ModelParameters,
    _rows_per_pass,
    batch_arrays,
    check_fields,
    embed,
    forward,
    forward_from_embeddings,
    grad_wrt_embeddings,
)
from .tokenizer import TokenSequence, Vocabulary, encode


@dataclass
class IGConfig:
    steps: int = 64

    def __post_init__(self):
        check_fields(self, {"steps": 1}, {})


@dataclass(frozen=True)
class AttributionRecord:
    tokens: tuple[str, ...]
    raw_scores: tuple[float, ...]
    normalized_scores: tuple[float, ...]
    predicted_class: int
    completeness_gap: float

    def to_dict(self) -> dict:
        return {
            "tokens": list(self.tokens),
            "raw": list(self.raw_scores),
            "normalized": list(self.normalized_scores),
            "predicted_class": self.predicted_class,
            "completeness_gap": self.completeness_gap,
        }


def make_baseline(sequence: TokenSequence, vocab: Vocabulary) -> TokenSequence:
    """Replace every real token except [CLS]/[SEP] with [PAD]; mask unchanged."""
    n_real = sequence.real_length
    ids = list(sequence.input_ids)
    tokens = list(sequence.tokens)
    for pos in range(1, n_real - 1):
        ids[pos] = vocab.pad_id
        tokens[pos] = "[PAD]"
    return TokenSequence(
        input_ids=tuple(ids),
        attention_mask=sequence.attention_mask,
        tokens=tuple(tokens),
    )


def path_integrate(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    input_embed: np.ndarray,
    baseline_embed: np.ndarray,
    steps: int,
    rows_per_pass: int | None = None,
) -> np.ndarray:
    """Midpoint-rule integral of grad_fn along the straight embedding path.

    grad_fn maps a stack of embeddings (S, T, D) to gradients of a scalar
    score, same shape. It is called on at most `rows_per_pass` path points
    at a time (None: all `steps` at once), each stack built, in the
    embeddings' dtype, only when it runs. Returns the (T, D) attribution
    tensor.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rows = steps if rows_per_pass is None else rows_per_pass
    if rows < 1:
        raise ValueError("rows_per_pass must be >= 1")
    diff = input_embed - baseline_embed
    accumulated = np.zeros_like(input_embed)
    for start in range(0, steps, rows):
        stop = min(start + rows, steps)
        alphas = ((np.arange(start, stop) + 0.5) / steps).astype(diff.dtype, copy=False)
        points = baseline_embed[None] + alphas[:, None, None] * diff[None]
        accumulated += grad_fn(points).sum(axis=0)
    return diff * (accumulated / steps)


def _logit_grad_fn(params: ModelParameters, mask_row: np.ndarray, target: int):
    def grad_fn(points: np.ndarray) -> np.ndarray:
        mask = np.broadcast_to(mask_row, (points.shape[0], mask_row.shape[0]))
        out = forward_from_embeddings(params, points, mask)
        return grad_wrt_embeddings(params, out, target)

    return grad_fn


def integrated_gradients(
    params: ModelParameters,
    input_seq: TokenSequence,
    baseline_seq: TokenSequence,
    target: int,
    steps: int,
) -> np.ndarray:
    """Per-position, per-dimension attributions of the target-class logit,
    shape (T, D) over the full padded length.

    The path runs over the collated (trimmed) width; positions past the
    longest real token get exact zeros, since input and baseline agree there.
    Each forward/backward pass takes as many path steps as the model's
    pass budget allows (_rows_per_pass), and at least one.
    """
    if len(input_seq.input_ids) != len(baseline_seq.input_ids):
        raise ValueError("input and baseline sequences differ in length")
    if input_seq.attention_mask != baseline_seq.attention_mask:
        raise ValueError("input and baseline sequences differ in attention mask")
    ids, mask = batch_arrays([input_seq, baseline_seq])
    e = embed(params, ids)
    grad_fn = _logit_grad_fn(params, mask[0], target)
    rows = _rows_per_pass(params.config, e.shape[1], e.dtype)
    attribution = np.zeros((len(input_seq.input_ids), e.shape[2]), dtype=e.dtype)
    attribution[: e.shape[1]] = path_integrate(grad_fn, e[0], e[1], steps, rows)
    return attribution


def word_attributions(
    text: str,
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: IGConfig,
    max_len: int,
) -> AttributionRecord:
    """Encode to max_len, predict, and attribute the predicted class per token."""
    seq = encode(text, vocab, max_len)
    baseline = make_baseline(seq, vocab)
    out = forward(params, [seq, baseline])
    predicted = int(out.probabilities[0].argmax())
    logit_gap = float(out.logits[0, predicted] - out.logits[1, predicted])

    attribution = integrated_gradients(params, seq, baseline, predicted, cfg.steps)
    per_position = attribution.sum(axis=-1)

    n_real = seq.real_length
    raw = per_position[:n_real]
    gap = abs(float(per_position.sum()) - logit_gap)

    norm = float(np.linalg.norm(raw))
    normalized = raw / norm if norm > 0.0 else np.zeros_like(raw)
    return AttributionRecord(
        tokens=seq.tokens,
        raw_scores=tuple(float(x) for x in raw),
        normalized_scores=tuple(float(x) for x in normalized),
        predicted_class=predicted,
        completeness_gap=gap,
    )

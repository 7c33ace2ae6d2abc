"""Transformer encoder classifier: forward pass, exact reverse-mode gradients,
and binary checkpoint I/O.

Everything is plain numpy. Shapes: (B, T, D) batch/sequence/hidden, (N, D)
for the N real positions of a batch packed one after another (see _Packing;
all position-wise work runs there), and (G, h, L, d) per attention head for
the G sequences of one real length L: attention runs within each sequence's
own real positions, so it needs no key mask.
Default dtype is float64 so finite-difference gradient checks are
meaningful; a float32 model computes in float32 (scalar constants are
Python floats, which never promote an array).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import erf

from .tokenizer import TokenSequence

MAGIC = b"PHL1"
RECORD_KEY = "record"  # header key of the caller's record, stored verbatim
LN_EPS = 1e-12


class ConfigError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


class StaleCacheError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    max_positions: int
    hidden_dim: int
    num_heads: int
    num_layers: int
    ffn_dim: int
    num_classes: int = 2
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if min(self.vocab_size, self.max_positions, self.hidden_dim, self.num_layers + 1) < 1:
            raise ConfigError("config dimensions must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    @classmethod
    def paper_scale(cls, vocab_size: int = 30522) -> "ModelConfig":
        # 6 layers x 12 heads x 768 wide, 512 positions: ~66M parameters.
        return cls(
            vocab_size=vocab_size,
            max_positions=512,
            hidden_dim=768,
            num_heads=12,
            num_layers=6,
            ffn_dim=3072,
        )

    @classmethod
    def toy(cls, vocab_size: int = 120) -> "ModelConfig":
        return cls(
            vocab_size=vocab_size,
            max_positions=32,
            hidden_dim=16,
            num_heads=2,
            num_layers=1,
            ffn_dim=32,
            dropout_rate=0.0,
        )


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape table; the checkpoint format serializes in this order."""
    d, f, c = config.hidden_dim, config.ffn_dim, config.num_classes
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (config.vocab_size, d),
        "position_embedding": (config.max_positions, d),
    }
    for i in range(config.num_layers):
        p = f"layer{i}."
        shapes[p + "attn_q.weight"] = (d, d)
        shapes[p + "attn_q.bias"] = (d,)
        shapes[p + "attn_k.weight"] = (d, d)
        shapes[p + "attn_k.bias"] = (d,)
        shapes[p + "attn_v.weight"] = (d, d)
        shapes[p + "attn_v.bias"] = (d,)
        shapes[p + "attn_out.weight"] = (d, d)
        shapes[p + "attn_out.bias"] = (d,)
        shapes[p + "attn_norm.scale"] = (d,)
        shapes[p + "attn_norm.shift"] = (d,)
        shapes[p + "ffn_in.weight"] = (d, f)
        shapes[p + "ffn_in.bias"] = (f,)
        shapes[p + "ffn_out.weight"] = (f, d)
        shapes[p + "ffn_out.bias"] = (d,)
        shapes[p + "ffn_norm.scale"] = (d,)
        shapes[p + "ffn_norm.shift"] = (d,)
    shapes["prehead.weight"] = (d, d)
    shapes["prehead.bias"] = (d,)
    shapes["classifier.weight"] = (d, c)
    shapes["classifier.bias"] = (c,)
    return shapes


def parameter_count(config: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in parameter_shapes(config).values())


@dataclass
class ModelParameters:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.config, {k: v.copy() for k, v in self.tensors.items()})


GradientSet = dict[str, np.ndarray]


def _truncated_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    # Redraw anything beyond two standard deviations (BERT-style init).
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


def init_parameters(config: ModelConfig, seed: int, dtype=np.float64) -> ModelParameters:
    """Truncated-normal weights (std 0.02), zero biases, unit layer-norm scales."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".scale"):
            tensors[name] = np.ones(shape, dtype=dtype)
        elif name.endswith((".bias", ".shift")):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = _truncated_normal(rng, shape, 0.02, dtype)
    return ModelParameters(config=config, tensors=tensors)


# ---------------------------------------------------------------- primitives


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1 + erf(x / sqrt 2)) in one buffer; the halving is exact,
    # so the order of the products does not change a bit
    t = np.divide(x, math.sqrt(2.0))
    erf(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def _layer_norm(x, scale, shift):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + LN_EPS)
    xhat = (x - mu) / sigma
    return xhat * scale + shift, (xhat, sigma)


def _layer_norm_backward(dy, cache, scale):
    xhat, sigma = cache
    ghat = dy * scale
    m1 = ghat.mean(axis=-1, keepdims=True)
    m2 = (ghat * xhat).mean(axis=-1, keepdims=True)
    dx = (ghat - m1 - xhat * m2) / sigma
    axes = tuple(range(dy.ndim - 1))
    return dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


class _Packing:
    """Where the real positions of a (B, T) mask sit among the rows of a
    packed (N, ...) matrix: position (b, t) is flat index b*T + t, and the
    real ones follow each other in that order, so each sequence's real
    positions are consecutive rows.

    `index` holds those flat indices, or is None when every position is
    real; gather and scatter are then plain reshapes.

    `groups` lists, for each distinct real length L, (L, rows): the packed
    rows of the G sequences of that length, sequence after sequence, so
    that m[rows] reshapes to (G, L, ...). When every sequence has the same
    length there is one group and rows is None: the packed matrix itself.
    """

    def __init__(self, mask: np.ndarray):
        real = mask != 0.0
        if not real[:, 0].all():
            raise ValueError("position 0 ([CLS]) must be real in every row")
        self.shape = mask.shape
        flat = real.reshape(-1)
        self.index = None if flat.all() else np.flatnonzero(flat)
        lengths = real.sum(axis=1)
        # the packed row of each sequence's [CLS]
        self.cls_rows = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        distinct = np.unique(lengths)
        if len(distinct) == 1:
            self.groups = [(int(distinct[0]), None)]
        else:
            self.groups = [
                (int(n), (self.cls_rows[lengths == n, None] + np.arange(n)).reshape(-1))
                for n in distinct
            ]

    def gather(self, a: np.ndarray) -> np.ndarray:
        """(B, T, ...) -> (N, ...): the real positions only."""
        flat = a.reshape(-1, *a.shape[2:])
        return flat if self.index is None else flat[self.index]

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """(N, ...) -> (B, T, ...), with zeros at padding."""
        if self.index is None:
            return rows.reshape(*self.shape, *rows.shape[1:])
        out = np.zeros((self.shape[0] * self.shape[1], *rows.shape[1:]), dtype=rows.dtype)
        out[self.index] = rows
        return out.reshape(*self.shape, *rows.shape[1:])


def _dropout(x, rate, rng, packing: _Packing):
    """Dropout on packed rows. The mask is drawn over the whole (B, T, n)
    batch and then gathered, so the rng stream and the mask at each real
    position do not depend on where the padding is."""
    drawn = rng.random((*packing.shape, x.shape[-1])) >= rate
    keep = packing.gather(drawn).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


# ------------------------------------------------------------------ forward


@dataclass
class ForwardOutput:
    logits: np.ndarray
    probabilities: np.ndarray
    # backward cache: kept by train-mode forward() and by forward_from_embeddings()
    cache: dict | None = field(default=None, repr=False)


def batch_arrays(batch: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Ids and mask of a batch, without the trailing columns that are padding
    in every row: the encoder runs at the longest real length, and since
    padded positions never enter attention the logits cannot depend on them."""
    ids = np.array([seq.input_ids for seq in batch], dtype=np.int64)
    mask = np.array([seq.attention_mask for seq in batch], dtype=np.float64)
    real = mask != 0.0
    if not real.any(axis=1).all():
        raise ValueError("every sequence needs at least one real token")
    width = int(np.flatnonzero(real.any(axis=0))[-1]) + 1
    return ids[:, :width], mask[:, :width]


def embed(params: ModelParameters, ids: np.ndarray) -> np.ndarray:
    """Token + learned position embeddings, shape (B, T, D)."""
    t = ids.shape[1]
    if t > params.config.max_positions:
        raise ValueError(
            f"sequence length {t} exceeds max_positions {params.config.max_positions}"
        )
    return params.tensors["token_embedding"][ids] + params.tensors["position_embedding"][:t]


def forward(
    params: ModelParameters,
    batch: Sequence[TokenSequence],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardOutput:
    """Logits and probabilities for a batch of token sequences, run at the
    batch's longest real length (see batch_arrays).

    Only a train-mode pass keeps the backward cache; in eval mode `.cache`
    is None and each layer's activations are freed as soon as the next
    layer has read them.
    """
    ids, mask = batch_arrays(batch)
    cache = {"ids": ids} if train_mode else None
    return _run_encoder(params, embed(params, ids), mask, train_mode, rng, cache)


def forward_from_embeddings(
    params: ModelParameters,
    embeddings: np.ndarray,
    mask: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardOutput:
    """Run the encoder stack and classification head from given embeddings.

    Exposed separately so attribution code can walk the embedding path; the
    output always keeps the cache that grad_wrt_embeddings() reads.
    """
    return _run_encoder(params, embeddings, mask, train_mode, rng, cache={})


def _run_encoder(
    params, embeddings, mask, train_mode, rng, cache: dict | None
) -> ForwardOutput:
    """Encoder stack and head; fills `cache` for _backward_core unless it is None."""
    cfg = params.config
    p = params.tensors
    if train_mode and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("a train-mode pass with dropout needs an rng")
    else:
        rng = None  # no dropout

    t = embeddings.shape[1]
    if t > cfg.max_positions:
        raise ValueError(f"sequence length {t} exceeds max_positions {cfg.max_positions}")
    mask = np.asarray(mask, dtype=embeddings.dtype)
    packing = _Packing(mask)
    layers = None if cache is None else []

    x = packing.gather(embeddings)
    if rng is not None:
        x, embed_keep = _dropout(x, cfg.dropout_rate, rng, packing)
    for i in range(cfg.num_layers):
        x = _encoder_layer(p, f"layer{i}.", x, packing, cfg, rng, layers)

    cls_vec = x[packing.cls_rows]
    pre_lin = cls_vec @ p["prehead.weight"] + p["prehead.bias"]
    pre_act = np.maximum(pre_lin, 0.0)
    logits = pre_act @ p["classifier.weight"] + p["classifier.bias"]
    probs_out = softmax(logits, axis=-1)

    if cache is not None:
        cache.update(
            mask=mask, packing=packing, layers=layers,
            final_hidden=x, cls_vec=cls_vec, pre_lin=pre_lin, pre_act=pre_act,
        )
        if rng is not None:
            cache["embed_keep"] = embed_keep
    return ForwardOutput(logits=logits, probabilities=probs_out, cache=cache)


def _heads(m, rows, n: int, h: int) -> np.ndarray:
    """The packed (N, D) rows of one length group -> (G, h, n, D/h)."""
    if rows is not None:
        m = m[rows]
    return m.reshape(-1, n, h, m.shape[1] // h).transpose(0, 2, 1, 3)


def _unheads(m, rows, out: np.ndarray) -> None:
    """Write (G, h, n, D/h) into the group's rows of the packed (N, D) `out`."""
    g, h, n, hd = m.shape
    if rows is None:
        out.reshape(g, n, h, hd)[...] = m.transpose(0, 2, 1, 3)
    else:
        out[rows] = m.transpose(0, 2, 1, 3).reshape(g * n, h * hd)


def _attention(q, k, v, packing: _Packing, h: int, probs_cache: list | None):
    """Scaled dot-product attention of each sequence over its own real
    positions, one length group at a time; returns the merged (N, D)
    context (zero on rows outside every group). The probabilities of each
    group, (G, h, L, L), are appended to `probs_cache` unless it is None."""
    merged = np.zeros(q.shape, dtype=q.dtype)  # C order: _unheads writes through a reshape
    root_d = math.sqrt(q.shape[1] // h)
    for n, rows in packing.groups:
        scores = _heads(q, rows, n, h) @ _heads(k, rows, n, h).transpose(0, 1, 3, 2)
        scores /= root_d
        probs = softmax(scores, axis=-1)
        del scores
        _unheads(probs @ _heads(v, rows, n, h), rows, merged)
        if probs_cache is not None:
            probs_cache.append(probs)
    return merged


def _attention_backward(d_merged, q, k, v, packing: _Packing, h: int, probs_cache):
    """Gradients of _attention's output with respect to packed q, k and v."""
    dq, dk, dv = (np.zeros(m.shape, dtype=m.dtype) for m in (q, k, v))
    scale = 1.0 / math.sqrt(q.shape[1] // h)
    for (n, rows), probs in zip(packing.groups, probs_cache, strict=True):
        d_ctx = _heads(d_merged, rows, n, h)
        qh, kh, vh = (_heads(m, rows, n, h) for m in (q, k, v))
        _unheads(probs.transpose(0, 1, 3, 2) @ d_ctx, rows, dv)
        d_probs = d_ctx @ vh.transpose(0, 1, 3, 2)
        rowdot = (d_probs * probs).sum(axis=-1, keepdims=True)
        d_scores = (d_probs - rowdot) * probs
        _unheads(d_scores @ kh * scale, rows, dq)
        _unheads(d_scores.transpose(0, 1, 3, 2) @ qh * scale, rows, dk)
    return dq, dk, dv


def _encoder_layer(p, pre, x, packing, cfg, rng, layers: list | None) -> np.ndarray:
    """One post-layer-norm block over the packed (N, D) rows; dropout iff rng
    is given, and the layer's backward cache is appended to `layers` unless
    it is None."""
    lc: dict = {"x_in": x}
    q = x @ p[pre + "attn_q.weight"] + p[pre + "attn_q.bias"]
    k = x @ p[pre + "attn_k.weight"] + p[pre + "attn_k.bias"]
    v = x @ p[pre + "attn_v.weight"] + p[pre + "attn_v.bias"]

    probs = None if layers is None else []
    merged = _attention(q, k, v, packing, cfg.num_heads, probs)
    attn = merged @ p[pre + "attn_out.weight"] + p[pre + "attn_out.bias"]
    if rng is not None:
        attn, lc["attn_keep"] = _dropout(attn, cfg.dropout_rate, rng, packing)
    h1, ln1_cache = _layer_norm(
        x + attn, p[pre + "attn_norm.scale"], p[pre + "attn_norm.shift"]
    )

    ffn_pre = h1 @ p[pre + "ffn_in.weight"] + p[pre + "ffn_in.bias"]
    ffn_act = gelu(ffn_pre)
    ffn_out = ffn_act @ p[pre + "ffn_out.weight"] + p[pre + "ffn_out.bias"]
    if rng is not None:
        ffn_out, lc["ffn_keep"] = _dropout(ffn_out, cfg.dropout_rate, rng, packing)
    h2, ln2_cache = _layer_norm(
        h1 + ffn_out, p[pre + "ffn_norm.scale"], p[pre + "ffn_norm.shift"]
    )

    if layers is not None:
        lc.update(
            q=q, k=k, v=v, probs=probs, merged=merged,
            h1=h1, ln1=ln1_cache, ffn_pre=ffn_pre, ffn_act=ffn_act, ln2=ln2_cache,
        )
        layers.append(lc)
    return h2


def _label_array(labels: Sequence[int], rows: int, classes: int) -> np.ndarray:
    if len(labels) != rows:
        raise ValueError(f"{len(labels)} labels for batch of {rows}")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if labels_arr.min() < 0 or labels_arr.max() >= classes:
        raise ValueError(f"labels must lie in [0, {classes}), got {labels}")
    return labels_arr


def cross_entropy_loss(output: ForwardOutput, labels: Sequence[int]) -> float:
    """Mean negative log-probability of the true class, from the logits.

    The log-softmax (log-partition minus true-class logit, both shifted by
    the row maximum) stays finite where the true class's probability
    underflows to 0.
    """
    logits = output.logits
    labels_arr = _label_array(labels, *logits.shape)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_partition = np.log(np.exp(shifted).sum(axis=1))
    true_logit = shifted[np.arange(len(labels_arr)), labels_arr]
    return float(log_partition.mean() - true_logit.mean())


# ----------------------------------------------------------------- backward


def backward(
    params: ModelParameters,
    batch: Sequence[TokenSequence],
    labels: Sequence[int],
    rng: np.random.Generator | None = None,
) -> tuple[ForwardOutput, GradientSet]:
    """Train-mode forward over `batch`, then exact gradients of its mean
    cross-entropy loss for every parameter.

    The cache is consumed here: the returned output has `cache=None`.
    """
    labels_arr = _label_array(labels, len(batch), params.config.num_classes)
    out = forward(params, batch, train_mode=True, rng=rng)
    cache, out.cache = out.cache, None
    b = len(labels_arr)
    dlogits = out.probabilities.copy()
    dlogits[np.arange(b), labels_arr] -= 1.0
    dlogits /= b
    grads, _ = _backward_core(params, cache, dlogits, want_param_grads=True)
    return out, grads


def grad_wrt_embeddings(
    params: ModelParameters, output: ForwardOutput, target: int
) -> np.ndarray:
    """d(target logit)/d(embeddings) for every batch row, shape (B, T, D) with
    zeros at padding; parameters untouched."""
    cache = output.cache
    if cache is None:
        raise StaleCacheError(
            "output has no backward cache; compute it with forward_from_embeddings()"
        )
    b, c = output.logits.shape
    dlogits = np.zeros((b, c), dtype=output.logits.dtype)
    dlogits[:, target] = 1.0
    _, d_embed = _backward_core(params, cache, dlogits, want_param_grads=False)
    return cache["packing"].scatter(d_embed)


def _backward_core(params, cache, dlogits, want_param_grads: bool):
    """Gradients from the cache of one pass: (parameter grads or None, the
    packed (N, D) gradient of the embeddings)."""
    cfg = params.config
    p = params.tensors
    grads: GradientSet = (
        {name: np.zeros_like(t) for name, t in params.tensors.items()}
        if want_param_grads
        else {}
    )

    pre_act, pre_lin, cls_vec = cache["pre_act"], cache["pre_lin"], cache["cls_vec"]
    packing = cache["packing"]

    if want_param_grads:
        grads["classifier.weight"] = pre_act.T @ dlogits
        grads["classifier.bias"] = dlogits.sum(axis=0)
    d_pre_act = dlogits @ p["classifier.weight"].T
    d_pre_lin = d_pre_act * (pre_lin > 0.0)
    if want_param_grads:
        grads["prehead.weight"] = cls_vec.T @ d_pre_lin
        grads["prehead.bias"] = d_pre_lin.sum(axis=0)
    d_cls = d_pre_lin @ p["prehead.weight"].T

    dx = np.zeros_like(cache["final_hidden"])
    dx[packing.cls_rows] = d_cls

    for i in reversed(range(cfg.num_layers)):
        pre = f"layer{i}."
        lc = cache["layers"][i]

        d_sum2, d_scale2, d_shift2 = _layer_norm_backward(
            dx, lc["ln2"], p[pre + "ffn_norm.scale"]
        )
        if want_param_grads:
            grads[pre + "ffn_norm.scale"] = d_scale2
            grads[pre + "ffn_norm.shift"] = d_shift2
        d_h1 = d_sum2.copy()
        d_ffn_out = d_sum2
        if "ffn_keep" in lc:
            d_ffn_out = d_ffn_out * lc["ffn_keep"]

        if want_param_grads:
            grads[pre + "ffn_out.weight"] = lc["ffn_act"].T @ d_ffn_out
            grads[pre + "ffn_out.bias"] = d_ffn_out.sum(axis=0)
        d_ffn_act = d_ffn_out @ p[pre + "ffn_out.weight"].T
        d_ffn_pre = d_ffn_act * gelu_grad(lc["ffn_pre"])
        if want_param_grads:
            grads[pre + "ffn_in.weight"] = lc["h1"].T @ d_ffn_pre
            grads[pre + "ffn_in.bias"] = d_ffn_pre.sum(axis=0)
        d_h1 += d_ffn_pre @ p[pre + "ffn_in.weight"].T

        d_sum1, d_scale1, d_shift1 = _layer_norm_backward(
            d_h1, lc["ln1"], p[pre + "attn_norm.scale"]
        )
        if want_param_grads:
            grads[pre + "attn_norm.scale"] = d_scale1
            grads[pre + "attn_norm.shift"] = d_shift1
        d_x = d_sum1.copy()
        d_attn = d_sum1
        if "attn_keep" in lc:
            d_attn = d_attn * lc["attn_keep"]

        if want_param_grads:
            grads[pre + "attn_out.weight"] = lc["merged"].T @ d_attn
            grads[pre + "attn_out.bias"] = d_attn.sum(axis=0)
        d_qkv = _attention_backward(
            d_attn @ p[pre + "attn_out.weight"].T,
            lc["q"], lc["k"], lc["v"], packing, cfg.num_heads, lc["probs"],
        )

        x_in = lc["x_in"]
        for dname, dm in zip(("attn_q", "attn_k", "attn_v"), d_qkv):
            if want_param_grads:
                grads[pre + dname + ".weight"] = x_in.T @ dm
                grads[pre + dname + ".bias"] = dm.sum(axis=0)
            d_x += dm @ p[pre + dname + ".weight"].T
        dx = d_x

    if "embed_keep" in cache:
        dx = dx * cache["embed_keep"]

    if want_param_grads:
        np.add.at(grads["token_embedding"], packing.gather(cache["ids"]), dx)
        t = packing.shape[1]
        grads["position_embedding"][:t] = packing.scatter(dx).sum(axis=0)

    return (grads if want_param_grads else None), dx


# --------------------------------------------------------------- checkpoint


def save_checkpoint(params: ModelParameters, path: str, record: dict | None = None) -> None:
    """Write magic, length-prefixed JSON header, then raw little-endian tensors.

    `record`, if given, is stored verbatim in the header for load_checkpoint
    to hand back. The file is written beside `path` under a temporary name
    and moved into place, so a failed write leaves any previous file intact.
    """
    table = {}
    offset = 0
    blobs = []
    for name in parameter_shapes(params.config):
        tensor = np.ascontiguousarray(params.tensors[name])
        dtype = tensor.dtype.newbyteorder("<")
        blob = tensor.astype(dtype, copy=False).tobytes()
        table[name] = {
            "shape": list(tensor.shape),
            "dtype": dtype.str,
            "offset": offset,
        }
        blobs.append(blob)
        offset += len(blob)
    header = {"config": asdict(params.config), "tensors": table}
    if record is not None:
        header[RECORD_KEY] = record
    header_bytes = json.dumps(header).encode("utf-8")
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise


def load_checkpoint(path: str) -> tuple[ModelParameters, dict]:
    """Read and validate a checkpoint: (parameters, record).

    Round-trips save_checkpoint bit-exactly; a file saved without a record
    loads with {}.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes {raw[:4]!r}")
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated before header length")
    (header_len,) = struct.unpack("<I", raw[4:8])
    header_end = 8 + header_len
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8:header_end].decode("utf-8"))
        config = ModelConfig(**header["config"])
        table = header["tensors"]
        record = header.get(RECORD_KEY, {})
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(record, dict):
        raise CheckpointError(f"{path}: header {RECORD_KEY!r} must be a JSON object")

    expected_shapes = parameter_shapes(config)
    if set(table) != set(expected_shapes):
        raise CheckpointError(f"{path}: tensor table does not match config")

    data = raw[header_end:]
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes.items():
        entry = table[name]
        if tuple(entry["shape"]) != shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {entry['shape']}, config implies {shape}"
            )
        dtype = np.dtype(entry["dtype"])
        nbytes = int(np.prod(shape)) * dtype.itemsize
        start = entry["offset"]
        if start + nbytes > len(data):
            raise CheckpointError(f"{path}: tensor {name} extends past end of file")
        tensors[name] = np.frombuffer(
            data, dtype=dtype, count=int(np.prod(shape)), offset=start
        ).reshape(shape).copy()
    return ModelParameters(config=config, tensors=tensors), record

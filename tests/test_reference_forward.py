"""`forward`'s eval logits against a forward written from the model's
definition, with none of model.py's helpers: token plus position
embeddings, then post-layer-norm encoder layers (self-attention over each
sequence's real positions, then a GELU feed-forward), then a head that
reads the [CLS] vector."""

import math

import numpy as np

from conftest import widen_parameters
from phishlens.model import ModelConfig, forward, init_parameters
from phishlens.tokenizer import TokenSequence

EPS = 1e-12  # the layer norms' epsilon


def linear(tensors, x, name):
    return x @ tensors[name + ".weight"] + tensors[name + ".bias"]


def layer_norm(tensors, x, name):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + EPS) * tensors[name + ".scale"] + tensors[name + ".shift"]


def gelu(x):
    return np.vectorize(lambda v: 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))))(x)


def reference_logits(cfg, tensors, ids, mask):
    """(B, classes) logits of padded (B, T) ids, one sequence at a time:
    every position runs through every layer, and a query attends to the
    positions that `mask` marks real, with scores scaled by 1/sqrt(D/h)."""
    h, hd = cfg.num_heads, cfg.hidden_dim // cfg.num_heads
    logits = []
    for seq_ids, seq_mask in zip(ids, mask):
        x = tensors["token_embedding"][seq_ids] + tensors["position_embedding"][: len(seq_ids)]
        for i in range(cfg.num_layers):
            pre = f"layer{i}."
            q, k, v = (linear(tensors, x, pre + name) for name in ("attn_q", "attn_k", "attn_v"))
            context = np.zeros_like(x)
            for head in range(h):
                cols = slice(head * hd, (head + 1) * hd)
                scores = q[:, cols] @ k[:, cols].T / math.sqrt(hd)
                scores[:, seq_mask == 0] = -np.inf
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                weights /= weights.sum(axis=1, keepdims=True)
                context[:, cols] = weights @ v[:, cols]
            attended = x + linear(tensors, context, pre + "attn_out")
            x = layer_norm(tensors, attended, pre + "attn_norm")
            ffn = linear(tensors, gelu(linear(tensors, x, pre + "ffn_in")), pre + "ffn_out")
            x = layer_norm(tensors, x + ffn, pre + "ffn_norm")
        head_in = np.maximum(linear(tensors, x[0], "prehead"), 0.0)
        logits.append(linear(tensors, head_in, "classifier"))
    return np.array(logits)


def test_eval_forward_matches_the_reference_on_a_ragged_batch(vocab):
    # two layers: the first computes every row, the last only the [CLS] rows
    cfg = ModelConfig(
        vocab_size=vocab.size, max_positions=16, hidden_dim=16, num_heads=2,
        num_layers=2, ffn_dim=32, dropout_rate=0.0,
    )
    params = widen_parameters(init_parameters(cfg, seed=11), seed=5)
    # real lengths 6, 3, 6, 1 and 4 in width 8; padded positions hold ids
    # too, and the last two columns are padding in every row
    lengths = [6, 3, 6, 1, 4]
    ids = np.random.default_rng(4).integers(5, vocab.size, (len(lengths), 8))
    mask = (np.arange(8) < np.array(lengths)[:, None]).astype(int)
    batch = [
        TokenSequence(input_ids=tuple(row), attention_mask=tuple(m), tokens=("t",) * n)
        for row, m, n in zip(ids.tolist(), mask.tolist(), lengths)
    ]
    expected = reference_logits(cfg, params.tensors, ids, mask)
    np.testing.assert_allclose(forward(params, batch).logits, expected, rtol=0, atol=1e-12)

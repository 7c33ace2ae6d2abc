"""`forward`'s eval logits and `backward`'s train-mode logits against a
forward written from the model's definition, with none of model.py's
helpers: token plus position embeddings, then post-layer-norm encoder
layers (self-attention over each sequence's real positions, then a GELU
feed-forward), then a head that reads the [CLS] vector; in train mode,
dropout under given keep masks on the embeddings and on each layer's
attention and feed-forward outputs."""

import math

import numpy as np

from conftest import widen_parameters
from phishlens import model
from phishlens.model import ModelConfig, backward, batch_arrays, forward, init_parameters
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


def reference_logits(cfg, tensors, ids, mask, keeps=None):
    """(B, classes) logits of padded (B, T) ids, one sequence at a time:
    every position runs through every layer, and a query attends to the
    positions that `mask` marks real, with scores scaled by 1/sqrt(D/h).
    With `keeps`, one (B, T, D) boolean keep mask per dropout site (the
    embeddings, then each layer's attention output and feed-forward
    output), each of those is multiplied by its mask and scaled by
    1/(1 - dropout_rate) at every position; of the last layer's outputs
    only the [CLS] row reaches the head, so only its masks there count."""
    h, hd = cfg.num_heads, cfg.hidden_dim // cfg.num_heads
    logits = []
    for b, (seq_ids, seq_mask) in enumerate(zip(ids, mask)):

        def dropout(x, site):
            if keeps is None:
                return x
            return x * keeps[site][b] / (1.0 - cfg.dropout_rate)

        x = tensors["token_embedding"][seq_ids] + tensors["position_embedding"][: len(seq_ids)]
        x = dropout(x, 0)
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
            attended = x + dropout(linear(tensors, context, pre + "attn_out"), 1 + 2 * i)
            x = layer_norm(tensors, attended, pre + "attn_norm")
            ffn = linear(tensors, gelu(linear(tensors, x, pre + "ffn_in")), pre + "ffn_out")
            x = layer_norm(tensors, x + dropout(ffn, 2 + 2 * i), pre + "ffn_norm")
        head_in = np.maximum(linear(tensors, x[0], "prehead"), 0.0)
        logits.append(linear(tensors, head_in, "classifier"))
    return np.array(logits)


def _ragged(vocab, dropout_rate=0.0):
    """A 2-layer model (the first layer computes every row, the last only
    the [CLS] rows) and a batch of real lengths 6, 3, 6, 1 and 4 in width
    8: (params, batch, padded ids, mask). Padded positions hold ids too,
    and the last two columns are padding in every row."""
    cfg = ModelConfig(
        vocab_size=vocab.size, max_positions=16, hidden_dim=16, num_heads=2,
        num_layers=2, ffn_dim=32, dropout_rate=dropout_rate,
    )
    params = widen_parameters(init_parameters(cfg, seed=11), seed=5)
    lengths = [6, 3, 6, 1, 4]
    ids = np.random.default_rng(4).integers(5, vocab.size, (len(lengths), 8))
    mask = (np.arange(8) < np.array(lengths)[:, None]).astype(int)
    batch = [
        TokenSequence(input_ids=tuple(row), attention_mask=tuple(m), tokens=("t",) * n)
        for row, m, n in zip(ids.tolist(), mask.tolist(), lengths)
    ]
    return params, batch, ids, mask


def test_eval_forward_matches_the_reference_on_a_ragged_batch(vocab):
    params, batch, ids, mask = _ragged(vocab)
    expected = reference_logits(params.config, params.tensors, ids, mask)
    np.testing.assert_allclose(forward(params, batch).logits, expected, rtol=0, atol=1e-12)


def test_train_mode_logits_match_the_reference_under_the_same_masks(vocab):
    # the masks of a whole-batch draw on backward's seed, over the width
    # that backward runs at (the batch's longest real length, 6)
    params, batch, _, _ = _ragged(vocab, dropout_rate=0.1)
    out, _ = backward(params, batch, [1, 0, 1, 0, 1], rng=np.random.default_rng(21))
    ids, mask = batch_arrays(batch)
    keeps = model._dropout_masks(params.config, mask.shape, np.random.default_rng(21))
    assert not all(k.all() for k in keeps)
    expected = reference_logits(params.config, params.tensors, ids, mask, keeps)
    np.testing.assert_allclose(out.logits, expected, rtol=0, atol=1e-12)

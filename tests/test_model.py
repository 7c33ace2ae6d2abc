import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from conftest import make_seq, synthetic_corpus, toy_batch, widen_parameters
from phishlens import model as model_mod
from phishlens.corpus import split
from phishlens.model import (
    CheckpointError,
    ConfigError,
    ModelConfig,
    StaleCacheError,
    backward,
    batch_arrays,
    cross_entropy_loss,
    embed,
    forward,
    forward_from_embeddings,
    gelu,
    grad_wrt_embeddings,
    init_parameters,
    load_checkpoint,
    parameter_count,
    parameter_shapes,
    save_checkpoint,
    softmax,
)
from phishlens.tokenizer import encode
from phishlens.training import TrainConfig, train

LABELS = [1, 0]


def finite_difference_gradients(params, batch, labels, step=1e-3):
    """Central-difference loss gradient for every coordinate of every tensor."""
    fd = {}
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        out = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = cross_entropy_loss(forward(params, batch), labels)
            flat[i] = orig - step
            lm = cross_entropy_loss(forward(params, batch), labels)
            flat[i] = orig
            out[i] = (lp - lm) / (2.0 * step)
        fd[name] = out.reshape(tensor.shape)
    return fd


def test_toy_parameter_count_matches_hand_formula(toy_config):
    # 120*16 + 32*16 + [4*(256+16) + 32 + (16*32+32) + (32*16+16) + 32] + 272 + 34
    assert parameter_count(ModelConfig.toy()) == 4962
    # same sum with the fixture vocabulary's 218 rows: 218*16 = 3488
    assert parameter_count(toy_config) == 3488 + 512 + 2224 + 272 + 34


def test_paper_scale_parameter_count_in_band():
    cfg = ModelConfig.paper_scale()
    count = parameter_count(cfg)
    assert 60_000_000 <= count <= 70_000_000
    assert cfg.num_layers == 6 and cfg.num_heads == 12
    assert cfg.hidden_dim == 768 and cfg.ffn_dim == 3072 and cfg.max_positions == 512


def test_init_deterministic(toy_config):
    a = init_parameters(toy_config, seed=11)
    b = init_parameters(toy_config, seed=11)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    c = init_parameters(toy_config, seed=12)
    assert not np.array_equal(a.tensors["token_embedding"], c.tensors["token_embedding"])


def test_init_truncation_and_constants(toy_params):
    w = toy_params.tensors["layer0.attn_q.weight"]
    assert np.abs(w).max() <= 0.04 + 1e-12  # two standard deviations
    assert np.all(toy_params.tensors["layer0.attn_norm.scale"] == 1.0)
    assert np.all(toy_params.tensors["prehead.bias"] == 0.0)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(
            vocab_size=10, max_positions=8, hidden_dim=10, num_heads=3,
            num_layers=1, ffn_dim=8,
        )


def test_forward_shapes_and_probability_rows(toy_params):
    out = forward(toy_params, toy_batch())
    assert out.logits.shape == (2, 2)
    assert out.probabilities.shape == (2, 2)
    np.testing.assert_allclose(out.probabilities.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(out.probabilities >= 0.0) and np.all(out.probabilities <= 1.0)


def test_forward_pure_without_dropout(toy_params):
    a = forward(toy_params, toy_batch())
    b = forward(toy_params, toy_batch())
    np.testing.assert_array_equal(a.logits, b.logits)


def test_forward_ignores_masked_token_ids(toy_params):
    base = toy_batch()
    altered = [base[0], make_seq([2, 44, 3, 99, 57, 0, 0, 0], 3, 8)]
    out_a = forward(toy_params, base)
    out_b = forward(toy_params, altered)
    np.testing.assert_array_equal(out_a.logits, out_b.logits)


def test_forward_batch_permutation_equivariance(toy_params):
    batch = toy_batch()
    out = forward(toy_params, batch)
    out_rev = forward(toy_params, list(reversed(batch)))
    np.testing.assert_allclose(out.logits, out_rev.logits[::-1], atol=1e-12)


def test_forward_rejects_overlong_sequence(toy_params):
    long_seq = make_seq(list(range(33)), 33, 33)
    with pytest.raises(ValueError):
        forward(toy_params, [long_seq])


def test_attention_rows_normalized_and_masked_weights_zero(toy_params):
    out = forward(toy_params, toy_batch(), train_mode=True)
    lengths = out.cache["mask"].sum(axis=1)
    groups = out.cache["packing"].groups
    for lc in out.cache["layers"]:
        key_counts = []
        for (n, _), probs in zip(groups, lc["probs"], strict=True):  # (G, h, n, n)
            assert probs.shape[-2:] == (n, n)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
            key_counts += [n] * probs.shape[0]
        # each sequence has exactly one key column per real position: none for padding
        assert sorted(key_counts) == sorted(lengths)


def test_softmax_shift_invariance():
    z = np.array([[1.3, -0.4], [0.0, 2.2]])
    np.testing.assert_allclose(softmax(z), softmax(z + 7.5), atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bit_identical_to_the_textbook_formula(dtype):
    x = (np.random.default_rng(0).normal(size=(64, 96)) * 4.0).astype(dtype)
    expected = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
    got = gelu(x)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, expected)


def test_dropout_active_only_in_train_mode(toy_config):
    cfg = ModelConfig(
        vocab_size=toy_config.vocab_size, max_positions=32, hidden_dim=16,
        num_heads=2, num_layers=1, ffn_dim=32, dropout_rate=0.5,
    )
    params = init_parameters(cfg, seed=3)
    batch = toy_batch()
    eval_a = forward(params, batch, train_mode=False)
    eval_b = forward(params, batch, train_mode=False)
    np.testing.assert_array_equal(eval_a.logits, eval_b.logits)
    rng = np.random.default_rng(0)
    train_a = forward(params, batch, train_mode=True, rng=rng)
    train_b = forward(params, batch, train_mode=True, rng=rng)
    assert not np.array_equal(train_a.logits, train_b.logits)


def test_dropout_without_rng_is_rejected(toy_config):
    params = init_parameters(dataclasses.replace(toy_config, dropout_rate=0.5), seed=3)
    with pytest.raises(ValueError, match="rng"):
        forward(params, toy_batch(), train_mode=True)
    with pytest.raises(ValueError, match="rng"):
        backward(params, toy_batch(), LABELS)
    forward(params, toy_batch())  # eval mode drops nothing and needs no rng


def test_cross_entropy_uniform_logits():
    out_like = forward_output_from_logits(np.zeros((1, 2)))
    assert cross_entropy_loss(out_like, [0]) == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_saturated_correct():
    out_like = forward_output_from_logits(np.array([[20.0, -20.0]]))
    assert cross_entropy_loss(out_like, [0]) < 1e-8


def test_cross_entropy_hand_computed_mean():
    logits = np.array([[0.7, -0.3], [1.1, 0.4]])
    out_like = forward_output_from_logits(logits)
    expected = np.mean(
        [
            -np.log(np.exp(-0.3 - 0.7) / (1 + np.exp(-0.3 - 0.7))),  # row 0, label 1
            -np.log(1.0 / (1 + np.exp(0.4 - 1.1))),  # row 1, label 0
        ]
    )
    assert cross_entropy_loss(out_like, [1, 0]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dtype,gap", [(np.float64, 800.0), (np.float32, 120.0)])
def test_cross_entropy_finite_when_true_class_underflows(dtype, gap):
    # softmax of the true class underflows to exactly 0 at these gaps
    out_like = forward_output_from_logits(np.array([[gap, 0.0]], dtype=dtype))
    assert out_like.probabilities[0, 1] == 0.0
    assert cross_entropy_loss(out_like, [1]) == pytest.approx(gap, rel=1e-6)


def test_cross_entropy_rejects_bad_labels():
    out_like = forward_output_from_logits(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cross_entropy_loss(out_like, [0, 2])
    with pytest.raises(ValueError):
        cross_entropy_loss(out_like, [0])


def forward_output_from_logits(logits):
    from phishlens.model import ForwardOutput

    return ForwardOutput(logits=logits, probabilities=softmax(logits), cache={})


def test_gradients_match_finite_differences(toy_params):
    params = widen_parameters(toy_params)
    batch = toy_batch()
    _, grads = backward(params, batch, LABELS)
    fd = finite_difference_gradients(params, batch, LABELS)
    for name in params.tensors:
        a, f = grads[name].reshape(-1), fd[name].reshape(-1)
        rel = np.linalg.norm(a - f) / max(np.linalg.norm(a), np.linalg.norm(f), 1e-12)
        assert rel < 1e-4, f"{name}: tensor relative error {rel:.3e}"
        assert np.abs(a - f).max() < 1e-6, f"{name}: abs deviation {np.abs(a - f).max():.3e}"


def test_pad_position_embedding_gradients_exactly_zero(toy_params):
    params = widen_parameters(toy_params)
    batch = toy_batch()  # pads use token id 0, which never appears unmasked
    _, grads = backward(params, batch, LABELS)
    assert np.all(grads["token_embedding"][0] == 0.0)
    # position rows beyond the longest real prefix see only masked positions
    assert np.all(grads["position_embedding"][8:] == 0.0)


def test_duplicated_batch_gives_identical_gradients(toy_params):
    params = widen_parameters(toy_params)
    batch = toy_batch()
    _, grads = backward(params, batch, LABELS)
    _, grads2 = backward(params, batch + batch, LABELS + LABELS)
    for name in grads:
        np.testing.assert_allclose(grads[name], grads2[name], atol=1e-12)


def test_backward_rejects_label_count_mismatch(toy_params):
    with pytest.raises(ValueError, match="1 labels for batch of 2"):
        backward(toy_params, toy_batch(), [1])


def _four_layer_params(max_positions=8):
    config = ModelConfig(
        vocab_size=60, max_positions=max_positions, hidden_dim=64,
        num_heads=4, num_layers=4, ffn_dim=256, dropout_rate=0.0,
    )
    return init_parameters(config, seed=5)


def test_only_differentiated_passes_keep_a_cache():
    params = _four_layer_params()
    batch = toy_batch()
    assert forward(params, batch).cache is None
    ids, mask = batch_arrays(batch)
    from_embeddings = forward_from_embeddings(params, embed(params, ids), mask)
    for out in (forward(params, batch, train_mode=True), from_embeddings):
        assert len(out.cache["layers"]) == params.config.num_layers


def test_backward_output_matches_eval_forward_without_cache():
    params = _four_layer_params()
    out, _ = backward(params, toy_batch(), LABELS)
    np.testing.assert_array_equal(out.logits, forward(params, toy_batch()).logits)
    assert out.cache is None


def test_grad_wrt_embeddings_names_the_pass_that_keeps_a_cache(toy_params):
    with pytest.raises(StaleCacheError, match=r"forward_from_embeddings\(\)"):
        grad_wrt_embeddings(toy_params, forward(toy_params, toy_batch()), target=1)


def test_eval_forward_holds_no_cache_memory():
    # d=64, T=128, B=8, 4 layers: float64 attention maps are 4 MB per layer
    params = _four_layer_params(max_positions=128)
    rng = np.random.default_rng(0)
    batch = [make_seq([2, *rng.integers(5, 60, 126).tolist(), 3], 128, 128) for _ in range(8)]

    def traced(train_mode):
        tracemalloc.start()
        try:
            out = forward(params, batch, train_mode=train_mode)
            _, peak = tracemalloc.get_traced_memory()
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in arrays.statistics("filename"))
        return held - out.logits.nbytes - out.probabilities.nbytes, peak

    eval_held, eval_peak = traced(False)
    train_held, train_peak = traced(True)
    assert eval_held == 0
    assert train_held > 10 * 2**20
    assert eval_peak < 0.5 * train_peak


def test_checkpoint_round_trip_bit_exact(toy_params, tmp_path):
    path = str(tmp_path / "model.phl")
    save_checkpoint(toy_params, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.config == toy_params.config
    for name in toy_params.tensors:
        assert np.array_equal(loaded.tensors[name], toy_params.tensors[name])
        assert loaded.tensors[name].dtype == toy_params.tensors[name].dtype


def test_checkpoint_record_round_trips_and_defaults_to_empty(toy_params, tmp_path):
    path = str(tmp_path / "model.phl")
    record = {"split": {"seed": 5, "balance": "none"}, "vocab_sha256": "ab"}
    save_checkpoint(toy_params, path, record)
    assert load_checkpoint(path)[1] == record
    save_checkpoint(toy_params, path)
    assert load_checkpoint(path)[1] == {}


def test_checkpoint_record_not_an_object_rejected(toy_params, tmp_path):
    path = str(tmp_path / "model.phl")
    save_checkpoint(toy_params, path, [1, 2])
    with pytest.raises(CheckpointError, match="must be a JSON object"):
        load_checkpoint(path)


def test_checkpoint_failed_write_keeps_previous_file(toy_params, tmp_path, monkeypatch):
    path = tmp_path / "model.phl"
    save_checkpoint(toy_params, str(path))
    before = path.read_bytes()

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):  # the magic fits, nothing after it
            if self.fh.tell():
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    real_open = open
    monkeypatch.setattr(
        model_mod, "open", lambda *a, **k: FullDisk(real_open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(widen_parameters(toy_params), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.phl"]


def test_checkpoint_truncated_file_rejected(toy_params, tmp_path):
    path = str(tmp_path / "model.phl")
    save_checkpoint(toy_params, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(toy_params, tmp_path):
    path = str(tmp_path / "model.phl")
    save_checkpoint(toy_params, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_parameter_shapes_cover_all_tensors(toy_config, toy_params):
    shapes = parameter_shapes(toy_config)
    assert set(shapes) == set(toy_params.tensors)
    for name, shape in shapes.items():
        assert toy_params.tensors[name].shape == shape


def test_float32_bulk_mode(toy_config, tmp_path):
    params = init_parameters(toy_config, seed=4, dtype=np.float32)
    assert all(t.dtype == np.float32 for t in params.tensors.values())
    out = forward(params, toy_batch())
    np.testing.assert_allclose(out.probabilities.sum(axis=1), 1.0, atol=1e-6)
    path = str(tmp_path / "model32.phl")
    save_checkpoint(params, path)
    loaded, _ = load_checkpoint(path)
    for name in params.tensors:
        assert loaded.tensors[name].dtype == np.float32
        assert np.array_equal(loaded.tensors[name], params.tensors[name])


def _arrays_in(node):
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _arrays_in(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _arrays_in(value)


def test_float32_model_computes_in_float32(toy_config):
    cfg = dataclasses.replace(toy_config, num_layers=2, dropout_rate=0.1)
    params = widen_parameters(init_parameters(cfg, seed=4, dtype=np.float32), seed=5)
    out = forward(params, toy_batch(), train_mode=True, rng=np.random.default_rng(0))
    dtypes = {a.dtype for a in _arrays_in(out.cache)}
    assert dtypes == {np.dtype(np.float32), np.dtype(np.int64)}
    _, grads = backward(params, toy_batch(), LABELS, rng=np.random.default_rng(0))
    assert all(g.dtype == np.float32 for g in grads.values())

    as64 = dataclasses.replace(
        params, tensors={k: v.astype(np.float64) for k, v in params.tensors.items()}
    )
    logits32 = forward(params, toy_batch()).logits
    assert logits32.dtype == np.float32
    np.testing.assert_allclose(logits32, forward(as64, toy_batch()).logits, atol=1e-4)


def test_collator_drops_columns_that_are_padding_in_every_row():
    ids, mask = batch_arrays(toy_batch(max_len=16))
    assert ids.shape == mask.shape == (2, 5)  # longest row has 5 real tokens
    np.testing.assert_array_equal(mask.sum(axis=1), [5, 3])


def test_trimmed_forward_equals_full_width_pass(toy_params):
    params = widen_parameters(toy_params, seed=3)
    batch = toy_batch(max_len=32)
    ids = np.array([seq.input_ids for seq in batch])
    mask = np.array([seq.attention_mask for seq in batch], dtype=np.float64)
    full = forward_from_embeddings(params, embed(params, ids), mask)
    assert full.cache["mask"].shape == (2, 32)
    np.testing.assert_allclose(forward(params, batch).logits, full.logits, rtol=0, atol=1e-10)


def test_max_len_changes_neither_logits_nor_gradients(toy_params, vocab):
    params = widen_parameters(toy_params, seed=3)
    texts = ["free money click now", "meeting agenda for monday"]
    labels = [1, 0]
    runs = []
    for max_len in (16, 32):
        batch = [encode(text, vocab, max_len) for text in texts]
        out, grads = backward(params, batch, labels)
        runs.append((forward(params, batch).logits, out.logits, grads))
    (eval16, train16, grads16), (eval32, train32, grads32) = runs
    np.testing.assert_array_equal(eval16, eval32)
    np.testing.assert_array_equal(train16, train32)
    for name in grads16:
        np.testing.assert_array_equal(grads16[name], grads32[name], err_msg=name)


def test_row_without_real_token_is_rejected(toy_params):
    empty = make_seq([0] * 8, 0, 8)
    with pytest.raises(ValueError, match="at least one real token"):
        forward(toy_params, [toy_batch()[0], empty])


def test_row_whose_first_position_is_padding_is_rejected(toy_params):
    # the head reads [CLS] at position 0, which packing keeps only if it is real
    ids, mask = batch_arrays(toy_batch())
    mask[1, 0] = 0.0
    with pytest.raises(ValueError, match=r"position 0 \(\[CLS\]\) must be real"):
        forward_from_embeddings(toy_params, embed(toy_params, ids), mask)


def test_gradients_sampled_on_deeper_stack(vocab):
    # three layers, four heads: exercises cross-layer chaining the toy
    # config cannot, with a sampled finite-difference comparison
    config = ModelConfig(
        vocab_size=60, max_positions=12, hidden_dim=32,
        num_heads=4, num_layers=3, ffn_dim=48, dropout_rate=0.0,
    )
    params = widen_parameters(init_parameters(config, seed=9), seed=10)
    batch = [
        make_seq([2, 7, 9, 30, 3, 0, 0, 0, 0, 0, 0, 0], 5, 12),
        make_seq([2, 41, 8, 8, 17, 22, 3, 0, 0, 0, 0, 0], 7, 12),
        make_seq([2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 2, 12),
    ]
    labels = [1, 0, 1]
    _, grads = backward(params, batch, labels)

    rng = np.random.default_rng(0)
    step = 1e-3
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        aflat = grads[name].reshape(-1)
        picks = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + step
            lp = cross_entropy_loss(forward(params, batch), labels)
            flat[i] = orig - step
            lm = cross_entropy_loss(forward(params, batch), labels)
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            assert abs(aflat[i] - fd) < 1e-6, f"{name}[{i}]: {aflat[i]} vs {fd}"


def _directional_fd(params, batch, labels, direction, step):
    """(L(θ + step·u) − L(θ − step·u)) / 2·step for a direction u given per tensor."""
    losses = []
    for sign in (1.0, -1.0):
        moved = params.copy()
        for name, u in direction.items():
            moved.tensors[name] += sign * step * u
        losses.append(cross_entropy_loss(forward(moved, batch), labels))
    return (losses[0] - losses[1]) / (2.0 * step)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_directional_derivatives_match_central_differences(toy_params, seed):
    # toy_batch() is padded. The tolerance is absolute, so a tensor whose
    # true gradient is 0 (layer0.attn_k.bias) passes on merit, not rounding.
    params = widen_parameters(toy_params)
    batch = toy_batch()
    _, grads = backward(params, batch, LABELS)
    rng = np.random.default_rng(seed)
    units = {}
    for name, tensor in params.tensors.items():
        u = rng.normal(size=tensor.shape)
        units[name] = u / np.linalg.norm(u)
    checks = [{name: u} for name, u in units.items()] + [units]  # each tensor, then all
    for direction in checks:
        analytic = sum(float((grads[name] * u).sum()) for name, u in direction.items())
        fd = _directional_fd(params, batch, LABELS, direction, step=1e-5)
        label = next(iter(direction)) if len(direction) == 1 else "all tensors"
        assert abs(analytic - fd) < 1e-8, f"{label}: {analytic} vs {fd}"


def _ragged_batch():
    rng = np.random.default_rng(4)
    return [
        make_seq([2, *rng.integers(5, 100, n - 2).tolist(), 3], n, 16)
        for n in (12, 3, 7, 16, 5)
    ]


def _assert_forward_equals_single_rows(params, batch):
    probs = forward(params, batch).probabilities
    for row, seq in enumerate(batch):
        np.testing.assert_allclose(
            probs[row], forward(params, [seq]).probabilities[0], rtol=0, atol=1e-12
        )


def _assert_gradients_equal_mean_of_single_rows(params, batch, labels):
    _, grads = backward(params, batch, labels)
    singles = [backward(params, [seq], [label])[1] for seq, label in zip(batch, labels)]
    for name in grads:
        mean = sum(g[name] for g in singles) / len(batch)
        np.testing.assert_allclose(grads[name], mean, rtol=0, atol=1e-12, err_msg=name)


def test_padded_batch_forward_equals_single_rows(toy_params):
    _assert_forward_equals_single_rows(widen_parameters(toy_params, seed=3), _ragged_batch())


def test_padded_batch_gradients_equal_mean_of_single_rows(toy_params):
    _assert_gradients_equal_mean_of_single_rows(
        widen_parameters(toy_params, seed=3), _ragged_batch(), [1, 0, 0, 1, 1]
    )


def test_embedding_gradients_exactly_zero_at_padding(toy_params):
    params = widen_parameters(toy_params, seed=3)
    batch = _ragged_batch()
    ids = np.array([seq.input_ids for seq in batch])
    mask = np.array([seq.attention_mask for seq in batch], dtype=np.float64)
    out = forward_from_embeddings(params, embed(params, ids), mask)
    d_embed = grad_wrt_embeddings(params, out, target=1)
    assert d_embed.shape == (*ids.shape, params.config.hidden_dim)
    assert np.all(d_embed[mask == 0.0] == 0.0)
    assert np.all(np.abs(d_embed[mask == 1.0]).sum(axis=-1) > 0.0)


def test_train_cache_holds_real_positions_only(toy_config):
    cfg = dataclasses.replace(toy_config, num_layers=2, dropout_rate=0.1)
    params = init_parameters(cfg, seed=4)
    batch = _ragged_batch()
    n_real = sum(seq.real_length for seq in batch)  # 43 of 5 x 16 positions
    out = forward(params, batch, train_mode=True, rng=np.random.default_rng(0))
    cache = out.cache
    assert cache["final_hidden"].shape[0] == cache["embed_keep"].shape[0] == n_real
    for lc in cache["layers"]:
        positionwise = {k: v for k, v in lc.items() if k != "probs"}
        assert set(positionwise) == {
            "x_in", "q", "k", "v", "merged", "attn_keep", "h1", "ln1",
            "ffn_pre", "ffn_act", "ffn_keep", "ln2",
        }
        for arr in _arrays_in(positionwise):
            assert arr.shape[0] == n_real
        # one group per distinct real length (3, 5, 7, 12, 16), one sequence each
        assert [probs.shape for probs in lc["probs"]] == [
            (1, cfg.num_heads, n, n) for n in (3, 5, 7, 12, 16)
        ]


def _repeated_length_batch():
    rng = np.random.default_rng(6)
    return [
        make_seq([2, *rng.integers(5, 100, n - 2).tolist(), 3], n, 16)
        for n in (12, 5, 12, 3, 5)
    ]


def test_repeated_length_batch_forward_equals_single_rows(toy_params):
    batch = _repeated_length_batch()
    assert [n for n, _ in model_mod._Packing(batch_arrays(batch)[1]).groups] == [3, 5, 12]
    _assert_forward_equals_single_rows(widen_parameters(toy_params, seed=3), batch)


def test_repeated_length_batch_gradients_equal_mean_of_single_rows(toy_params):
    _assert_gradients_equal_mean_of_single_rows(
        widen_parameters(toy_params, seed=3), _repeated_length_batch(), [1, 0, 0, 1, 1]
    )


def test_train_cache_holds_attention_of_real_positions_only(toy_params):
    batch = _repeated_length_batch()
    out = forward(toy_params, batch, train_mode=True)
    h = toy_params.config.num_heads
    lengths = [seq.real_length for seq in batch]
    for lc in out.cache["layers"]:
        held = sum(probs.size for probs in lc["probs"])
        assert held == h * sum(n * n for n in lengths)  # not B * h * 16 * 16


def _key_masked_attention(q, k, v, packing, h, probs_cache):
    """Reference: every query position attends over the whole (B, T) width,
    with an additive -1e9 on the scores of padded keys."""
    b, t = packing.shape
    real = np.ones(b * t, dtype=bool)
    if packing.index is not None:
        real[:] = False
        real[packing.index] = True
    key_add = np.where(real.reshape(b, 1, 1, t), 0.0, -1e9)

    def heads(rows):
        return packing.scatter(rows).reshape(b, t, h, -1).transpose(0, 2, 1, 3)

    scores = heads(q) @ heads(k).transpose(0, 1, 3, 2) / np.sqrt(q.shape[1] // h)
    ctx = softmax(scores + key_add, axis=-1) @ heads(v)
    return packing.gather(ctx.transpose(0, 2, 1, 3).reshape(b, t, -1))


def test_mask_with_holes_matches_key_masked_reference(toy_params, monkeypatch):
    # padded positions between real ones; the rows have 6, 4 and 6 real positions
    params = widen_parameters(toy_params, seed=3)
    ids = np.random.default_rng(2).integers(5, 100, (3, 9))
    mask = np.array([
        [1, 1, 0, 1, 1, 0, 1, 1, 0],
        [1, 0, 0, 1, 1, 1, 0, 0, 0],
        [1, 1, 1, 1, 1, 1, 0, 0, 0],
    ], dtype=np.float64)
    emb = embed(params, ids)
    grouped = forward_from_embeddings(params, emb, mask).probabilities
    monkeypatch.setattr(model_mod, "_attention", _key_masked_attention)
    reference = forward_from_embeddings(params, emb, mask).probabilities
    np.testing.assert_allclose(grouped, reference, rtol=0, atol=1e-12)


class _FullWidth(model_mod._Packing):
    """Reference layout: every position of the batch runs, padding included,
    but attention groups only the real positions, so padded query rows get
    a zero context and padded keys get no attention."""

    def __init__(self, mask):
        super().__init__(np.ones_like(mask))
        real = mask != 0.0
        lengths = real.sum(axis=1)
        self.groups = [  # flat index b*T + t is the full-width row of (b, t)
            (int(n), np.flatnonzero(real & (lengths == n)[:, None]))
            for n in np.unique(lengths)
        ]


def test_seeded_dropout_training_matches_full_width_reference(vocab, monkeypatch):
    cfg = ModelConfig(
        vocab_size=vocab.size, max_positions=16, hidden_dim=16,
        num_heads=2, num_layers=2, ffn_dim=32, dropout_rate=0.1,
    )
    parts = split(synthetic_corpus(24, seed=8), 0.75, seed=0)
    train_cfg = TrainConfig(
        learning_rate=1e-3, train_batch_size=6, epochs=2, shuffle_seed=3, max_len=16,
    )
    packed, _ = train(init_parameters(cfg, seed=2), parts, vocab, train_cfg)
    monkeypatch.setattr(model_mod, "_Packing", _FullWidth)
    reference, _ = train(init_parameters(cfg, seed=2), parts, vocab, train_cfg)
    for name, tensor in packed.tensors.items():
        np.testing.assert_allclose(
            tensor, reference.tensors[name], rtol=0, atol=1e-12, err_msg=name
        )

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from conftest import (
    DATA,
    edit_checkpoint_header,
    make_seq,
    synthetic_corpus,
    toy_batch,
    widen_parameters,
    write_oversized_checkpoint,
)
from phishlens import model as model_mod
from phishlens.corpus import split
from phishlens.intgrad import IGConfig, integrated_gradients, make_baseline
from phishlens.lime_text import LimeConfig
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
    gelu_grad,
    gelu_phi,
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


def _train_pass(params, batch, rng=None):
    """The train-mode pass that backward runs on each piece, over the whole
    batch: its dropout masks drawn from `rng`, its cache kept."""
    ids, mask = batch_arrays(batch)
    keeps = model_mod._dropout_masks(params.config, mask.shape, rng)
    return model_mod._run_encoder(params, ids, mask, keeps, cache={})


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


@pytest.mark.parametrize("vocab_size", [None, 100_000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_draws_the_textbook_truncated_normal(toy_config, dtype, vocab_size):
    # each weight: std-0.02 normals, those beyond 2 std redrawn from the same
    # rng until none is, in parameter_shapes order; the rest are constants.
    # A 100,000-row token_embedding spans 25 draw blocks, and its first
    # redraw round alone more than one.
    config = toy_config
    if vocab_size is not None:
        config = dataclasses.replace(toy_config, vocab_size=vocab_size)
    rng = np.random.default_rng(11)
    params = init_parameters(config, seed=11, dtype=dtype)
    for name, shape in model_mod.parameter_shapes(config).items():
        if name.endswith((".scale", ".bias", ".shift")):
            continue
        expected = rng.normal(0.0, 0.02, size=shape)
        redraws = []
        while (np.abs(expected) > 0.04).any():
            bad = np.abs(expected) > 0.04
            redraws.append(int(bad.sum()))
            expected[bad] = rng.normal(0.0, 0.02, size=redraws[-1])
        if vocab_size and name == "token_embedding":
            assert redraws[0] > model_mod._DRAW_BLOCK
        assert params.tensors[name].dtype == dtype
        np.testing.assert_array_equal(params.tensors[name], expected.astype(dtype), err_msg=name)


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.complex128])
def test_init_refuses_a_dtype_a_checkpoint_cannot_hold(toy_config, dtype):
    message = f"dtype must be float32 or float64, got {np.dtype(dtype)}"
    with pytest.raises(ValueError, match=message):
        init_parameters(toy_config, seed=0, dtype=dtype)


@pytest.mark.parametrize("seed", [True, np.bool_(False)])
def test_init_refuses_a_bool_seed(toy_config, seed):
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
        init_parameters(toy_config, seed=seed)


def test_init_holds_no_float64_copy_of_a_float32_weight():
    # token_embedding is 5 MiB of the 5.2 MiB of float32 parameters; drawing
    # it through a whole float64 array would add 10 MiB
    cfg = ModelConfig(
        vocab_size=20_000, max_positions=32, hidden_dim=64, num_heads=2,
        num_layers=1, ffn_dim=64,
    )
    tracemalloc.start()
    try:
        params = init_parameters(cfg, seed=0, dtype=np.float32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(t.nbytes for t in params.tensors.values())
    assert peak <= held + 2 * 2**20, (peak, held)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(
            vocab_size=10, max_positions=8, hidden_dim=10, num_heads=3,
            num_layers=1, ffn_dim=8,
        )


@pytest.mark.parametrize(
    "change,message",
    [
        ({"num_heads": 0}, "num_heads must be at least 1, got 0"),
        ({"num_heads": -2}, "num_heads must be at least 1, got -2"),
        ({"ffn_dim": -4}, "ffn_dim must be at least 1, got -4"),
        ({"num_classes": 0}, "num_classes must be at least 1, got 0"),
        ({"num_layers": -1}, "num_layers must be at least 1, got -1"),
        ({"num_heads": 2.0}, "num_heads must be an integer, got 2.0"),
        ({"num_layers": 1.5}, "num_layers must be an integer, got 1.5"),
        ({"hidden_dim": True}, "hidden_dim must be an integer, got True"),
        ({"dropout_rate": 1.0}, r"dropout_rate must lie in \[0, 1\), got 1.0"),
        ({"dropout_rate": -0.1}, r"dropout_rate must lie in \[0, 1\), got -0.1"),
        ({"dropout_rate": float("nan")}, r"dropout_rate must lie in \[0, 1\), got nan"),
        ({"dropout_rate": True}, "dropout_rate must be a real number, got True"),
        ({"dropout_rate": "0.1"}, "dropout_rate must be a real number, got '0.1'"),
        ({"dropout_rate": 0.1j}, r"dropout_rate must be a real number, got 0.1j"),
    ],
)
def test_out_of_range_config_values_rejected(change, message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(ModelConfig.toy(), **change)


@pytest.mark.parametrize("cls", [ModelConfig, TrainConfig, LimeConfig, IGConfig])
def test_every_numeric_config_field_refuses_bools_and_stores_numpy_scalars_as_python(cls):
    valid = cls.toy() if cls is ModelConfig else cls()
    numeric = [f for f in dataclasses.fields(cls) if f.type in (int, float, "int", "float")]
    assert numeric
    for f in numeric:
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match=f"^{f.name} must be "):
                dataclasses.replace(valid, **{f.name: flag})
        value = getattr(valid, f.name)
        kind, scalar = (int, np.int64) if f.type in (int, "int") else (float, np.float32)
        stored = getattr(dataclasses.replace(valid, **{f.name: scalar(value)}), f.name)
        assert type(stored) is kind and stored == kind(scalar(value)), f.name


@pytest.mark.parametrize(
    ("cls", "name", "rule"),
    [
        (TrainConfig, "learning_rate", "be finite and positive"),
        (ModelConfig, "dropout_rate", r"lie in \[0, 1\)"),
        (LimeConfig, "kernel_width", "be positive with a finite, positive square"),
    ],
    ids=["TrainConfig", "ModelConfig", "LimeConfig"],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_an_int_past_float_range_breaks_the_field_rule(cls, name, rule, sign):
    valid = cls.toy() if cls is ModelConfig else cls()
    with pytest.raises(ConfigError, match=f"^{name} must {rule}, got {sign * 10**400}$"):
        dataclasses.replace(valid, **{name: sign * 10**400})


@pytest.mark.parametrize("cls", [ModelConfig, TrainConfig, LimeConfig, IGConfig])
def test_every_integer_config_field_but_seeds_stays_below_2_to_the_31(cls):
    valid = cls.toy() if cls is ModelConfig else cls()
    integers = [f.name for f in dataclasses.fields(cls) if f.type in (int, "int")]
    assert integers
    for name in integers:
        if name.endswith("seed"):  # any integer seeds numpy's generator
            assert getattr(dataclasses.replace(valid, **{name: 10**400}), name) == 10**400
            continue
        with pytest.raises(ConfigError, match=f"^{name} must be below {2**31}, got {2**31}$"):
            dataclasses.replace(valid, **{name: 2**31})


def test_numpy_integer_config_saves_and_reloads_equal(tmp_path):
    config = ModelConfig(
        vocab_size=np.int64(6), max_positions=np.int32(8), hidden_dim=4,
        num_heads=np.int64(2), num_layers=np.int64(1), ffn_dim=np.uint8(8),
    )
    fields = dataclasses.asdict(config)
    assert all(type(v) is int for k, v in fields.items() if k != "dropout_rate")
    path = str(tmp_path / "model.phl")
    save_checkpoint(init_parameters(config, seed=0), path)
    assert load_checkpoint(path)[0].config == config
    train_cfg = TrainConfig(train_batch_size=np.int64(4), epochs=np.int16(2))
    assert TrainConfig(**json.loads(json.dumps(dataclasses.asdict(train_cfg)))) == train_cfg


def _cache_buffers(obj, out: dict) -> dict:
    """The distinct base arrays reachable through the dicts and lists of a cache."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        out[id(obj)] = obj
    elif isinstance(obj, dict):
        for v in obj.values():
            _cache_buffers(v, out)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _cache_buffers(v, out)
    return out


@pytest.mark.parametrize(
    ("dtype", "train_mode", "dropout_rate"),
    [
        pytest.param(dtype, train_mode, rate, id=np.dtype(dtype).name + suffix)
        for train_mode, rate, suffix in [
            (False, 0.0, ""), (True, 0.0, "-train"), (True, 0.1, "-dropout")
        ]
        for dtype in (np.float32, np.float64)
    ],
)
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("length", [1, 7, 64])
def test_cache_bytes_per_row_counts_what_forward_from_embeddings_keeps(
    dtype, train_mode, dropout_rate, num_layers, length
):
    config = ModelConfig(
        vocab_size=50, max_positions=64, hidden_dim=8, num_heads=2,
        num_layers=num_layers, ffn_dim=12, dropout_rate=dropout_rate,
    )
    params = init_parameters(config, seed=0, dtype=dtype)
    rows = 3
    rng = np.random.default_rng(1)
    if train_mode:  # a train-mode pass from token ids, with its dropout factors
        batch = [make_seq(rng.integers(5, 50, length), length, length) for _ in range(rows)]
        out = _train_pass(params, batch, rng)
    else:
        embeddings = rng.normal(size=(rows, length, 8)).astype(dtype)
        out = forward_from_embeddings(params, embeddings, np.ones((rows, length), dtype))
    kept = sum(b.nbytes for b in _cache_buffers(out.cache, {}).values())
    assert kept == rows * model_mod._cache_bytes_per_row(config, length, dtype)
    lengths = np.full(rows, length)
    assert list(model_mod._cache_bytes_per_row(config, lengths, dtype)) == [kept // rows] * rows


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
    out = _train_pass(toy_params, toy_batch())
    lengths = out.cache["mask"].sum(axis=1)
    groups = out.cache["packing"].groups
    layers = out.cache["layers"]
    for i, lc in enumerate(layers):
        key_counts = []
        for (n, _, _), probs in zip(groups, lc["probs"], strict=True):  # (G, h, m, n)
            # the last layer computes only the [CLS] query row of each sequence
            assert probs.shape[-2:] == (1 if i == len(layers) - 1 else n, n)
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
    if dtype == np.float64:
        np.testing.assert_array_equal(got, expected)
    else:  # gelu_phi's documented float32 bound 5e-7, halved, times |x|, plus a rounding
        assert (np.abs(got - expected) <= 2.5e-7 * np.abs(x) + np.spacing(np.abs(expected))).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_from_its_kept_erf_term_is_bit_identical(dtype):
    x = (np.random.default_rng(1).normal(size=(64, 96)) * 4.0).astype(dtype)
    phi = gelu_phi(x)

    def same(got, want, float32_bound):
        # float64 is scipy's erf bit for bit; float32 is within gelu_phi's documented bound
        if dtype == np.float64:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=float32_bound)

    same(phi, 1.0 + erf(x / math.sqrt(2.0)), 5e-7)
    np.testing.assert_array_equal(gelu(x, phi), gelu(x))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    textbook = 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * pdf
    same(gelu_grad(x, phi), textbook, 2.5e-7)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_gelu_grad_bit_identical_to_the_two_term_formula(dtype):
    x = (np.random.default_rng(4).normal(size=(188, 102)) * 4.0).astype(dtype)
    x[0, :4] = [0.0, -0.0, 40.0, -40.0]
    phi = gelu_phi(x)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    got = gelu_grad(x, phi)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, 0.5 * phi + x * pdf)


def test_float32_gelu_phi_within_its_documented_bound():
    x = np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32)
    phi = gelu_phi(x)
    assert phi.dtype == np.float32
    assert np.abs(phi - (1.0 + erf(x.astype(np.float64) / math.sqrt(2.0)))).max() <= 5e-7
    # clamped to [0, 2], so gelu keeps the sign of x
    assert phi.min() >= 0.0 and phi.max() <= 2.0
    g = gelu(x)
    assert (g[x < 0] <= 0.0).all() and (g[x > 0] >= 0.0).all()


def test_float32_gelu_phi_special_values_and_shapes():
    np.testing.assert_array_equal(
        gelu_phi(np.array([np.inf, -np.inf, np.nan], np.float32)), [2.0, 0.0, np.nan]
    )
    for shape in [(0,), (3, 0)]:
        empty = gelu_phi(np.empty(shape, np.float32))
        assert empty.shape == shape and empty.dtype == np.float32
    rng = np.random.default_rng(3)
    block = model_mod._ERF_BLOCK
    for n in (block - 1, block, block + 1):
        x = (rng.normal(size=n) * 4.0).astype(np.float32)
        phi = gelu_phi(x)
        assert phi.shape == x.shape and phi.dtype == np.float32
        # elementwise: an element's value does not depend on its block or offset
        np.testing.assert_array_equal(gelu_phi(x[::-1])[::-1], phi)
    x = (rng.normal(size=(40, 3, 700)) * 4.0).astype(np.float32)
    strided = x[:, 1, ::3]  # not contiguous
    phi = gelu_phi(strided)
    assert phi.shape == strided.shape and phi.dtype == np.float32
    np.testing.assert_array_equal(phi, gelu_phi(np.ascontiguousarray(strided)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_bit_identical_to_the_two_pass_formula(dtype):
    rng = np.random.default_rng(2)
    x = (rng.normal(size=(64, 48)) * 3.0 + 1.5).astype(dtype)
    scale, shift = (rng.normal(size=48).astype(dtype) for _ in range(2))
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + model_mod.LN_EPS)
    xhat = (x - mu) / sigma
    y, cache = model_mod._layer_norm(x, scale, shift)
    for got, want in zip((y, *cache), (xhat * scale + shift, xhat, sigma), strict=True):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


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
    train_a = _train_pass(params, batch, rng)
    train_b = _train_pass(params, batch, rng)
    assert not np.array_equal(train_a.logits, train_b.logits)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_keep_factor_is_zero_or_the_inverse_keep_rate(dtype):
    rate = 0.1
    drawn = np.random.default_rng(4).random((2, 5, 6)) >= rate  # (B, T, n) keep mask
    mask = np.ones((2, 5))
    mask[1, 3:] = 0.0  # padding: its draws are not packed
    packing = model_mod._Packing(mask)
    factor = model_mod._dropout_keep(dtype, rate, drawn, packing)
    kept = drawn[mask != 0]  # the real positions, in packed order
    assert factor.dtype == dtype and factor.shape == kept.shape
    np.testing.assert_array_equal(factor != 0, kept)
    assert (factor[kept] == dtype(1) / dtype(1 - rate)).all()
    assert (factor[~kept] == 0).all()
    queries = np.array([4, 0, 6])
    np.testing.assert_array_equal(
        model_mod._dropout_keep(dtype, rate, drawn, packing, queries), factor[queries]
    )


def test_dropout_without_rng_is_rejected(toy_config):
    params = init_parameters(dataclasses.replace(toy_config, dropout_rate=0.5), seed=3)
    with pytest.raises(ValueError, match="rng"):
        _train_pass(params, toy_batch())
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
    # of the public passes only forward_from_embeddings hands a cache out;
    # backward consumes the one its private train-mode pass keeps
    params = _four_layer_params()
    batch = toy_batch()
    assert forward(params, batch).cache is None
    assert backward(params, batch, LABELS)[0].cache is None
    ids, mask = batch_arrays(batch)
    from_embeddings = forward_from_embeddings(params, embed(params, ids), mask)
    for out in (_train_pass(params, batch), from_embeddings):
        assert len(out.cache["layers"]) == params.config.num_layers


def test_train_mode_forward_names_backward(toy_params):
    with pytest.raises(ValueError, match=r"backward\(\) runs the train-mode pass"):
        forward(toy_params, toy_batch(), train_mode=True)


def test_backward_output_matches_eval_forward_without_cache():
    params = _four_layer_params()
    out, _ = backward(params, toy_batch(), LABELS)
    np.testing.assert_array_equal(out.logits, forward(params, toy_batch()).logits)
    assert out.cache is None


def test_grad_wrt_embeddings_names_the_pass_that_keeps_a_cache(toy_params):
    with pytest.raises(StaleCacheError, match=r"forward_from_embeddings\(\)"):
        grad_wrt_embeddings(toy_params, forward(toy_params, toy_batch()), target=1)


@pytest.mark.parametrize("target", [-1, 2, True, 1.0])
def test_grad_wrt_embeddings_refuses_a_target_that_is_no_class(toy_params, target):
    # numpy would take -1 for the last class and True for both
    ids, mask = batch_arrays(toy_batch())
    out = forward_from_embeddings(toy_params, embed(toy_params, ids), mask)
    with pytest.raises(ValueError, match=re.escape("target must be a class index in [0, 2)")):
        grad_wrt_embeddings(toy_params, out, target)


@pytest.mark.parametrize("past_end", [False, True])
def test_token_ids_outside_the_vocabulary_are_refused(toy_params, past_end):
    # numpy would embed -1 as the vocabulary's last token
    vocab_size = toy_params.config.vocab_size
    bad = vocab_size if past_end else -1
    batch = [make_seq([2, 5, bad, 3], 4, 6), make_seq([2, 9, 3], 3, 6)]
    message = re.escape(f"token id {bad} lies outside the vocabulary's [0, {vocab_size})")
    for run in (
        lambda: forward(toy_params, batch),
        lambda: backward(toy_params, batch, LABELS),
        lambda: embed(toy_params, batch_arrays(batch)[0]),
    ):
        with pytest.raises(ValueError, match=message):
            run()


def test_backward_core_without_a_gradient_set_gives_the_same_embedding_gradient():
    # the pass IG runs (grads None) against the one training runs, on one
    # cache of a ragged two-layer batch
    config = ModelConfig(
        vocab_size=60, max_positions=16, hidden_dim=16, num_heads=2, num_layers=2,
        ffn_dim=24, dropout_rate=0.0,
    )
    params = widen_parameters(init_parameters(config, seed=3))
    batch = [make_seq([2, 7, 9, 11, 3], 5, 8), make_seq([2, 8, 3], 3, 8),
             make_seq([2, 12, 14, 16, 18, 20, 3], 7, 8)]
    ids, mask = batch_arrays(batch)
    out = forward_from_embeddings(params, embed(params, ids), mask)
    dlogits = np.zeros_like(out.logits)
    dlogits[:, 1] = 1.0
    grads = {}
    bare = model_mod._backward_core(params, out.cache, dlogits, None)
    full = model_mod._backward_core(params, out.cache, dlogits, grads)
    assert bare.dtype == full.dtype and bare.shape == full.shape
    assert bare.tobytes() == full.tobytes()
    # backward builds the embeddings' gradients and the key biases' zeros
    skipped = {"token_embedding", "position_embedding", "layer0.attn_k.bias", "layer1.attn_k.bias"}
    assert set(grads) == set(params.tensors) - skipped
    for name, g in grads.items():
        assert g.shape == params.tensors[name].shape, name


def test_eval_forward_holds_no_cache_memory():
    # d=64, T=128, B=8, 4 layers: float64 attention maps are 4 MB per layer
    params = _four_layer_params(max_positions=128)
    rng = np.random.default_rng(0)
    batch = [make_seq([2, *rng.integers(5, 60, 126).tolist(), 3], 128, 128) for _ in range(8)]

    def traced(run_pass):
        tracemalloc.start()
        try:
            out = run_pass(params, batch)
            _, peak = tracemalloc.get_traced_memory()
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in arrays.statistics("filename"))
        return held - out.logits.nbytes - out.probabilities.nbytes, peak

    eval_held, eval_peak = traced(forward)
    train_held, train_peak = traced(_train_pass)
    assert eval_held == 0
    assert train_held > 10 * 2**20
    assert eval_peak < 0.5 * train_peak


def _desk_params(dtype):
    config = ModelConfig(
        vocab_size=1000, max_positions=512, hidden_dim=256,
        num_heads=4, num_layers=4, ffn_dim=1024, dropout_rate=0.0,
    )
    return init_parameters(config, seed=0, dtype=dtype)


def test_eval_forward_peak_is_bounded_at_desk_shape(set_shards):
    # 16 rows of up to 512 tokens, three of them in one length group, one
    # shard. Every row of 260 tokens or more would keep over 16 MiB of
    # dropout-free cache (37.5 MiB at 512) and runs alone, and only the
    # rows of 128 and 79 tokens share a piece: the pass peaks at 7.1 MiB.
    # It peaked at 114 MiB when it ran the batch whole, each layer keeping
    # its arrays to its end
    set_shards(1)
    params = _desk_params(np.float32)
    rng = np.random.default_rng(1)
    lengths = [512, 512, 512, *rng.integers(64, 512, 13).tolist()]
    batch = [make_seq([2, *rng.integers(5, 1000, n - 2).tolist(), 3], n, 512) for n in lengths]
    tracemalloc.start()
    try:
        forward(params, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_eval_forward_peak_does_not_grow_with_the_batch(set_shards):
    # one shard runs its rows in pieces whose dropout-free cache fits
    # _PASS_CACHE_BYTES, so 48 rows of up to 512 tokens peak no higher than
    # their first 16; the slack covers the larger batch's ids, mask and
    # outputs
    set_shards(1)
    params = _desk_params(np.float32)
    rng = np.random.default_rng(1)
    lengths = [512, 512, 512, *rng.integers(64, 512, 45).tolist()]
    batch = [make_seq([2, *rng.integers(5, 1000, n - 2).tolist(), 3], n, 512) for n in lengths]
    small, large = (
        _traced_peak(lambda rows=rows: forward(params, batch[:rows])) for rows in (16, 48)
    )
    assert large <= small + 2**20


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(("width", "ffn", "heads"), [(16, 64, 2), (64, 256, 4)])
@pytest.mark.parametrize("length", [1, 7, 64, 200])
def test_cache_bytes_per_row_bounds_the_peak_of_a_one_row_eval_pass(
    set_shards, num_layers, dtype, width, ffn, heads, length
):
    # an eval pass's pieces are sized by the dropout-free cache its rows
    # would keep. It holds one layer's arrays at a time, so from 64 tokens
    # up a one-row pass peaks at 0.26-1.6 times that count (the most with
    # one layer, whose last layer computes only [CLS]); shorter rows peak at
    # the pass's fixed small arrays (ids, mask, packing, logits, under 16
    # KiB) and at the float32 erf's three scratch blocks
    config = ModelConfig(
        vocab_size=100, max_positions=length, hidden_dim=width, num_heads=heads,
        num_layers=num_layers, ffn_dim=ffn, dropout_rate=0.0,
    )
    params = init_parameters(config, seed=0, dtype=dtype)
    rng = np.random.default_rng(1)
    seq = make_seq([2, *rng.integers(5, 100, length - 1).tolist()], length, length)
    set_shards(1)
    forward(params, [seq])
    peak = _traced_peak(lambda: forward(params, [seq]))
    counted = model_mod._cache_bytes_per_row(config, length, dtype)
    scratch = 3 * min(length * ffn, model_mod._ERF_BLOCK) * 4 if dtype == np.float32 else 0
    assert peak <= 1.5 * counted + scratch + 128 * length + 16384
    assert length < 64 or peak >= counted / 8
    lengths = np.array([length, 2 * length])
    assert list(model_mod._cache_bytes_per_row(config, lengths, dtype)) == [
        counted, model_mod._cache_bytes_per_row(config, 2 * length, dtype)
    ]


def _with_key_bias(params, key_bias):
    tensors = dict(params.tensors)
    for i in range(params.config.num_layers):
        name = f"layer{i}.attn_k.bias"
        tensors[name] = key_bias(tensors[name])
    return dataclasses.replace(params, tensors=tensors)


def test_key_bias_changes_no_logit_gradient_or_attribution(toy_config, vocab):
    cfg = dataclasses.replace(toy_config, num_layers=2, dropout_rate=0.1)
    params = widen_parameters(init_parameters(cfg, seed=4), seed=5)
    rng = np.random.default_rng(3)
    biased = _with_key_bias(params, lambda b: rng.normal(0.0, 2.0, b.shape))
    unbiased = _with_key_bias(params, np.zeros_like)
    batch = [make_seq([2, *rng.integers(5, 100, n - 1).tolist()], n, 12) for n in (12, 5, 9)]
    labels = [1, 0, 1]
    seq = encode("urgent winner claim your free prize now", vocab, 16)
    baseline = make_baseline(seq, vocab)
    results = []
    for p in (biased, unbiased):
        out, grads = backward(p, batch, labels, rng=np.random.default_rng(7))
        results.append((
            forward(p, batch).logits, out.logits, grads,
            integrated_gradients(p, seq, baseline, target=1, steps=8),
        ))
    (logits_a, train_a, grads_a, ig_a), (logits_b, train_b, grads_b, ig_b) = results
    np.testing.assert_array_equal(logits_a, logits_b)
    np.testing.assert_array_equal(train_a, train_b)
    for name in params.tensors:
        np.testing.assert_array_equal(grads_a[name], grads_b[name], err_msg=name)
    for i in range(cfg.num_layers):
        assert not grads_a[f"layer{i}.attn_k.bias"].any()
    np.testing.assert_array_equal(ig_a, ig_b)


@pytest.mark.parametrize("seed", range(7, 13))
@pytest.mark.parametrize("vocab_size", [120, 218])
def test_key_bias_gradient_matches_finite_differences(vocab_size, seed):
    # the key bias has no effect, so its central difference is exactly 0;
    # criterion 4's check then holds whatever the rounding of the other sums
    params = widen_parameters(init_parameters(ModelConfig.toy(vocab_size), seed=seed))
    batch = toy_batch()
    _, grads = backward(params, batch, LABELS)
    bias = params.tensors["layer0.attn_k.bias"]
    fd = np.zeros_like(bias)
    for i in range(bias.size):
        orig = bias[i]
        bias[i] = orig + 1e-3
        lp = cross_entropy_loss(forward(params, batch), LABELS)
        bias[i] = orig - 1e-3
        lm = cross_entropy_loss(forward(params, batch), LABELS)
        bias[i] = orig
        fd[i] = (lp - lm) / 2e-3
    a = grads["layer0.attn_k.bias"]
    rel = np.linalg.norm(a - fd) / max(np.linalg.norm(a), np.linalg.norm(fd), 1e-12)
    assert rel < 1e-4, f"relative error {rel:.3e}"


def test_backward_peak_is_bounded_by_the_pass_cache_budget(set_shards, monkeypatch):
    # 16 rows of 64 tokens keep 13 MiB of train-mode cache, 13 budgets of
    # 1 MiB: one pass over them all peaked at 27 MiB, one-row pieces peak at 5
    config = ModelConfig(
        vocab_size=100, max_positions=64, hidden_dim=64, num_heads=4,
        num_layers=2, ffn_dim=256, dropout_rate=0.1,
    )
    params = init_parameters(config, seed=2)
    rng = np.random.default_rng(3)
    batch = [make_seq([2, *rng.integers(5, 100, 63).tolist()], 64, 64) for _ in range(16)]
    monkeypatch.setattr(model_mod, "_PASS_CACHE_BYTES", 2**20)
    whole = 16 * model_mod._cache_bytes_per_row(config, 64, np.float64)
    assert whole >= 8 * model_mod._PASS_CACHE_BYTES
    set_shards(1)
    peak = _traced_peak(
        lambda: backward(params, batch, [i % 2 for i in range(16)], rng=np.random.default_rng(0))
    )
    assert peak < 12 * 2**20


_PIECED_BATCHES = {
    "ragged": (16, [12, 5, 12, 3, 5, 12]),
    "one length": (8, [8, 8, 8, 8]),
    "one row": (10, [9]),
}


@pytest.mark.parametrize("rows_per_piece", [1, 2])
@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", sorted(_PIECED_BATCHES))
def test_eval_pieces_match_the_unpieced_pass(
    toy_config, set_shards, monkeypatch, shape, dtype, shards, rows_per_piece
):
    # every row counts one byte, so a budget of n bytes takes n rows a
    # piece; the cache-keeping pass from the embeddings runs the batch whole
    width, lengths = _PIECED_BATCHES[shape]
    cfg = dataclasses.replace(toy_config, num_layers=2, max_positions=width)
    params = widen_parameters(init_parameters(cfg, seed=4), seed=5)
    params = dataclasses.replace(
        params, tensors={k: v.astype(dtype) for k, v in params.tensors.items()}
    )
    rng = np.random.default_rng(8)
    batch = [make_seq([2, *rng.integers(5, 100, n - 2).tolist(), 3], n, width) for n in lengths]
    ids, mask = batch_arrays(batch)
    whole = forward_from_embeddings(params, embed(params, ids), mask).logits

    seen = []
    run_encoder = model_mod._run_encoder

    def recording(params, inputs, *args):
        seen.append(len(inputs))
        return run_encoder(params, inputs, *args)

    monkeypatch.setattr(model_mod, "_run_encoder", recording)
    monkeypatch.setattr(
        model_mod, "_cache_bytes_per_row", lambda config, n, dtype: np.ones_like(n)
    )
    monkeypatch.setattr(model_mod, "_PASS_CACHE_BYTES", rows_per_piece)
    set_shards(shards)
    pieced = forward(params, batch).logits
    assert sum(seen) == len(lengths)
    assert max(seen) == min(rows_per_piece, len(lengths))
    assert pieced.dtype == dtype
    np.testing.assert_allclose(pieced, whole, rtol=0, atol=1e-12)


def test_one_budget_sizes_every_pass(toy_config, vocab, set_shards, monkeypatch):
    # the rows of each _run_encoder call of eval forward, backward and IG's
    # path passes follow model._PASS_CACHE_BYTES alone
    cfg = dataclasses.replace(toy_config, num_layers=2)
    params = widen_parameters(init_parameters(cfg, seed=4), seed=5)
    rng = np.random.default_rng(2)
    batch = [make_seq([2, *rng.integers(5, 100, 10).tolist(), 3], 12, 16) for _ in range(4)]
    seq = encode("urgent winner claim your free prize now", vocab, 16)
    seen = []
    run_encoder = model_mod._run_encoder

    def recording(params, inputs, *args, **kwargs):
        seen.append(len(inputs))
        return run_encoder(params, inputs, *args, **kwargs)

    monkeypatch.setattr(model_mod, "_run_encoder", recording)
    passes = {
        "forward": lambda: forward(params, batch),
        "backward": lambda: backward(params, batch, [0, 1, 0, 1]),
        "ig": lambda: integrated_gradients(params, seq, make_baseline(seq, vocab), 1, steps=4),
    }

    def rows_per_call(budget):
        monkeypatch.setattr(model_mod, "_PASS_CACHE_BYTES", budget)
        calls = {}
        for name, run in passes.items():
            seen.clear()
            run()
            calls[name] = list(seen)
        return calls

    set_shards(1)
    assert rows_per_call(16 << 20) == {"forward": [4], "backward": [4], "ig": [4]}
    assert rows_per_call(1) == {"forward": [1] * 4, "backward": [1] * 4, "ig": [1] * 4}


def test_one_row_eval_pass_costs_no_row_and_builds_no_config(toy_config, monkeypatch):
    # a one-row batch (every LIME sample) is one shard of one piece whatever
    # its row costs, and the dropout-free config that costs a batch's rows
    # is built once per config, not on every pass
    cfg = dataclasses.replace(toy_config, num_layers=2, dropout_rate=0.1)
    params = widen_parameters(init_parameters(cfg, seed=4), seed=5)
    one_row, two_rows = toy_batch()[:1], toy_batch()
    want = forward(params, one_row).probabilities
    built = []
    post_init = ModelConfig.__post_init__

    def counting(config):
        built.append(config)
        post_init(config)

    monkeypatch.setattr(ModelConfig, "__post_init__", counting)
    for _ in range(3):
        forward(params, two_rows)
    assert built == []

    def refuse(*args):
        raise AssertionError("a one-row pass was costed")

    for name in ("_cpus", "_cache_bytes_per_row", "_pieces"):
        monkeypatch.setattr(model_mod, name, refuse)
    for _ in range(3):
        np.testing.assert_array_equal(forward(params, one_row).probabilities, want)
    assert built == []


@pytest.mark.parametrize("labels", [[0.7, 1.9], [True, False], [0, True], np.array([1.0, 0.0])])
def test_non_integer_labels_are_refused(toy_params, labels):
    # int64 conversion would train on [0, 1] for [0.7, 1.9]
    message = re.escape(f"labels must be integers, not floats or bools, got {labels}")
    with pytest.raises(ValueError, match=message):
        backward(toy_params, toy_batch(), labels)
    out = forward(toy_params, toy_batch())
    with pytest.raises(ValueError, match=message):
        cross_entropy_loss(out, labels)
    for integers in ([1, 0], np.array([1, 0]), [np.int32(1), np.uint8(0)]):
        backward(toy_params, toy_batch(), integers)
        assert cross_entropy_loss(out, integers) == cross_entropy_loss(out, LABELS)


def test_numpy_float_dropout_rate_saves_and_reloads_equal(tmp_path):
    config = dataclasses.replace(ModelConfig.toy(), dropout_rate=np.float32(0.1))
    assert type(config.dropout_rate) is float
    path = str(tmp_path / "model.phl")
    save_checkpoint(init_parameters(config, seed=0), path)
    assert load_checkpoint(path)[0].config == config


def test_empty_batch_is_refused_by_name(toy_params):
    for run in (lambda: forward(toy_params, []), lambda: backward(toy_params, [], [])):
        with pytest.raises(ValueError, match="a batch needs at least one sequence"):
            run()


def test_rows_of_unequal_width_are_refused_by_name(toy_params):
    batch = [make_seq([2, 5, 3], 3, 8), make_seq([2, 9, 3], 3, 6)]
    with pytest.raises(ValueError, match=r"the same width, got ids and masks of widths \[6, 8\]"):
        forward(toy_params, batch)


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


def _refused_save(previous, params, tmp_path, match, record=None):
    """Over a checkpoint of `previous`, save_checkpoint(params) raises
    ValueError matching `match`, writes no temporary file and leaves the
    previous checkpoint intact."""
    path = tmp_path / "model.phl"
    save_checkpoint(previous, str(path))
    before = path.read_bytes()
    with pytest.raises(ValueError, match=match):
        save_checkpoint(params, str(path), record)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.phl"]


def test_checkpoint_record_not_an_object_rejected(toy_params, tmp_path):
    _refused_save(toy_params, toy_params, tmp_path, "record must be a dict", record=[1, 2])
    path = tmp_path / "model.phl"
    edit_checkpoint_header(path, path, lambda h: h.update(record=[1, 2]))
    with pytest.raises(CheckpointError, match="must be a JSON object"):
        load_checkpoint(str(path))


def test_checkpoint_header_nested_too_deep_rejected(tmp_path):
    blob = b"[" * 100_000
    path = tmp_path / "model.phl"
    path.write_bytes(model_mod.MAGIC + len(blob).to_bytes(4, "little") + blob)
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_checkpoint(str(path))


def _without(tensors, name):
    return {k: v for k, v in tensors.items() if k != name}


@pytest.mark.parametrize(
    "change,named",
    [
        (lambda t: _without(t, "layer0.ffn_in.weight"), "layer0.ffn_in.weight"),
        (lambda t: {**t, "classifier.weight": t["classifier.weight"][:-1]}, "classifier.weight"),
        (lambda t: {**t, "prehead.bias": t["prehead.bias"].astype(np.float32)}, "prehead.bias"),
        (lambda t: {k: v.astype(np.float16) for k, v in t.items()}, "token_embedding"),
    ],
    ids=["missing", "wrong-shape", "one-float32", "float16"],
)
def test_save_refuses_what_load_would_refuse(toy_params, tmp_path, change, named):
    bad = model_mod.ModelParameters(toy_params.config, change(toy_params.tensors))
    _refused_save(toy_params, bad, tmp_path, f"tensor {named} ")


def test_checkpoint_written_by_the_first_format_loads_and_saves_unchanged(tmp_path):
    # tests/data/tiny_format.phl: a float32 checkpoint with a record, written
    # before save and load derived the tensor table from the config; it pins
    # the PHL1 bytes
    golden = DATA / "tiny_format.phl"
    params, record = load_checkpoint(str(golden))
    assert record == {"vocab_sha256": "ab", "split": {"seed": 5}}
    assert all(t.dtype == np.float32 for t in params.tensors.values())
    save_checkpoint(params, str(tmp_path / "again.phl"), record)
    assert (tmp_path / "again.phl").read_bytes() == golden.read_bytes()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _spread_params():
    """float64 parameters whose largest tensor is under half of their bytes."""
    config = ModelConfig(
        vocab_size=500, max_positions=64, hidden_dim=64, num_heads=2, num_layers=2, ffn_dim=256
    )
    params = init_parameters(config, seed=1)
    sizes = [t.nbytes for t in params.tensors.values()]
    assert max(sizes) < sum(sizes) / 2
    return params, sum(sizes)


def test_save_checkpoint_holds_no_copy_of_the_parameters(tmp_path):
    params, nbytes = _spread_params()
    path = str(tmp_path / "model.phl")
    # a tensor-at-a-time copy would still fit; a copy of all of them would not
    assert _traced_peak(lambda: save_checkpoint(params, path)) < nbytes / 2


def test_load_checkpoint_holds_no_second_copy_of_the_parameters(tmp_path):
    params, nbytes = _spread_params()
    path = str(tmp_path / "model.phl")
    save_checkpoint(params, path)
    # the loaded arrays themselves, plus the header
    assert _traced_peak(lambda: load_checkpoint(path)) <= 1.1 * nbytes


def test_checkpoint_trailing_byte_rejected(toy_params, tmp_path):
    path = tmp_path / "model.phl"
    save_checkpoint(toy_params, str(path))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="after the last tensor"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "edit,named",
    [
        (lambda t: t.update(extra=dict(t["classifier.bias"])), "extra"),
        (lambda t: t.pop("layer0.attn_v.bias"), "layer0.attn_v.bias"),
        (lambda t: t.update(extra=None), "extra"),  # None is also what the layout .get()s
    ],
    ids=["extra-entry", "missing-entry", "extra-null-entry"],
)
def test_checkpoint_table_entry_extra_or_missing_rejected(toy_params, tmp_path, edit, named):
    path = tmp_path / "model.phl"
    save_checkpoint(toy_params, str(path))
    edit_checkpoint_header(path, path, lambda h: edit(h["tensors"]))
    with pytest.raises(CheckpointError, match=f"tensor {named} "):
        load_checkpoint(str(path))


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


def test_checkpoint_checks_its_size_before_allocating_its_tensors(tmp_path):
    path = tmp_path / "model.phl"
    write_oversized_checkpoint(path)
    with pytest.raises(CheckpointError, match="tensor token_embedding extends past end of file"):
        load_checkpoint(str(path))


def test_checkpoint_header_longer_than_the_file_rejected(toy_params, tmp_path):
    path = tmp_path / "model.phl"
    save_checkpoint(toy_params, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + b"\xff\xff\xff\xff" + raw[8:])
    with pytest.raises(CheckpointError, match="truncated header"):
        load_checkpoint(str(path))


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
    out = _train_pass(params, toy_batch(), np.random.default_rng(0))
    dtypes = {a.dtype for a in _arrays_in(out.cache)}
    assert dtypes == {np.dtype(np.float32)}
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
    out = _train_pass(params, batch, np.random.default_rng(0))
    cache = out.cache
    assert cache["embed_keep"].shape[0] == n_real
    assert cache["cls_vec"].shape[0] == len(batch)
    for i, lc in enumerate(cache["layers"]):
        last = i == cfg.num_layers - 1
        positionwise = {k: v for k, v in lc.items() if k != "probs"}
        assert set(positionwise) == {
            "x_in", "q", "k", "v", "merged", "attn_keep", "h1", "ln1",
            "ffn_pre", "ffn_phi", "ffn_keep", "ln2",
        }
        for name, value in positionwise.items():
            # past its keys and values, the last layer holds the [CLS] rows only
            rows = len(batch) if last and name not in ("x_in", "k", "v") else n_real
            for arr in _arrays_in(value):
                assert arr.shape[0] == rows, name
        # one group per distinct real length (3, 5, 7, 12, 16), one sequence each
        assert [probs.shape for probs in lc["probs"]] == [
            (1, cfg.num_heads, 1 if last else n, n) for n in (3, 5, 7, 12, 16)
        ]


def _repeated_length_batch():
    rng = np.random.default_rng(6)
    return [
        make_seq([2, *rng.integers(5, 100, n - 2).tolist(), 3], n, 16)
        for n in (12, 5, 12, 3, 5)
    ]


def test_repeated_length_batch_forward_equals_single_rows(toy_params):
    batch = _repeated_length_batch()
    assert [n for n, _, _ in model_mod._Packing(batch_arrays(batch)[1]).groups] == [3, 5, 12]
    _assert_forward_equals_single_rows(widen_parameters(toy_params, seed=3), batch)


def test_repeated_length_batch_gradients_equal_mean_of_single_rows(toy_params):
    _assert_gradients_equal_mean_of_single_rows(
        widen_parameters(toy_params, seed=3), _repeated_length_batch(), [1, 0, 0, 1, 1]
    )


def test_train_cache_holds_attention_of_real_positions_only(toy_params):
    batch = _repeated_length_batch()
    out = _train_pass(toy_params, batch)
    h = toy_params.config.num_heads
    lengths = [seq.real_length for seq in batch]
    layers = out.cache["layers"]
    for i, lc in enumerate(layers):
        held = sum(probs.size for probs in lc["probs"])
        queries = [1 if i == len(layers) - 1 else n for n in lengths]  # per sequence
        assert held == h * sum(m * n for m, n in zip(queries, lengths))  # not B * h * 16 * 16


def _key_masked_attention(q, k, v, packing, queries, h, probs_cache):
    """Reference: every query position attends over the whole (B, T) width,
    with an additive -1e9 on the scores of padded keys; q and the result
    hold the packed rows `queries` only, unless it is None."""
    if queries is not None:
        q_all = np.zeros_like(k)
        q_all[queries] = q
        q = q_all
    b, t = packing.shape
    real = np.ones(b * t, dtype=bool)
    if packing.index is not None:
        real[:] = False
        real[packing.index] = True
    key_add = np.where(real.reshape(b, 1, 1, t), 0.0, -1e9)

    def heads(rows):
        return packing.scatter(rows).reshape(b, t, h, -1).transpose(0, 2, 1, 3)

    scores = heads(q) @ heads(k).transpose(0, 1, 3, 2) / np.sqrt(q.shape[1] // h)
    ctx = softmax(scores + key_add) @ heads(v)
    ctx = packing.gather(ctx.transpose(0, 2, 1, 3).reshape(b, t, -1))
    return ctx if queries is None else ctx[queries]


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
            (int(n), np.flatnonzero(real & (lengths == n)[:, None]), np.flatnonzero(lengths == n))
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


def _full_row_reference(packing, layer, num_layers):
    """Reference: every layer, the last included, computes every packed row,
    and the head picks the [CLS] rows out of the last layer's output."""
    return None


def _ragged_dropout_run(params, batch, labels, seed):
    """Seeded-dropout train logits and gradients, and the gradient of a
    dropout-free pass from the embeddings, on `batch`."""
    out, grads = backward(params, batch, labels, rng=np.random.default_rng(seed))
    ids, mask = batch_arrays(batch)
    from_embeddings = forward_from_embeddings(params, embed(params, ids), mask)
    return out.logits, grads, grad_wrt_embeddings(params, from_embeddings, target=1)


def _last_layer_query_rows(params, batch):
    out = _train_pass(params, batch, np.random.default_rng(0))
    return out.cache["layers"][-1]["q"].shape[0]


def test_cls_only_last_layer_matches_full_row_reference(toy_config, monkeypatch):
    cfg = dataclasses.replace(toy_config, num_layers=2, dropout_rate=0.1)
    params = widen_parameters(init_parameters(cfg, seed=4), seed=5)
    batch = _repeated_length_batch()  # lengths 12, 5, 12, 3, 5: three groups
    labels = [1, 0, 0, 1, 1]
    pruned = _ragged_dropout_run(params, batch, labels, seed=7)
    eval_pruned = forward(params, batch).logits
    assert _last_layer_query_rows(params, batch) == len(batch)

    monkeypatch.setattr(model_mod, "_query_rows", _full_row_reference)
    reference = _ragged_dropout_run(params, batch, labels, seed=7)
    assert _last_layer_query_rows(params, batch) == sum(seq.real_length for seq in batch)

    (logits, grads, d_embed), (ref_logits, ref_grads, ref_d_embed) = pruned, reference
    np.testing.assert_allclose(eval_pruned, forward(params, batch).logits, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)
    assert set(grads) == set(params.tensors)
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(d_embed, ref_d_embed, rtol=0, atol=1e-12)


def test_encoder_without_layers_is_refused(toy_config):
    # the head would read the [CLS] embedding alone: one prediction for every email
    with pytest.raises(ConfigError, match="num_layers must be at least 1, got 0"):
        dataclasses.replace(toy_config, num_layers=0)

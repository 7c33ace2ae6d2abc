import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import overflowing_head, synthetic_corpus
from phishlens import training
from phishlens.corpus import SplitCorpus, split
from phishlens.model import ModelConfig, forward, init_parameters
from phishlens.tokenizer import encode
from phishlens.training import (
    EpochStats,
    NonFiniteTrainingError,
    OptimizerState,
    TrainConfig,
    adamw_step,
    evaluate,
    train,
)

CFG = TrainConfig()  # canonical defaults: lr 2e-5, batches 32/64, 6 epochs


def single_tensor(value, ndim=2):
    arr = np.array([[value]]) if ndim == 2 else np.array([value])
    return {"w": arr.astype(np.float64)}


def test_adamw_hand_derived_first_step():
    tensors = single_tensor(1.0)
    grads = single_tensor(0.5)
    state = OptimizerState.zeros_like(tensors)
    adamw_step(tensors, grads, state, CFG)

    m_hat = 0.05 / (1 - 0.9)
    v_hat = 2.5e-4 / (1 - 0.999)
    expected = 1.0 - 2e-5 * m_hat / (math.sqrt(v_hat) + 1e-8) - 2e-5 * 0.01 * 1.0
    assert abs(tensors["w"][0, 0] - expected) < 1e-12
    assert abs(tensors["w"][0, 0] - 0.9999798) < 1e-9
    assert state.first_moment["w"][0, 0] == pytest.approx(0.05, abs=1e-15)
    assert state.second_moment["w"][0, 0] == pytest.approx(2.5e-4, abs=1e-18)
    assert state.step == 1


def test_adamw_zero_gradient_zero_decay_is_identity():
    cfg = TrainConfig(weight_decay=0.0)
    tensors = single_tensor(1.7)
    state = OptimizerState.zeros_like(tensors)
    adamw_step(tensors, single_tensor(0.0), state, cfg)
    assert tensors["w"][0, 0] == 1.7
    assert state.step == 1


def test_adamw_zero_gradient_pure_decoupled_decay():
    tensors = single_tensor(2.0)
    state = OptimizerState.zeros_like(tensors)
    adamw_step(tensors, single_tensor(0.0), state, CFG)
    assert tensors["w"][0, 0] == pytest.approx(2.0 * (1 - 2e-5 * 0.01), abs=1e-15)


def test_adamw_decay_exempts_one_dimensional_tensors():
    rng = np.random.default_rng(4)
    tensors = {
        "weight": rng.normal(size=(3, 4)),
        "bias": rng.normal(size=(4,)),
        "norm.scale": rng.normal(size=(4,)),
    }
    before = {k: v.copy() for k, v in tensors.items()}
    grads = {k: np.zeros_like(v) for k, v in tensors.items()}
    state = OptimizerState.zeros_like(tensors)
    adamw_step(tensors, grads, state, CFG)
    # bias and layer-norm tensors bit-identical; the matrix decayed
    assert np.array_equal(tensors["bias"], before["bias"])
    assert np.array_equal(tensors["norm.scale"], before["norm.scale"])
    assert np.allclose(tensors["weight"], before["weight"] * (1 - 2e-5 * 0.01))


def test_adamw_shape_mismatch_rejected():
    tensors = single_tensor(1.0)
    state = OptimizerState.zeros_like(tensors)
    with pytest.raises(ValueError):
        adamw_step(tensors, {"w": np.zeros((2, 2))}, state, CFG)
    with pytest.raises(ValueError):
        adamw_step(tensors, {"other": np.zeros((1, 1))}, state, CFG)


def test_adamw_update_magnitude_bound():
    # |step| <= lr/(1-beta1) + lr*wd*|theta| per coordinate, every step
    rng = np.random.default_rng(12)
    tensors = {"w": rng.normal(size=(5, 3)), "b": rng.normal(size=(3,))}
    state = OptimizerState.zeros_like(tensors)
    cfg = TrainConfig(learning_rate=1e-3)
    bound_scale = cfg.learning_rate / (1 - cfg.beta1)
    for _ in range(60):
        grads = {k: rng.normal(scale=rng.uniform(0.01, 10.0), size=v.shape)
                 for k, v in tensors.items()}
        before = {k: v.copy() for k, v in tensors.items()}
        adamw_step(tensors, grads, state, cfg)
        for name in tensors:
            delta = np.abs(tensors[name] - before[name])
            cap = bound_scale + cfg.learning_rate * cfg.weight_decay * np.abs(before[name])
            assert np.all(delta <= cap + 1e-12), name


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epsilon=0.0)


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("learning_rate", math.nan, "learning_rate must be finite and positive, got nan"),
        ("learning_rate", math.inf, "learning_rate must be finite and positive, got inf"),
        ("epsilon", math.nan, "epsilon must be finite and positive, got nan"),
        ("weight_decay", -1.0, "weight_decay must be finite and at least 0, got -1.0"),
        ("weight_decay", math.nan, "weight_decay must be finite and at least 0, got nan"),
    ],
)
def test_non_finite_or_negative_optimizer_floats_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["beta1", "beta2"])
@pytest.mark.parametrize("value", [1.0, -0.5, math.nan])
def test_each_beta_is_named_when_out_of_range(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must lie in [0, 1), got {value!r}")):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    ("value", "message"),
    [
        (True, "max_len must be an integer, got True"),
        (2.5, "max_len must be an integer, got 2.5"),
        (1, "max_len must be at least 2, got 1"),
    ],
)
def test_max_len_must_be_an_integer_of_at_least_two(value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(max_len=value)
    cfg = TrainConfig(max_len=np.int64(128))
    assert type(cfg.max_len) is int and cfg.max_len == 128


def _textbook_adamw(tensors, grads, m, v, step, cfg):
    """The update of adamw_step, one whole-tensor expression at a time."""
    bc1, bc2 = 1.0 - cfg.beta1**step, 1.0 - cfg.beta2**step
    for name, theta in tensors.items():
        g = grads[name]
        m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
        v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * g * g
        update = cfg.learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.epsilon)
        if theta.ndim == 2:
            update = update + cfg.learning_rate * cfg.weight_decay * theta
        tensors[name] = theta - update


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_is_bit_identical_to_the_textbook_update(dtype):
    # decayed matrices cut into several blocks, one with a short last block,
    # and exempt vectors longer and shorter than a block
    rng = np.random.default_rng(6)
    shapes = {"wide": (300, 700), "tall": (70000, 3), "bias": (70000,), "scale": (5,)}
    tensors = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    expected = {k: t.copy() for k, t in tensors.items()}
    m, v = ({k: np.zeros_like(t) for k, t in tensors.items()} for _ in range(2))
    state = OptimizerState.zeros_like(tensors)
    cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.1)
    for step in range(1, 4):
        grads = {k: rng.normal(scale=0.1, size=s).astype(dtype) for k, s in shapes.items()}
        adamw_step(tensors, grads, state, cfg)
        _textbook_adamw(expected, grads, m, v, step, cfg)
    for name in shapes:
        assert tensors[name].dtype == dtype
        np.testing.assert_array_equal(tensors[name], expected[name], err_msg=name)
        np.testing.assert_array_equal(state.first_moment[name], m[name], err_msg=name)
        np.testing.assert_array_equal(state.second_moment[name], v[name], err_msg=name)


def _toy_setup(n_records=200, seed=0, layers=2):
    corpus = synthetic_corpus(n_records, seed=seed)
    parts = split(corpus, 0.8, seed=seed)
    cfg = TrainConfig(
        learning_rate=1e-3,
        train_batch_size=32,
        eval_batch_size=64,
        epochs=20,
        shuffle_seed=seed,
        max_len=16,
    )
    return corpus, parts, cfg


def _toy_model(vocab, layers=2, seed=1):
    config = ModelConfig(
        vocab_size=vocab.size, max_positions=16, hidden_dim=16,
        num_heads=2, num_layers=layers, ffn_dim=32, dropout_rate=0.0,
    )
    return init_parameters(config, seed=seed)


def test_zero_epochs_returns_unchanged(vocab):
    _, parts, cfg = _toy_setup(40)
    cfg.epochs = 0
    params = _toy_model(vocab)
    before = {k: v.copy() for k, v in params.tensors.items()}
    out, stats = train(params, parts, vocab, cfg)
    assert stats == []
    for name in before:
        assert np.array_equal(out.tensors[name], before[name])


def test_empty_train_partition_rejected(vocab):
    corpus = synthetic_corpus(10, seed=0)
    parts = split(corpus, 0.5, seed=0)
    empty_parts = SplitCorpus(
        train=parts.test.__class__.from_records([]),
        test=parts.test,
        train_fraction=0.5,
    )
    with pytest.raises(ValueError):
        train(_toy_model(vocab), empty_parts, vocab, TrainConfig())


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_non_finite_step_stops_training_before_the_update(vocab):
    _, parts, cfg = _toy_setup(40)
    params = _toy_model(vocab)
    params.tensors["layer0.ffn_in.weight"][3, 5] = np.inf
    before = {k: v.copy() for k, v in params.tensors.items()}
    with pytest.raises(NonFiniteTrainingError, match=r"^epoch 0, batch 0: ") as info:
        train(params, parts, vocab, cfg)
    assert isinstance(info.value, ValueError)
    for name in before:
        np.testing.assert_array_equal(params.tensors[name], before[name], err_msg=name)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_non_finite_held_out_loss_stops_training_before_on_epoch(vocab):
    # one step at this rate leaves finite weights whose outputs overflow;
    # one batch per epoch, so no later step's loss catches it first
    _, parts, cfg = _toy_setup(40)
    cfg.learning_rate, cfg.train_batch_size, cfg.epochs = 1e300, 64, 2
    seen = []
    with pytest.raises(NonFiniteTrainingError, match=r"^epoch 0: held-out loss is nan$"):
        train(_toy_model(vocab), parts, vocab, cfg, on_epoch=seen.append)
    assert seen == []


def _nothing_held_out(parts):
    return SplitCorpus(
        train=parts.train, test=parts.test.__class__.from_records([]), train_fraction=1.0
    )


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_non_finite_outputs_with_nothing_held_out_stop_training_before_on_epoch(vocab):
    # the step's own loss is finite; only the last batch, scored after the
    # update, shows that the outputs overflow
    _, parts, cfg = _toy_setup(40)
    cfg.learning_rate, cfg.train_batch_size, cfg.epochs = 1e300, 64, 2
    seen = []
    with pytest.raises(
        NonFiniteTrainingError, match=r"^epoch 0: loss of the last batch after its update is nan$"
    ):
        train(_toy_model(vocab), _nothing_held_out(parts), vocab, cfg, on_epoch=seen.append)
    assert seen == []


def test_nothing_held_out_leaves_the_epoch_stats_without_eval(vocab):
    _, parts, cfg = _toy_setup(40)
    cfg.epochs = 2
    _, stats = train(_toy_model(vocab), _nothing_held_out(parts), vocab, cfg)
    assert [(s.mean_eval_loss, s.eval_accuracy) for s in stats] == [(None, None)] * 2
    assert all(math.isfinite(s.mean_train_loss) for s in stats)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_evaluate_refuses_a_non_finite_loss(vocab):
    params = overflowing_head(_toy_model(vocab))
    corpus = synthetic_corpus(12, seed=2)
    with pytest.raises(NonFiniteTrainingError, match=r"over 12 emails is nan: .* not finite"):
        evaluate(params, corpus, vocab, TrainConfig(max_len=16))


def test_toy_separable_corpus_learns(vocab):
    _, parts, cfg = _toy_setup(200, seed=3)
    params = _toy_model(vocab, layers=2)
    _, stats = train(params, parts, vocab, cfg)
    assert len(stats) == 20
    assert stats[-1].train_accuracy >= 0.95
    assert stats[-1].mean_train_loss < stats[0].mean_train_loss
    # the held-out half of a separable problem should also be classified well
    assert stats[-1].eval_accuracy >= 0.9


def test_train_deterministic(vocab):
    _, parts, cfg = _toy_setup(60, seed=5)
    cfg.epochs = 3
    a, stats_a = train(_toy_model(vocab, seed=2), parts, vocab, cfg)
    b, stats_b = train(_toy_model(vocab, seed=2), parts, vocab, cfg)
    assert stats_a == stats_b
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_on_epoch_callback_and_json_lines(vocab):
    _, parts, cfg = _toy_setup(40, seed=1)
    cfg.epochs = 2
    seen = []
    train(_toy_model(vocab), parts, vocab, cfg, on_epoch=seen.append)
    assert [s.epoch_index for s in seen] == [0, 1]
    line = json.loads(seen[0].to_json_line())
    assert set(line) == {"epoch", "train_loss", "train_acc", "eval_loss", "eval_acc"}


def test_shuffle_covers_every_record_once(vocab):
    # one epoch of batches partitions the index set exactly
    from phishlens.training import _batches

    n = 53
    order = np.random.default_rng(0).permutation(n)
    seen = np.concatenate(list(_batches(n, 7, order)))
    assert sorted(seen.tolist()) == list(range(n))


def test_evaluate_prediction_counts_for_odd_batch_sizes(vocab):
    corpus = synthetic_corpus(23, seed=9)
    params = _toy_model(vocab)
    for batch_size in (1, 7, 64):
        cfg = TrainConfig(eval_batch_size=batch_size, max_len=16)
        loss, preds = evaluate(params, corpus, vocab, cfg)
        assert len(preds) == 23
        assert math.isfinite(loss)


def test_evaluate_loss_is_the_mean_of_per_row_cross_entropies(vocab):
    corpus = synthetic_corpus(23, seed=9)
    params = _toy_model(vocab)
    # eval batches of 7, 7, 7 and 2 rows
    loss, _ = evaluate(params, corpus, vocab, TrainConfig(eval_batch_size=7, max_len=16))
    seqs = [encode(r.body, vocab, 16) for r in corpus.records]
    labels = np.array([r.label for r in corpus.records])
    logits = forward(params, seqs).logits
    log_probs = logits - logits.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    assert abs(loss + log_probs[np.arange(len(seqs)), labels].mean()) <= 1e-12


def test_evaluate_idempotent(vocab):
    corpus = synthetic_corpus(12, seed=2)
    params = _toy_model(vocab)
    cfg = TrainConfig(max_len=16)
    assert evaluate(params, corpus, vocab, cfg) == evaluate(params, corpus, vocab, cfg)


def test_evaluate_empty_partition_rejected(vocab):
    from phishlens.corpus import LabeledCorpus

    with pytest.raises(ValueError):
        evaluate(_toy_model(vocab), LabeledCorpus.from_records([]), vocab, TrainConfig())


def test_evaluate_saturated_model_single_record(vocab):
    corpus = synthetic_corpus(1, seed=4)  # one safe record (label 0)
    assert corpus.records[0].label == 0
    params = _toy_model(vocab)
    params.tensors["classifier.bias"][:] = (20.0, -20.0)
    cfg = TrainConfig(max_len=16)
    loss, preds = evaluate(params, corpus, vocab, cfg)
    assert loss < 1e-6
    assert preds == [0]


def test_epoch_stats_fields():
    s = EpochStats(0, 0.5, 0.8, 0.6, 0.7)
    assert 0.0 <= s.train_accuracy <= 1.0
    assert 0.0 <= s.eval_accuracy <= 1.0


def test_adamw_bound_holds_on_real_toy_run(vocab):
    # same bound as the synthetic-tensor test, checked on actual model steps
    from phishlens.model import backward
    from phishlens.training import _batches

    corpus = synthetic_corpus(48, seed=6)
    parts = split(corpus, 1.0, seed=0)
    params = _toy_model(vocab, layers=1)
    cfg = TrainConfig(learning_rate=1e-3, train_batch_size=16, epochs=1, max_len=16)
    from phishlens.tokenizer import encode

    seqs = [encode(r.body, vocab, cfg.max_len) for r in parts.train.records]
    labels = np.array([r.label for r in parts.train.records])
    state = OptimizerState.zeros_like(params.tensors)
    bound_scale = cfg.learning_rate / (1 - cfg.beta1)
    for _ in range(2):
        for idx in _batches(len(seqs), cfg.train_batch_size):
            _, grads = backward(params, [seqs[i] for i in idx], labels[idx])
            before = {k: v.copy() for k, v in params.tensors.items()}
            adamw_step(params.tensors, grads, state, cfg)
            for name, theta in params.tensors.items():
                delta = np.abs(theta - before[name])
                cap = bound_scale + cfg.learning_rate * cfg.weight_decay * np.abs(before[name])
                assert np.all(delta <= cap + 1e-12), name


def test_training_holds_one_gradient_set_when_the_next_step_starts(vocab, monkeypatch):
    # when each backward after the first starts, the previous step's
    # gradients are gone: only the parameters, both moments and small
    # arrays (the encoded records, the batch's output) are held. Holding
    # one more gradient set adds the parameters' bytes again
    _, parts, cfg = _toy_setup(96, seed=2)
    cfg.epochs = 2
    entries = []
    step = training.backward

    def recording(*args, **kwargs):
        entries.append(tracemalloc.get_traced_memory()[0])
        return step(*args, **kwargs)

    monkeypatch.setattr(training, "backward", recording)
    tracemalloc.start()
    try:
        config = ModelConfig(
            vocab_size=vocab.size, max_positions=16, hidden_dim=64,
            num_heads=2, num_layers=2, ffn_dim=256, dropout_rate=0.0,
        )
        params = init_parameters(config, seed=1)
        param_bytes = sum(t.nbytes for t in params.tensors.values())
        train(params, parts, vocab, cfg)
    finally:
        tracemalloc.stop()
    assert len(entries) > 2
    assert max(entries[1:]) < 3 * param_bytes + param_bytes // 2

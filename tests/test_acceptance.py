"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s -v` to see them).
"""

import functools
import json
import math
import random
import re
import string
import time

import numpy as np
import pytest

from conftest import synthetic_corpus, toy_batch, widen_parameters
from phishlens import corpus as corpus_mod
from phishlens import metrics as metrics_mod
from phishlens.cli import main as cli_main
from phishlens.corpus import PHISHING, SAFE
from phishlens.intgrad import IGConfig, path_integrate, word_attributions
from phishlens.lime_text import LimeConfig, explain as lime_explain
from phishlens.model import ModelConfig, backward, init_parameters
from phishlens.tokenizer import encode, wordpiece_tokenize
from phishlens.training import OptimizerState, TrainConfig, adamw_step, train
from test_model import finite_difference_gradients


def criterion(number, budget_seconds, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number} [{description}]: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"\ncriterion {number} [{description}]: PASS ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded"

        return wrapper

    return decorate


@criterion(1, 1.0, "metrics golden reproduction of Tables 3-5")
def test_criterion_1_metrics_golden():
    balanced = metrics_mod.ConfusionMatrix(table=((3281, 98), (5, 3410)))
    imbalanced = metrics_mod.ConfusionMatrix(table=((3235, 116), (24, 2216)))
    r2 = lambda x: metrics_mod.round_half_up(x, 2)

    # balanced per-class table
    assert r2(metrics_mod.precision(balanced, 0).value) == 1.00
    assert r2(metrics_mod.recall(balanced, 0).value) == 0.97
    assert r2(metrics_mod.f1(balanced, 0)) == 0.98
    assert balanced.support(0) == 3379
    assert r2(metrics_mod.precision(balanced, 1).value) == 0.97
    assert r2(metrics_mod.recall(balanced, 1).value) == 1.00
    assert r2(metrics_mod.f1(balanced, 1)) == 0.99
    assert balanced.support(1) == 3415
    # imbalanced per-class table
    assert r2(metrics_mod.precision(imbalanced, 0).value) == 0.99
    assert r2(metrics_mod.recall(imbalanced, 0).value) == 0.97
    assert r2(metrics_mod.f1(imbalanced, 0)) == 0.98
    assert imbalanced.support(0) == 3351
    assert r2(metrics_mod.precision(imbalanced, 1).value) == 0.95
    assert r2(metrics_mod.recall(imbalanced, 1).value) == 0.99
    assert r2(metrics_mod.f1(imbalanced, 1)) == 0.97
    assert imbalanced.support(1) == 2240
    # accuracies
    assert r2(100 * metrics_mod.accuracy(balanced)) == 98.48
    assert r2(100 * metrics_mod.accuracy(imbalanced)) == 97.50


@criterion(2, 60.0, "corpus cleaning/oversampling/split arithmetic at full scale")
def test_criterion_2_corpus_arithmetic(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "emails.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('"Email Text","Email Type"\n')
        rows = (
            [("safe message %d" % i, "Safe Email") for i in range(11322)]
            + [("phishing message %d" % i, "Phishing Email") for i in range(7328)]
            + [("", "Safe Email")] * 30
            + [("mystery", "Junk Mail")] * 20
        )
        rng.shuffle(rows)
        for body, label in rows:
            fh.write(f'"{body}","{label}"\n')

    corpus = corpus_mod.load_corpus(str(path))
    assert corpus.class_counts == {SAFE: 11322, PHISHING: 7328}
    assert corpus.dropped_rows == 50

    balanced = corpus_mod.oversample_minority(corpus, seed=1)
    assert balanced.class_counts == {SAFE: 11322, PHISHING: 11322}
    assert len(balanced) == 22644

    parts = corpus_mod.split(balanced, 0.7, seed=1)
    assert len(parts.train) == 15850
    assert len(parts.test) == 6794


@criterion(3, 120.0, "toy-scale learnability substitute for paper-scale training")
def test_criterion_3_toy_learnability(vocab):
    corpus = synthetic_corpus(200, seed=3)
    parts = corpus_mod.split(corpus, 1.0, seed=0)  # all 200 records train
    config = ModelConfig(
        vocab_size=vocab.size, max_positions=16, hidden_dim=16,
        num_heads=2, num_layers=2, ffn_dim=32, dropout_rate=0.0,
    )
    params = init_parameters(config, seed=1)
    cfg = TrainConfig(
        learning_rate=1e-3, train_batch_size=32, epochs=20, shuffle_seed=0, max_len=16,
    )
    _, stats = train(params, parts, vocab, cfg)
    assert stats[-1].train_accuracy >= 0.95
    assert stats[-1].mean_train_loss < stats[0].mean_train_loss


@criterion(4, 300.0, "analytic gradients vs central finite differences")
def test_criterion_4_gradient_correctness(toy_params):
    params = widen_parameters(toy_params)
    batch = toy_batch()
    labels = [1, 0]
    _, grads = backward(params, batch, labels)
    fd = finite_difference_gradients(params, batch, labels, step=1e-3)
    assert all(t.dtype == np.float64 for t in params.tensors.values())
    for name in params.tensors:
        a, f = grads[name].reshape(-1), fd[name].reshape(-1)
        rel = np.linalg.norm(a - f) / max(np.linalg.norm(a), np.linalg.norm(f), 1e-12)
        assert rel < 1e-4, f"{name}: relative error {rel:.3e}"


@criterion(5, 10.0, "AdamW first-step law and decoupled decay properties")
def test_criterion_5_adamw_unit_law():
    cfg = TrainConfig()  # lr 2e-5, betas (0.9, 0.999), eps 1e-8, wd 0.01
    tensors = {"w": np.array([[1.0]])}
    state = OptimizerState.zeros_like(tensors)
    adamw_step(tensors, {"w": np.array([[0.5]])}, state, cfg)
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 2e-5 * m_hat / (math.sqrt(v_hat) + 1e-8) - 2e-5 * 0.01
    assert abs(tensors["w"][0, 0] - expected) < 1e-12
    assert abs(tensors["w"][0, 0] - 0.9999798) < 1e-9

    # zero gradient: matrices decay by exactly (1 - lr*wd), exempt tensors are
    # bit-identical, and with wd = 0 nothing moves at all
    rng = np.random.default_rng(8)
    tensors = {
        "m": rng.normal(size=(6, 4)),
        "bias": rng.normal(size=(4,)),
        "norm.scale": rng.normal(size=(6,)),
    }
    before = {k: v.copy() for k, v in tensors.items()}
    zero = {k: np.zeros_like(v) for k, v in tensors.items()}
    state = OptimizerState.zeros_like(tensors)
    adamw_step(tensors, zero, state, cfg)
    assert np.array_equal(tensors["bias"], before["bias"])
    assert np.array_equal(tensors["norm.scale"], before["norm.scale"])
    np.testing.assert_allclose(tensors["m"], before["m"] * (1 - 2e-5 * 0.01), rtol=1e-15)

    cfg_nodecay = TrainConfig(weight_decay=0.0)
    tensors2 = {k: v.copy() for k, v in before.items()}
    state2 = OptimizerState.zeros_like(tensors2)
    adamw_step(tensors2, zero, state2, cfg_nodecay)
    for name in tensors2:
        assert np.array_equal(tensors2[name], before[name])
    assert state2.step == 1


@criterion(6, 10.0, "LIME recovers a linear black box exactly")
def test_criterion_6_lime_oracle():
    rng = np.random.default_rng(17)
    words = [f"term{c}" for c in string.ascii_lowercase[:12]]
    coefs = rng.uniform(-1.0, 1.0, 12)
    coefs *= 0.45 / np.abs(coefs).sum()

    def black_box(text):
        present = set(re.findall(r"\w+", text.lower()))
        p1 = 0.5 + sum(c for w, c in zip(words, coefs) if w in present)
        return [1.0 - p1, p1]

    cfg = LimeConfig(num_features=12, ridge_alpha=1e-8, exhaustive=True)
    exp = lime_explain(" ".join(words), black_box, cfg, target=1)
    recovered = dict(exp.weighted_words)
    for w, c in zip(words, coefs):
        assert recovered[w] == pytest.approx(c, abs=1e-6)
    true_rank = [w for _, w in sorted(zip(coefs, words))]
    got_rank = [w for _, w in sorted((recovered[w], w) for w in words)]
    assert true_rank == got_rank  # rank correlation exactly 1
    assert exp.local_fit_r2 >= 1 - 1e-9


@criterion(7, 120.0, "integrated-gradients axioms")
def test_criterion_7_ig_axioms(vocab):
    # exactness on a linear scorer for steps 1, 8, 64
    rng = np.random.default_rng(21)
    w = rng.normal(size=(5, 4))
    e1, e0 = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    grad_fn = lambda pts: np.broadcast_to(w, pts.shape).copy()
    for steps in (1, 8, 64):
        np.testing.assert_allclose(
            path_integrate(grad_fn, e1, e0, steps), w * (e1 - e0), atol=1e-12
        )

    # completeness gap at 512 steps over 20 fixed texts on the toy transformer
    config = ModelConfig(
        vocab_size=vocab.size, max_positions=16, hidden_dim=16,
        num_heads=2, num_layers=2, ffn_dim=32, dropout_rate=0.0,
    )
    params = widen_parameters(init_parameters(config, seed=1), seed=55)
    corpus = synthetic_corpus(20, seed=9)
    for rec in corpus.records:
        record = word_attributions(rec.body, params, vocab, IGConfig(steps=512), max_len=16)
        assert record.completeness_gap <= 1e-3

    # zero attribution when the input is its own baseline
    empty = word_attributions("", params, vocab, IGConfig(steps=8), max_len=8)
    assert all(s == 0.0 for s in empty.raw_scores)


@criterion(8, 30.0, "tokenizer conformance and randomized invariants")
def test_criterion_8_tokenizer(vocab):
    assert wordpiece_tokenize("neonate", vocab) == ["neon", "##ate"]

    rng = random.Random(88)
    alphabet = string.ascii_letters + string.digits + " .,:!?/=@# \t\n" + "àéîõü"
    for _ in range(10000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
        max_len = rng.choice([2, 4, 8, 32])
        seq = encode(text, vocab, max_len)
        assert len(seq.input_ids) == max_len
        assert len(seq.attention_mask) == max_len
        assert all(a >= b for a, b in zip(seq.attention_mask, seq.attention_mask[1:]))
        n_real = seq.real_length
        assert 2 <= n_real <= max_len
        assert seq.input_ids[0] == vocab.cls_id
        assert seq.input_ids[n_real - 1] == vocab.sep_id
        assert all(i == vocab.pad_id for i in seq.input_ids[n_real:])
        assert not seq.tokens[0].startswith("##")


@criterion(9, 180.0, "end-to-end CLI smoke: train, evaluate, explain, compare")
def test_criterion_9_end_to_end(tmp_path):
    from pathlib import Path

    here = Path(__file__).parent
    corpus_path = str(here / "data" / "fixture_emails.csv")
    vocab_path = str(here / "data" / "vocab_small.txt")
    config_path = str(here / "data" / "toy_config.json")
    out = tmp_path / "run"
    text = "congratulations winner! click here to claim your free prize now"

    assert cli_main(
        ["train", "--corpus", corpus_path, "--vocab", vocab_path,
         "--config", config_path, "--seed", "5", "--out-dir", str(out)]
    ) == 0
    assert (out / "model.phl").exists()

    assert cli_main(
        ["evaluate", "--corpus", corpus_path, "--vocab", vocab_path,
         "--checkpoint", str(out / "model.phl"), "--config", config_path,
         "--out-dir", str(out)]
    ) == 0
    assert (out / "metrics.json").exists() and (out / "metrics.txt").exists()

    assert cli_main(
        ["explain", "--vocab", vocab_path, "--checkpoint", str(out / "model.phl"),
         "--config", config_path, "--text", text, "--out-dir", str(out), "--seed", "3"]
    ) == 0
    html_doc = (out / "explanation.html").read_text()
    assert "tok pos-" in html_doc and "tok neg-" in html_doc
    payload = json.loads((out / "explanation.json").read_text())
    assert payload["lime"]["features"] and payload["ig"]["tokens"]

    assert cli_main(
        ["compare", "--vocab", vocab_path, "--checkpoint", str(out / "model.phl"),
         "--config", config_path, "--text", text, "--out-dir", str(out), "--seed", "3"]
    ) == 0
    lines = (out / "comparison.csv").read_text().strip().split("\n")[1:]
    lime_total = sum(float(l.split(",")[1]) for l in lines)
    ig_total = sum(float(l.split(",")[2]) for l in lines)
    assert abs(lime_total - 100.0) <= 0.01
    assert abs(ig_total - 100.0) <= 0.01


def test_paper_dataset_counts_when_available():
    """Opt-in: verify the published dataset's class counts (criterion 2 source)."""
    import os

    path = os.environ.get("PHISHLENS_KAGGLE_CSV")
    if not path:
        pytest.skip("PHISHLENS_KAGGLE_CSV not set")
    corpus = corpus_mod.load_corpus(path)
    assert corpus.class_counts == {SAFE: 11322, PHISHING: 7328}

import tracemalloc

import numpy as np
import pytest

import phishlens.intgrad as ig
from conftest import DATA, make_seq, synthetic_corpus, widen_parameters
from phishlens import model
from phishlens.corpus import load_corpus
from phishlens.intgrad import (
    IGConfig,
    integrated_gradients,
    make_baseline,
    path_integrate,
    word_attributions,
)
from phishlens.model import ModelConfig, _cache_bytes_per_row, forward, init_parameters
from phishlens.tokenizer import encode


@pytest.fixture(scope="module")
def ig_params(vocab):
    cfg = ModelConfig(
        vocab_size=vocab.size, max_positions=16, hidden_dim=16,
        num_heads=2, num_layers=2, ffn_dim=32, dropout_rate=0.0,
    )
    return widen_parameters(init_parameters(cfg, seed=1), seed=55)


def test_make_baseline_replaces_interior_tokens(vocab):
    seq = encode("free prize", vocab, max_len=6)
    base = make_baseline(seq, vocab)
    assert base.input_ids[0] == vocab.cls_id
    assert base.input_ids[1] == vocab.pad_id
    assert base.input_ids[2] == vocab.pad_id
    assert base.input_ids[3] == vocab.sep_id
    assert base.attention_mask == seq.attention_mask
    assert base.tokens == ("[CLS]", "[PAD]", "[PAD]", "[SEP]")


def test_make_baseline_cls_sep_only_unchanged(vocab):
    seq = encode("", vocab, max_len=4)
    assert make_baseline(seq, vocab) == seq


def test_make_baseline_idempotent(vocab):
    seq = encode("urgent money now", vocab, max_len=8)
    once = make_baseline(seq, vocab)
    assert make_baseline(once, vocab) == once


def test_path_integrate_exact_on_linear_scorer():
    # score = sum(w * E): constant gradient, so any step count is exact
    rng = np.random.default_rng(3)
    t, d = 5, 4
    w = rng.normal(size=(t, d))
    e1 = rng.normal(size=(t, d))
    e0 = rng.normal(size=(t, d))

    def grad_fn(points):
        return np.broadcast_to(w, points.shape).copy()

    expected = w * (e1 - e0)
    for steps in (1, 8, 64):
        att = path_integrate(grad_fn, e1, e0, steps)
        np.testing.assert_allclose(att, expected, atol=1e-12)


def test_path_integrate_exact_on_mean_pooled_head():
    # score = v . mean_t(E): gradient v/T at every position
    rng = np.random.default_rng(4)
    t, d = 6, 3
    v = rng.normal(size=d)
    e1, e0 = rng.normal(size=(t, d)), rng.normal(size=(t, d))

    def grad_fn(points):
        g = np.broadcast_to(v / t, (t, d))
        return np.broadcast_to(g, points.shape).copy()

    att = path_integrate(grad_fn, e1, e0, 1)
    np.testing.assert_allclose(att, (e1 - e0) * (v / t), atol=1e-12)
    # completeness holds exactly: sum(att) = score(e1) - score(e0)
    assert att.sum() == pytest.approx(v @ (e1.mean(axis=0) - e0.mean(axis=0)), abs=1e-12)


def test_integrated_gradients_zero_when_input_is_baseline(ig_params, vocab):
    seq = encode("free money", vocab, max_len=8)
    att = integrated_gradients(ig_params, seq, seq, target=1, steps=4)
    assert np.all(att == 0.0)


def test_integrated_gradients_keep_the_padded_shape(ig_params, vocab):
    seq = encode("free money", vocab, max_len=16)
    baseline = make_baseline(seq, vocab)
    att = integrated_gradients(ig_params, seq, baseline, target=1, steps=4)
    assert att.shape == (16, ig_params.config.hidden_dim)
    assert np.all(att[seq.real_length :] == 0.0)
    assert np.any(att[1 : seq.real_length - 1] != 0.0)


def test_integrated_gradients_validates_geometry(ig_params, vocab):
    seq = encode("free money", vocab, max_len=8)
    other_len = encode("free money", vocab, max_len=10)
    with pytest.raises(ValueError):
        integrated_gradients(ig_params, seq, other_len, target=1, steps=2)
    other_mask = encode("free money now", vocab, max_len=8)
    with pytest.raises(ValueError):
        integrated_gradients(ig_params, seq, other_mask, target=1, steps=2)


@pytest.mark.parametrize("target", [-1, 2])
def test_integrated_gradients_refuses_a_target_that_is_no_class(ig_params, vocab, target):
    # numpy would attribute -1 to the last class
    seq = encode("free money", vocab, max_len=8)
    with pytest.raises(ValueError, match=r"target must be a class index in \[0, 2\)"):
        integrated_gradients(ig_params, seq, make_baseline(seq, vocab), target=target, steps=2)


def test_completeness_gap_small_at_512_steps(ig_params, vocab):
    corpus = synthetic_corpus(20, seed=9)
    gaps_512, gaps_16 = [], []
    for rec in corpus.records:
        a512 = word_attributions(rec.body, ig_params, vocab, IGConfig(steps=512), max_len=16)
        a16 = word_attributions(rec.body, ig_params, vocab, IGConfig(steps=16), max_len=16)
        gaps_512.append(a512.completeness_gap)
        gaps_16.append(a16.completeness_gap)
    assert max(gaps_512) <= 1e-3
    assert sum(gaps_512) <= sum(gaps_16)


def test_word_attributions_alignment_and_shape(ig_params, vocab):
    text = "click the free link now"
    record = word_attributions(text, ig_params, vocab, IGConfig(steps=8), max_len=16)
    seq = encode(text, vocab, max_len=16)
    assert record.tokens == seq.tokens  # pads excluded, [CLS]/[SEP] present
    assert len(record.tokens) == len(record.raw_scores) == len(record.normalized_scores)
    assert record.predicted_class in (0, 1)


def test_word_attributions_subword_pieces_scored_separately(ig_params, vocab):
    record = word_attributions("neonate", ig_params, vocab, IGConfig(steps=4), max_len=8)
    assert record.tokens == ("[CLS]", "neon", "##ate", "[SEP]")


def test_word_attributions_empty_text_all_zero(ig_params, vocab):
    record = word_attributions("", ig_params, vocab, IGConfig(steps=4), max_len=8)
    assert all(s == 0.0 for s in record.raw_scores)
    assert all(s == 0.0 for s in record.normalized_scores)
    assert record.completeness_gap == 0.0


def test_word_attributions_normalization_contract(ig_params, vocab):
    record = word_attributions(
        "free prize click", ig_params, vocab, IGConfig(steps=16), max_len=16
    )
    norm = np.linalg.norm(record.normalized_scores)
    assert norm == pytest.approx(1.0, abs=1e-6)
    raw_norm = np.linalg.norm(record.raw_scores)
    np.testing.assert_allclose(
        np.array(record.normalized_scores) * raw_norm, record.raw_scores, atol=1e-12
    )


def test_word_attributions_special_positions_zero(ig_params, vocab):
    # [CLS]/[SEP] match the baseline exactly, so their attributions vanish
    record = word_attributions("urgent", ig_params, vocab, IGConfig(steps=8), max_len=8)
    assert record.raw_scores[0] == 0.0
    assert record.raw_scores[-1] == 0.0
    assert record.raw_scores[1] != 0.0


def test_word_attributions_deterministic(ig_params, vocab):
    a = word_attributions("verify account", ig_params, vocab, IGConfig(steps=32), max_len=8)
    b = word_attributions("verify account", ig_params, vocab, IGConfig(steps=32), max_len=8)
    assert a == b


def test_attribution_record_json_schema(ig_params, vocab):
    record = word_attributions("money", ig_params, vocab, IGConfig(steps=2), max_len=8)
    d = record.to_dict()
    assert set(d) == {"tokens", "raw", "normalized", "predicted_class", "completeness_gap"}


def test_ig_config_validation():
    with pytest.raises(ValueError):
        IGConfig(steps=0)


def test_path_integrate_chunk_order_insensitive():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(4, 3))

    def grad_fn(points):
        # mildly nonlinear so the chunking actually matters
        return np.broadcast_to(w, points.shape) * (1.0 + points**2)

    e1, e0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    results = [
        path_integrate(grad_fn, e1, e0, steps=64, rows_per_pass=chunk) for chunk in (1, 7, 64)
    ]
    np.testing.assert_allclose(results[0], results[1], atol=1e-9)
    np.testing.assert_allclose(results[0], results[2], atol=1e-9)


@pytest.fixture
def pass_rows(monkeypatch):
    """pass_rows(config, length, rows) sets the IG cache budget to `rows`
    float64 path steps of `length` real tokens; the returned list records
    the rows of every forward_from_embeddings call IG makes."""
    seen = []
    forward_from_embeddings = ig.forward_from_embeddings

    def spy(params, embeddings, mask):
        seen.append(embeddings.shape[0])
        return forward_from_embeddings(params, embeddings, mask)

    monkeypatch.setattr(ig, "forward_from_embeddings", spy)

    def set_(config, length, rows):
        budget = rows * _cache_bytes_per_row(config, length, np.float64)
        monkeypatch.setattr(model, "_PASS_CACHE_BYTES", budget)
        seen.clear()
        return seen

    return set_


@pytest.mark.parametrize("length", [1, 2, 7, 16])
@pytest.mark.parametrize("steps", [1, 7, 64, 100])
def test_budgeted_ig_matches_one_pass(ig_params, vocab, pass_rows, length, steps):
    rng = np.random.default_rng(length)
    seq = make_seq([vocab.cls_id, *rng.integers(5, vocab.size, length - 1)], length, 16)
    base = make_seq(rng.integers(5, vocab.size, length), length, 16)
    logits = forward(ig_params, [seq, base]).logits[:, 1]

    def gap(att):
        return abs(att.sum() - (logits[0] - logits[1]))

    seen = pass_rows(ig_params.config, length, steps)
    whole = integrated_gradients(ig_params, seq, base, target=1, steps=steps)
    assert seen == [steps]
    for rows in (1, 7, 64):  # steps fewer than, equal to and not a multiple of rows
        seen = pass_rows(ig_params.config, length, rows)
        att = integrated_gradients(ig_params, seq, base, target=1, steps=steps)
        assert seen == [min(rows, steps - s) for s in range(0, steps, rows)]
        np.testing.assert_allclose(att.sum(axis=-1), whole.sum(axis=-1), rtol=0, atol=1e-12)
        assert gap(att) == pytest.approx(gap(whole), rel=0, abs=1e-12)


def test_budgeted_word_attributions_match_one_pass_on_fixtures(ig_params, vocab, pass_rows):
    cfg = IGConfig(steps=64)
    for record in load_corpus(str(DATA / "fixture_emails.csv")).records:
        length = encode(record.body, vocab, 16).real_length
        pass_rows(ig_params.config, length, 64)
        whole = word_attributions(record.body, ig_params, vocab, cfg, max_len=16)
        seen = pass_rows(ig_params.config, length, 7)
        split = word_attributions(record.body, ig_params, vocab, cfg, max_len=16)
        assert seen == [7] * 9 + [1]
        np.testing.assert_allclose(split.raw_scores, whole.raw_scores, rtol=0, atol=1e-12)
        assert split.completeness_gap == pytest.approx(whole.completeness_gap, rel=0, abs=1e-12)


def test_integrated_gradients_peak_memory_is_bounded(vocab):
    # one 64-step pass of this model at 64 tokens keeps a 47 MiB float64
    # cache and peaks at 95 MiB; passes that keep at most 16 MiB peak near 31
    config = ModelConfig(
        vocab_size=vocab.size, max_positions=64, hidden_dim=64, num_heads=4,
        num_layers=2, ffn_dim=256, dropout_rate=0.0,
    )
    params = init_parameters(config, seed=3)
    ids = np.random.default_rng(5).integers(5, vocab.size, 62)
    seq = make_seq([vocab.cls_id, *ids, vocab.sep_id], 64, 64)
    tracemalloc.start()
    try:
        integrated_gradients(params, seq, make_baseline(seq, vocab), target=1, steps=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20

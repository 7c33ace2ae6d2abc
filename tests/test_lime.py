import math
import re

import numpy as np
import pytest

from phishlens.lime_text import (
    ClassifierContractError,
    LimeConfig,
    SingularFitError,
    build_word_index,
    enumerate_perturbations,
    explain,
    fit_local_model,
    kernel_weight,
    sample_perturbations,
    _mask_distance,
    _remove_words,
)


def linear_classifier(words, coefs, base=0.5):
    """p(phish) is an exactly linear function of word presence."""

    def classify(text):
        present = set(re.findall(r"\w+", text.lower()))
        p1 = base + sum(c for w, c in zip(words, coefs) if w in present)
        return [1.0 - p1, p1]

    return classify


def test_build_word_index_url_parts():
    idx = build_word_index("visit http://setupmefree.com today")
    assert "http" in idx.distinct_words
    assert "setupmefree" in idx.distinct_words
    assert "com" in idx.distinct_words


def test_build_word_index_empty():
    assert len(build_word_index("")) == 0


def test_build_word_index_case_folds_to_one_feature():
    idx = build_word_index("free free FREE")
    assert idx.distinct_words == ("free",)
    assert idx.spans == ((0, 4, 0), (5, 9, 0), (10, 14, 0))


def test_mask_distance_hand_value():
    d = _mask_distance(np.array([1, 1, 0, 0]))
    assert d == pytest.approx((1 - 2 / (math.sqrt(2) * 2)) * 100, abs=1e-9)
    assert d == pytest.approx(29.2893218, abs=1e-6)
    assert _mask_distance(np.array([1, 1, 1])) == 0.0
    assert _mask_distance(np.array([0, 0])) == 100.0


def test_mask_distance_and_kernel_weight_of_a_mask_matrix_equal_their_rows():
    masks = np.array(
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 1, 1, 1]], dtype=np.int8
    )
    distances = _mask_distance(masks)
    assert distances.shape == (4,)
    assert distances[0] == 0.0 and distances[1] == 100.0
    assert distances.tolist() == [float(_mask_distance(row)) for row in masks]
    weights = kernel_weight(distances, 25.0)
    assert weights.tolist() == [float(kernel_weight(float(d), 25.0)) for d in distances]


def test_sample_perturbations_first_is_identity():
    idx = build_word_index("free prize click now")
    samples = sample_perturbations(idx, 10, seed=0)
    assert _remove_words(idx, samples[0].mask) == "free prize click now"
    assert _mask_distance(samples[0].mask) == 0.0
    assert samples[0].mask.all()
    assert len(samples) == 10


def test_sample_perturbations_deterministic():
    idx = build_word_index("one two three four five")
    a = sample_perturbations(idx, 25, seed=42)
    b = sample_perturbations(idx, 25, seed=42)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.mask, pb.mask)
        assert _remove_words(idx, pa.mask) == _remove_words(idx, pb.mask)
    c = sample_perturbations(idx, 25, seed=43)
    assert any(not np.array_equal(pa.mask, pc.mask) for pa, pc in zip(a, c))


def test_sample_perturbations_removes_all_occurrences():
    idx = build_word_index("free lunch free prize")
    samples = sample_perturbations(idx, 200, seed=1)
    for s in samples:
        if s.mask[0] == 0:  # "free" deactivated
            assert "free" not in _remove_words(idx, s.mask)
            break
    else:
        pytest.fail("no sample deactivated the first word")


def test_sample_perturbations_empty_index_rejected():
    with pytest.raises(ValueError):
        sample_perturbations(build_word_index(""), 5, seed=0)


def test_kernel_weight_closed_form():
    assert kernel_weight(0.0, 25.0) == 1.0
    assert kernel_weight(25.0, 25.0) == pytest.approx(math.exp(-1), abs=1e-12)
    weights = [kernel_weight(d, 25.0) for d in (0, 5, 10, 20, 40, 80)]
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_fit_exact_interpolation_two_points():
    masks = np.array([[0.0], [1.0]])
    targets = np.array([0.2, 0.8])
    weights = np.ones(2)
    selected, coefs, intercept, r2 = fit_local_model(masks, targets, weights, 0.0, 1)
    assert selected == [0]
    assert coefs[0] == pytest.approx(0.6, abs=1e-12)
    assert intercept == pytest.approx(0.2, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_huge_alpha_collapses_to_weighted_mean():
    rng = np.random.default_rng(0)
    masks = rng.integers(0, 2, size=(40, 3)).astype(float)
    targets = rng.uniform(0, 1, 40)
    weights = rng.uniform(0.1, 1.0, 40)
    _, coefs, intercept, _ = fit_local_model(masks, targets, weights, 1e9, 3)
    assert np.abs(coefs).max() < 1e-6
    assert intercept == pytest.approx((weights * targets).sum() / weights.sum(), abs=1e-6)


def test_fit_matches_direct_inversion_oracle():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2, size=(8, 3)).astype(float)
    x[0] = 1.0
    y = rng.uniform(0, 1, 8)
    w = rng.uniform(0.05, 1.0, 8)
    alpha = 0.37
    selected, coefs, intercept, _ = fit_local_model(x, y, w, alpha, 3)

    # independent solve: centered normal equations by explicit inversion
    xm = (w[:, None] * x).sum(axis=0) / w.sum()
    ym = (w * y).sum() / w.sum()
    xc, yc = x - xm, y - ym
    beta = np.linalg.inv(xc.T @ (xc * w[:, None]) + alpha * np.eye(3)) @ (xc.T @ (w * yc))
    expect_intercept = ym - xm @ beta

    recovered = np.empty(3)
    for idx, c in zip(selected, coefs):
        recovered[idx] = c
    np.testing.assert_allclose(recovered, beta, atol=1e-10)
    assert intercept == pytest.approx(expect_intercept, abs=1e-10)


def test_fit_singular_unregularized_system_raises():
    x = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])  # duplicate columns
    y = np.array([0.9, 0.1, 0.9, 0.1])
    with pytest.raises(SingularFitError):
        fit_local_model(x, y, np.ones(4), 0.0, 2)


def test_explain_linear_oracle_exact_recovery():
    rng = np.random.default_rng(5)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "fox",
             "golf", "hotel", "india", "julia"]
    coefs = rng.uniform(-1.0, 1.0, len(words))
    coefs *= 0.45 / np.abs(coefs).sum()
    clf = linear_classifier(words, coefs)
    cfg = LimeConfig(
        num_features=len(words), ridge_alpha=1e-8, exhaustive=True, seed=0,
    )
    exp = explain(" ".join(words), clf, cfg, target=1)

    recovered = dict(exp.weighted_words)
    assert len(recovered) == len(words)
    for w, c in zip(words, coefs):
        assert recovered[w] == pytest.approx(c, abs=1e-6)
    # rank correlation exactly 1: identical orderings by signed weight
    true_order = [w for _, w in sorted(zip(coefs, words))]
    got_order = [w for _, w in sorted((recovered[w], w) for w in words)]
    assert true_order == got_order
    assert exp.local_fit_r2 >= 1 - 1e-9


def test_explain_sigmoid_signs_and_ranks():
    def clf(text):
        present = set(re.findall(r"\w+", text.lower()))
        z = 2.0 * ("free" in present) - 1.0 * ("hello" in present)
        p1 = 1.0 / (1.0 + math.exp(-z))
        return [1.0 - p1, p1]

    cfg = LimeConfig(num_features=2, ridge_alpha=1e-6, exhaustive=True)
    exp = explain("free hello", clf, cfg, target=1)
    weights = dict(exp.weighted_words)
    assert weights["free"] > 0 > weights["hello"]
    assert abs(weights["free"]) > abs(weights["hello"])
    assert exp.weighted_words[0][0] == "free"  # largest magnitude first


def test_explain_constant_classifier_all_zero():
    cfg = LimeConfig(num_features=5, num_samples=64, seed=3)
    exp = explain("one two three four", lambda text: [0.5, 0.5], cfg)
    for _, weight in exp.weighted_words:
        assert abs(weight) < 1e-9


def test_explain_defaults_to_argmax_class():
    clf = linear_classifier(["good"], [0.3], base=0.5)  # p1=0.8 with "good"
    cfg = LimeConfig(num_features=1, num_samples=16, seed=0)
    exp = explain("good", clf, cfg)
    assert exp.target_class == 1
    assert exp.predicted_probability == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("target", [-1, 2, True, 0.0])
def test_explain_refuses_a_target_that_is_no_class(target):
    # numpy would take -1 for the last class; nothing is scored first
    calls = []

    def clf(text):
        calls.append(text)
        return [0.5, 0.5]

    cfg = LimeConfig(num_features=1, num_samples=16, seed=0)
    with pytest.raises(ValueError, match=re.escape("target must be a class index in [0, 2)")):
        explain("good words", clf, cfg, target=target)
    assert calls == []


def test_explain_deterministic():
    clf = linear_classifier(["a1", "b2", "c3"], [0.1, -0.2, 0.15])
    cfg = LimeConfig(num_features=3, num_samples=50, seed=11)
    a = explain("a1 b2 c3", clf, cfg)
    b = explain("a1 b2 c3", clf, cfg)
    assert a == b


def test_explain_output_size_and_sorting_laws():
    rng = np.random.default_rng(2)
    words = [f"word{i}" for i in range(9)]
    coefs = rng.uniform(-0.05, 0.05, 9)
    clf = linear_classifier(words, coefs)
    cfg = LimeConfig(num_features=4, num_samples=300, seed=5)
    exp = explain(" ".join(words), clf, cfg, target=1)
    assert len(exp.weighted_words) == 4  # min(num_features, F)
    magnitudes = [abs(c) for _, c in exp.weighted_words]
    assert magnitudes == sorted(magnitudes, reverse=True)

    cfg_wide = LimeConfig(num_features=50, num_samples=300, seed=5)
    exp_wide = explain(" ".join(words), clf, cfg_wide, target=1)
    assert len(exp_wide.weighted_words) == 9


def test_explain_contract_violations():
    cfg = LimeConfig(num_features=2, num_samples=8, seed=0)
    with pytest.raises(ClassifierContractError):
        explain("some words here", lambda t: [0.7, 0.7], cfg)
    with pytest.raises(ClassifierContractError):
        explain("some words here", lambda t: [-0.2, 1.2], cfg)
    with pytest.raises(ClassifierContractError):
        explain("some words here", lambda t: [0.2, 0.3, 0.5], cfg)
    for bad in ([np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan]):
        with pytest.raises(ClassifierContractError, match=r"^sample 0: non-finite"):
            explain("some words here", lambda t, bad=bad: bad, cfg)


def _per_sample_reference(text, classifier, cfg):
    """The explanation from scoring every sample, duplicates included."""
    index = build_word_index(text)
    samples = sample_perturbations(index, cfg.num_samples, cfg.seed)
    probs = np.array(
        [classifier(_remove_words(index, s.mask)) for s in samples], dtype=np.float64
    )
    target = int(probs[0].argmax())
    weights = np.array([kernel_weight(_mask_distance(s.mask), cfg.kernel_width) for s in samples])
    masks = np.stack([s.mask for s in samples]).astype(np.float64)
    k = min(cfg.num_features, len(index))
    selected, coefs, intercept, r2 = fit_local_model(
        masks, probs[:, target], weights, cfg.ridge_alpha, k
    )
    return (
        [(index.distinct_words[i], float(c)) for i, c in zip(selected, coefs)],
        intercept, r2, float(probs[0, target]),
    ), samples


def test_explain_scores_each_distinct_perturbation_once():
    calls = []

    def clf(text):
        calls.append(text)
        present = set(re.findall(r"\w+", text.lower()))
        z = 1.5 * ("free" in present) - 0.7 * ("meeting" in present) + 0.2 * len(present)
        p1 = 1.0 / (1.0 + math.exp(-z))
        return [1.0 - p1, p1]

    text = "free prize meeting now please"
    cfg = LimeConfig(num_features=3, num_samples=200, seed=4)
    expected, samples = _per_sample_reference(text, clf, cfg)
    calls.clear()
    exp = explain(text, clf, cfg)

    distinct = {s.mask.tobytes() for s in samples}
    assert len(distinct) < len(samples)  # 5 words: at most 32 masks
    assert len(calls) == len(set(calls)) == len(distinct)
    assert calls[0] == text  # first-appearance order: the unperturbed text first
    assert (list(exp.weighted_words), exp.intercept, exp.local_fit_r2,
            exp.predicted_probability) == expected


def test_contract_violation_names_first_sample_with_that_mask():
    def clf(text):  # breaks the contract whenever "bravo" was knocked out
        return [0.5, 0.5] if "bravo" in text else [0.9, 0.9]

    text = "alpha bravo charlie delta"
    cfg = LimeConfig(num_features=2, num_samples=40, seed=2)
    samples = sample_perturbations(build_word_index(text), cfg.num_samples, cfg.seed)
    first_bad = next(i for i, s in enumerate(samples) if s.mask[1] == 0)
    with pytest.raises(ClassifierContractError, match=rf"^sample {first_bad}: "):
        explain(text, clf, cfg)


def test_explain_empty_text_rejected():
    cfg = LimeConfig(num_samples=4)
    with pytest.raises(ValueError):
        explain("", lambda t: [0.5, 0.5], cfg)


def test_explanation_json_schema():
    clf = linear_classifier(["pay"], [0.2])
    cfg = LimeConfig(num_features=1, num_samples=8, seed=0)
    exp = explain("pay now", clf, cfg, target=1)
    d = exp.to_dict()
    assert set(d) == {"class", "intercept", "r2", "features"}
    assert d["features"][0].keys() == {"word", "weight"}


def test_enumerate_perturbations_guard():
    idx = build_word_index(" ".join(f"w{i}" for i in range(21)))
    with pytest.raises(ValueError):
        enumerate_perturbations(idx)


def test_config_validation():
    with pytest.raises(ValueError):
        LimeConfig(num_features=0)
    with pytest.raises(ValueError):
        LimeConfig(kernel_width=0.0)
    with pytest.raises(ValueError):
        LimeConfig(ridge_alpha=-1.0)


def test_fit_r2_bounded_on_random_problems():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n, f = rng.integers(2, 40), rng.integers(1, 6)
        x = rng.integers(0, 2, size=(n, f)).astype(float)
        y = rng.uniform(0, 1, n)
        w = rng.uniform(0.01, 1.0, n)
        k = int(rng.integers(1, f + 1))
        _, _, _, r2 = fit_local_model(x, y, w, alpha=1.0, k=k)
        assert 0.0 <= r2 <= 1.0 + 1e-12

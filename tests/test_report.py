import csv

import numpy as np
import pytest

from conftest import widen_parameters
from phishlens.intgrad import AttributionRecord, IGConfig, word_attributions
from phishlens.lime_text import LimeConfig, LimeExplanation, explain
from phishlens.model import forward, init_parameters
from phishlens.report import (
    ComparisonRow,
    comparison_csv,
    comparison_rows,
    explain_email,
    highlight_level,
    merge_subword_scores,
    render_explanation_html,
)
from phishlens.tokenizer import encode

CLASS_NAMES = ("Safe Email", "Phishing Email")


def lime_exp(words, target=1, prob=0.9):
    return LimeExplanation(
        target_class=target,
        weighted_words=tuple(words),
        intercept=0.4,
        local_fit_r2=0.95,
        predicted_probability=prob,
    )


def ig_rec(tokens, raws, predicted=1):
    return AttributionRecord(
        tokens=tuple(tokens),
        raw_scores=tuple(raws),
        normalized_scores=tuple(raws),
        predicted_class=predicted,
        completeness_gap=1e-5,
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_explain_email_equals_lime_with_a_single_row_classifier_plus_ig(
    toy_config, vocab, dtype
):
    """The benchmark's explain unit composes these calls itself."""
    params = widen_parameters(init_parameters(toy_config, seed=7, dtype=dtype))
    text = "urgent: verify your account now, or click the link to claim cash"
    lime_cfg = LimeConfig(num_features=5, num_samples=60, seed=4)
    ig_cfg = IGConfig(steps=8)

    def classifier(sample):
        return forward(params, [encode(sample, vocab, 16)], train_mode=False).probabilities[0]

    expected = (
        explain(text, classifier, lime_cfg),
        word_attributions(text, params, vocab, ig_cfg, 16),
    )
    assert explain_email(text, params, vocab, 16, lime_cfg, ig_cfg) == expected


def test_highlight_level_buckets():
    assert highlight_level(0.0, 1.0) == 0
    assert highlight_level(1.0, 0.0) == 0
    assert highlight_level(1.0, 1.0) == 8
    assert highlight_level(-1.0, 1.0) == 8
    assert highlight_level(0.124, 1.0) == 1
    assert highlight_level(0.126, 1.0) == 2
    assert highlight_level(0.5, 1.0) == 4


def test_merge_subword_scores_strips_prefix_and_sums():
    merged = merge_subword_scores(
        ["[CLS]", "neon", "##ate", "low", "[SEP]"], [0.5, 0.07, 0.09, 0.7, 0.1]
    )
    assert merged == [("neonate", pytest.approx(0.16)), ("low", pytest.approx(0.7))]


def test_merge_subword_scores_joins_repeats():
    merged = merge_subword_scores(["free", "free", "me", "##ga"], [0.2, 0.3, 0.1, 0.4])
    assert merged == [("free", pytest.approx(0.5)), ("mega", pytest.approx(0.5))]


def test_comparison_hand_percentages():
    lime = lime_exp([("a", 2.0), ("b", 1.0), ("c", 1.0)])
    ig = ig_rec(["[CLS]", "a", "b", "c", "[SEP]"], [0.0, 2.0, 1.0, 1.0, 0.0])
    rows = comparison_rows(lime, ig)
    by_word = {r.word: r for r in rows}
    assert by_word["a"].lime_percent == pytest.approx(50.0)
    assert by_word["b"].lime_percent == pytest.approx(25.0)
    assert by_word["c"].lime_percent == pytest.approx(25.0)
    assert by_word["a"].ig_percent == pytest.approx(50.0)


def test_comparison_single_feature_is_hundred_percent():
    rows = comparison_rows(
        lime_exp([("free", -0.4)]), ig_rec(["[CLS]", "free", "[SEP]"], [0.0, 0.2, 0.0])
    )
    assert rows == [ComparisonRow(word="free", lime_percent=100.0, ig_percent=100.0)]


def test_comparison_percents_sum_to_hundred():
    lime = lime_exp([("x", 0.3), ("y", -0.9), ("z", 0.15)])
    ig = ig_rec(["[CLS]", "x", "q", "##r", "[SEP]"], [0.0, -0.5, 0.2, 0.05, 0.0])
    rows = comparison_rows(lime, ig)
    assert sum(r.lime_percent for r in rows) == pytest.approx(100.0, abs=0.01)
    assert sum(r.ig_percent for r in rows) == pytest.approx(100.0, abs=0.01)


def test_comparison_disjoint_features_fill_zero():
    rows = comparison_rows(
        lime_exp([("only_lime", 1.0)]),
        ig_rec(["[CLS]", "only_ig", "[SEP]"], [0.0, 1.0, 0.0]),
    )
    by_word = {r.word: r for r in rows}
    assert by_word["only_lime"].ig_percent == 0.0
    assert by_word["only_ig"].lime_percent == 0.0


def test_comparison_csv_format():
    text = comparison_csv([ComparisonRow("free", 60.0, 40.0)])
    lines = text.strip().split("\n")
    assert lines[0] == "word,lime_percent,ig_percent"
    assert lines[1] == "free,60.000000,40.000000"


def test_comparison_csv_quotes_punctuation_words():
    lime = lime_exp([("pay", 0.5), ("now", -0.25)])
    ig = ig_rec(["[CLS]", "pay", ",", "now", '"', "[SEP]"], [0.0, 0.4, 0.3, -0.2, 0.1, 0.0])
    rows = comparison_rows(lime, ig)
    assert {",", '"'} <= {r.word for r in rows}
    text = comparison_csv(rows)
    expected = [["word", "lime_percent", "ig_percent"]] + [
        [r.word, f"{r.lime_percent:.6f}", f"{r.ig_percent:.6f}"] for r in rows
    ]
    assert list(csv.reader(text.splitlines(keepends=True))) == expected


def test_html_has_green_and_red_spans():
    text = "free stuff but boring meeting"
    lime = lime_exp([("free", 0.8), ("meeting", -0.5)])
    ig = ig_rec(["[CLS]", "free", "meeting", "[SEP]"], [0.0, 0.6, -0.3, 0.0])
    html_doc = render_explanation_html(text, lime, ig, CLASS_NAMES)
    assert 'class="tok pos-8"' in html_doc
    assert 'class="tok neg-' in html_doc
    assert "Phishing Email" in html_doc
    assert "<style>" in html_doc


def test_html_no_highlights_for_all_zero_weights():
    text = "plain words"
    lime = lime_exp([("plain", 0.0), ("words", 0.0)], prob=0.5)
    ig = ig_rec(["[CLS]", "plain", "words", "[SEP]"], [0.0, 0.0, 0.0, 0.0])
    html_doc = render_explanation_html(text, lime, ig, CLASS_NAMES)
    assert "pos-" not in html_doc.split("</style>")[1]
    assert "neg-" not in html_doc.split("</style>")[1]


def test_html_deterministic_and_self_contained():
    text = "free prize"
    lime = lime_exp([("free", 0.8), ("prize", 0.2)])
    ig = ig_rec(["[CLS]", "free", "prize", "[SEP]"], [0.0, 0.5, 0.1, 0.0])
    a = render_explanation_html(text, lime, ig, CLASS_NAMES)
    b = render_explanation_html(text, lime, ig, CLASS_NAMES)
    assert a == b
    assert "http://" not in a and "https://" not in a


def test_html_escapes_content():
    text = "<script>alert(1)</script> free"
    lime = lime_exp([("free", 0.8), ("script", 0.1)])
    ig = ig_rec(["[CLS]", "free", "[SEP]"], [0.0, 0.5, 0.0])
    html_doc = render_explanation_html(text, lime, ig, CLASS_NAMES)
    assert "<script>" not in html_doc
    assert "&lt;" in html_doc and "&gt;" in html_doc

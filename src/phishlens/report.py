"""Dual-method explanations of one email, their HTML rendering and
LIME-vs-IG comparison data.

Positive-weight words render green, negative red, with an 8-step opacity
scale proportional to |weight| / max|weight|. Reports are self-contained
(inline CSS, no network resources) and byte-deterministic.
"""

from __future__ import annotations

import csv
import html
import io
import math
from dataclasses import dataclass
from typing import Sequence

from . import intgrad, lime_text, model, tokenizer
from .intgrad import AttributionRecord, IGConfig
from .lime_text import LimeConfig, LimeExplanation, build_word_index
from .model import ModelParameters
from .tokenizer import Vocabulary

_STYLE = """
body { font-family: sans-serif; margin: 2em; max-width: 60em; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #999; padding: 0.25em 0.75em; text-align: left; }
span.tok { padding: 0.05em 0.15em; border-radius: 0.2em; }
""" + "\n".join(
    f"span.pos-{i} {{ background: rgba(0, 150, 0, {i / 8:.3f}); }}" for i in range(1, 9)
) + "\n" + "\n".join(
    f"span.neg-{i} {{ background: rgba(220, 30, 30, {i / 8:.3f}); }}" for i in range(1, 9)
)


@dataclass(frozen=True)
class ComparisonRow:
    word: str
    lime_percent: float
    ig_percent: float


def explain_email(
    text: str,
    params: ModelParameters,
    vocab: Vocabulary,
    max_len: int,
    lime_cfg: LimeConfig,
    ig_cfg: IGConfig,
) -> tuple[LimeExplanation, AttributionRecord]:
    """LIME and integrated-gradients explanations of the model's prediction
    for `text`, both encoding to max_len.

    LIME's black box encodes each perturbed text and scores it with one
    eval-mode forward pass. The library calls go through their modules'
    attributes, so a wrapper set on one of them sees every call.
    """

    def classifier(sample: str):
        seq = tokenizer.encode(sample, vocab, max_len)
        return model.forward(params, [seq]).probabilities[0]

    lime_exp = lime_text.explain(text, classifier, lime_cfg)
    ig_record = intgrad.word_attributions(text, params, vocab, ig_cfg, max_len)
    return lime_exp, ig_record


def highlight_level(weight: float, max_abs: float) -> int:
    """Opacity bucket 1..8 for a weight, 0 meaning no highlight."""
    if weight == 0.0 or max_abs <= 0.0:
        return 0
    return min(8, max(1, math.ceil(8.0 * abs(weight) / max_abs)))


def _span(token: str, weight: float, max_abs: float) -> str:
    level = highlight_level(weight, max_abs)
    escaped = html.escape(token)
    if level == 0:
        return escaped
    cls = f"pos-{level}" if weight > 0 else f"neg-{level}"
    return f'<span class="tok {cls}" title="{weight:.6f}">{escaped}</span>'


def _highlight_words(text: str, weights: dict[str, float]) -> str:
    """Original text with each known word wrapped in a colored span."""
    index = build_word_index(text)
    max_abs = max((abs(w) for w in weights.values()), default=0.0)
    parts = []
    cursor = 0
    for start, end, word_id in index.spans:
        word = index.distinct_words[word_id]
        if word in weights:
            parts.append(html.escape(text[cursor:start]))
            parts.append(_span(text[start:end], weights[word], max_abs))
            cursor = end
    parts.append(html.escape(text[cursor:]))
    return "".join(parts)


def _highlight_tokens(tokens: Sequence[str], scores: Sequence[float]) -> str:
    max_abs = max((abs(s) for s in scores), default=0.0)
    return " ".join(_span(t, s, max_abs) for t, s in zip(tokens, scores))


def render_explanation_html(
    text: str,
    lime_exp: LimeExplanation,
    ig_record: AttributionRecord,
    class_names: Sequence[str],
) -> str:
    lime_weights = dict(lime_exp.weighted_words)
    predicted = class_names[lime_exp.target_class]

    lime_table = "\n".join(
        f"<tr><td>{html.escape(w)}</td><td>{c:.6f}</td></tr>"
        for w, c in lime_exp.weighted_words
    )
    ig_table = "\n".join(
        f"<tr><td>{html.escape(t)}</td><td>{r:.6f}</td><td>{n:.6f}</td></tr>"
        for t, r, n in zip(ig_record.tokens, ig_record.raw_scores, ig_record.normalized_scores)
    )

    return f"""<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Prediction explanation</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>Prediction: {html.escape(predicted)}</h1>
<p>Probability of predicted class: {lime_exp.predicted_probability:.4f}</p>

<h2>Word-removal surrogate (LIME)</h2>
<p>Local fit R&sup2;: {lime_exp.local_fit_r2:.4f}, intercept {lime_exp.intercept:.4f}</p>
<p class="text">{_highlight_words(text, lime_weights)}</p>
<table>
<tr><th>Word</th><th>Weight</th></tr>
{lime_table}
</table>

<h2>Integrated gradients (per token)</h2>
<p>Completeness gap: {ig_record.completeness_gap:.2e}</p>
<p class="text">{_highlight_tokens(ig_record.tokens, ig_record.normalized_scores)}</p>
<table>
<tr><th>Token</th><th>Raw</th><th>Normalized</th></tr>
{ig_table}
</table>
</body>
</html>
"""


def merge_subword_scores(
    tokens: Sequence[str], scores: Sequence[float]
) -> list[tuple[str, float]]:
    """Merge "##" continuation pieces into whole words, summing raw scores.

    Structural tokens ([CLS], [SEP], [PAD]) are dropped. Repeated words are
    joined (scores summed) so the result keys are distinct.
    """
    merged: list[tuple[str, float]] = []
    for token, score in zip(tokens, scores):
        if token in ("[CLS]", "[SEP]", "[PAD]"):
            continue
        if token.startswith("##") and merged:
            word, acc = merged[-1]
            merged[-1] = (word + token[2:], acc + score)
        else:
            merged.append((token, score))
    joined: dict[str, float] = {}
    for word, score in merged:
        joined[word] = joined.get(word, 0.0) + score
    return list(joined.items())


def _percents(pairs: Sequence[tuple[str, float]]) -> dict[str, float]:
    total = sum(abs(v) for _, v in pairs)
    if total == 0.0:
        return {w: 0.0 for w, _ in pairs}
    return {w: 100.0 * abs(v) / total for w, v in pairs}


def comparison_rows(
    lime_exp: LimeExplanation, ig_record: AttributionRecord
) -> list[ComparisonRow]:
    """Per-word share of each method's total absolute score, joined on word."""
    lime_pct = _percents(lime_exp.weighted_words)
    ig_pct = _percents(merge_subword_scores(ig_record.tokens, ig_record.raw_scores))
    rows = [
        ComparisonRow(
            word=w,
            lime_percent=lime_pct.get(w, 0.0),
            ig_percent=ig_pct.get(w, 0.0),
        )
        for w in sorted(set(lime_pct) | set(ig_pct))
    ]
    rows.sort(key=lambda r: (-(r.lime_percent + r.ig_percent), r.word))
    return rows


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["word", "lime_percent", "ig_percent"])
    writer.writerows([r.word, f"{r.lime_percent:.6f}", f"{r.ig_percent:.6f}"] for r in rows)
    return out.getvalue()

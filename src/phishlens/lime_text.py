"""Word-level local surrogate explanations (LIME) for text classifiers.

Pipeline: index the distinct words of one email, knock random subsets out,
score the perturbed texts with the black-box classifier, weight samples by
proximity to the original, and fit a sparse weighted ridge surrogate whose
coefficients are the explanation.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import LABEL_NAMES
from .model import _check_class_index, check_fields

_WORD_RE = re.compile(r"\w+", re.UNICODE)

EXHAUSTIVE_LIMIT = 20  # 2^F samples; beyond this enumeration is a mistake


class ClassifierContractError(ValueError):
    """The black box returned something that is not a probability vector."""


class LimeSettingError(ValueError):
    """A LimeConfig setting that cannot explain this text."""


class SingularFitError(LimeSettingError):
    """Unregularized fit hit a singular system; retry with ridge_alpha > 0."""


@dataclass
class LimeConfig:
    num_features: int = 15
    num_samples: int = 1000
    kernel_width: float = 25.0
    ridge_alpha: float = 1.0
    seed: int = 0
    class_names: tuple[str, ...] = LABEL_NAMES
    exhaustive: bool = False

    def __post_init__(self):
        check_fields(self, {"num_features": 1, "num_samples": 1, "seed": 0}, {
            # the kernel divides by width^2, which must neither underflow to 0 nor overflow
            "kernel_width": ("be positive with a finite, positive square",
                             lambda width: width > 0 and 0.0 < width * width < math.inf),
            "ridge_alpha": ("be finite and non-negative", lambda x: 0.0 <= x < math.inf),
        }, seeds=("seed",))
        if type(self.exhaustive) is not bool:
            raise ValueError(f"exhaustive must be true or false, got {self.exhaustive!r}")


@dataclass(frozen=True)
class WordIndex:
    text: str
    distinct_words: tuple[str, ...]
    spans: tuple[tuple[int, int, int], ...]  # (start, end, word id) in text order

    def __len__(self) -> int:
        return len(self.distinct_words)


class Perturbation(NamedTuple):
    mask: np.ndarray


@dataclass(frozen=True)
class LimeExplanation:
    target_class: int
    weighted_words: tuple[tuple[str, float], ...]
    intercept: float
    local_fit_r2: float
    predicted_probability: float

    def to_dict(self) -> dict:
        return {
            "class": self.target_class,
            "intercept": self.intercept,
            "r2": self.local_fit_r2,
            "features": [{"word": w, "weight": c} for w, c in self.weighted_words],
        }


def build_word_index(text: str) -> WordIndex:
    """Distinct lowercased words, and every word's span with its word id."""
    ids: dict[str, int] = {}
    spans = tuple(
        (*match.span(), ids.setdefault(match.group().lower(), len(ids)))
        for match in _WORD_RE.finditer(text)
    )
    return WordIndex(text=text, distinct_words=tuple(ids), spans=spans)


def _remove_words(index: WordIndex, mask: np.ndarray) -> str:
    """The text without every occurrence of the words whose mask entry is 0."""
    parts = []
    cursor = 0
    for start, end, word_id in index.spans:
        if mask[word_id] == 0:
            parts.append(index.text[cursor:start])
            cursor = end
    parts.append(index.text[cursor:])
    return "".join(parts)


def _mask_distance(masks: np.ndarray) -> np.ndarray:
    """Cosine distance of each mask (the last axis) to the all-ones mask, scaled by 100.

    For a binary mask with k active of F, the cosine is k/(sqrt(k)*sqrt(F))
    = sqrt(k/F), which is exact (1.0) for the identity mask and 0 for the empty one.
    """
    return (1.0 - np.sqrt(masks.sum(axis=-1) / masks.shape[-1])) * 100.0


def sample_perturbations(index: WordIndex, n: int, seed: int) -> list[Perturbation]:
    """All-ones first, then n-1 random non-empty deactivation subsets."""
    f = len(index)
    if f == 0:
        raise ValueError("cannot perturb a text with no words")
    masks = np.ones((n, f), dtype=np.int8)
    rng = np.random.default_rng(seed)
    for mask in masks[1:]:
        k = int(rng.integers(1, f + 1))
        mask[rng.choice(f, size=k, replace=False)] = 0
    return [Perturbation(mask) for mask in masks]


def enumerate_perturbations(index: WordIndex) -> list[Perturbation]:
    """Every one of the 2^F masks, all-ones first (for oracle-grade fits)."""
    f = len(index)
    if f == 0:
        raise ValueError("cannot perturb a text with no words")
    if f > EXHAUSTIVE_LIMIT:
        raise LimeSettingError(
            f"exhaustive: refusing to enumerate 2^{f} masks for "
            f"{f} distinct words (at most {EXHAUSTIVE_LIMIT})"
        )
    masks = np.array(list(itertools.product((1, 0), repeat=f)), dtype=np.int8)
    return [Perturbation(mask) for mask in masks]


def kernel_weight(distance: np.ndarray, width: float) -> np.ndarray:
    """Locality kernel exp(-d^2 / width^2), elementwise; LimeConfig checks the width."""
    return np.exp(-(distance**2) / width**2)


def _weighted_ridge(xc, yc, weights, alpha):
    """Ridge coefficients of weighted-centred targets on weighted-centred columns;
    the intercept, unpenalized, is left to the caller's means."""
    a = xc.T @ (xc * weights[:, None]) + alpha * np.eye(xc.shape[1])
    try:
        return np.linalg.solve(a, xc.T @ (weights * yc))
    except np.linalg.LinAlgError as exc:
        raise SingularFitError(
            "weighted ridge system is singular; set ridge_alpha > 0"
        ) from exc


def fit_local_model(
    masks: np.ndarray,
    targets: np.ndarray,
    sample_weights: np.ndarray,
    alpha: float,
    k: int,
) -> tuple[list[int], np.ndarray, float, float]:
    """Fit on all features, keep the k largest |coefficient|, refit on those.

    Returns (selected feature indices, coefficients, intercept, weighted r2),
    with indices and coefficients ordered by descending |coefficient|. Both
    fits, the intercept and r2 share one weighted mean per column and one of
    the targets: a column subset's weighted means are the same columns'
    entries of the full mean.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(masks, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    w = np.asarray(sample_weights, dtype=np.float64)
    w_sum = w.sum()
    x_mean = (w[:, None] * x).sum(axis=0) / w_sum
    y_mean = float((w * y).sum() / w_sum)
    xc = x - x_mean
    yc = y - y_mean

    beta_full = _weighted_ridge(xc, yc, w, alpha)
    keep = np.argsort(-np.abs(beta_full), kind="stable")[: min(k, x.shape[1])]
    xc_keep = xc[:, keep]
    beta = _weighted_ridge(xc_keep, yc, w, alpha)
    intercept = y_mean - float(x_mean[keep] @ beta)

    order = np.argsort(-np.abs(beta), kind="stable")
    selected = [int(keep[i]) for i in order]
    coefficients = beta[order]

    # y - (intercept + x[:, keep] @ beta) is yc - xc_keep @ beta
    rss = float((w * (yc - xc_keep @ beta) ** 2).sum())
    tss = float((w * yc**2).sum())
    if tss <= 1e-30:
        r2 = 1.0 if rss <= 1e-30 else 0.0
    else:
        r2 = 1.0 - rss / tss
    return selected, coefficients, float(intercept), r2


def _check_probability_vector(probs: np.ndarray, n_classes: int, context: str) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    if probs.shape[0] != n_classes:
        raise ClassifierContractError(
            f"{context}: expected {n_classes} class probabilities, got {probs.shape[0]}"
        )
    if not np.isfinite(probs).all():
        raise ClassifierContractError(f"{context}: non-finite probability in {probs.tolist()}")
    if (probs < -1e-9).any():
        raise ClassifierContractError(f"{context}: negative probability {probs.min()}")
    if abs(probs.sum() - 1.0) > 1e-3:
        raise ClassifierContractError(f"{context}: probabilities sum to {probs.sum()}")
    return probs


def explain(
    text: str,
    classifier: Callable[[str], Sequence[float]],
    cfg: LimeConfig,
    target: int | None = None,
) -> LimeExplanation:
    """Surrogate explanation of classifier(text) for one class.

    The target defaults to the class the black box predicts for the original
    text; a given target that is no class index raises ValueError before
    any text is scored. The classifier must map any text to a probability
    vector over cfg.class_names. It is called once per distinct
    perturbation, so it should depend on the text alone.
    """
    n_classes = len(cfg.class_names)
    if target is not None:
        _check_class_index(target, n_classes)
    index = build_word_index(text)
    if cfg.exhaustive:
        samples = enumerate_perturbations(index)
    else:
        samples = sample_perturbations(index, cfg.num_samples, cfg.seed)

    # the black box scores the text of each distinct mask once, in order of
    # its first sample, and every sample with that mask shares the result
    masks = np.stack([s.mask for s in samples])
    _, first, inverse = np.unique(masks, axis=0, return_index=True, return_inverse=True)
    scored = np.empty((len(first), n_classes))
    for j in np.argsort(first):
        i = int(first[j])
        scored[j] = _check_probability_vector(
            classifier(_remove_words(index, masks[i])), n_classes, f"sample {i}"
        )
    probs = scored[inverse.reshape(-1)]

    if target is None:
        target = int(probs[0].argmax())

    weights = kernel_weight(_mask_distance(masks), cfg.kernel_width)
    k = min(cfg.num_features, len(index))
    selected, coefficients, intercept, r2 = fit_local_model(
        masks, probs[:, target], weights, cfg.ridge_alpha, k
    )
    weighted_words = tuple(
        (index.distinct_words[idx], float(c)) for idx, c in zip(selected, coefficients)
    )
    return LimeExplanation(
        target_class=target,
        weighted_words=weighted_words,
        intercept=intercept,
        local_fit_r2=r2,
        predicted_probability=float(probs[0, target]),
    )

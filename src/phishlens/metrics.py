"""Confusion matrix and derived classification metrics.

Binary by construction (Safe=0, Phishing=1), but every formula is written
against an explicit positive-class choice so the symmetric counterpart is
a parameter flip, not a second code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple, Sequence

from .corpus import LABEL_NAMES

DEFAULT_CLASS_NAMES = LABEL_NAMES  # read by perfbench/run.py


class Rate(NamedTuple):
    """A ratio in [0,1] plus a flag marking a 0/0 denominator."""

    value: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 table indexed [actual][predicted]."""

    table: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        for row in self.table:
            for cell in row:
                if cell < 0:
                    raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.table)

    def support(self, cls: int) -> int:
        return sum(self.table[cls])

    def tp(self, positive: int) -> int:
        return self.table[positive][positive]

    def fp(self, positive: int) -> int:
        neg = 1 - positive
        return self.table[neg][positive]

    def fn(self, positive: int) -> int:
        neg = 1 - positive
        return self.table[positive][neg]


@dataclass(frozen=True)
class ClassStats:
    precision: Rate
    recall: Rate
    f1: float
    support: int


@dataclass(frozen=True)
class ClassReport:
    per_class: dict[int, ClassStats]
    accuracy: float
    total: int


def confusion(predictions: Sequence[int], labels: Sequence[int]) -> ConfusionMatrix:
    """Count actual-vs-predicted pairs into a 2x2 table."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    if not labels:
        raise ValueError("cannot build a confusion matrix from zero records")
    counts = [[0, 0], [0, 0]]
    for pred, actual in zip(predictions, labels):
        if actual not in (0, 1) or pred not in (0, 1):
            raise ValueError(f"class ids must be 0 or 1, got actual={actual} pred={pred}")
        counts[actual][pred] += 1
    return ConfusionMatrix(table=(tuple(counts[0]), tuple(counts[1])))


def precision(cm: ConfusionMatrix, positive: int) -> Rate:
    """TP / (TP + FP). Degenerate (no predicted positives) -> 0 with flag."""
    tp, fp = cm.tp(positive), cm.fp(positive)
    if tp + fp == 0:
        return Rate(0.0, degenerate=True)
    return Rate(tp / (tp + fp))


def recall(cm: ConfusionMatrix, positive: int) -> Rate:
    """TP / (TP + FN). Degenerate (no actual positives) -> 0 with flag."""
    tp, fn = cm.tp(positive), cm.fn(positive)
    if tp + fn == 0:
        return Rate(0.0, degenerate=True)
    return Rate(tp / (tp + fn))


def f1(cm: ConfusionMatrix, positive: int) -> float:
    """Harmonic mean of precision and recall; 0 when both vanish."""
    p = precision(cm, positive).value
    r = recall(cm, positive).value
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


def accuracy(cm: ConfusionMatrix) -> float:
    """(TN + TP) / total, positive-class independent."""
    correct = cm.table[0][0] + cm.table[1][1]
    return correct / cm.total


def classification_report(cm: ConfusionMatrix) -> ClassReport:
    per_class = {
        cls: ClassStats(
            precision=precision(cm, cls),
            recall=recall(cm, cls),
            f1=f1(cm, cls),
            support=cm.support(cls),
        )
        for cls in (0, 1)
    }
    return ClassReport(per_class=per_class, accuracy=accuracy(cm), total=cm.total)


def round_half_up(x: float, places: int) -> float:
    """Round with ties away from zero, e.g. 0.985 -> 0.99 at 2 places."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


def report_to_dict(cm: ConfusionMatrix) -> dict:
    """JSON-ready report: raw 4-decimal ratios plus 2-decimal rounded values."""
    rep = classification_report(cm)
    per_class = {}
    for cls, stats in rep.per_class.items():
        per_class[LABEL_NAMES[cls]] = {
            "precision": round_half_up(stats.precision.value, 4),
            "recall": round_half_up(stats.recall.value, 4),
            "f1": round_half_up(stats.f1, 4),
            "precision_2dp": round_half_up(stats.precision.value, 2),
            "recall_2dp": round_half_up(stats.recall.value, 2),
            "f1_2dp": round_half_up(stats.f1, 2),
            "support": stats.support,
            "degenerate": stats.precision.degenerate or stats.recall.degenerate,
        }
    return {
        "confusion": [list(row) for row in cm.table],
        "per_class": per_class,
        "accuracy": round_half_up(rep.accuracy, 4),
        "accuracy_percent_2dp": round_half_up(100.0 * rep.accuracy, 2),
    }


def report_to_text(cm: ConfusionMatrix) -> str:
    """Aligned plain-text confusion matrix, per-class table, and accuracy."""
    rep = classification_report(cm)
    name_w = max(len(n) for n in LABEL_NAMES) + 2
    lines = ["Confusion matrix (rows = actual, columns = predicted)"]
    header = " " * name_w + "".join(f"{n:>{len(n) + 4}}" for n in LABEL_NAMES)
    lines.append(header)
    for cls, name in enumerate(LABEL_NAMES):
        row = f"{name:<{name_w}}"
        for p, pname in enumerate(LABEL_NAMES):
            row += f"{cm.table[cls][p]:>{len(pname) + 4}}"
        lines.append(row)
    lines.append("")
    lines.append(
        f"{'Class':<{name_w}}{'Precision':>10}{'Recall':>10}{'F1-score':>10}{'Support':>10}"
    )
    for cls, name in enumerate(LABEL_NAMES):
        stats = rep.per_class[cls]
        lines.append(
            f"{name:<{name_w}}"
            f"{round_half_up(stats.precision.value, 2):>10.2f}"
            f"{round_half_up(stats.recall.value, 2):>10.2f}"
            f"{round_half_up(stats.f1, 2):>10.2f}"
            f"{stats.support:>10}"
        )
    lines.append("")
    lines.append(f"Accuracy: {round_half_up(100.0 * rep.accuracy, 2):.2f}%")
    return "\n".join(lines) + "\n"

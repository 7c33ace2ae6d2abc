"""Email corpus loading, class balancing, and train/test splitting.

Input format: UTF-8 (any byte-order mark skipped) comma-delimited text with a
header row and double-quote quoting; bodies span lines, hold commas, have any
length. Labels match case-insensitively after trimming; Safe=0, Phishing=1.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SAFE, PHISHING = 0, 1
LABEL_NAMES = ("Safe Email", "Phishing Email")  # indexed by label
_LABEL_ALIASES = {name.lower(): label for label, name in enumerate(LABEL_NAMES)}

TEXT_COLUMN = "Email Text"
LABEL_COLUMN = "Email Type"


class EmptyCorpusError(ValueError):
    """Raised when a source yields zero usable records."""


class CorpusFormatError(ValueError):
    """Raised when a corpus file lacks the text or label column, or repeats one."""


class BalanceError(ValueError):
    """Raised when oversampling is impossible (a class is absent)."""


@dataclass(frozen=True)
class EmailRecord:
    body: str
    label: int

    def __post_init__(self):
        if not self.body.strip():
            raise ValueError("EmailRecord body must be non-empty")
        if self.label not in (SAFE, PHISHING):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class LabeledCorpus:
    records: tuple[EmailRecord, ...]
    dropped_rows: int = 0

    @classmethod
    def from_records(cls, records: Sequence[EmailRecord], dropped_rows: int = 0) -> "LabeledCorpus":
        return cls(records=tuple(records), dropped_rows=dropped_rows)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def class_counts(self) -> dict[int, int]:
        """Records per label, derived from `records`."""
        counts = {SAFE: 0, PHISHING: 0}
        for rec in self.records:
            counts[rec.label] += 1
        return counts

    def summary(self, seed: int | None = None) -> dict:
        return {
            "counts": {LABEL_NAMES[k]: v for k, v in sorted(self.class_counts.items())},
            "dropped_rows": self.dropped_rows,
            "seed": seed,
        }


@dataclass(frozen=True)
class SplitCorpus:
    train: LabeledCorpus
    test: LabeledCorpus
    train_fraction: float

    @property
    def test_records_in_train(self) -> int:
        """Test records whose (body, label) also occurs in the train partition:
        copies that oversampling before the split, or a corpus holding
        duplicate records, puts on both sides."""
        train = set(self.train.records)
        return sum(rec in train for rec in self.test.records)


def _is_null_body(cell: str | None) -> bool:
    # Missing cell or whitespace-only body counts as null.
    return cell is None or not cell.strip()


def load_corpus(path: str) -> LabeledCorpus:
    """Read a labeled email table, dropping null-body and unknown-label rows.

    Raises OSError for unreadable files, CorpusFormatError when a column is
    missing or the file is not UTF-8, and EmptyCorpusError when no row
    survives cleaning. Unknown label strings reject the row (counted in
    dropped_rows) without aborting the load.
    """
    records: list[EmailRecord] = []
    dropped = 0
    limit = csv.field_size_limit()
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            csv.field_size_limit(max(limit, os.fstat(fh.fileno()).st_size))
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise EmptyCorpusError(f"{path}: empty file, no header row")
            if TEXT_COLUMN not in reader.fieldnames or LABEL_COLUMN not in reader.fieldnames:
                raise CorpusFormatError(
                    f"{path}: expected columns {TEXT_COLUMN!r} and {LABEL_COLUMN!r}, "
                    f"found {reader.fieldnames}"
                )
            for column in (TEXT_COLUMN, LABEL_COLUMN):
                if reader.fieldnames.count(column) > 1:
                    raise CorpusFormatError(f"{path}: the header names column {column!r} twice")
            for row in reader:
                body = row.get(TEXT_COLUMN)
                raw_label = row.get(LABEL_COLUMN)
                if _is_null_body(body) or raw_label is None:
                    dropped += 1
                    continue
                label = _LABEL_ALIASES.get(raw_label.strip().lower())
                if label is None:
                    dropped += 1
                    continue
                records.append(EmailRecord(body=body, label=label))
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    finally:
        csv.field_size_limit(limit)
    if not records:
        raise EmptyCorpusError(f"{path}: zero usable rows after cleaning")
    return LabeledCorpus.from_records(records, dropped_rows=dropped)


def oversample_minority(corpus: LabeledCorpus, seed: int) -> LabeledCorpus:
    """Duplicate minority-class records (with replacement) until classes match.

    Originals are all retained in order; copies are appended. A corpus whose
    classes are already equal passes through unchanged, making the operation
    idempotent.
    """
    counts = corpus.class_counts
    if counts[SAFE] == 0 or counts[PHISHING] == 0:
        raise BalanceError(f"cannot balance: class counts {counts}")
    if counts[SAFE] == counts[PHISHING]:
        return corpus
    minority = SAFE if counts[SAFE] < counts[PHISHING] else PHISHING
    deficit = abs(counts[SAFE] - counts[PHISHING])
    minority_idx = [i for i, rec in enumerate(corpus.records) if rec.label == minority]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(minority_idx), size=deficit, replace=True)
    copies = [corpus.records[minority_idx[int(i)]] for i in picks]
    return LabeledCorpus.from_records(
        list(corpus.records) + copies, dropped_rows=corpus.dropped_rows
    )


def split(corpus: LabeledCorpus, train_fraction: float, seed: int) -> SplitCorpus:
    """Seeded shuffle, then first floor(fraction * N) records to train."""
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    n = len(corpus.records)
    if n == 0:
        raise EmptyCorpusError("cannot split an empty corpus")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(np.floor(train_fraction * n))
    train_recs = [corpus.records[int(i)] for i in order[:n_train]]
    test_recs = [corpus.records[int(i)] for i in order[n_train:]]
    return SplitCorpus(
        train=LabeledCorpus.from_records(train_recs, dropped_rows=corpus.dropped_rows),
        test=LabeledCorpus.from_records(test_recs),
        train_fraction=train_fraction,
    )

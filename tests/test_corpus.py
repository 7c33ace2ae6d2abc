import collections
import csv
from pathlib import Path

import pytest

from phishlens.corpus import (
    PHISHING,
    SAFE,
    BalanceError,
    EmailRecord,
    EmptyCorpusError,
    LabeledCorpus,
    SplitCorpus,
    load_corpus,
    oversample_minority,
    split,
)

DATA = Path(__file__).parent / "data"


def write_csv(tmp_path, rows, header='"Email Text","Email Type"'):
    path = tmp_path / "emails.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def make_corpus(n_safe, n_phish):
    recs = [EmailRecord(body=f"safe {i}", label=SAFE) for i in range(n_safe)]
    recs += [EmailRecord(body=f"phish {i}", label=PHISHING) for i in range(n_phish)]
    return LabeledCorpus.from_records(recs)


def test_load_drops_empty_body(tmp_path):
    path = write_csv(
        tmp_path,
        ['"hello there","Safe Email"', '"","Safe Email"', '"free money","Phishing Email"'],
    )
    corpus = load_corpus(path)
    assert len(corpus) == 2
    assert corpus.dropped_rows == 1
    assert corpus.class_counts == {SAFE: 1, PHISHING: 1}


def test_load_header_only_is_empty_corpus(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text('"Email Text","Email Type"\n', encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        load_corpus(str(path))


def test_load_unreadable_file():
    with pytest.raises(OSError):
        load_corpus("/nonexistent/nowhere.csv")


def test_load_unknown_label_rejected_not_fatal(tmp_path):
    path = write_csv(
        tmp_path,
        ['"hello","Safe Email"', '"spam spam","Junk Mail"', '"click here","Phishing Email"'],
    )
    corpus = load_corpus(path)
    assert len(corpus) == 2
    assert corpus.dropped_rows == 1


def test_load_label_matching_is_trimmed_case_insensitive(tmp_path):
    path = write_csv(tmp_path, ['"hello","  safe email "', '"win big","PHISHING EMAIL"'])
    corpus = load_corpus(path)
    assert corpus.class_counts == {SAFE: 1, PHISHING: 1}


def test_load_quoted_multiline_body(tmp_path):
    path = write_csv(
        tmp_path,
        ['"line one\nline two, with a comma","Safe Email"', '"plain","Phishing Email"'],
    )
    corpus = load_corpus(path)
    assert corpus.records[0].body == "line one\nline two, with a comma"


def test_load_whitespace_body_is_null(tmp_path):
    path = write_csv(tmp_path, ['"   ","Safe Email"', '"real","Safe Email"'])
    corpus = load_corpus(path)
    assert len(corpus) == 1 and corpus.dropped_rows == 1


def test_load_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"  # as spreadsheet "CSV UTF-8" exports write it
    path.write_bytes(b"\xef\xbb\xbf" + (DATA / "fixture_emails.csv").read_bytes())
    assert load_corpus(str(path)) == load_corpus(str(DATA / "fixture_emails.csv"))


def test_load_reads_a_body_past_the_csv_field_limit(tmp_path):
    body = "word " * 40_000  # 200,000 characters, past csv's default 131,072
    path = write_csv(tmp_path, [f'"{body}","Phishing Email"', '"short","Safe Email"'])
    limit = csv.field_size_limit()
    corpus = load_corpus(path)
    assert [rec.body for rec in corpus.records] == [body, "short"]
    assert csv.field_size_limit() == limit  # restored after the read


def test_load_fixture_file():
    corpus = load_corpus(str(DATA / "fixture_emails.csv"))
    assert corpus.class_counts == {SAFE: 4, PHISHING: 2}
    assert corpus.dropped_rows == 2


def test_oversample_balances_counts():
    corpus = make_corpus(20, 7)
    balanced = oversample_minority(corpus, seed=3)
    assert balanced.class_counts == {SAFE: 20, PHISHING: 20}
    # all originals retained, in order, at the front
    assert balanced.records[: len(corpus)] == corpus.records


def test_oversample_already_balanced_unchanged():
    corpus = make_corpus(5, 5)
    assert oversample_minority(corpus, seed=0) is corpus


def test_oversample_single_minority_record():
    corpus = make_corpus(3, 1)
    out = oversample_minority(corpus, seed=11)
    phish = [r for r in out.records if r.label == PHISHING]
    assert len(phish) == 3
    assert all(r == corpus.records[3] for r in phish)
    again = oversample_minority(corpus, seed=11)
    assert out.records == again.records


def test_oversample_idempotent():
    corpus = make_corpus(9, 4)
    once = oversample_minority(corpus, seed=5)
    twice = oversample_minority(once, seed=5)
    assert twice is once


def test_oversample_copies_are_byte_identical_to_inputs():
    corpus = make_corpus(12, 5)
    out = oversample_minority(corpus, seed=8)
    originals = {r.body for r in corpus.records if r.label == PHISHING}
    for rec in out.records:
        if rec.label == PHISHING:
            assert rec.body in originals


def test_oversample_missing_class_errors():
    corpus = make_corpus(4, 0)
    with pytest.raises(BalanceError):
        oversample_minority(corpus, seed=0)


def test_split_floor_arithmetic():
    corpus = make_corpus(6, 4)
    sc = split(corpus, train_fraction=0.7, seed=0)
    assert len(sc.train) == 7 and len(sc.test) == 3


def test_split_fraction_one_boundary():
    corpus = make_corpus(3, 2)
    sc = split(corpus, train_fraction=1.0, seed=0)
    assert len(sc.train) == 5 and len(sc.test) == 0


def test_split_conservation_and_multiset():
    corpus = make_corpus(13, 9)
    for seed in (0, 1, 99):
        for frac in (0.3, 0.5, 0.7, 1.0):
            sc = split(corpus, frac, seed)
            assert len(sc.train) + len(sc.test) == len(corpus)
            combined = collections.Counter(sc.train.records + sc.test.records)
            assert combined == collections.Counter(corpus.records)


def test_split_deterministic():
    corpus = make_corpus(10, 10)
    a = split(corpus, 0.7, seed=42)
    b = split(corpus, 0.7, seed=42)
    assert a.train.records == b.train.records
    assert a.test.records == b.test.records
    c = split(corpus, 0.7, seed=43)
    assert c.train.records != a.train.records  # overwhelmingly likely for 20!


def test_split_rejects_bad_fraction_and_empty():
    corpus = make_corpus(2, 2)
    with pytest.raises(ValueError):
        split(corpus, 0.0, seed=0)
    with pytest.raises(ValueError):
        split(corpus, 1.5, seed=0)
    empty = LabeledCorpus.from_records([])
    with pytest.raises(EmptyCorpusError):
        split(empty, 0.7, seed=0)


def test_test_records_in_train_matches_body_and_label():
    train = LabeledCorpus.from_records(
        [EmailRecord("win cash", PHISHING), EmailRecord("lunch", SAFE)]
    )
    test = LabeledCorpus.from_records([
        EmailRecord("win cash", PHISHING),  # in train
        EmailRecord("win cash", PHISHING),  # in train, counted again
        EmailRecord("lunch", PHISHING),  # same body, other label
        EmailRecord("agenda", SAFE),
    ])
    assert SplitCorpus(train, test, 0.5).test_records_in_train == 2
    assert SplitCorpus(train, LabeledCorpus.from_records([]), 1.0).test_records_in_train == 0


def test_summary_shape():
    corpus = make_corpus(4, 2)
    s = corpus.summary(seed=7)
    assert s == {
        "counts": {"Safe Email": 4, "Phishing Email": 2},
        "dropped_rows": 0,
        "seed": 7,
    }


def test_record_validation():
    with pytest.raises(ValueError):
        EmailRecord(body="  ", label=SAFE)
    with pytest.raises(ValueError):
        EmailRecord(body="x", label=2)

import os
import random
import string
from pathlib import Path

import pytest

from phishlens.tokenizer import (
    CLS,
    SEP,
    UNK,
    VocabularyError,
    encode,
    load_vocabulary,
    pretokenize,
    wordpiece_tokenize,
)

DATA = Path(__file__).parent / "data"
VOCAB_PATH = str(DATA / "vocab_small.txt")


@pytest.fixture(scope="module")
def vocab():
    return load_vocabulary(VOCAB_PATH)


def test_load_vocabulary_fixture(vocab):
    assert vocab.size == 218
    assert vocab.token_to_id["[PAD]"] == 0
    assert sorted(vocab.token_to_id.values()) == list(range(vocab.size))
    assert vocab.pad_id != vocab.unk_id


def test_load_vocabulary_missing_special(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\n[SEP]\n[MASK]\nhello\n")  # no [CLS]
    with pytest.raises(VocabularyError):
        load_vocabulary(str(path))


def test_load_vocabulary_duplicate_token(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nhello\nhello\n")
    with pytest.raises(VocabularyError):
        load_vocabulary(str(path))


def test_load_vocabulary_skips_a_byte_order_mark(vocab, tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"\xef\xbb\xbf" + Path(VOCAB_PATH).read_bytes())
    assert load_vocabulary(str(path)) == vocab


def test_load_vocabulary_ten_lines(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\naa\nbb\ncc\ndd\nee\n")
    v = load_vocabulary(str(path))
    assert v.size == 10


def test_published_vocabulary_line_count():
    # Opt-in: point at the standard uncased 30,522-token vocabulary file.
    path = os.environ.get("PHISHLENS_BERT_VOCAB")
    if not path:
        pytest.skip("PHISHLENS_BERT_VOCAB not set")
    v = load_vocabulary(path)
    assert v.size == 30522
    assert wordpiece_tokenize("neonate", v) == ["neon", "##ate"]


def test_neonate_splits_into_pieces(vocab):
    assert wordpiece_tokenize("neonate", vocab) == ["neon", "##ate"]


def test_tokenize_empty(vocab):
    assert wordpiece_tokenize("", vocab) == []


def test_unknown_word_without_single_letters(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nhello\n")
    v = load_vocabulary(str(path))
    assert wordpiece_tokenize("qzxv", v) == [UNK]


def test_punctuation_becomes_standalone(vocab):
    assert wordpiece_tokenize("low-price!", vocab) == ["low", "-", "price", "!"]
    assert wordpiece_tokenize("http://x.com", vocab) == [
        "http", ":", "/", "/", "x", ".", "com",
    ]


def test_lowercase_and_accent_strip(vocab):
    assert wordpiece_tokenize("FREE", vocab) == ["free"]
    assert wordpiece_tokenize("frée", vocab) == ["free"]


def test_greedy_prefers_longest_piece(vocab):
    # "##ate" must win over "##at" + "##e"
    assert wordpiece_tokenize("neonate", vocab) == ["neon", "##ate"]
    # single letters chain when no longer piece exists
    assert wordpiece_tokenize("zq", vocab) == ["z", "##q"]


def test_overlong_word_becomes_unk(vocab):
    assert wordpiece_tokenize("a" * 101, vocab) == [UNK]
    assert wordpiece_tokenize("a" * 100, vocab) != [UNK]


def test_encode_pads_and_masks(vocab):
    seq = encode("hi", vocab, max_len=8)
    hi_id = vocab.token_to_id["hi"]
    assert seq.input_ids == (vocab.cls_id, hi_id, vocab.sep_id) + (vocab.pad_id,) * 5
    assert seq.attention_mask == (1, 1, 1, 0, 0, 0, 0, 0)
    assert seq.tokens == (CLS, "hi", SEP)


def test_encode_empty_text(vocab):
    seq = encode("", vocab, max_len=4)
    assert seq.input_ids == (vocab.cls_id, vocab.sep_id, vocab.pad_id, vocab.pad_id)
    assert seq.attention_mask == (1, 1, 0, 0)


def test_encode_truncates_keeping_sep(vocab):
    text = " ".join(["free"] * 600)
    seq = encode(text, vocab, max_len=512)
    assert len(seq.input_ids) == 512
    assert all(m == 1 for m in seq.attention_mask)
    assert seq.input_ids[0] == vocab.cls_id
    assert seq.input_ids[-1] == vocab.sep_id
    assert len(seq.tokens) == 512


def test_encode_min_length(vocab):
    with pytest.raises(ValueError):
        encode("hello", vocab, max_len=1)
    seq = encode("hello", vocab, max_len=2)
    assert seq.input_ids == (vocab.cls_id, vocab.sep_id)


def test_encode_deterministic(vocab):
    a = encode("free prize now", vocab, max_len=16)
    b = encode("free prize now", vocab, max_len=16)
    assert a == b


def _random_text(rng):
    pieces = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if kind < 0.55:
            pieces.append("".join(rng.choices(string.ascii_letters, k=rng.randint(1, 12))))
        elif kind < 0.75:
            pieces.append(str(rng.randint(0, 99999)))
        elif kind < 0.9:
            pieces.append(rng.choice([".", ",", "!", "?", ":", "/", "=", "@", "#"]))
        else:
            pieces.append("".join(rng.choices("àéîõüçñ€中æ", k=rng.randint(1, 4))))
    sep = rng.choice([" ", "  ", "\n", "\t"])
    return sep.join(pieces)


def test_randomized_invariants(vocab):
    """Length law, prefix mask, CLS/SEP placement, reconstructibility."""
    rng = random.Random(20240817)
    for _ in range(2000):
        text = _random_text(rng)
        max_len = rng.choice([2, 3, 8, 16, 64])
        seq = encode(text, vocab, max_len)
        assert len(seq.input_ids) == max_len
        assert len(seq.attention_mask) == max_len
        # mask is a prefix of ones
        assert all(a >= b for a, b in zip(seq.attention_mask, seq.attention_mask[1:]))
        n_real = seq.real_length
        assert seq.input_ids[0] == vocab.cls_id
        assert seq.input_ids[n_real - 1] == vocab.sep_id
        assert all(i == vocab.pad_id for i in seq.input_ids[n_real:])
        assert len(seq.tokens) == n_real

        # reconstructibility on the un-truncated piece stream
        pieces = wordpiece_tokenize(text, vocab)
        words = pretokenize(text)
        idx = 0
        for word in words:
            assert idx < len(pieces)
            if pieces[idx] == UNK:
                idx += 1
                continue
            rebuilt = pieces[idx]
            idx += 1
            while idx < len(pieces) and pieces[idx].startswith("##"):
                rebuilt += pieces[idx][2:]
                idx += 1
            assert rebuilt == word
        assert idx == len(pieces)

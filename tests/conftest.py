import dataclasses
import json
import random
import struct
from pathlib import Path

import numpy as np
import pytest

from phishlens import model
from phishlens.corpus import PHISHING, SAFE, EmailRecord, LabeledCorpus
from phishlens.model import ModelConfig, init_parameters
from phishlens.tokenizer import TokenSequence, load_vocabulary

DATA = Path(__file__).parent / "data"

PHISH_WORDS = [
    "free", "winner", "click", "prize", "urgent", "claim",
    "money", "verify", "account", "link", "cash", "win",
]
SAFE_WORDS = [
    "meeting", "schedule", "report", "lunch", "project", "team",
    "budget", "review", "agenda", "planning", "status", "monday",
]
FILLER_WORDS = ["the", "to", "and", "a", "please", "now", "today", "new"]


@pytest.fixture
def set_shards(monkeypatch):
    """set_shards(n) runs every sharded model pass in up to n row shards,
    however short the batch and however many CPUs there are (n=1: the plain
    pass), so the threaded path runs on a one-CPU box too. Where no BLAS
    thread count can be set, a stand-in control that only records the count
    takes its place."""
    monkeypatch.setattr(model, "_MIN_SHARD_TOKENS", 1)
    if not model._blas_thread_controls():
        threads = [1]
        stand_in = ((lambda: threads[0], lambda n: threads.__setitem__(0, n)),)
        monkeypatch.setattr(model, "_blas_thread_controls", lambda: stand_in)

    def set_(n):
        monkeypatch.setattr(model, "_cpus", lambda: n)

    return set_


@pytest.fixture(scope="session")
def vocab():
    return load_vocabulary(str(DATA / "vocab_small.txt"))


@pytest.fixture(scope="session")
def toy_config(vocab):
    return ModelConfig(
        vocab_size=vocab.size,
        max_positions=32,
        hidden_dim=16,
        num_heads=2,
        num_layers=1,
        ffn_dim=32,
        dropout_rate=0.0,
    )


@pytest.fixture(scope="session")
def toy_params(toy_config):
    return init_parameters(toy_config, seed=7)


def widen_parameters(params, seed=99):
    """Shift parameters off the near-uniform init so gradients are well-scaled."""
    out = params.copy()
    rng = np.random.default_rng(seed)
    for name, t in out.tensors.items():
        if name.endswith(".scale"):
            t += rng.normal(0.0, 0.15, t.shape)
        else:
            t += rng.normal(0.0, 0.25, t.shape)
    return out


def overflowing_head(params):
    """`params` edited in place so that, with every weight still finite, the
    logits are inf for every class and input, and softmax gives NaN: every
    [CLS] vector reaches the classifier as ones, and each logit sums
    hidden_dim terms of 1e308."""
    params.tensors["prehead.weight"][...] = 0.0
    params.tensors["prehead.bias"][...] = 1.0
    params.tensors["classifier.weight"][...] = 1e308
    return params


def edit_checkpoint_header(src, dst, edit):
    """Copy checkpoint `src` to `dst` with `edit` applied to its parsed JSON
    header; the tensor bytes are copied unchanged."""
    raw = Path(src).read_bytes()
    (length,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + length])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    Path(dst).write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + length :])


def write_oversized_checkpoint(path):
    """A checkpoint whose header is self-consistent but claims a vocabulary
    of 10**9 tokens at width 768 in float32 (a 2.8 TiB token_embedding),
    followed by 64 bytes of data."""
    config = ModelConfig(
        vocab_size=10**9, max_positions=8, hidden_dim=768, num_heads=12,
        num_layers=1, ffn_dim=8,
    )
    header = {"config": dataclasses.asdict(config), "tensors": model._layout(config, "<f4")}
    blob = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(model.MAGIC + struct.pack("<I", len(blob)) + blob + bytes(64))


def make_seq(ids, n_real, max_len):
    ids = list(ids)[:max_len] + [0] * max(0, max_len - len(ids))
    mask = [1] * n_real + [0] * (max_len - n_real)
    return TokenSequence(
        input_ids=tuple(ids), attention_mask=tuple(mask), tokens=tuple("t" * n_real)
    )


def toy_batch(max_len=8):
    return [
        make_seq([2, 5, 9, 17, 3, 0, 0, 0], 5, max_len),
        make_seq([2, 44, 3, 0, 0, 0, 0, 0], 3, max_len),
    ]


def synthetic_corpus(n_records, seed):
    """Keyword-separable emails: phishing/safe draw from disjoint lexicons."""
    rng = random.Random(seed)
    records = []
    for i in range(n_records):
        label = PHISHING if i % 2 else SAFE
        lexicon = PHISH_WORDS if label == PHISHING else SAFE_WORDS
        n_words = rng.randint(4, 8)
        words = [rng.choice(lexicon) for _ in range(n_words)]
        words += [rng.choice(FILLER_WORDS) for _ in range(rng.randint(1, 3))]
        rng.shuffle(words)
        records.append(EmailRecord(body=" ".join(words), label=label))
    return LabeledCorpus.from_records(records)

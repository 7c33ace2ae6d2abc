"""Seeded input generator for the phishlens benchmark.

Writes, into one directory, everything a workload reads through the
library's own loaders:

* ``vocab.txt``  - an 8,000-piece WordPiece vocabulary (special tokens,
  single characters, phishing and safe keyword lexicons, whole common filler
  words, and random word-initial and ``##`` continuation pieces, so rare
  filler words are split greedily into several pieces);
* ``emails.csv`` - a labelled corpus in the paper's Kaggle column layout;
* ``model.phl``  - a checkpoint (evaluate and explain workloads only), with
  weights pushed off the std-0.02 init so argmax and IG checks do not sit on
  near-ties.

Email bodies mix lexicon keywords with Zipfian filler words. Word counts
follow a log-normal distribution, sampled at rotated van der Corput
quantiles so that any prefix of the corpus (a time-limited run processes a
prefix) covers the whole length distribution.

    python3 perfbench/gen.py --workload explain --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import string
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

ROOT = Path(__file__).resolve().parent.parent

VOCAB_SIZE = 8000
SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

PHISH_WORDS = (
    "free winner click prize urgent claim money verify account link cash win "
    "password suspended confirm bank login offer bonus reward limited expire "
    "security alert update unlock refund invoice payment credit lottery gift "
    "congratulations selected wire transfer immediately act guaranteed"
).split()
SAFE_WORDS = (
    "meeting schedule report lunch project team budget review agenda planning "
    "status monday minutes draft slides quarterly roadmap deadline office "
    "conference notes attached colleague feedback proposal calendar thanks "
    "regards tomorrow discussion summary workshop interview onboarding memo"
).split()

# Word-count distributions, log-normal in words and clipped.
# desk: most emails fill 128 positions, about half of 512 positions are real.
# short: explain emails of about 6-60 words.
LENGTHS = {
    "desk": {"median": 160.0, "sigma": 0.7, "low": 20, "high": 1200},
    "short": {"median": 18.0, "sigma": 0.6, "low": 6, "high": 60},
}
KEYWORD_SHARE = 0.12  # share of words drawn from the email's own lexicon
CROSS_SHARE = 0.02  # share drawn from the other class's lexicon
N_FILLER = 4000  # distinct filler words; the most frequent enter the vocab whole
FILLER_IN_VOCAB = 1500

# Model shapes. desk: train and evaluate; small: explain.
DESK = dict(max_positions=512, hidden_dim=256, num_heads=4, num_layers=4, ffn_dim=1024)
SMALL = dict(max_positions=64, hidden_dim=128, num_heads=2, num_layers=2, ffn_dim=512)

# (corpus size, length profile, checkpoint shape and dtype) per workload.
INPUTS = {
    "train": {"emails": 23, "lengths": "desk", "checkpoint": None},
    "evaluate": {"emails": 640, "lengths": "desk", "checkpoint": (DESK, np.float32)},
    "explain": {"emails": 64, "lengths": "short", "checkpoint": (SMALL, np.float64)},
}


def _random_piece(rng: np.random.Generator, low: int, high: int) -> str:
    n = int(rng.integers(low, high + 1))
    return "".join(rng.choice(list(string.ascii_lowercase), size=n))


def filler_words(rng: np.random.Generator) -> list[str]:
    """Distinct filler words, most frequent first."""
    words: list[str] = []
    seen = set(PHISH_WORDS) | set(SAFE_WORDS)
    while len(words) < N_FILLER:
        w = _random_piece(rng, 2, 11)
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def build_vocabulary(rng: np.random.Generator, fillers: list[str]) -> list[str]:
    tokens = list(SPECIALS)
    chars = string.ascii_lowercase + string.digits
    tokens += list(chars) + ["##" + c for c in chars]
    tokens += PHISH_WORDS + SAFE_WORDS + fillers[:FILLER_IN_VOCAB]
    seen = set(tokens)
    while len(tokens) < VOCAB_SIZE:
        piece = _random_piece(rng, 2, 5)
        if rng.random() < 0.6:
            piece = "##" + piece
        if piece not in seen:
            seen.add(piece)
            tokens.append(piece)
    return tokens


def word_counts(n: int, profile: str, seed: int) -> list[int]:
    """Log-normal word counts at rotated van der Corput quantiles."""
    spec = LENGTHS[profile]
    shift = np.random.default_rng([seed, 7]).random()
    counts = []
    for i in range(1, n + 1):
        u, denom, k = 0.0, 1.0, i
        while k:
            denom *= 2.0
            k, bit = divmod(k, 2)
            u += bit / denom
        u = (u + shift) % 1.0
        u = min(max(u, 1e-6), 1.0 - 1e-6)
        words = float(np.exp(np.log(spec["median"]) + spec["sigma"] * ndtri(u)))
        counts.append(int(min(max(round(words), spec["low"]), spec["high"])))
    return counts


def build_corpus(rng, fillers, counts) -> list[tuple[str, str]]:
    ranks = np.arange(1, len(fillers) + 1, dtype=np.float64)
    zipf = 1.0 / ranks
    zipf /= zipf.sum()
    rows = []
    for n_words in counts:
        phishing = bool(rng.random() < 0.5)
        own, other = (PHISH_WORDS, SAFE_WORDS) if phishing else (SAFE_WORDS, PHISH_WORDS)
        source = rng.random(n_words)
        filler = rng.choice(len(fillers), size=n_words, p=zipf)
        words = []
        for j in range(n_words):
            if source[j] < KEYWORD_SHARE:
                words.append(own[int(rng.integers(len(own)))])
            elif source[j] < KEYWORD_SHARE + CROSS_SHARE:
                words.append(other[int(rng.integers(len(other)))])
            else:
                words.append(fillers[int(filler[j])])
        # Sentence punctuation and capitals, so pre-tokenization has work to do.
        body = []
        for j, w in enumerate(words):
            body.append(w.capitalize() if j == 0 or words[j - 1].endswith(".") else w)
            if rng.random() < 0.08:
                body[-1] += "." if rng.random() < 0.7 else ","
        label = "Phishing Email" if phishing else "Safe Email"
        rows.append((" ".join(body), label))
    return rows


def widen(tensors: dict[str, np.ndarray], rng: np.random.Generator) -> None:
    """Push weights off the std-0.02 init, scaled to each tensor's fan-in."""
    for name, t in tensors.items():
        if name.endswith(".scale"):
            t += rng.normal(0.0, 0.15, t.shape).astype(t.dtype)
        elif name.endswith((".bias", ".shift")):
            t += rng.normal(0.0, 0.1, t.shape).astype(t.dtype)
        elif name.endswith("embedding"):
            t += rng.normal(0.0, 0.5, t.shape).astype(t.dtype)
        else:
            t += rng.normal(0.0, 1.0 / np.sqrt(t.shape[0]), t.shape).astype(t.dtype)


def generate(workload: str, seed: int, out: Path) -> None:
    spec = INPUTS[workload]
    rng = np.random.default_rng([seed, 1])
    fillers = filler_words(rng)
    vocab = build_vocabulary(rng, fillers)
    out.mkdir(parents=True, exist_ok=True)
    (out / "vocab.txt").write_text("\n".join(vocab) + "\n", encoding="utf-8")

    counts = word_counts(spec["emails"], spec["lengths"], seed)
    rows = build_corpus(rng, fillers, counts)
    with open(out / "emails.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Email Text", "Email Type"])
        writer.writerows(rows)

    if spec["checkpoint"] is not None:
        sys.path.insert(0, str(ROOT / "src"))
        from phishlens.model import ModelConfig, init_parameters, save_checkpoint

        shape, dtype = spec["checkpoint"]
        config = ModelConfig(vocab_size=len(vocab), dropout_rate=0.1, **shape)
        params = init_parameters(config, seed=seed, dtype=dtype)
        widen(params.tensors, np.random.default_rng([seed, 2]))
        save_checkpoint(params, str(out / "model.phl"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

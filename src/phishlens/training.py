"""AdamW with decoupled weight decay and the epoch/batch fine-tuning loop.

Decay applies to 2-D weight matrices only; biases and layer-norm vectors are
exempt. The training loop re-shuffles each epoch, keeps the short final
batch, and evaluates the held-out partition unshuffled after every epoch.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import LabeledCorpus, SplitCorpus
from .model import ModelParameters, backward, check_fields, cross_entropy_loss, forward
from .tokenizer import TokenSequence, Vocabulary, encode


class NonFiniteTrainingError(ValueError):
    """A training step produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    learning_rate: float = 2e-5
    train_batch_size: int = 32
    eval_batch_size: int = 64
    epochs: int = 6
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    shuffle_seed: int = 0
    max_len: int = 512

    def __post_init__(self):
        positive = ("be finite and positive", lambda x: 0.0 < x < math.inf)
        below_one = ("lie in [0, 1)", lambda beta: 0.0 <= beta < 1.0)
        check_fields(self, {
            "train_batch_size": 1, "eval_batch_size": 1, "epochs": 0, "shuffle_seed": 0,
            "max_len": 2,  # [CLS] and [SEP]
        }, {
            "learning_rate": positive, "epsilon": positive, "beta1": below_one, "beta2": below_one,
            "weight_decay": ("be finite and at least 0", lambda x: 0.0 <= x < math.inf),
        }, seeds=("shuffle_seed",))


@dataclass
class OptimizerState:
    step: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, tensors: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            step=0,
            first_moment={k: np.zeros_like(v) for k, v in tensors.items()},
            second_moment={k: np.zeros_like(v) for k, v in tensors.items()},
        )


@dataclass
class EpochStats:
    epoch_index: int
    mean_train_loss: float
    train_accuracy: float
    mean_eval_loss: float | None
    eval_accuracy: float | None

    def to_json_line(self) -> str:
        d = asdict(self)
        return json.dumps(
            {
                "epoch": d["epoch_index"],
                "train_loss": d["mean_train_loss"],
                "train_acc": d["train_accuracy"],
                "eval_loss": d["mean_eval_loss"],
                "eval_acc": d["eval_accuracy"],
            }
        )


# Elements per block of an AdamW update, whose 14-16 in-place passes over a
# block and its two scratch blocks then stay in cache. On the desk model's
# 5.3M float32 parameters (2 vCPUs, median of 30 steps) a step took 40-41 ms
# with full-size temporaries and 24-29 ms in 64K blocks.
_ADAMW_BLOCK = 1 << 16


def _decayed(tensor: np.ndarray) -> bool:
    # Weight matrices only: biases and layer-norm scale/shift are 1-D.
    return tensor.ndim == 2


def adamw_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    cfg: TrainConfig,
) -> OptimizerState:
    """One bias-corrected Adam update plus decoupled decay, in place.

    Per element this is the textbook
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        theta -= lr (m / bc1) / (sqrt(v / bc2) + eps)  [+ lr wd theta]
    with the same operations in the same order, so the results are
    bit-identical to it; each tensor is walked in blocks of about
    _ADAMW_BLOCK elements through two reused scratch blocks, so a step makes
    no full-size temporary.
    """
    if set(grads) != set(tensors):
        raise ValueError("gradient set does not cover the parameter tensors")
    t = state.step + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    lr, decay = cfg.learning_rate, cfg.learning_rate * cfg.weight_decay
    for name, theta in tensors.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"{name}: gradient shape {g.shape} != parameter {theta.shape}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        decayed = cfg.weight_decay != 0.0 and _decayed(theta)
        # blocks of whole rows along the first axis, which are views of any layout
        rows = max(1, _ADAMW_BLOCK // max(1, math.prod(theta.shape[1:])))
        block_shape = (min(rows, len(theta)), *theta.shape[1:])
        s1, s2 = np.empty(block_shape, theta.dtype), np.empty(block_shape, theta.dtype)
        for start in range(0, len(theta), rows):
            block = slice(start, start + rows)
            mb, vb, gb, tb = m[block], v[block], g[block], theta[block]
            a, b = s1[: len(tb)], s2[: len(tb)]
            mb *= cfg.beta1
            np.multiply(gb, 1.0 - cfg.beta1, out=a)
            mb += a
            vb *= cfg.beta2
            np.multiply(gb, 1.0 - cfg.beta2, out=a)
            a *= gb
            vb += a
            np.divide(vb, bc2, out=a)
            np.sqrt(a, out=a)
            a += cfg.epsilon
            np.divide(mb, bc1, out=b)
            b *= lr
            b /= a
            if decayed:
                np.multiply(tb, decay, out=a)
                b += a
            tb -= b
    state.step = t
    return state


def _check_finite(loss: float, grads: dict[str, np.ndarray], epoch: int, batch: int) -> None:
    """Raise before a non-finite step can reach the parameters."""
    where = f"epoch {epoch}, batch {batch}"
    if not math.isfinite(loss):
        raise NonFiniteTrainingError(f"{where}: training loss is {loss}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteTrainingError(f"{where}: gradient of {name} is not finite")


def _batches(n: int, size: int, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, size):
        yield idx[start : start + size]


def _evaluate_encoded(
    params: ModelParameters,
    seqs: Sequence[TokenSequence],
    labels: np.ndarray,
    batch_size: int,
) -> tuple[float, list[int]]:
    total_loss = 0.0
    predictions: list[int] = []
    for idx in _batches(len(seqs), batch_size):
        batch = [seqs[i] for i in idx]
        out = forward(params, batch)
        total_loss += cross_entropy_loss(out, labels[idx]) * len(idx)
        predictions.extend(int(p) for p in out.probabilities.argmax(axis=1))
    return total_loss / len(seqs), predictions


def evaluate(
    params: ModelParameters,
    partition: LabeledCorpus,
    vocab: Vocabulary,
    cfg: TrainConfig,
) -> tuple[float, list[int]]:
    """Unshuffled, dropout-free scoring: (mean loss, per-record predictions)."""
    if len(partition) == 0:
        raise ValueError("cannot evaluate an empty partition")
    seqs = [encode(r.body, vocab, cfg.max_len) for r in partition.records]
    labels = np.array([r.label for r in partition.records], dtype=np.int64)
    return _evaluate_encoded(params, seqs, labels, cfg.eval_batch_size)


def train(
    params: ModelParameters,
    corpus: SplitCorpus,
    vocab: Vocabulary,
    cfg: TrainConfig,
    on_epoch: Callable[[EpochStats], None] | None = None,
) -> tuple[ModelParameters, list[EpochStats]]:
    """Fine-tune in place over cfg.epochs; returns (params, per-epoch stats).

    A step whose loss or gradient is not finite raises NonFiniteTrainingError
    naming its epoch and batch, before the update is applied.
    """
    if len(corpus.train) == 0:
        raise ValueError("cannot train on an empty train partition")
    if cfg.epochs == 0:
        return params, []

    train_seqs = [encode(r.body, vocab, cfg.max_len) for r in corpus.train.records]
    train_labels = np.array([r.label for r in corpus.train.records], dtype=np.int64)
    if len(corpus.test) > 0:
        test_seqs = [encode(r.body, vocab, cfg.max_len) for r in corpus.test.records]
        test_labels = np.array([r.label for r in corpus.test.records], dtype=np.int64)
    else:
        test_seqs, test_labels = [], np.array([], dtype=np.int64)

    state = OptimizerState.zeros_like(params.tensors)
    shuffle_rng = np.random.default_rng(cfg.shuffle_seed)
    dropout_rng = np.random.default_rng(np.random.SeedSequence([cfg.shuffle_seed, 1]))

    stats_log: list[EpochStats] = []
    n = len(train_seqs)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for batch_index, idx in enumerate(_batches(n, cfg.train_batch_size, order)):
            batch = [train_seqs[i] for i in idx]
            labels = train_labels[idx]
            out, grads = backward(params, batch, labels, rng=dropout_rng)
            loss = cross_entropy_loss(out, labels)
            _check_finite(loss, grads, epoch, batch_index)
            adamw_step(params.tensors, grads, state, cfg)
            loss_sum += loss * len(idx)
            correct += int((out.probabilities.argmax(axis=1) == labels).sum())
            # one gradient set, not two, while the next backward runs
            del out, grads

        if test_seqs:
            eval_loss, eval_preds = _evaluate_encoded(
                params, test_seqs, test_labels, cfg.eval_batch_size
            )
            eval_acc = float(np.mean(np.array(eval_preds) == test_labels))
        else:
            eval_loss, eval_acc = None, None

        stats = EpochStats(
            epoch_index=epoch,
            mean_train_loss=loss_sum / n,
            train_accuracy=correct / n,
            mean_eval_loss=eval_loss,
            eval_accuracy=eval_acc,
        )
        stats_log.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    return params, stats_log

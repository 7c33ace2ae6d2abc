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
from .model import ModelParameters, backward, cross_entropy_loss, forward
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


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


def _decayed(tensor: np.ndarray) -> bool:
    # Weight matrices only: biases and layer-norm scale/shift are 1-D.
    return tensor.ndim == 2


def adamw_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    cfg: TrainConfig,
) -> OptimizerState:
    """One bias-corrected Adam update plus decoupled decay, in place."""
    if set(grads) != set(tensors):
        raise ValueError("gradient set does not cover the parameter tensors")
    t = state.step + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, theta in tensors.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"{name}: gradient shape {g.shape} != parameter {theta.shape}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
        if cfg.weight_decay != 0.0 and _decayed(theta):
            update = update + cfg.learning_rate * cfg.weight_decay * theta
        theta -= update
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
        out = forward(params, batch, train_mode=False)
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

"""Command-line pipeline: phishlens train | evaluate | explain | compare.

Exit codes: 0 success, 1 internal error, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .intgrad import IGConfig, word_attributions
from .lime_text import LimeConfig, explain as lime_explain
from .model import (
    ModelConfig,
    forward,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from .report import comparison_csv, comparison_rows, render_explanation_html
from .tokenizer import Vocabulary, encode, load_vocabulary
from .training import TrainConfig, evaluate, train

EXIT_OK, EXIT_INTERNAL, EXIT_USAGE = 0, 1, 2

CLASS_NAMES = ("Safe Email", "Phishing Email")


class UsageError(Exception):
    pass


@dataclass
class RunManifest:
    command: str
    corpus_path: str | None = None
    vocab_path: str | None = None
    checkpoint_path: str | None = None
    config_path: str | None = None
    predictions_path: str | None = None
    stats_path: str | None = None
    balance: bool = False
    balance_after_split: bool = False
    seed: int = 0
    out_dir: str = "out"
    text: str | None = None
    index: int | None = None
    steps: int | None = None
    num_features: int | None = None
    num_samples: int | None = None
    config: dict = field(default_factory=dict)

    def validate(self) -> None:
        for label, path in (
            ("corpus", self.corpus_path),
            ("vocabulary", self.vocab_path),
            ("checkpoint", self.checkpoint_path),
            ("config", self.config_path),
            ("predictions", self.predictions_path),
        ):
            if path is not None and not Path(path).exists():
                raise UsageError(f"{label} path does not exist: {path}")

    def require(self, label: str, path: str | None) -> str:
        if path is None:
            raise UsageError(f"--{label} is required for '{self.command}'")
        return path


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return cfg


def _model_config(manifest: RunManifest, vocab: Vocabulary) -> ModelConfig:
    section = dict(manifest.config.get("model", {}))
    section.setdefault("vocab_size", vocab.size)
    if not set(section) - {"vocab_size"}:
        return ModelConfig.paper_scale(vocab_size=section["vocab_size"])
    return ModelConfig(**section)


def _max_len(manifest: RunManifest, model_cfg: ModelConfig) -> int:
    """train.max_len from the config, else the model's max_positions."""
    max_len = manifest.config.get("train", {}).get("max_len", model_cfg.max_positions)
    if max_len > model_cfg.max_positions:
        raise UsageError(
            f"train.max_len {max_len} exceeds the model's max_positions "
            f"{model_cfg.max_positions}"
        )
    return max_len


def _check_vocab_size(vocab: Vocabulary, model_cfg: ModelConfig) -> None:
    if vocab.size != model_cfg.vocab_size:
        raise UsageError(
            f"vocabulary has {vocab.size} tokens but the model expects "
            f"vocab_size {model_cfg.vocab_size}"
        )


def _train_config(manifest: RunManifest, model_cfg: ModelConfig) -> TrainConfig:
    section = dict(manifest.config.get("train", {}))
    cfg = TrainConfig(**section)
    cfg.max_len = _max_len(manifest, model_cfg)
    cfg.shuffle_seed = manifest.seed
    return cfg


def _load_model(manifest: RunManifest):
    """Vocabulary and checkpoint, refused unless their sizes agree."""
    vocab = load_vocabulary(manifest.require("vocab", manifest.vocab_path))
    params, model_cfg = load_checkpoint(
        manifest.require("checkpoint", manifest.checkpoint_path)
    )
    _check_vocab_size(vocab, model_cfg)
    return vocab, params, model_cfg


def _lime_config(manifest: RunManifest) -> LimeConfig:
    section = dict(manifest.config.get("lime", {}))
    if manifest.num_features is not None:
        section["num_features"] = manifest.num_features
    if manifest.num_samples is not None:
        section["num_samples"] = manifest.num_samples
    section.setdefault("seed", manifest.seed)
    section["class_names"] = CLASS_NAMES
    return LimeConfig(**section)


def _ig_config(manifest: RunManifest) -> IGConfig:
    section = dict(manifest.config.get("ig", {}))
    if manifest.steps is not None:
        section["steps"] = manifest.steps
    return IGConfig(**section)


def _dtype(manifest: RunManifest):
    name = manifest.config.get("dtype", "float64")
    if name not in ("float32", "float64"):
        raise UsageError(f"dtype must be float32 or float64, got {name}")
    return np.float32 if name == "float32" else np.float64


def _prepare_partitions(manifest: RunManifest):
    """Load, optionally balance, and split.

    --balance oversamples before the split (the order the evaluation
    numbers assume, at the cost of duplicates straddling the split);
    --balance-after-split oversamples the train partition only, keeping the
    test partition free of duplicated minority records.
    """
    if manifest.balance and manifest.balance_after_split:
        raise UsageError("--balance and --balance-after-split are mutually exclusive")
    loaded = corpus_mod.load_corpus(manifest.require("corpus", manifest.corpus_path))
    balanced = None
    working = loaded
    if manifest.balance:
        working = corpus_mod.oversample_minority(working, seed=manifest.seed)
        balanced = working
    fraction = manifest.config.get("train_fraction", 0.7)
    parts = corpus_mod.split(working, fraction, seed=manifest.seed)
    if manifest.balance_after_split:
        balanced_train = corpus_mod.oversample_minority(parts.train, seed=manifest.seed)
        parts = corpus_mod.SplitCorpus(
            train=balanced_train,
            test=parts.test,
            train_fraction=parts.train_fraction,
            seed=parts.seed,
        )
        balanced = corpus_mod.LabeledCorpus.from_records(
            list(balanced_train.records) + list(parts.test.records),
            dropped_rows=loaded.dropped_rows,
        )
    return loaded, balanced, parts


def cmd_train(manifest: RunManifest) -> int:
    vocab = load_vocabulary(manifest.require("vocab", manifest.vocab_path))
    loaded, balanced, parts = _prepare_partitions(manifest)
    model_cfg = _model_config(manifest, vocab)
    _check_vocab_size(vocab, model_cfg)
    train_cfg = _train_config(manifest, model_cfg)
    params = init_parameters(model_cfg, seed=manifest.seed, dtype=_dtype(manifest))

    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "loaded": loaded.summary(seed=manifest.seed),
        "balanced": balanced.summary(seed=manifest.seed) if balanced else None,
        "train_size": len(parts.train),
        "test_size": len(parts.test),
    }
    (out_dir / "corpus_summary.json").write_text(
        json.dumps(summary, indent=2), encoding="utf-8"
    )

    working = balanced if balanced is not None else loaded
    stats_path = out_dir / "train_stats.jsonl"
    with open(stats_path, "w", encoding="utf-8") as log:
        header = {"type": "header"}
        header.update(working.summary(seed=manifest.seed))
        log.write(json.dumps(header) + "\n")
        log.flush()
        train(
            params,
            parts,
            vocab,
            train_cfg,
            on_epoch=lambda s: (log.write(s.to_json_line() + "\n"), log.flush()),
        )

    checkpoint = out_dir / "model.phl"
    save_checkpoint(params, str(checkpoint))
    print(f"checkpoint: {checkpoint}")
    print(f"stats: {stats_path}")
    print(f"parameters: {params.count()}")
    return EXIT_OK


def _stats_to_csv(stats_path: Path, out_dir: Path) -> None:
    epochs = []
    with open(stats_path, "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "epoch" in row:
                epochs.append(row)
    if not epochs:
        return
    acc_lines = ["epoch,train_accuracy,eval_accuracy"]
    loss_lines = ["epoch,train_loss,eval_loss"]
    for row in epochs:
        acc_lines.append(f"{row['epoch']},{row['train_acc']},{row['eval_acc']}")
        loss_lines.append(f"{row['epoch']},{row['train_loss']},{row['eval_loss']}")
    (out_dir / "accuracy.csv").write_text("\n".join(acc_lines) + "\n", encoding="utf-8")
    (out_dir / "loss.csv").write_text("\n".join(loss_lines) + "\n", encoding="utf-8")


def cmd_evaluate(manifest: RunManifest) -> int:
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if manifest.predictions_path is not None:
        with open(manifest.predictions_path, "r", encoding="utf-8") as fh:
            injected = json.load(fh)
        predictions = injected["predictions"]
        labels = injected["labels"]
    else:
        vocab, params, model_cfg = _load_model(manifest)
        train_cfg = _train_config(manifest, model_cfg)
        _, _, parts = _prepare_partitions(manifest)
        if len(parts.test) == 0:
            raise UsageError("test partition is empty; lower train_fraction")
        _, predictions = evaluate(params, parts.test, vocab, train_cfg)
        labels = [r.label for r in parts.test.records]

    cm = metrics_mod.confusion(predictions, labels)
    report_json = metrics_mod.report_to_dict(cm, CLASS_NAMES)
    report_text = metrics_mod.report_to_text(cm, CLASS_NAMES)
    (out_dir / "metrics.json").write_text(
        json.dumps(report_json, indent=2), encoding="utf-8"
    )
    (out_dir / "metrics.txt").write_text(report_text, encoding="utf-8")
    print(report_text, end="")

    stats_path = (
        Path(manifest.stats_path) if manifest.stats_path else out_dir / "train_stats.jsonl"
    )
    if stats_path.exists():
        _stats_to_csv(stats_path, out_dir)
    return EXIT_OK


def _resolve_text(manifest: RunManifest) -> str:
    if manifest.text is not None and manifest.index is not None:
        raise UsageError("pass either --text or --index, not both")
    if manifest.text is not None:
        if not manifest.text.strip():
            raise UsageError("--text must be non-empty")
        return manifest.text
    if manifest.index is not None:
        loaded = corpus_mod.load_corpus(manifest.require("corpus", manifest.corpus_path))
        if not 0 <= manifest.index < len(loaded):
            raise UsageError(
                f"--index {manifest.index} out of range for corpus of {len(loaded)}"
            )
        return loaded.records[manifest.index].body
    raise UsageError("one of --text or --index is required")


def _explain_both(manifest: RunManifest):
    vocab, params, model_cfg = _load_model(manifest)
    max_len = _max_len(manifest, model_cfg)
    text = _resolve_text(manifest)

    def classifier(sample_text: str):
        seq = encode(sample_text, vocab, max_len)
        out = forward(params, [seq], train_mode=False)
        return out.probabilities[0]

    lime_exp = lime_explain(text, classifier, _lime_config(manifest))
    ig_record = word_attributions(
        text, params, vocab, _ig_config(manifest), max_len=max_len
    )
    return text, lime_exp, ig_record


def cmd_explain(manifest: RunManifest) -> int:
    text, lime_exp, ig_record = _explain_both(manifest)
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    html_doc = render_explanation_html(text, lime_exp, ig_record, CLASS_NAMES)
    (out_dir / "explanation.html").write_text(html_doc, encoding="utf-8")
    payload = {
        "text": text,
        "predicted_class": lime_exp.target_class,
        "predicted_class_name": CLASS_NAMES[lime_exp.target_class],
        "probability": lime_exp.predicted_probability,
        "lime": lime_exp.to_dict(),
        "ig": ig_record.to_dict(),
    }
    (out_dir / "explanation.json").write_text(
        json.dumps(payload, indent=2), encoding="utf-8"
    )
    print(f"explanation: {out_dir / 'explanation.html'}")
    print(f"json: {out_dir / 'explanation.json'}")
    return EXIT_OK


def cmd_compare(manifest: RunManifest) -> int:
    _, lime_exp, ig_record = _explain_both(manifest)
    rows = comparison_rows(lime_exp, ig_record)
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_text = comparison_csv(rows)
    (out_dir / "comparison.csv").write_text(csv_text, encoding="utf-8")
    print(f"{'word':<20}{'lime %':>10}{'ig %':>10}")
    for row in rows:
        print(f"{row.word:<20}{row.lime_percent:>10.2f}{row.ig_percent:>10.2f}")
    print(f"csv: {out_dir / 'comparison.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phishlens",
        description="Phishing-email detection and explanation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "evaluate", "explain", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--corpus", dest="corpus_path")
        p.add_argument("--vocab", dest="vocab_path")
        p.add_argument("--checkpoint", dest="checkpoint_path")
        p.add_argument("--config", dest="config_path")
        p.add_argument("--balance", action="store_true")
        p.add_argument(
            "--balance-after-split", dest="balance_after_split", action="store_true"
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", dest="out_dir", default="out")
        p.add_argument("--text")
        p.add_argument("--index", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--num-features", dest="num_features", type=int)
        p.add_argument("--num-samples", dest="num_samples", type=int)
        if name == "evaluate":
            p.add_argument("--predictions", dest="predictions_path")
            p.add_argument("--stats", dest="stats_path")
    return parser


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "explain": cmd_explain,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = RunManifest(
        command=args.command,
        corpus_path=args.corpus_path,
        vocab_path=args.vocab_path,
        checkpoint_path=args.checkpoint_path,
        config_path=args.config_path,
        predictions_path=getattr(args, "predictions_path", None),
        stats_path=getattr(args, "stats_path", None),
        balance=args.balance,
        balance_after_split=args.balance_after_split,
        seed=args.seed,
        out_dir=args.out_dir,
        text=args.text,
        index=args.index,
        steps=args.steps,
        num_features=args.num_features,
        num_samples=args.num_samples,
    )
    try:
        manifest.validate()
        manifest.config = _load_config_file(manifest.config_path)
        # config-file "paths" act as defaults for the corresponding flags
        paths = manifest.config.get("paths", {})
        manifest.corpus_path = manifest.corpus_path or paths.get("corpus")
        manifest.vocab_path = manifest.vocab_path or paths.get("vocab")
        manifest.checkpoint_path = manifest.checkpoint_path or paths.get("checkpoint")
        manifest.validate()
        return COMMANDS[manifest.command](manifest)
    except (UsageError, corpus_mod.EmptyCorpusError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

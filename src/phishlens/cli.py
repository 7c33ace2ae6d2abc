"""Command-line pipeline: phishlens train | evaluate | explain | compare.

Exit codes: 0 success, 1 internal error, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .corpus import LABEL_NAMES
from .intgrad import IGConfig
from .lime_text import LimeConfig, LimeSettingError, build_word_index
from .model import (
    CheckpointError,
    ModelConfig,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from .report import comparison_csv, comparison_rows, explain_email, render_explanation_html
from .tokenizer import Vocabulary, VocabularyError, load_vocabulary
from .training import EpochStats, NonFiniteTrainingError, TrainConfig, evaluate, train

EXIT_OK, EXIT_INTERNAL, EXIT_USAGE = 0, 1, 2
BALANCE_MODES = ("none", "before_split", "after_split")


class UsageError(Exception):
    pass


def _require(args: argparse.Namespace, kind: str) -> str:
    path = getattr(args, kind)
    if path is None:
        raise UsageError(f"--{kind} is required for '{args.command}'")
    return path


def _require_file(kind: str, path: str | None) -> None:
    if path is not None and not Path(path).is_file():
        state = "is not a file" if Path(path).exists() else "does not exist"
        raise UsageError(f"{kind} path {state}: {path}")


def _out_dir(args: argparse.Namespace) -> Path:
    """--out-dir, created if missing; a path that is not a directory is a usage error."""
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(f"--out-dir is not a directory: {out_dir}") from exc
    return out_dir


def _is_fraction(value) -> bool:
    """A train_fraction: a JSON number in (0, 1]."""
    return type(value) in (int, float) and 0.0 < value <= 1.0


def _seed(text: str) -> int:
    """--seed: a non-negative int, as numpy's generators require."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _count(text: str) -> int:
    """--steps, --num-features, --num-samples: an int of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {count}")
    return count


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_json_object(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: {what} must be a JSON object")
    return obj


def _load_config_file(path: str | None) -> dict:
    """The --config JSON; a file whose shape the commands cannot read is a usage error."""
    if path is None:
        return {}
    cfg = _read_json_object(path, "config")
    sections = ("model", "train", "lime", "ig", "paths")
    _refuse_unknown_keys(cfg, (*sections, "train_fraction", "dtype"), "config")
    for name in sections:
        if not isinstance(cfg.get(name, {}), dict):
            raise UsageError(f"config section '{name}' must be a JSON object")
    # settings the commands fix themselves, which a config value would not change
    for name, key, why in (
        ("train", "shuffle_seed", "the shuffle seed is --seed"),
        ("lime", "class_names", f"they are the corpus labels ({', '.join(LABEL_NAMES)})"),
    ):
        if key in cfg.get(name, {}):
            raise UsageError(f"config section '{name}': {key} cannot be set; {why}")
    paths = cfg.get("paths", {})
    _refuse_unknown_keys(paths, ("corpus", "vocab", "checkpoint"), "config section 'paths'")
    for kind, value in paths.items():
        if not isinstance(value, str):
            raise UsageError(f"config section 'paths': {kind} must be a string, got {value!r}")
    fraction = cfg.get("train_fraction", 0.7)
    if not _is_fraction(fraction):
        raise UsageError(f"train_fraction must be a number in (0, 1], got {fraction!r}")
    return cfg


def _refuse_unknown_keys(obj: dict, known: tuple, where: str) -> None:
    for key in obj:
        if key not in known:
            raise UsageError(f"{where}: unknown key {key!r}; known keys: {', '.join(known)}")


def _from_section(cls, config: dict, name: str, defaults=None, **overrides):
    """cls built from config section `name`: overrides > section > defaults,
    where an override of None (a flag left unset) yields to the section.

    A section the class rejects (unknown key, bad value) is a usage error.
    """
    overrides = {key: value for key, value in overrides.items() if value is not None}
    try:
        return cls(**{**(defaults or {}), **config.get(name, {}), **overrides})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config section '{name}': {exc}") from exc


def _model_config(config: dict, vocab: Vocabulary) -> ModelConfig:
    """The paper-scale preset, with any key of the model section overriding it."""
    model_cfg = _from_section(
        ModelConfig, config, "model", dataclasses.asdict(ModelConfig.paper_scale(vocab.size))
    )
    _check_num_classes(model_cfg, "config section 'model'")
    return model_cfg


def _check_num_classes(model_cfg: ModelConfig, source: str) -> None:
    """The corpus has the classes of LABEL_NAMES, so a model needs as many."""
    if model_cfg.num_classes != len(LABEL_NAMES):
        raise UsageError(
            f"{source}: num_classes must be {len(LABEL_NAMES)} "
            f"({' and '.join(LABEL_NAMES)}), got {model_cfg.num_classes}"
        )


def _max_len(config: dict, model_cfg: ModelConfig) -> int:
    """train.max_len from the config, else the model's max_positions, checked by TrainConfig."""
    max_len = config.get("train", {}).get("max_len", model_cfg.max_positions)
    max_len = _from_section(TrainConfig, {}, "train", {"max_len": max_len}).max_len
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


def _train_config(config: dict, model_cfg: ModelConfig, **overrides) -> TrainConfig:
    return _from_section(
        TrainConfig, config, "train", max_len=_max_len(config, model_cfg), **overrides
    )


def _load_model(args: argparse.Namespace):
    """Vocabulary, parameters and the checkpoint's record, refused unless every
    weight is finite and the vocabulary is the one the model was trained with."""
    vocab_path, checkpoint = _require(args, "vocab"), _require(args, "checkpoint")
    vocab = load_vocabulary(vocab_path)
    params, record = load_checkpoint(checkpoint)
    _check_num_classes(params.config, checkpoint)
    for name, tensor in params.tensors.items():
        if not np.isfinite(tensor).all():
            raise UsageError(f"{checkpoint}: tensor {name} holds a non-finite value")
    # the size check is all that a checkpoint without a record allows
    _check_vocab_size(vocab, params.config)
    recorded = record.get("vocab_sha256")
    if recorded is not None and _sha256(vocab_path) != recorded:
        raise UsageError(
            f"{vocab_path} is not the vocabulary {checkpoint} was trained with "
            "(sha256 differs)"
        )
    return vocab, params, record


def _dtype(config: dict):
    name = config.get("dtype", "float64")
    if name not in ("float32", "float64"):
        raise UsageError(f"dtype must be float32 or float64, got {name}")
    return np.float32 if name == "float32" else np.float64


def _prepare_partitions(corpus_path: str, seed: int, fraction: float, balance: str):
    """Load, optionally balance, and split: (loaded, balanced or None, parts).

    `balance` is one of BALANCE_MODES. "before_split" oversamples before the
    split (the order the evaluation numbers assume, at the cost of duplicates
    straddling the split); "after_split" oversamples the train partition
    only, keeping the test partition free of duplicated minority records.
    A test partition that shares records with the train partition gets a
    warning on stderr.
    """
    loaded = corpus_mod.load_corpus(corpus_path)
    balanced = None
    working = loaded
    try:
        if balance == "before_split":
            working = balanced = corpus_mod.oversample_minority(loaded, seed=seed)
        parts = corpus_mod.split(working, fraction, seed=seed)
        if balance == "after_split":
            balanced_train = corpus_mod.oversample_minority(parts.train, seed=seed)
            parts = dataclasses.replace(parts, train=balanced_train)
            balanced = corpus_mod.LabeledCorpus.from_records(
                list(balanced_train.records) + list(parts.test.records),
                dropped_rows=loaded.dropped_rows,
            )
    except corpus_mod.BalanceError as exc:
        raise UsageError(f"{corpus_path}: {exc}") from exc
    overlap = parts.test_records_in_train
    if overlap:
        print(
            f"warning: {overlap} of the {len(parts.test)} test emails also occur in the "
            "train partition, so test scores overstate accuracy (train --balance copies "
            "records before the split; --balance-after-split does not)",
            file=sys.stderr,
        )
    return loaded, balanced, parts


def _recorded_split(record: dict, corpus_path: str, checkpoint: str):
    """The (seed, train_fraction, balance) that train recorded, refused unless
    `corpus_path` is the corpus it split."""
    split = record.get("split")
    if split is None:
        raise UsageError(
            f"{checkpoint} has no split record; evaluate needs a checkpoint written by train"
        )
    try:
        digest = split["corpus_sha256"]
        seed, fraction, balance = split["seed"], split["train_fraction"], split["balance"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"{checkpoint}: unreadable split record ({exc!r})") from exc
    if balance not in BALANCE_MODES:
        raise UsageError(f"{checkpoint}: unknown balance mode {balance!r} in split record")
    if type(seed) is not int:
        raise UsageError(f"{checkpoint}: split record seed must be an int, got {seed!r}")
    if not _is_fraction(fraction):
        raise UsageError(
            f"{checkpoint}: split record train_fraction must be a number in (0, 1], "
            f"got {fraction!r}"
        )
    if _sha256(corpus_path) != digest:
        raise UsageError(
            f"{corpus_path} is not the corpus {checkpoint} was trained on (sha256 differs)"
        )
    return seed, fraction, balance


def cmd_train(args: argparse.Namespace, config: dict) -> int:
    vocab_path, corpus_path = _require(args, "vocab"), _require(args, "corpus")
    vocab = load_vocabulary(vocab_path)
    fraction = config.get("train_fraction", 0.7)
    balance = (
        "before_split" if args.balance
        else "after_split" if args.balance_after_split else "none"
    )
    # evaluate rebuilds the test partition from this record
    record = {
        "vocab_sha256": _sha256(vocab_path),
        "split": {
            "corpus_sha256": _sha256(corpus_path),
            "seed": args.seed,
            "train_fraction": fraction,
            "balance": balance,
        },
    }
    loaded, balanced, parts = _prepare_partitions(corpus_path, args.seed, fraction, balance)
    model_cfg = _model_config(config, vocab)
    _check_vocab_size(vocab, model_cfg)
    train_cfg = _train_config(config, model_cfg, shuffle_seed=args.seed)
    params = init_parameters(model_cfg, seed=args.seed, dtype=_dtype(config))

    out_dir = _out_dir(args)
    summary = {
        "loaded": loaded.summary(seed=args.seed),
        "balanced": balanced.summary(seed=args.seed) if balanced else None,
        "train_size": len(parts.train),
        "test_size": len(parts.test),
        "test_records_in_train": parts.test_records_in_train,
    }
    (out_dir / "corpus_summary.json").write_text(
        json.dumps(summary, indent=2), encoding="utf-8"
    )

    working = balanced if balanced is not None else loaded
    stats_path = out_dir / "train_stats.jsonl"
    with open(stats_path, "w", encoding="utf-8") as log:
        header = {"type": "header"}
        header.update(working.summary(seed=args.seed))
        log.write(json.dumps(header) + "\n")
        log.flush()
        _, epochs = train(
            params,
            parts,
            vocab,
            train_cfg,
            on_epoch=lambda s: (log.write(s.to_json_line() + "\n"), log.flush()),
        )
    if epochs:
        _write_plot_data(epochs, out_dir)

    checkpoint = out_dir / "model.phl"
    save_checkpoint(params, str(checkpoint), record)
    print(f"checkpoint: {checkpoint}")
    print(f"stats: {stats_path}")
    print(f"parameters: {parameter_count(params.config)}")
    return EXIT_OK


def _write_plot_data(epochs: list[EpochStats], out_dir: Path) -> None:
    """accuracy.csv and loss.csv, one row per epoch (None when nothing was held out)."""
    acc_lines = ["epoch,train_accuracy,eval_accuracy"]
    loss_lines = ["epoch,train_loss,eval_loss"]
    for s in epochs:
        acc_lines.append(f"{s.epoch_index},{s.train_accuracy},{s.eval_accuracy}")
        loss_lines.append(f"{s.epoch_index},{s.mean_train_loss},{s.mean_eval_loss}")
    (out_dir / "accuracy.csv").write_text("\n".join(acc_lines) + "\n", encoding="utf-8")
    (out_dir / "loss.csv").write_text("\n".join(loss_lines) + "\n", encoding="utf-8")


def _load_predictions(path: str) -> tuple[list, list]:
    """The --predictions JSON: an object with equally long `predictions` and
    `labels` lists of 0s and 1s."""
    injected = _read_json_object(path, "predictions file")
    missing = [key for key in ("predictions", "labels") if key not in injected]
    if missing:
        raise UsageError(f"{path}: predictions file lacks {', '.join(missing)}")
    predictions, labels = injected["predictions"], injected["labels"]
    for key, values in (("predictions", predictions), ("labels", labels)):
        if not isinstance(values, list) or not values or any(
            type(v) is not int or v not in (0, 1) for v in values
        ):
            raise UsageError(f"{path}: {key} must be a non-empty list of 0s and 1s")
    if len(predictions) != len(labels):
        raise UsageError(f"{path}: {len(predictions)} predictions but {len(labels)} labels")
    return predictions, labels


def cmd_evaluate(args: argparse.Namespace, config: dict) -> int:
    out_dir = _out_dir(args)

    if args.predictions is not None:
        predictions, labels = _load_predictions(args.predictions)
    else:
        vocab, params, record = _load_model(args)
        eval_cfg = _train_config(config, params.config)
        corpus_path, checkpoint = _require(args, "corpus"), args.checkpoint
        seed, fraction, balance = _recorded_split(record, corpus_path, checkpoint)
        _, _, parts = _prepare_partitions(corpus_path, seed, fraction, balance)
        if len(parts.test) == 0:
            raise UsageError(
                f"{checkpoint}: its recorded split (train_fraction {fraction}) "
                f"holds no email of {corpus_path} out"
            )
        _, predictions = evaluate(params, parts.test, vocab, eval_cfg)
        labels = [r.label for r in parts.test.records]

    cm = metrics_mod.confusion(predictions, labels)
    report_json = metrics_mod.report_to_dict(cm)
    report_text = metrics_mod.report_to_text(cm)
    (out_dir / "metrics.json").write_text(
        json.dumps(report_json, indent=2), encoding="utf-8"
    )
    (out_dir / "metrics.txt").write_text(report_text, encoding="utf-8")
    print(report_text, end="")
    return EXIT_OK


def _resolve_text(args: argparse.Namespace) -> str:
    """The --text, or corpus record --index; either must hold a word to explain."""
    if args.index is None:
        text, source = args.text, "--text"
    else:
        loaded = corpus_mod.load_corpus(_require(args, "corpus"))
        if not 0 <= args.index < len(loaded):
            raise UsageError(f"--index {args.index} out of range for corpus of {len(loaded)}")
        text, source = loaded.records[args.index].body, f"--index {args.index}"
    if not len(build_word_index(text)):
        raise UsageError(f"{source}: the text has no word to explain")
    return text


def _explain_both(args: argparse.Namespace, config: dict):
    vocab, params, _ = _load_model(args)
    max_len = _max_len(config, params.config)
    text = _resolve_text(args)
    # the config's lime.seed beats --seed; class names are LimeConfig's default,
    # the corpus labels
    lime_cfg = _from_section(
        LimeConfig, config, "lime", {"seed": args.seed}, num_features=args.num_features,
        num_samples=args.num_samples,
    )
    ig_cfg = _from_section(IGConfig, config, "ig", steps=args.steps)
    try:
        lime_exp, ig_record = explain_email(text, params, vocab, max_len, lime_cfg, ig_cfg)
    except LimeSettingError as exc:  # exhaustive on too many words, or a singular fit
        raise UsageError(f"config section 'lime': {exc}") from exc
    return text, lime_exp, ig_record


def cmd_explain(args: argparse.Namespace, config: dict) -> int:
    out_dir = _out_dir(args)
    text, lime_exp, ig_record = _explain_both(args, config)

    html_doc = render_explanation_html(text, lime_exp, ig_record, LABEL_NAMES)
    (out_dir / "explanation.html").write_text(html_doc, encoding="utf-8")
    payload = {
        "text": text,
        "predicted_class": lime_exp.target_class,
        "predicted_class_name": LABEL_NAMES[lime_exp.target_class],
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


def cmd_compare(args: argparse.Namespace, config: dict) -> int:
    out_dir = _out_dir(args)
    _, lime_exp, ig_record = _explain_both(args, config)
    rows = comparison_rows(lime_exp, ig_record)
    csv_text = comparison_csv(rows)
    (out_dir / "comparison.csv").write_text(csv_text, encoding="utf-8")
    print(f"{'word':<20}{'lime %':>10}{'ig %':>10}")
    for row in rows:
        print(f"{row.word:<20}{row.lime_percent:>10.2f}{row.ig_percent:>10.2f}")
    print(f"csv: {out_dir / 'comparison.csv'}")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "explain": cmd_explain,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, declaring only the flags that command reads."""
    parser = argparse.ArgumentParser(
        prog="phishlens",
        description="Phishing-email detection and explanation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--vocab")
        p.add_argument("--config")
        p.add_argument("--corpus")
        p.add_argument("--out-dir", default="out")
        if name != "evaluate":  # evaluate takes the seed from the checkpoint
            p.add_argument("--seed", type=_seed, default=0)
        if name != "train":
            p.add_argument("--checkpoint")
        if name == "train":
            balance = p.add_mutually_exclusive_group()
            balance.add_argument("--balance", action="store_true")
            balance.add_argument("--balance-after-split", action="store_true")
        if name == "evaluate":
            p.add_argument("--predictions")
        if name in ("explain", "compare"):
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--text")
            source.add_argument("--index", type=int)
            p.add_argument("--steps", type=_count)
            p.add_argument("--num-features", type=_count)
            p.add_argument("--num-samples", type=_count)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return exc.code
    try:
        _require_file("config", args.config)
        config = _load_config_file(args.config)
        # config "paths" fill only the flags this command has and left unset
        paths = config.get("paths", {})
        for kind in ("corpus", "vocab", "checkpoint"):
            if kind in vars(args) and getattr(args, kind) is None:
                setattr(args, kind, paths.get(kind))
        for kind in ("corpus", "vocab", "checkpoint", "predictions"):
            _require_file(kind, getattr(args, kind, None))
        return COMMANDS[args.command](args, config)
    except (  # bad input: each message names the file or the value
        UsageError, FileNotFoundError, corpus_mod.EmptyCorpusError,
        corpus_mod.CorpusFormatError, VocabularyError, CheckpointError,
        NonFiniteTrainingError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size below every bound that still cannot be allocated
        detail = f" ({exc})" if str(exc) else ""
        print(
            f"error: out of memory: a size in the config is too large for this machine{detail}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    edit_checkpoint_header, overflowing_head, synthetic_corpus, write_oversized_checkpoint,
)
from phishlens import cli
from phishlens.cli import EXIT_OK, EXIT_USAGE, main
from phishlens.corpus import LABEL_NAMES, EmailRecord
from phishlens.model import init_parameters, load_checkpoint, save_checkpoint

DATA = Path(__file__).parent / "data"
CORPUS = str(DATA / "fixture_emails.csv")
VOCAB = str(DATA / "vocab_small.txt")
CONFIG = str(DATA / "toy_config.json")
PHISH_TEXT = "click here to claim your free prize now"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    code = main(
        [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", CONFIG,
            "--seed", "5", "--out-dir", str(out_dir),
        ]
    )
    assert code == EXIT_OK
    return out_dir


def test_train_writes_checkpoint_and_stats(trained):
    assert (trained / "model.phl").exists()
    lines = (trained / "train_stats.jsonl").read_text().strip().split("\n")
    header = json.loads(lines[0])
    epoch_lines = [json.loads(l) for l in lines[1:]]
    assert header["type"] == "header"
    assert len(epoch_lines) == 3  # epochs in the toy config
    assert all("epoch" in row for row in epoch_lines)
    summary = json.loads((trained / "corpus_summary.json").read_text())
    assert summary["loaded"]["counts"] == {"Safe Email": 4, "Phishing Email": 2}
    assert summary["train_size"] == 4 and summary["test_size"] == 2
    acc_csv = (trained / "accuracy.csv").read_text().strip().split("\n")
    assert acc_csv[0] == "epoch,train_accuracy,eval_accuracy"
    assert len(acc_csv) == 4  # header + 3 epochs
    loss_csv = (trained / "loss.csv").read_text().strip().split("\n")
    assert loss_csv[0] == "epoch,train_loss,eval_loss"


def test_train_balance_flag_header_counts(tmp_path):
    code = main(
        [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", CONFIG,
            "--seed", "5", "--balance", "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    header = json.loads(
        (tmp_path / "train_stats.jsonl").read_text().split("\n")[0]
    )
    assert header["counts"] == {"Safe Email": 4, "Phishing Email": 4}


def test_train_missing_vocab_is_usage_error(tmp_path, capsys):
    code = main(
        [
            "train", "--corpus", CORPUS, "--vocab", "/no/such/vocab.txt",
            "--config", CONFIG, "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE
    assert "/no/such/vocab.txt" in capsys.readouterr().err


def test_evaluate_writes_metrics_and_plot_data(trained, tmp_path, capsys):
    code = main(
        [
            "evaluate", "--corpus", CORPUS, "--vocab", VOCAB,
            "--checkpoint", str(trained / "model.phl"), "--config", CONFIG,
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "Accuracy:" in out
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) >= {"confusion", "per_class", "accuracy"}
    # the plot data is train's: evaluate into a fresh directory writes none
    assert not list(tmp_path.glob("*.csv"))


def test_evaluate_golden_balanced_confusion(tmp_path, capsys):
    predictions, labels = [], []
    for actual, pred, count in ((0, 0, 3281), (0, 1, 98), (1, 0, 5), (1, 1, 3410)):
        predictions.extend([pred] * count)
        labels.extend([actual] * count)
    injected = tmp_path / "predictions.json"
    injected.write_text(json.dumps({"predictions": predictions, "labels": labels}))
    code = main(
        ["evaluate", "--predictions", str(injected), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "98.48%" in out
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    safe, phish = metrics["per_class"]["Safe Email"], metrics["per_class"]["Phishing Email"]
    assert (safe["precision_2dp"], safe["recall_2dp"], safe["f1_2dp"]) == (1.00, 0.97, 0.98)
    assert safe["support"] == 3379
    assert (phish["precision_2dp"], phish["recall_2dp"], phish["f1_2dp"]) == (0.97, 1.00, 0.99)
    assert phish["support"] == 3415
    assert metrics["accuracy_percent_2dp"] == 98.48


def test_evaluate_golden_imbalanced_confusion(tmp_path, capsys):
    predictions, labels = [], []
    for actual, pred, count in ((0, 0, 3235), (0, 1, 116), (1, 0, 24), (1, 1, 2216)):
        predictions.extend([pred] * count)
        labels.extend([actual] * count)
    injected = tmp_path / "predictions.json"
    injected.write_text(json.dumps({"predictions": predictions, "labels": labels}))
    code = main(
        ["evaluate", "--predictions", str(injected), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    assert "97.50%" in capsys.readouterr().out
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    safe, phish = metrics["per_class"]["Safe Email"], metrics["per_class"]["Phishing Email"]
    assert (safe["precision_2dp"], safe["recall_2dp"], safe["f1_2dp"]) == (0.99, 0.97, 0.98)
    assert safe["support"] == 3351
    assert (phish["precision_2dp"], phish["recall_2dp"], phish["f1_2dp"]) == (0.95, 0.99, 0.97)
    assert phish["support"] == 2240
    assert metrics["accuracy_percent_2dp"] == 97.50


@pytest.mark.parametrize(
    "content,message",
    [
        ('{"predictions": [0, 1], "labels": [0', "not valid JSON"),
        ("[[0, 1], [0, 1]]", "predictions file must be a JSON object"),
        ('{"labels": [0, 1]}', "predictions file lacks predictions"),
        ('{"predictions": [0, 1]}', "predictions file lacks labels"),
        ("{}", "predictions file lacks predictions, labels"),
        ('{"predictions": [0, 1], "labels": [0]}', "2 predictions but 1 labels"),
        ('{"predictions": [0, 2], "labels": [0, 1]}', "predictions must be a non-empty list"),
        ('{"predictions": [0, 1], "labels": ["0", "1"]}', "labels must be a non-empty list"),
        ('{"predictions": 5, "labels": [0, 1]}', "predictions must be a non-empty list"),
        ('{"predictions": [], "labels": []}', "predictions must be a non-empty list"),
        # nested past the parser's recursion limit
        pytest.param("[" * 100_000, "not valid JSON", id="nested-too-deep"),
    ],
)
def test_evaluate_bad_predictions_file_is_usage_error(tmp_path, capsys, content, message):
    injected = tmp_path / "predictions.json"
    injected.write_text(content)
    code = main(
        ["evaluate", "--predictions", str(injected), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(injected) in err and message in err


def test_evaluate_empty_test_partition_is_usage_error(tmp_path, capsys):
    config = json.loads(Path(CONFIG).read_text())
    config["train_fraction"] = 1.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(
        [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", str(cfg_path),
            "--out-dir", str(tmp_path),
        ]
    ) == EXIT_OK
    code = main(
        [
            "evaluate", "--corpus", CORPUS, "--vocab", VOCAB,
            "--checkpoint", str(tmp_path / "model.phl"), "--config", CONFIG,
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / "model.phl") in err and "holds no email" in err


@pytest.mark.parametrize(
    "flags,emails",
    [([], "6 emails"), (["--balance"], "8 emails once balanced"),
     (["--balance-after-split"], "6 emails")],
)
def test_train_fraction_that_leaves_no_train_email_is_usage_error(
    tmp_path, capsys, flags, emails
):
    # 0.1 of the fixture's 6 usable emails (8 once balanced) rounds down to none
    config = json.loads(Path(CONFIG).read_text())
    config["train_fraction"] = 0.1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    args = [
        "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", str(cfg_path),
        "--out-dir", str(out_dir),
    ]
    assert main(args + flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"train_fraction 0.1 leaves the train partition empty: {CORPUS} holds {emails}" in err
    assert not out_dir.exists()


def _write_corpus(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Email Text", "Email Type"])
        for rec in records:
            writer.writerow([rec.body, LABEL_NAMES[rec.label]])


def _noisy_corpus(path):
    """36 emails, 2 safe to 1 phishing, every 5th label flipped, so a toy
    model scores held-out emails differently from the ones it trained on."""
    records = [
        rec for i, rec in enumerate(synthetic_corpus(48, seed=13).records)
        if i % 4 != 1  # drop half of the phishing emails
    ]
    for i in range(0, len(records), 5):
        records[i] = EmailRecord(body=records[i].body, label=1 - records[i].label)
    _write_corpus(path, records)


@pytest.mark.parametrize(
    "train_flags",
    [["--seed", "0"], ["--seed", "5"], ["--seed", "0", "--balance-after-split"],
     ["--seed", "0", "--balance"]],
    ids=["seed0", "seed5", "balance-after-split", "balance"],
)
def test_evaluate_scores_exactly_the_partition_train_held_out(tmp_path, train_flags):
    corpus = tmp_path / "emails.csv"
    _noisy_corpus(corpus)
    config = json.loads(Path(CONFIG).read_text())
    config["train"].update(epochs=10, learning_rate=0.01)  # fit the train part
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    common = [
        "--corpus", str(corpus), "--vocab", VOCAB, "--config", str(cfg_path),
        "--out-dir", str(tmp_path),
    ]
    assert main(["train"] + common + train_flags) == EXIT_OK
    assert main(
        ["evaluate", "--checkpoint", str(tmp_path / "model.phl")] + common
    ) == EXIT_OK
    last_epoch = json.loads(
        (tmp_path / "train_stats.jsonl").read_text().strip().split("\n")[-1]
    )
    summary = json.loads((tmp_path / "corpus_summary.json").read_text())
    confusion = json.loads((tmp_path / "metrics.json").read_text())["confusion"]
    total = sum(sum(row) for row in confusion)
    correct = confusion[0][0] + confusion[1][1]
    assert total == summary["test_size"]
    assert correct / total == last_epoch["eval_acc"]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda record: record.pop("split"), "no split record"),
        (lambda record: record["split"].pop("seed"), "unreadable split record"),
        (
            lambda record: record["split"].update(balance="sideways"),
            "unknown balance mode 'sideways'",
        ),
        (
            lambda record: record["split"].update(train_fraction=1.5),
            "split record train_fraction must be a number in (0, 1], got 1.5",
        ),
        (
            lambda record: record["split"].update(train_fraction="0.7"),
            "split record train_fraction must be a number in (0, 1], got '0.7'",
        ),
        (
            lambda record: record["split"].update(seed=5.0),
            "split record seed must be an int, got 5.0",
        ),
        (
            lambda record: record["split"].update(seed="5"),
            "split record seed must be an int, got '5'",
        ),
        (
            lambda record: record["split"].update(seed=-1),
            "split record seed must be non-negative, got -1",
        ),
        (
            lambda record: record["split"].update(seed=-1, balance="before_split"),
            "split record seed must be non-negative, got -1",
        ),
    ],
    ids=[
        "missing", "no-seed", "unknown-balance", "fraction-above-1", "fraction-string",
        "seed-float", "seed-string", "seed-negative", "seed-negative-balanced",
    ],
)
def test_evaluate_checkpoint_without_usable_split_record_is_usage_error(
    trained, tmp_path, capsys, edit, message
):
    params, record = load_checkpoint(str(trained / "model.phl"))
    edit(record)
    edited = tmp_path / "edited.phl"
    save_checkpoint(params, str(edited), record)
    code = main(
        [
            "evaluate", "--corpus", CORPUS, "--vocab", VOCAB, "--checkpoint", str(edited),
            "--config", CONFIG, "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(edited) in err and message in err


def test_evaluate_other_corpus_than_trained_on_is_usage_error(trained, tmp_path, capsys):
    other = tmp_path / "emails.csv"  # the same emails, one more row
    other.write_text(
        Path(CORPUS).read_text(encoding="utf-8") + '"see you at lunch","Safe Email"\n',
        encoding="utf-8",
    )
    checkpoint = str(trained / "model.phl")
    code = main(
        [
            "evaluate", "--corpus", str(other), "--vocab", VOCAB,
            "--checkpoint", checkpoint, "--config", CONFIG, "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(other) in err and checkpoint in err and "sha256" in err


@pytest.mark.parametrize("command", ["evaluate", "explain", "compare"])
def test_vocab_other_than_trained_with_is_usage_error(trained, tmp_path, capsys, command):
    lines = Path(VOCAB).read_text(encoding="utf-8").splitlines()
    lines[-1] += "x"  # same size, one token renamed
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(_inference_args(command, trained, str(vocab), CONFIG, tmp_path))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(vocab) in err and str(trained / "model.phl") in err and "sha256" in err


@pytest.mark.parametrize("flag", ["--balance", "--balance-after-split"])
def test_balancing_a_one_class_corpus_is_usage_error(tmp_path, capsys, flag):
    corpus = tmp_path / "safe_only.csv"
    _write_corpus(corpus, [r for r in synthetic_corpus(12, seed=2).records if r.label == 0])
    code = main(
        [
            "train", "--corpus", str(corpus), "--vocab", VOCAB, "--config", CONFIG,
            flag, "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(corpus) in err and "cannot balance" in err


def test_explain_produces_html_and_json(trained, tmp_path):
    code = main(
        [
            "explain", "--vocab", VOCAB, "--checkpoint", str(trained / "model.phl"),
            "--config", CONFIG, "--text", PHISH_TEXT, "--out-dir", str(tmp_path),
            "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    html_doc = (tmp_path / "explanation.html").read_text()
    assert "tok pos-" in html_doc  # some positively-weighted span
    payload = json.loads((tmp_path / "explanation.json").read_text())
    assert set(payload["lime"]) == {"class", "intercept", "r2", "features"}
    assert set(payload["ig"]) == {
        "tokens", "raw", "normalized", "predicted_class", "completeness_gap",
    }
    assert payload["predicted_class"] in (0, 1)


def test_explain_empty_text_is_usage_error(trained, tmp_path, capsys):
    corpus = tmp_path / "emails.csv"  # record 1 is made only of punctuation
    corpus.write_text(
        'Email Text,Email Type\nhello there,Safe Email\n"!!! ???",Phishing Email\n',
        encoding="utf-8",
    )
    for command, source in (
        ("explain", ["--text", "   "]),
        ("explain", ["--text", "!!! ???"]),
        ("compare", ["--text", "!!! ???"]),
        ("explain", ["--index", "1"]),
    ):
        code = main(
            [
                command, "--vocab", VOCAB, "--checkpoint", str(trained / "model.phl"),
                "--config", CONFIG, "--corpus", str(corpus), "--out-dir", str(tmp_path),
            ]
            + source
        )
        assert code == EXIT_USAGE, (command, source)
        assert "no word to explain" in capsys.readouterr().err


def test_explain_requires_text_or_index(trained, tmp_path):
    code = main(
        [
            "explain", "--vocab", VOCAB, "--checkpoint", str(trained / "model.phl"),
            "--config", CONFIG, "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE


def test_explain_index_equals_inline_text(trained, tmp_path):
    # record 4 of the fixture is the first phishing email
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    body = "congratulations winner! click here to claim your free prize now"
    code_a = main(
        [
            "explain", "--vocab", VOCAB, "--checkpoint", str(trained / "model.phl"),
            "--config", CONFIG, "--corpus", CORPUS, "--index", "4",
            "--out-dir", str(out_a), "--seed", "3",
        ]
    )
    code_b = main(
        [
            "explain", "--vocab", VOCAB, "--checkpoint", str(trained / "model.phl"),
            "--config", CONFIG, "--text", body, "--out-dir", str(out_b), "--seed", "3",
        ]
    )
    assert code_a == code_b == EXIT_OK
    assert (out_a / "explanation.html").read_bytes() == (out_b / "explanation.html").read_bytes()
    assert (out_a / "explanation.json").read_bytes() == (out_b / "explanation.json").read_bytes()


def test_compare_csv_percents_sum_to_hundred(trained, tmp_path):
    code = main(
        [
            "compare", "--vocab", VOCAB, "--checkpoint", str(trained / "model.phl"),
            "--config", CONFIG, "--text", PHISH_TEXT, "--out-dir", str(tmp_path),
            "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == "word,lime_percent,ig_percent"
    lime_total = sum(float(l.split(",")[1]) for l in lines[1:])
    ig_total = sum(float(l.split(",")[2]) for l in lines[1:])
    assert abs(lime_total - 100.0) <= 0.01
    assert abs(ig_total - 100.0) <= 0.01


def test_cli_flag_overrides_reach_explainers(trained, tmp_path):
    code = main(
        [
            "explain", "--vocab", VOCAB, "--checkpoint", str(trained / "model.phl"),
            "--config", CONFIG, "--text", PHISH_TEXT, "--out-dir", str(tmp_path),
            "--num-features", "3", "--num-samples", "40", "--steps", "4",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "explanation.json").read_text())
    assert len(payload["lime"]["features"]) == 3


def test_subprocess_entry_point(tmp_path):
    # `python -m phishlens` honors the exit-code contract end to end
    env_src = str(Path(__file__).parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-m", "phishlens", "train", "--corpus", "/missing.csv",
         "--vocab", VOCAB, "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == EXIT_USAGE
    assert "/missing.csv" in result.stderr


def test_config_file_paths_act_as_flag_defaults(tmp_path):
    config = json.loads(Path(CONFIG).read_text())
    config["paths"] = {"corpus": CORPUS, "vocab": VOCAB}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(
        ["train", "--config", str(cfg_path), "--seed", "5", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    assert (tmp_path / "model.phl").exists()


def test_balance_after_split_keeps_test_partition_untouched(tmp_path):
    code = main(
        [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", CONFIG,
            "--seed", "5", "--balance-after-split", "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "corpus_summary.json").read_text())
    # train partition was balanced; test partition kept its split size
    assert summary["test_size"] == 2
    assert summary["train_size"] > 4 * 0.7  # duplicates added to train only
    balanced = summary["balanced"]["counts"]
    assert balanced["Safe Email"] + balanced["Phishing Email"] == (
        summary["train_size"] + summary["test_size"]
    )


@pytest.mark.parametrize("flag,overlap", [("--balance", 2), ("--balance-after-split", 0)])
def test_test_records_also_in_train_are_counted_and_warned(tmp_path, capsys, flag, overlap):
    args = ["--corpus", CORPUS, "--vocab", VOCAB, "--config", CONFIG, "--out-dir", str(tmp_path)]
    assert main(["train", *args, "--seed", "5", flag]) == EXIT_OK
    summary = json.loads((tmp_path / "corpus_summary.json").read_text())
    assert summary["test_size"] == (3 if flag == "--balance" else 2)
    assert summary["test_records_in_train"] == overlap
    assert main(["evaluate", *args, "--checkpoint", str(tmp_path / "model.phl")]) == EXIT_OK
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    if overlap:  # one line from train, one from evaluate
        assert len(warnings) == 2
        assert all("2 of the 3 test emails" in w and "--balance-after-split" in w for w in warnings)
    else:
        assert warnings == []


def test_balance_flags_mutually_exclusive(tmp_path, capsys):
    code = main(
        [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", CONFIG,
            "--balance", "--balance-after-split", "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE


def _inference_args(command, trained, vocab, config, out_dir):
    args = [
        command, "--vocab", vocab, "--checkpoint", str(trained / "model.phl"),
        "--config", config, "--out-dir", str(out_dir),
    ]
    if command == "evaluate":
        return args + ["--corpus", CORPUS]
    return args + [
        "--seed", "5", "--text", PHISH_TEXT, "--num-samples", "20", "--steps", "4",
    ]


@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_checkpoint_with_non_finite_weight_is_usage_error(
    trained, tmp_path, capsys, command, bad
):
    params, record = load_checkpoint(str(trained / "model.phl"))
    params.tensors["layer0.ffn_in.weight"][0, 0] = bad
    save_checkpoint(params, str(tmp_path / "model.phl"), record)
    code = main(_inference_args(command, tmp_path, VOCAB, CONFIG, tmp_path / "out"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / "model.phl") in err and "layer0.ffn_in.weight" in err


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda e: e.update(offset=-8), id="negative-offset"),
        pytest.param(lambda e: e.pop("offset"), id="missing-offset"),
        pytest.param(lambda e: e.update(dtype="<q9"), id="unknown-dtype"),
        # float bytes read as integers
        pytest.param(lambda e: e.update(dtype="<i8"), id="integer-dtype"),
        pytest.param(lambda e: e.update(shape=32), id="shape-not-a-list"),
        # one float32 tensor among float64 ones
        pytest.param(lambda e: e.update(dtype="<f4"), id="mixed-dtype"),
    ],
)
def test_malformed_checkpoint_tensor_table_is_usage_error(trained, tmp_path, capsys, edit):
    bad = tmp_path / "model.phl"
    edit_checkpoint_header(
        trained / "model.phl", bad, lambda h: edit(h["tensors"]["classifier.weight"])
    )
    code = main(_inference_args("evaluate", tmp_path, VOCAB, CONFIG, tmp_path / "out"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(bad) in err and "classifier.weight" in err


def _extra_table_entry(header):
    header["tensors"]["classifier.extra"] = dict(header["tensors"]["classifier.bias"])


@pytest.mark.parametrize(
    "damage,named",
    [
        (lambda p: p.write_bytes(p.read_bytes()[:-1]), "classifier.bias"),
        (lambda p: p.write_bytes(p.read_bytes() + b"\0"), "after the last tensor"),
        (lambda p: edit_checkpoint_header(p, p, _extra_table_entry), "classifier.extra"),
        (lambda p: edit_checkpoint_header(p, p, lambda h: h["tensors"].pop("prehead.bias")),
         "prehead.bias"),
        (write_oversized_checkpoint, "tensor token_embedding extends past end of file"),
    ],
    ids=["truncated", "trailing-byte", "extra-entry", "missing-entry", "oversized-header"],
)
def test_checkpoint_of_wrong_extent_is_usage_error(trained, tmp_path, capsys, damage, named):
    bad = tmp_path / "model.phl"
    bad.write_bytes((trained / "model.phl").read_bytes())
    damage(bad)
    code = main(_inference_args("explain", tmp_path, VOCAB, CONFIG, tmp_path / "out"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(bad) in err and named in err


@pytest.mark.parametrize(
    "command,size",
    [("evaluate", 223), ("explain", 223), ("compare", 223), ("explain", 150)],
)
def test_vocab_size_differs_from_checkpoint_is_usage_error(
    trained, tmp_path, capsys, command, size
):
    base = Path(VOCAB).read_text(encoding="utf-8").splitlines()  # 218 tokens
    lines = base[:size] + [f"extra{i}" for i in range(size - len(base))]
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(_inference_args(command, trained, str(vocab), CONFIG, tmp_path))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(size) in err and "218" in err


@pytest.mark.parametrize("classes", [1, 3])
def test_train_with_other_than_two_classes_is_usage_error(tmp_path, capsys, classes):
    config = json.loads(Path(CONFIG).read_text())
    config["model"]["num_classes"] = classes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    args = _command_args("train", None, str(cfg_path), tmp_path)
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config section 'model': num_classes must be 2" in err and f"got {classes}" in err
    assert not (tmp_path / "model.phl").exists()


@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_checkpoint_with_other_than_two_classes_is_usage_error(
    trained, tmp_path, capsys, command
):
    params, record = load_checkpoint(str(trained / "model.phl"))
    config = dataclasses.replace(params.config, num_classes=3)
    save_checkpoint(init_parameters(config, seed=0), str(tmp_path / "model.phl"), record)
    code = main(_inference_args(command, tmp_path, VOCAB, CONFIG, tmp_path / "out"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path / "model.phl") in err
    assert "num_classes must be 2" in err and "got 3" in err


def test_train_model_vocab_size_mismatch_is_usage_error(tmp_path, capsys):
    config = json.loads(Path(CONFIG).read_text())
    config["model"]["vocab_size"] = 200
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(
        [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", str(cfg_path),
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "218" in err and "200" in err


def test_evaluate_without_config_uses_checkpoint_max_positions(trained, tmp_path):
    code = main(
        [
            "evaluate", "--corpus", CORPUS, "--vocab", VOCAB,
            "--checkpoint", str(trained / "model.phl"),
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK


def test_train_without_max_len_uses_model_max_positions(tmp_path):
    config = json.loads(Path(CONFIG).read_text())
    del config["train"]["max_len"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(
        [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", str(cfg_path),
            "--seed", "5", "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("command", ["train", "evaluate", "explain", "compare"])
def test_max_len_above_max_positions_is_usage_error(trained, tmp_path, capsys, command):
    config = json.loads(Path(CONFIG).read_text())
    config["train"]["max_len"] = 32  # the toy model has 16 positions
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    if command == "train":
        args = [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", str(cfg_path),
            "--out-dir", str(tmp_path),
        ]
    else:
        args = _inference_args(command, trained, VOCAB, str(cfg_path), tmp_path)
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "max_len 32" in err and "max_positions 16" in err


def _command_args(command, trained, config, out_dir):
    """A run of `command` that succeeds with the toy config."""
    if command == "train":
        return [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", config,
            "--out-dir", str(out_dir),
        ]
    return _inference_args(command, trained, VOCAB, config, out_dir)


@pytest.mark.parametrize(
    "command,extra",
    [
        ("train", ["--steps", "4"]),
        ("train", ["--num-samples", "5"]),
        ("evaluate", ["--steps", "4"]),
        ("explain", ["--balance"]),
        ("compare", ["--balance-after-split"]),
        ("evaluate", ["--seed", "5"]),
        ("evaluate", ["--balance"]),
        ("evaluate", ["--balance-after-split"]),
    ],
)
def test_flag_the_command_does_not_take_is_usage_error(
    trained, tmp_path, capsys, command, extra
):
    args = _command_args(command, trained, CONFIG, tmp_path)
    assert main(args + extra) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "explain", "compare"])
def test_negative_seed_is_usage_error(trained, tmp_path, capsys, command):
    args = _command_args(command, trained, CONFIG, tmp_path)
    assert main(args + ["--seed", "-1"]) == EXIT_USAGE
    assert "must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--num-samples", "--num-features", "--steps"])
@pytest.mark.parametrize("command", ["explain", "compare"])
def test_count_flag_below_one_names_the_flag(trained, tmp_path, capsys, command, flag):
    args = _command_args(command, trained, CONFIG, tmp_path)
    assert main(args + [flag, "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}: must be an integer of at least 1, got 0" in err
    assert "config section" not in err


def test_one_config_with_paths_trains_then_evaluates(tmp_path):
    config = json.loads(Path(CONFIG).read_text())
    config["paths"] = {
        "corpus": CORPUS, "vocab": VOCAB, "checkpoint": str(tmp_path / "model.phl"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    common = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
    assert main(["train"] + common + ["--seed", "5"]) == EXIT_OK
    assert main(["evaluate"] + common) == EXIT_OK
    assert (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize(
    "command,section,patch",
    [
        ("train", "train", {"lr": 0.1}),
        ("train", "train", {"learning_rate": -1}),
        ("train", "model", {"num_heads": 3}),  # hidden_dim 16
        ("explain", "lime", {"samples": 3}),
        ("train", "train", {"max_len": "16"}),
        ("train", "model", {"num_heads": 0}),
        ("train", "model", {"num_heads": -2}),
        ("train", "model", {"ffn_dim": -4}),
        ("train", "model", {"num_classes": 0}),
        ("train", "model", {"dropout_rate": 1.0}),
        ("train", "model", {"num_layers": 1.5}),
        ("train", "train", {"train_batch_size": 0}),
        ("train", "train", {"eval_batch_size": 0}),
        ("train", "train", {"epochs": 2.5}),
        ("explain", "lime", {"num_samples": 1.5}),
        ("explain", "lime", {"num_features": 2.5}),
        ("explain", "ig", {"steps": 2.5}),
        ("explain", "lime", {"seed": "x"}),
        ("train", "train", {"max_len": 1}),
        ("explain", "lime", {"kernel_width": 1e-300}),  # its square underflows to 0
        ("explain", "lime", {"kernel_width": float("nan")}),
        ("explain", "lime", {"kernel_width": 1e200}),  # its square overflows
        ("explain", "lime", {"ridge_alpha": float("inf")}),
        ("explain", "lime", {"ridge_alpha": float("nan")}),
        ("explain", "lime", {"exhaustive": "no"}),
        ("train", "train", {"learning_rate": float("nan")}),
        ("train", "train", {"learning_rate": float("inf")}),
        ("train", "train", {"epsilon": float("nan")}),
        ("train", "train", {"weight_decay": -1.0}),
        ("train", "train", {"weight_decay": float("nan")}),
        ("train", "train", {"learning_rate": True}),  # was trained at 1.0
        ("train", "train", {"beta1": False}),
        ("train", "train", {"weight_decay": False}),
        ("explain", "lime", {"ridge_alpha": False}),  # was an unregularized fit
        ("explain", "lime", {"kernel_width": True}),
        ("train", "train", {"learning_rate": 10**400}),  # past float's range
        ("train", "model", {"num_layers": 0}),  # the head would see [CLS] alone
        ("explain", "ig", {"steps": 10**400}),  # sizes that no array can have
        ("explain", "lime", {"num_samples": 10**400}),
        ("train", "model", {"ffn_dim": 10**400}),
        ("train", "train", {"shuffle_seed": 5}),  # --seed always set it
        ("explain", "lime", {"class_names": ["a", "b", "c"]}),  # the corpus labels are used
    ],
)
def test_rejected_config_section_is_usage_error(
    trained, tmp_path, capsys, command, section, patch
):
    config = json.loads(Path(CONFIG).read_text())
    config[section].update(patch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    args = _command_args(command, trained, str(cfg_path), tmp_path)
    for key in patch:  # drop a flag that would override the patched value
        flag = "--" + key.replace("_", "-")
        if flag in args:
            del args[args.index(flag) : args.index(flag) + 2]
    assert main(args) == EXIT_USAGE
    assert f"config section '{section}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,allocator", [("train", "init_parameters"), ("explain", "explain_email")]
)
def test_out_of_memory_is_usage_error(trained, tmp_path, capsys, monkeypatch, command, allocator):
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 256. GiB for an array with shape (16, 2147483647)")

    monkeypatch.setattr(cli, allocator, allocate)
    assert main(_command_args(command, trained, CONFIG, tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: a size in the config is too large")
    assert "Unable to allocate 256. GiB" in err


def _lime_config(tmp_path, **settings):
    config = json.loads(Path(CONFIG).read_text())
    config["lime"].update(settings)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return str(cfg_path)


def test_exhaustive_lime_on_too_many_words_is_usage_error(trained, tmp_path, capsys):
    args = _command_args("explain", trained, _lime_config(tmp_path, exhaustive=True), tmp_path)
    text = " ".join(f"word{i}" for i in range(27))
    assert main(args + ["--text", text]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config section 'lime': exhaustive" in err and "2^27" in err
    assert not (tmp_path / "explanation.json").exists()


def test_singular_unregularized_lime_fit_is_usage_error(trained, tmp_path, capsys):
    # one sample: the centered design matrix is 0, so only ridge_alpha > 0 can solve it
    args = _command_args("compare", trained, _lime_config(tmp_path, ridge_alpha=0), tmp_path)
    assert main(args + ["--num-samples", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config section 'lime'" in err and "ridge_alpha > 0" in err
    assert not (tmp_path / "comparison.csv").exists()


@pytest.mark.parametrize(
    "command,patch,message",
    [
        ("train", None, "not valid JSON"),
        ("train", {"train": []}, "config section 'train' must be a JSON object"),
        ("train", {"model": []}, "config section 'model' must be a JSON object"),
        ("evaluate", {"paths": []}, "config section 'paths' must be a JSON object"),
        ("explain", {"lime": []}, "config section 'lime' must be a JSON object"),
        ("compare", {"ig": []}, "config section 'ig' must be a JSON object"),
        ("train", {"train_fraction": "x"}, "train_fraction must be a number in (0, 1]"),
        ("train", {"train_fraction": 0}, "train_fraction must be a number in (0, 1]"),
        ("evaluate", {"train_fraction": 1.5}, "train_fraction must be a number in (0, 1]"),
        ("train", {"trian": {"epochs": 0}}, "config: unknown key 'trian'"),
        ("evaluate", {"path": {"vocab": VOCAB}}, "config: unknown key 'path'"),
        ("explain", {"paths": {"vocabulary": VOCAB}},
         "config section 'paths': unknown key 'vocabulary'"),
        ("train", {"paths": {"vocab": 5}}, "config section 'paths': vocab must be a string"),
        ("compare", {"paths": {"checkpoint": None}},
         "config section 'paths': checkpoint must be a string, got None"),
    ],
)
def test_malformed_config_file_is_usage_error(
    trained, tmp_path, capsys, command, patch, message
):
    text = Path(CONFIG).read_text()
    cfg_path = tmp_path / "cfg.json"
    if patch is None:
        cfg_path.write_text(text[: len(text) // 2])  # truncated mid-object
    else:
        cfg_path.write_text(json.dumps({**json.loads(text), **patch}))
    assert main(_command_args(command, trained, str(cfg_path), tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    if patch is None:
        assert str(cfg_path) in err


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@pytest.mark.parametrize("epochs", [1, 3])
def test_diverging_training_is_usage_error(tmp_path, capsys, epochs):
    # one step at this rate drives the weights far enough to overflow the
    # next pass: the first epoch's held-out loss is NaN
    config = json.loads(Path(CONFIG).read_text())
    config["train"].update(learning_rate=1e300, epochs=epochs)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    args = [
        "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", str(cfg_path),
        "--seed", "5", "--out-dir", str(tmp_path),
    ]
    assert main(args) == EXIT_USAGE
    assert "error: epoch 0: held-out loss is nan" in capsys.readouterr().err
    assert not (tmp_path / "model.phl").exists()
    # the header alone: no epoch line, and so no NaN, which is not JSON
    lines = (tmp_path / "train_stats.jsonl").read_text().splitlines()
    assert [json.loads(line)["type"] for line in lines] == ["header"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_with_nothing_held_out_is_usage_error(tmp_path, capsys):
    # one full-batch step at this rate leaves weights whose outputs overflow;
    # with no held-out partition, the last batch scored after the step shows it
    config = json.loads(Path(CONFIG).read_text())
    config["train"].update(learning_rate=1e300, epochs=1, train_batch_size=64)
    config["train_fraction"] = 1.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    args = [
        "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", str(cfg_path),
        "--out-dir", str(tmp_path),
    ]
    assert main(args) == EXIT_USAGE
    assert "error: epoch 0: loss of the last batch after its update is nan" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "model.phl").exists()
    lines = (tmp_path / "train_stats.jsonl").read_text().splitlines()
    assert [json.loads(line)["type"] for line in lines] == ["header"]


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["evaluate", "explain", "compare"])
def test_checkpoint_with_non_finite_outputs_is_usage_error(trained, tmp_path, capsys, command):
    params, record = load_checkpoint(str(trained / "model.phl"))
    save_checkpoint(overflowing_head(params), str(tmp_path / "model.phl"), record)
    code = main(_inference_args(command, tmp_path, VOCAB, CONFIG, tmp_path / "out"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {tmp_path / 'model.phl'}: " in err and "not finite" in err
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_partial_model_section_fills_from_the_preset(tmp_path):
    config = json.loads(Path(CONFIG).read_text())
    config["model"] = {"num_layers": 1, "hidden_dim": 16, "num_heads": 2, "ffn_dim": 32}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(
        [
            "train", "--corpus", CORPUS, "--vocab", VOCAB, "--config", str(cfg_path),
            "--seed", "5", "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    params, _ = load_checkpoint(str(tmp_path / "model.phl"))
    model_cfg = params.config
    assert model_cfg.max_positions == 512  # the paper-scale preset's value
    assert model_cfg.hidden_dim == 16


@pytest.mark.parametrize(
    "case",
    [
        "corpus", "vocab", "checkpoint", "latin1-corpus", "latin1-vocab",
        "directory-corpus", "directory-vocab", "directory-checkpoint",
        "directory-predictions", "directory-config",
    ],
)
def test_malformed_input_file_is_usage_error(trained, tmp_path, capsys, case):
    defect, _, kind = case.rpartition("-")
    bad = tmp_path / f"bad_{kind}"
    if defect == "directory":
        bad.mkdir()
    elif defect == "latin1":  # "café" in Latin-1 is not UTF-8
        good = CORPUS if kind == "corpus" else VOCAB
        bad.write_bytes(Path(good).read_bytes() + "café\n".encode("latin-1"))
    elif kind == "corpus":  # neither the Email Text nor the Email Type column
        bad.write_text("body,label\nhello there,Safe Email\n", encoding="utf-8")
    elif kind == "vocab":  # [PAD] twice
        bad.write_text(Path(VOCAB).read_text(encoding="utf-8") + "[PAD]\n", encoding="utf-8")
    else:
        bad.write_bytes(b"XXXX" + (trained / "model.phl").read_bytes()[4:])
    paths = {
        "corpus": CORPUS, "vocab": VOCAB, "checkpoint": str(trained / "model.phl"),
        "config": CONFIG,
    }
    paths[kind] = str(bad)
    args = ["evaluate", "--out-dir", str(tmp_path)]
    for flag, path in paths.items():
        args += [f"--{flag}", path]
    code = main(args)
    assert code == EXIT_USAGE
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("column", ["Email Text", "Email Type"])
def test_corpus_repeating_a_column_is_usage_error(tmp_path, capsys, column):
    with open(CORPUS, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    repeated = rows[0].index(column)
    bad = tmp_path / "emails.csv"
    with open(bad, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(row + [row[repeated]] for row in rows)
    args = ["train", "--corpus", str(bad), "--vocab", VOCAB, "--config", CONFIG]
    assert main([*args, "--out-dir", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(bad) in err and f"names column '{column}' twice" in err


@pytest.mark.parametrize("command", ["train", "evaluate", "explain", "compare"])
def test_out_dir_that_is_a_file_is_usage_error(trained, tmp_path, capsys, command):
    occupied = tmp_path / "occupied"
    occupied.write_text("not a directory\n", encoding="utf-8")
    for out_dir in (occupied, occupied / "run"):
        assert main(_command_args(command, trained, CONFIG, out_dir)) == EXIT_USAGE
        assert f"--out-dir is not a directory: {out_dir}" in capsys.readouterr().err
    assert occupied.read_text(encoding="utf-8") == "not a directory\n"

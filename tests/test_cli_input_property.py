"""No checkpoint header, predictions file or corpus CSV makes a command exit
1: with drawn edits to the header of a trained toy checkpoint (its config,
its tensor table, and the record with its split record), `evaluate` exits 0
or 2; so does `evaluate --predictions` on a drawn file, and `train` on a
drawn corpus. None prints an internal error."""

import contextlib
import csv
import dataclasses
import io
import json
from pathlib import Path

import pytest

from conftest import edit_checkpoint_header
from phishlens.cli import EXIT_OK, EXIT_USAGE, main
from phishlens.corpus import LABEL_COLUMN, TEXT_COLUMN
from phishlens.model import ModelConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DATA = Path(__file__).parent / "data"
CORPUS = str(DATA / "fixture_emails.csv")
VOCAB = str(DATA / "vocab_small.txt")
CONFIG = str(DATA / "toy_config.json")
SETTINGS = hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    args = ["--corpus", CORPUS, "--vocab", VOCAB, "--config", CONFIG, "--out-dir", str(out_dir)]
    assert main(["train", "--seed", "5", *args]) == EXIT_OK
    return out_dir / "model.phl"


def _exit_code(args) -> int:
    """main(args), asserted to exit 0 or 2 with no internal error."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(args)
    assert code in (EXIT_OK, EXIT_USAGE), stderr.getvalue()
    assert "internal error" not in stderr.getvalue()
    return code


# ------------------------------------------------------------ checkpoint header

DELETE = object()  # drawn as a value: the key is removed
TENSORS = ["token_embedding", "layer0.attn_q.weight", "classifier.bias", "extra"]
SPLIT_KEYS = ["corpus_sha256", "seed", "train_fraction", "balance", "extra"]
HEADER_PATHS = (
    [("config",), ("tensors",), ("record",), ("record", "vocab_sha256"), ("record", "split")]
    + [("config", f.name) for f in dataclasses.fields(ModelConfig)]
    + [("tensors", name) for name in TENSORS]
    + [("tensors", name, key) for name in TENSORS for key in ("shape", "dtype", "offset")]
    + [("record", "split", key) for key in SPLIT_KEYS]
)
HEADER_VALUES = [
    DELETE, 0, -1, 1, 2, 16, 2**70, 0.5, 1e300, float("nan"), True, "x", "<f4", "<f8",
    "before_split", "after_split", None, [], {}, [16, 16],
]


def _edited(changes):
    def edit(header):
        for path, value in changes:
            node = header
            for key in path[:-1]:
                node = node.get(key) if isinstance(node, dict) else None
            if not isinstance(node, dict):
                continue
            if value is DELETE:
                node.pop(path[-1], None)
            else:
                node[path[-1]] = value

    return edit


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@SETTINGS
@hypothesis.given(
    changes=st.lists(
        st.tuples(st.sampled_from(HEADER_PATHS), st.sampled_from(HEADER_VALUES)),
        min_size=1, max_size=3,
    ),
)
# numpy's generators refuse a negative seed, which evaluate once passed on
@hypothesis.example(changes=[(("record", "split", "seed"), -1)])
@hypothesis.example(
    changes=[(("record", "split", "seed"), -1), (("record", "split", "balance"), "before_split")]
)
def test_no_checkpoint_header_makes_evaluate_exit_1(checkpoint, tmp_path_factory, changes):
    out_dir = tmp_path_factory.mktemp("header")
    edited = out_dir / "model.phl"
    edit_checkpoint_header(checkpoint, edited, _edited(changes))
    _exit_code([
        "evaluate", "--corpus", CORPUS, "--vocab", VOCAB, "--config", CONFIG,
        "--checkpoint", str(edited), "--out-dir", str(out_dir),
    ])


# ------------------------------------------------------------- predictions file

ELEMENTS = [0, 1, 2, -1, True, 0.0, 1.0, "1", None]
PREDICTION_VALUES = st.one_of(
    st.lists(st.sampled_from([0, 1]), min_size=1, max_size=3),  # often a readable file
    st.lists(st.sampled_from(ELEMENTS), max_size=4),
    st.sampled_from([0, "x", None, {}, 1e300]),
)
PREDICTIONS = st.one_of(
    st.fixed_dictionaries(
        {"predictions": PREDICTION_VALUES, "labels": PREDICTION_VALUES},
        optional={"extra": PREDICTION_VALUES},
    ),
    st.dictionaries(st.sampled_from(["predictions", "labels"]), PREDICTION_VALUES, max_size=1),
).map(lambda obj: json.dumps(obj).encode("utf-8"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@SETTINGS
@hypothesis.given(content=st.one_of(PREDICTIONS, st.binary(max_size=12)))
# nested past the JSON parser's recursion limit
@hypothesis.example(content=b"[" * 100_000)
def test_no_predictions_file_makes_evaluate_exit_1(tmp_path_factory, content):
    out_dir = tmp_path_factory.mktemp("predictions")
    injected = out_dir / "predictions.json"
    injected.write_bytes(content)
    _exit_code(["evaluate", "--predictions", str(injected), "--out-dir", str(out_dir)])


# -------------------------------------------------------------------- corpus CSV

COLUMNS = [TEXT_COLUMN, LABEL_COLUMN, "note", "", "email text"]
HEADERS = st.one_of(  # mostly the two columns, so that many drawn files are readable
    st.just([TEXT_COLUMN, LABEL_COLUMN]),
    st.permutations([TEXT_COLUMN, LABEL_COLUMN, "note"]),
    st.lists(st.sampled_from(COLUMNS), max_size=4),
)
CELLS = [
    "click here to claim your free prize now", "team meeting moved to noon", "a,b",
    "two\nlines", '"', "", " ", "Safe Email", "Phishing Email", " safe email ", "Junk Mail",
]


def _csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer).writerows([header, *rows])
    return buffer.getvalue().encode("utf-8")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@SETTINGS
@hypothesis.given(
    prefix=st.one_of(st.just(b""), st.sampled_from([b"\xef\xbb\xbf", b"\xff"])),
    header=HEADERS,
    rows=st.lists(st.lists(st.sampled_from(CELLS), min_size=2, max_size=4), max_size=8),
    balance=st.sampled_from([[], ["--balance"], ["--balance-after-split"]]),
)
# csv.DictReader keeps the last of two same-named cells, which train once read silently
@hypothesis.example(
    prefix=b"", header=[TEXT_COLUMN, LABEL_COLUMN, TEXT_COLUMN],
    rows=[[CELLS[0], "Phishing Email", CELLS[1]], [CELLS[1], "Safe Email", CELLS[0]]] * 2,
    balance=[],
)
def test_no_corpus_makes_train_exit_1(tmp_path_factory, prefix, header, rows, balance):
    out_dir = tmp_path_factory.mktemp("corpus")
    corpus = out_dir / "emails.csv"
    corpus.write_bytes(prefix + _csv_bytes(header, rows))
    code = _exit_code([
        "train", "--corpus", str(corpus), "--vocab", VOCAB, "--config", CONFIG,
        "--seed", "5", *balance, "--out-dir", str(out_dir),
    ])
    if header.count(TEXT_COLUMN) > 1 or header.count(LABEL_COLUMN) > 1:
        assert code == EXIT_USAGE  # which cell is the body or the label is ambiguous

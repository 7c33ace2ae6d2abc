"""No value in a config file makes a command exit 1: with fields of the toy
config's model, train, lime and ig sections, and its train_fraction, set to
drawn values, train, evaluate, explain and compare exit 0 or 2, and print no
internal error."""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

from phishlens.cli import EXIT_OK, EXIT_USAGE, main
from phishlens.intgrad import IGConfig
from phishlens.lime_text import LimeConfig
from phishlens.model import ModelConfig
from phishlens.training import TrainConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DATA = Path(__file__).parent / "data"
CORPUS = str(DATA / "fixture_emails.csv")
VOCAB = str(DATA / "vocab_small.txt")
CONFIG = json.loads((DATA / "toy_config.json").read_text())

FIELDS = [
    (section, f.name)
    for section, cls in (
        ("model", ModelConfig), ("train", TrainConfig), ("lime", LimeConfig), ("ig", IGConfig),
    )
    for f in dataclasses.fields(cls)
] + [(None, "train_fraction")]
# no size above 64, so no drawn config allocates much or runs long
VALUES = [
    0, -1, 1, 2, 64, 0.5, 1e-300, 1e300, float("nan"), True, False, "x", None, [], {},
]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    args = ["--vocab", VOCAB, "--config", str(DATA / "toy_config.json"), "--out-dir", str(out_dir)]
    assert main(["train", "--corpus", CORPUS, "--seed", "5", *args]) == EXIT_OK
    return out_dir / "model.phl"


def _mutated(changes) -> dict:
    config = json.loads(json.dumps(CONFIG))
    for (section, name), value in changes:
        (config if section is None else config.setdefault(section, {}))[name] = value
    return config


# the commands' warnings (an overflow on the way to a non-finite loss) are
# printed outside pytest, not raised
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["train", "evaluate", "explain", "compare"])
@hypothesis.settings(max_examples=120, derandomize=True, deadline=None, database=None)
@hypothesis.given(
    changes=st.lists(
        st.tuples(st.sampled_from(FIELDS), st.sampled_from(VALUES)), min_size=1, max_size=3
    ),
)
# a fraction of the fixture's 6 emails that rounds down to none once exited 1
@hypothesis.example(changes=[((None, "train_fraction"), 1e-300)])
def test_no_config_value_makes_a_command_exit_1(checkpoint, tmp_path_factory, command, changes):
    out_dir = tmp_path_factory.mktemp(command)
    config = out_dir / "config.json"
    config.write_text(json.dumps(_mutated(changes)))
    args = [command, "--vocab", VOCAB, "--config", str(config), "--out-dir", str(out_dir)]
    if command in ("train", "evaluate"):
        args += ["--corpus", CORPUS]
    if command != "train":
        args += ["--checkpoint", str(checkpoint)]
    if command in ("explain", "compare"):
        args += ["--seed", "5", "--text", "click here to claim your free prize now"]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(args)
    assert code in (EXIT_OK, EXIT_USAGE), stderr.getvalue()
    assert "internal error" not in stderr.getvalue()

"""The benchmark's span tracer (perfbench/tracer.py) wraps phishlens functions
at their call-site bindings. An API change that drops one of those bindings
fails here instead of crashing `perfbench/run.py --trace 1`."""

import importlib.util
import sys
from pathlib import Path

import phishlens
from conftest import toy_batch
from phishlens import (  # noqa: F401  - submodules the tracer reaches through the package
    corpus, intgrad, lime_text, metrics, model, report, tokenizer, training,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_binding_and_traces_forward_and_backward(toy_params, monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    bindings = [
        (getattr(phishlens, mod_name), name.split(".", 1)[1])
        for name, modules in tracer_mod.BINDINGS.items()
        for mod_name in modules
    ]
    originals = [getattr(module, attr) for module, attr in bindings]

    tracer = tracer_mod.Tracer()
    tracer.install(phishlens)
    try:
        tracer.enabled = True
        model.forward(toy_params, toy_batch())
        model.backward(toy_params, toy_batch(), [1, 0])
    finally:
        tracer.enabled = False
        tracer.uninstall()

    assert [span[0] for span in tracer.spans] == ["model.forward", "model.backward"]
    assert tracer.counts["model.forward_calls"] == 1
    assert [getattr(module, attr) for module, attr in bindings] == originals


def test_tracer_counts_the_trimmed_width_of_a_train_mode_pass(toy_params, monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer()
    tracer.install(phishlens)
    try:
        tracer.enabled = True
        model.forward(toy_params, toy_batch(max_len=16), train_mode=True)
    finally:
        tracer.enabled = False
        tracer.uninstall()

    # two rows with 5 and 3 real tokens, padded to 16: the encoder runs 5 columns
    assert tracer.counts["forward.positions"] == 2 * 5
    assert tracer.counts["forward.real_tokens"] == 5 + 3

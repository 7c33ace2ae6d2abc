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


def test_tracer_sees_every_call_of_the_library_explain(toy_params, vocab, monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    bindings = [
        (getattr(phishlens, mod_name), name.split(".", 1)[1])
        for name, modules in tracer_mod.BINDINGS.items()
        for mod_name in modules
    ]
    originals = [getattr(module, attr) for module, attr in bindings]
    lime_cfg = lime_text.LimeConfig(num_features=4, num_samples=30, seed=2)

    tracer = tracer_mod.Tracer()
    tracer.install(phishlens)
    try:
        tracer.enabled = True
        report.explain_email(
            "click here to claim your free prize now", toy_params, vocab, 16,
            lime_cfg, intgrad.IGConfig(steps=4),
        )
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in bindings] == originals

    spans = tracer.spans
    names = [span[0] for span in spans]
    assert names.count("lime_text.explain") == names.count("intgrad.word_attributions") == 1
    lime_span = names.index("lime_text.explain")
    ig_span = names.index("intgrad.word_attributions")

    def under(name, parent):
        return sum(span[0] == name and span[3] == parent for span in spans)

    # one B=1 pass per distinct perturbation, each on its own encoding,
    # plus IG's encoding and its two-row endpoint pass
    distinct = tracer.counts["lime_text.unique_samples"]
    assert 1 < distinct < 30
    assert under("model.forward", lime_span) == under("tokenizer.encode", lime_span) == distinct
    assert under("model.forward", ig_span) == under("tokenizer.encode", ig_span) == 1
    assert names.count("model.forward") == distinct + 1
    # rows: the B=1 passes, IG's endpoint pair and its 4 path points
    assert tracer.counts["forward.rows"] == distinct + 2 + 4

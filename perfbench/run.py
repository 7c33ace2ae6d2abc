"""End-to-end benchmark of phishlens: train, evaluate and explain.

    python3 perfbench/run.py --workload {train,evaluate,explain} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``. Inputs (vocabulary, corpus CSV, checkpoint) are
generated from the seed by ``gen.py`` in a child process, and the workload
reads them only through the library's loaders. See ``README.md`` for the
workloads, the metrics and which layer metric should move which end-to-end
metric.

The workload runs in units (a train round, an evaluate round, one explained
email) until the timed units add up to ``--seconds``. Outputs are checked
after each unit, outside the timed region. The last line of standard output
is one JSON object: ``correct``, ``attempted`` (units), ``failed`` (units
with a failed check) and ``metrics`` - the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is 1
when a check failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"

# One process; BLAS threads fixed to the CPUs this process may use.
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))

import numpy as np  # noqa: E402  - after the BLAS thread setting

from gen import DESK  # noqa: E402
from tracer import Tracer  # noqa: E402

# setup_s is the median of at least SETUP_REPS set-ups, repeated until they
# take SETUP_MIN_S in all (cheap set-ups get more repetitions).
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 7, 1.0, 200
MIN_UNITS = 2  # a traced run alternates untraced and traced units

# Check tolerances, by parameter dtype.
PROB_TOL = {"float32": 1e-4, "float64": 1e-9}
IG_GAP_REL_TOL = 0.05  # completeness gap / |logit(input) - logit(baseline)|
IG_GAP_ABS_TOL = 0.01  # logit units; floor for emails whose logit difference is near 0


def _import_package():
    if not (ROOT / "src" / "phishlens" / "__init__.py").is_file():
        print(f"error: no phishlens sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import phishlens
    from phishlens import (  # noqa: F401  - submodules the workloads reach through the package
        corpus, intgrad, lime_text, metrics, model, report, tokenizer, training,
    )

    return phishlens


# ------------------------------------------------------------------ workloads


class Workload:
    """One workload: setup() is timed for setup_s, prepare() warms up, and
    unit(start_unit(i)) is the i-th timed unit, checked by check()."""

    name = ""
    unit_name = ""

    def __init__(self, pl, inputs: Path, seed: int):
        self.pl, self.inputs, self.seed = pl, inputs, seed
        self.quality: dict[str, list[float]] = {}

    def note(self, key: str, value: float) -> None:
        self.quality.setdefault(key, []).append(value)


class TrainWorkload(Workload):
    """Fine-tune the desk model from init: 4 epochs of one batch, per-epoch eval pass.

    Every round starts from the same initial parameters, so rounds are
    identical work and the round's loss does not depend on how many rounds
    fit in the run. The learning rate is high enough that four steps lower
    the train-partition loss on every seed, which the check relies on.
    """

    name, unit_name = "train", "round"

    def setup(self):
        pl = self.pl
        self.vocab = pl.tokenizer.load_vocabulary(str(self.inputs / "vocab.txt"))
        loaded = pl.corpus.load_corpus(str(self.inputs / "emails.csv"))
        self.parts = pl.corpus.split(loaded, 0.7, seed=self.seed)
        config = pl.model.ModelConfig(vocab_size=self.vocab.size, dropout_rate=0.1, **DESK)
        self.init = pl.model.init_parameters(config, seed=self.seed, dtype=np.float32)
        self.cfg = pl.training.TrainConfig(
            learning_rate=1e-3, train_batch_size=16, eval_batch_size=16,
            epochs=4, max_len=128, shuffle_seed=self.seed,
        )

    def prepare(self):
        pl = self.pl
        # Deterministic (dropout-free) loss on the train partition at init;
        # every round must end below it.
        self.loss_at_init, _ = pl.training.evaluate(self.init, self.parts.train, self.vocab, self.cfg)
        # Warm-up: one epoch without the eval pass, so the allocator has grown
        # to full-batch size before timing starts.
        warm = pl.corpus.SplitCorpus(self.parts.train, pl.corpus.LabeledCorpus.from_records([]), 0.7)
        pl.training.train(self.init.copy(), warm, self.vocab,
                          pl.training.TrainConfig(**{**vars(self.cfg), "epochs": 1}))

    def start_unit(self, i):
        return self.init.copy()

    def unit(self, params):
        _, stats = self.pl.training.train(params, self.parts, self.vocab, self.cfg)
        return stats, self.cfg.epochs * len(self.parts.train)

    def check(self, i, params, stats):
        failures = []
        losses = [s.mean_train_loss for s in stats] + [s.mean_eval_loss for s in stats]
        if not all(math.isfinite(x) for x in losses):
            failures.append("train.loss_not_finite")
        after, _ = self.pl.training.evaluate(params, self.parts.train, self.vocab, self.cfg)
        if not after < self.loss_at_init:
            failures.append("train.loss_did_not_fall")
        self.note("training.loss", statistics.fmean(s.mean_train_loss for s in stats))
        return failures


class EvaluateWorkload(Workload):
    """Score held-out emails from a desk checkpoint at max_len 512."""

    name, unit_name = "evaluate", "round"
    CHUNK = 16

    def setup(self):
        pl = self.pl
        self.vocab = pl.tokenizer.load_vocabulary(str(self.inputs / "vocab.txt"))
        loaded = pl.corpus.load_corpus(str(self.inputs / "emails.csv"))
        self.parts = pl.corpus.split(loaded, 0.7, seed=self.seed)
        self.params, _ = pl.model.load_checkpoint(str(self.inputs / "model.phl"))
        self.cfg = pl.training.TrainConfig(eval_batch_size=16, max_len=512)

    def prepare(self):
        # Warm-up on one full batch, so the allocator has grown before timing.
        warm = self.pl.corpus.LabeledCorpus.from_records(self.parts.test.records[-self.CHUNK:])
        self.pl.training.evaluate(self.params, warm, self.vocab, self.cfg)

    def start_unit(self, i):
        records = self.parts.test.records
        start = (i % (len(records) // self.CHUNK)) * self.CHUNK
        return self.pl.corpus.LabeledCorpus.from_records(records[start:start + self.CHUNK])

    def unit(self, chunk):
        metrics = self.pl.metrics
        loss, predictions = self.pl.training.evaluate(self.params, chunk, self.vocab, self.cfg)
        labels = [r.label for r in chunk.records]
        cm = metrics.confusion(predictions, labels)
        metrics.report_to_dict(cm)
        metrics.report_to_text(cm)
        return (loss, predictions, cm), len(chunk)

    def check(self, i, chunk, result):
        pl = self.pl
        loss, predictions, cm = result
        failures = []
        if cm.total != len(chunk):
            failures.append("evaluate.confusion_total")
        if not math.isfinite(loss):
            failures.append("evaluate.loss_not_finite")
        seqs = [pl.tokenizer.encode(r.body, self.vocab, self.cfg.max_len) for r in chunk.records]
        row = int(np.random.default_rng([self.seed, i]).integers(len(seqs)))
        lengths = [s.real_length for s in seqs]
        other = int(np.argmin(lengths)) if row == int(np.argmax(lengths)) else int(np.argmax(lengths))
        single = pl.model.forward(self.params, [seqs[row]]).probabilities[0]
        paired = pl.model.forward(self.params, [seqs[row], seqs[other]]).probabilities[0]
        tol = PROB_TOL[self.params.tensors["classifier.weight"].dtype.name]
        if not np.allclose(paired, single, rtol=0.0, atol=tol):
            failures.append("evaluate.batched_vs_single")
        if abs(single[1] - single[0]) > 2 * tol and predictions[row] != int(single.argmax()):
            failures.append("evaluate.prediction_vs_single")
        return failures


class ExplainWorkload(Workload):
    """The compare path per email: LIME, IG, HTML report and comparison CSV."""

    name, unit_name = "explain", "email"
    MAX_LEN = 64

    def setup(self):
        pl = self.pl
        self.vocab = pl.tokenizer.load_vocabulary(str(self.inputs / "vocab.txt"))
        self.texts = [r.body for r in pl.corpus.load_corpus(str(self.inputs / "emails.csv")).records]
        self.params, _ = pl.model.load_checkpoint(str(self.inputs / "model.phl"))
        self.lime_cfg = pl.lime_text.LimeConfig(
            num_features=15, num_samples=1000, seed=self.seed,
            class_names=pl.metrics.DEFAULT_CLASS_NAMES,
        )
        self.ig_cfg = pl.intgrad.IGConfig(steps=64)
        self.classifier = self._classify

    def _classify(self, text):
        seq = self.pl.tokenizer.encode(text, self.vocab, self.MAX_LEN)
        return self.pl.model.forward(self.params, [seq], train_mode=False).probabilities[0]

    def prepare(self):
        pl = self.pl
        cfg = pl.lime_text.LimeConfig(**{**vars(self.lime_cfg), "num_samples": 50})
        pl.lime_text.explain(self.texts[-1], self.classifier, cfg)
        pl.intgrad.word_attributions(
            self.texts[-1], self.params, self.vocab, pl.intgrad.IGConfig(steps=8), self.MAX_LEN
        )

    def start_unit(self, i):
        return self.texts[i % len(self.texts)]

    def unit(self, text):
        pl = self.pl
        lime_exp = pl.lime_text.explain(text, self.classifier, self.lime_cfg)
        ig = pl.intgrad.word_attributions(text, self.params, self.vocab, self.ig_cfg, self.MAX_LEN)
        pl.report.render_explanation_html(text, lime_exp, ig, pl.metrics.DEFAULT_CLASS_NAMES)
        pl.report.comparison_csv(pl.report.comparison_rows(lime_exp, ig))
        return (lime_exp, ig), 1

    def check(self, i, text, result):
        pl = self.pl
        lime_exp, ig = result
        failures = []
        probs = self._classify(text)
        tol = PROB_TOL[self.params.tensors["classifier.weight"].dtype.name]
        if abs(lime_exp.predicted_probability - probs[lime_exp.target_class]) > tol:
            failures.append("explain.lime_probability")
        if not math.isfinite(lime_exp.local_fit_r2):
            failures.append("explain.lime_r2_not_finite")
        seq = pl.tokenizer.encode(text, self.vocab, self.MAX_LEN)
        base = pl.intgrad.make_baseline(seq, self.vocab)
        logits = pl.model.forward(self.params, [seq, base]).logits[:, ig.predicted_class]
        delta = abs(float(logits[0] - logits[1]))
        if not ig.completeness_gap <= IG_GAP_REL_TOL * delta + IG_GAP_ABS_TOL:
            failures.append("explain.ig_completeness")
        self.note("lime_text.r2", lime_exp.local_fit_r2)
        self.note("intgrad.completeness_gap_rel", ig.completeness_gap / max(delta, 1e-12))
        return failures


WORKLOADS = {w.name: w for w in (TrainWorkload, EvaluateWorkload, ExplainWorkload)}

# --------------------------------------------------------------------- metrics

# Per-layer self times, reported per unit (setup layers: per set-up).
SETUP_LAYERS = {
    "corpus.load_s": ["corpus.load_corpus"],
    "corpus.split_s": ["corpus.split"],
    "tokenizer.load_vocabulary_s": ["tokenizer.load_vocabulary"],
    "model.init_s": ["model.init_parameters"],
    "model.load_checkpoint_s": ["model.load_checkpoint"],
}
UNIT_LAYERS = {
    "tokenizer.encode_s": ["tokenizer.encode"],
    "model.forward_s": ["model.forward", "model.forward_from_embeddings"],
    "model.backward_s": ["model.backward"],
    "model.grad_wrt_embeddings_s": ["model.grad_wrt_embeddings"],
    "training.train_s": ["training.train"],
    "training.evaluate_s": ["training.evaluate"],
    "training.adamw_step_s": ["training.adamw_step"],
    "metrics.report_s": ["metrics.confusion", "metrics.report_to_dict", "metrics.report_to_text"],
    "lime_text.explain_s": ["lime_text.explain"],
    "lime_text.sample_s": ["lime_text.sample_perturbations"],
    "lime_text.fit_s": ["lime_text.fit_local_model"],
    "intgrad.word_attributions_s": ["intgrad.word_attributions"],
    "intgrad.path_integrate_s": ["intgrad.path_integrate"],
    "report.render_s": ["report.render_explanation_html", "report.comparison_rows",
                        "report.comparison_csv"],
}


def per_layer_metrics(tracer, traced_units, setups, unit_times, traced_flags, quality):
    c = tracer.counts
    self_t = tracer.self_times()
    total_t = tracer.total_times()
    units = max(traced_units, 1)

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    m = {}
    for key, names in SETUP_LAYERS.items():
        m[key] = (sum(self_t.get(n, 0.0) for n in names) / setups, "s")
    for key, names in UNIT_LAYERS.items():
        m[key] = (sum(self_t.get(n, 0.0) for n in names) / units, "s")
    # Inclusive: time LIME spends waiting on its black-box classifier.
    m["lime_text.classifier_s"] = (total_t.get("lime_text.classifier", 0.0) / units, "s")
    m["tokenizer.encode_calls"] = (c["tokenizer.encode_calls"] / units, "count")
    m["tokenizer.pieces"] = (c["tokenizer.pieces"] / units, "count")
    m["model.forward_calls"] = (c["model.forward_calls"] / units, "count")
    m["model.rows_per_call"] = (ratio("forward.rows", "model.forward_calls"), "rows")
    m["model.real_token_ratio"] = (ratio("forward.real_tokens", "forward.positions"), "ratio")
    m["model.forward_gflop"] = (c["forward.flop"] / units / 1e9, "GFLOP")
    m["model.cache_mb_per_row"] = (ratio("cache.bytes", "forward.rows") / 2**20, "MB")
    m["model.cache_f64_share"] = (ratio("cache.f64_bytes", "cache.bytes"), "ratio")
    m["training.steps"] = (c["training.steps"] / units, "count")
    m["lime_text.unique_sample_ratio"] = (ratio("lime_text.unique_samples", "lime_text.samples"), "ratio")
    for key, unit in (("training.loss", "nats"), ("lime_text.r2", "ratio"),
                      ("intgrad.completeness_gap_rel", "ratio")):
        values = quality.get(key)
        m[key] = (statistics.median(values) if values else 0.0, unit)
    untraced = [t for t, tr in zip(unit_times, traced_flags) if not tr]
    traced = [t for t, tr in zip(unit_times, traced_flags) if tr]
    m["trace.unit_s"] = (statistics.median(traced), "s")
    m["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%"
    )
    return m


# ------------------------------------------------------------------ the run


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def run(args) -> int:
    pl = _import_package()
    inputs = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(inputs)],
        check=True,
    )
    tracer = Tracer()
    wl = WORKLOADS[args.workload](pl, inputs, args.seed)
    unit_times, unit_emails, traced_flags = [], [], []
    failures: dict[str, int] = {}
    failed_units = 0
    try:
        if args.trace:
            tracer.install(pl)
            tracer.enabled = True
        setup_times = []
        while len(setup_times) < SETUP_REPS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
        ):
            tracer.unit = f"setup{len(setup_times)}"
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
        tracer.enabled = False
        if args.trace and args.workload == "explain":
            wl.classifier = tracer.wrap("lime_text.classifier", wl.classifier)
        wl.prepare()

        i = 0
        while i < MIN_UNITS or sum(unit_times) + statistics.median(unit_times) <= args.seconds:
            traced = bool(args.trace) and i % 2 == 1
            state = wl.start_unit(i)
            tracer.unit = f"{wl.unit_name}{i}"
            tracer.enabled = traced
            t0 = perf_counter()
            result, n = wl.unit(state)
            unit_times.append(perf_counter() - t0)
            tracer.enabled = False
            unit_emails.append(n)
            traced_flags.append(traced)
            unit_failures = wl.check(i, state, result)
            for f in unit_failures:
                failures[f] = failures.get(f, 0) + 1
            failed_units += bool(unit_failures)
            i += 1
    finally:
        tracer.uninstall()
        shutil.rmtree(inputs, ignore_errors=True)

    env = environment()
    per_email = [t / n for t, n in zip(unit_times, unit_emails)]
    print(f"workload {args.workload} seed {args.seed}: {len(unit_times)} {wl.unit_name}s, "
          f"{sum(unit_emails)} emails, {sum(unit_times):.2f} s timed")
    print("environment " + json.dumps(env))
    print("unit seconds " + json.dumps([round(t, 4) for t in unit_times]))
    print("check failures " + json.dumps(failures))
    if args.trace:
        metrics_out = per_layer_metrics(
            tracer, sum(traced_flags), len(setup_times), unit_times, traced_flags, wl.quality
        )
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "environment": env})
        wall = sum(t for t, tr in zip(unit_times, traced_flags) if tr)
        units = sum(traced_flags)
        print(f"per-layer metrics, per traced {wl.unit_name} (share of traced wall time):")
        for key, (value, unit) in sorted(metrics_out.items()):
            share = f"  {100.0 * value * units / wall:5.1f}%" if key in UNIT_LAYERS else ""
            print(f"  {key:34s} {value:14.6g} {unit}{share}")
    else:
        metrics_out = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "emails_per_s": (sum(unit_emails) / sum(unit_times), "1/s"),
            "email_s_p50": (statistics.median(per_email), "s"),
        }
        print(f"end-to-end metrics ({len(per_email)} {wl.unit_name}s):")
        for key, (value, unit) in metrics_out.items():
            print(f"  {key:34s} {value:14.6g} {unit}")
        for key, values in wl.quality.items():
            print(f"  {key:34s} {statistics.median(values):14.6g} (median of {len(values)})")
    result = {
        "correct": failed_units == 0,
        "attempted": len(unit_times),
        "failed": failed_units,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
    }
    print(json.dumps(result))
    return 0 if failed_units == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phishlens end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

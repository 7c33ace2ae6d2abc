"""Eval-mode forward and backward run a batch as row shards on threads
(model._in_shards), and backward runs each shard's rows in pieces that fit
a cache budget (model._pieces); these tests hold them to the one-shard,
one-piece pass."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from conftest import make_seq, toy_batch, widen_parameters
from phishlens import model
from phishlens.model import backward, forward, init_parameters
from phishlens.tokenizer import TokenSequence


def _params(toy_config, dtype=np.float64, dropout_rate=0.0):
    cfg = dataclasses.replace(toy_config, num_layers=2, dropout_rate=dropout_rate)
    return widen_parameters(init_parameters(cfg, seed=4, dtype=dtype), seed=5)


def _batch(lengths, max_len=32, seed=0):
    rng = np.random.default_rng(seed)
    return [make_seq([2, *rng.integers(5, 100, n - 1).tolist()], n, max_len) for n in lengths]


RAGGED = [12, 5, 12, 3, 5, 9, 20]
ONE_LONG = [30, 2, 3, 2]


@pytest.mark.parametrize(
    ("lengths", "shards", "bounds"),
    [
        ([5] * 8, 2, [0, 4, 8]),
        (ONE_LONG, 2, [0, 1, 4]),
        (ONE_LONG, 3, [0, 1, 2, 4]),
        ([2, 3, 2, 30], 2, [0, 3, 4]),
        ([1, 1], 2, [0, 1, 2]),
    ],
)
def test_shards_are_contiguous_and_balanced_by_real_tokens(lengths, shards, bounds):
    assert model._shard_bounds(np.array(lengths), shards) == bounds


@pytest.mark.parametrize("lengths", [RAGGED, ONE_LONG], ids=["ragged", "one-long"])
@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize(("dtype", "tol"), [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_sharded_eval_forward_matches_one_shard(toy_config, set_shards, lengths, shards, dtype, tol):
    params, batch = _params(toy_config, dtype), _batch(lengths)
    set_shards(1)
    whole = forward(params, batch)
    set_shards(shards)
    sharded = forward(params, batch)
    assert sharded.probabilities.dtype == dtype and sharded.cache is None
    np.testing.assert_allclose(sharded.logits, whole.logits, rtol=0, atol=tol)
    np.testing.assert_allclose(sharded.probabilities, whole.probabilities, rtol=0, atol=tol)
    np.testing.assert_array_equal(
        sharded.probabilities.argmax(axis=1), whole.probabilities.argmax(axis=1)
    )


@pytest.mark.parametrize("lengths", [RAGGED, ONE_LONG], ids=["ragged", "one-long"])
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_backward_with_dropout_matches_one_shard(toy_config, set_shards, lengths, shards):
    params, batch = _params(toy_config, dropout_rate=0.1), _batch(lengths)
    labels = [i % 2 for i in range(len(batch))]
    set_shards(1)
    out, grads = backward(params, batch, labels, rng=np.random.default_rng(7))
    set_shards(shards)
    sharded_out, sharded_grads = backward(params, batch, labels, rng=np.random.default_rng(7))
    assert sharded_out.cache is None
    np.testing.assert_allclose(sharded_out.logits, out.logits, rtol=0, atol=1e-12)
    assert list(sharded_grads) == list(params.tensors)
    for name, g in grads.items():
        np.testing.assert_allclose(sharded_grads[name], g, rtol=0, atol=1e-12, err_msg=name)


def _pass_rows(monkeypatch) -> list:
    """The rows of every encoder pass run from now on, in the order they start."""
    seen = []
    run_encoder = model._run_encoder

    def recording(params, inputs, *args):
        seen.append(len(inputs))
        return run_encoder(params, inputs, *args)

    monkeypatch.setattr(model, "_run_encoder", recording)
    return seen


@pytest.mark.parametrize("rows_per_piece", [1, 2])
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_backward_in_pieces_matches_one_pass(
    toy_config, set_shards, monkeypatch, rows_per_piece, shards
):
    # a budget of one byte runs every row alone; the cache of the longest
    # row takes the others two at a time
    params, batch = _params(toy_config, dropout_rate=0.1), _batch(RAGGED)
    labels = [i % 2 for i in range(len(batch))]
    set_shards(1)
    seen = _pass_rows(monkeypatch)
    out, grads = backward(params, batch, labels, rng=np.random.default_rng(7))
    assert seen == [len(batch)]
    longest = model._cache_bytes_per_row(params.config, max(RAGGED), np.float64)
    budget = 1 if rows_per_piece == 1 else longest
    monkeypatch.setattr(model, "_PASS_CACHE_BYTES", budget)
    seen.clear()
    set_shards(shards)
    pieced_out, pieced_grads = backward(params, batch, labels, rng=np.random.default_rng(7))
    assert sum(seen) == len(batch) and len(seen) > shards
    assert max(seen) == rows_per_piece
    assert pieced_out.cache is None
    again_out, again_grads = backward(params, batch, labels, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(again_out.logits, pieced_out.logits)
    for name, g in pieced_grads.items():  # the sums run in a fixed order
        np.testing.assert_array_equal(again_grads[name], g, err_msg=name)
    np.testing.assert_allclose(pieced_out.logits, out.logits, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pieced_out.probabilities, out.probabilities, rtol=0, atol=1e-12)
    assert list(pieced_grads) == list(params.tensors)
    for name, g in grads.items():
        np.testing.assert_allclose(pieced_grads[name], g, rtol=0, atol=1e-12, err_msg=name)


def test_sharded_passes_are_deterministic(toy_config, set_shards):
    params, batch = _params(toy_config, dropout_rate=0.1), _batch(RAGGED)
    labels = [i % 2 for i in range(len(batch))]
    set_shards(3)
    np.testing.assert_array_equal(forward(params, batch).logits, forward(params, batch).logits)
    (out_a, grads_a), (out_b, grads_b) = (
        backward(params, batch, labels, rng=np.random.default_rng(3)) for _ in range(2)
    )
    np.testing.assert_array_equal(out_a.logits, out_b.logits)
    for name in grads_a:
        np.testing.assert_array_equal(grads_a[name], grads_b[name], err_msg=name)


def _blas_threads():
    return [get() for get, _ in model._blas_thread_controls()]


@pytest.fixture
def blas_at_two(set_shards):
    """Every BLAS at two threads for the test, so a count left at one shows;
    the counts found are restored afterwards."""
    controls = model._blas_thread_controls()
    saved = _blas_threads()
    for _, set_ in controls:
        set_(2)
    yield [2] * len(controls)
    for (_, set_), n in zip(controls, saved):
        set_(n)


def test_blas_held_at_one_thread_during_shards_and_restored_after(
    toy_config, set_shards, blas_at_two, monkeypatch
):
    params, batch = _params(toy_config), _batch(RAGGED)
    before = blas_at_two
    seen = []
    run_encoder = model._run_encoder

    def recording(*args):
        seen.append(_blas_threads())
        return run_encoder(*args)

    monkeypatch.setattr(model, "_run_encoder", recording)
    set_shards(2)
    forward(params, batch)
    backward(params, batch, [0] * len(batch))
    assert len(seen) == 4
    assert all(threads == [1] * len(before) for threads in seen)
    assert _blas_threads() == before
    assert model._blas_holders == 0


@pytest.mark.parametrize("failing", ["calling thread", "worker"])
def test_blas_restored_after_a_shard_raises(
    toy_config, set_shards, blas_at_two, monkeypatch, failing
):
    params, batch = _params(toy_config), _batch(RAGGED)
    before = blas_at_two
    run_encoder = model._run_encoder
    finished = []

    def failing_run(*args):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing == "worker"):
            raise RuntimeError("shard failed")
        time.sleep(0.05)  # the other shard is slow
        out = run_encoder(*args)
        finished.append(_blas_threads())
        return out

    monkeypatch.setattr(model, "_run_encoder", failing_run)
    set_shards(2)
    for run in (lambda: forward(params, batch), lambda: backward(params, batch, [0] * len(batch))):
        finished.clear()
        with pytest.raises(RuntimeError, match="shard failed"):
            run()
        # the other shard ran to its end, with BLAS still held, before the error surfaced
        assert finished == [[1] * len(before)]
        assert _blas_threads() == before
        assert model._blas_holders == 0


def test_overlapping_sharded_passes_restore_blas_once_all_end(
    toy_config, set_shards, blas_at_two, monkeypatch
):
    # more callers than cores, each running sharded passes; a lost update to
    # the holder count would leave BLAS at one thread, or restore it early
    params, batch = _params(toy_config), _batch(RAGGED)
    set_shards(1)
    expected = forward(params, batch).logits
    set_shards(3)
    before = blas_at_two
    failures = []
    run_encoder = model._run_encoder

    def checking_run(*args):
        threads = _blas_threads()
        out = run_encoder(*args)
        if threads != [1] * len(before):
            failures.append(threads)
        return out

    monkeypatch.setattr(model, "_run_encoder", checking_run)

    def caller():
        for _ in range(20):
            got = forward(params, batch).logits
            if not np.allclose(got, expected, rtol=0, atol=1e-12):
                failures.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert failures == []
    assert model._blas_holders == 0
    assert _blas_threads() == before


def _no_threads(monkeypatch):
    """Make any use of the shard pool or the BLAS setter fail the test."""
    calls = []

    def refuse(workers):
        raise AssertionError("a shard pool was requested")

    monkeypatch.setattr(model, "_pool", refuse)
    monkeypatch.setattr(
        model, "_blas_thread_controls", lambda: ((lambda: 2, calls.append),)
    )
    return calls


def test_one_row_pass_starts_no_thread_and_leaves_blas_alone(toy_config, set_shards, monkeypatch):
    params = _params(toy_config)
    set_shards(3)
    calls = _no_threads(monkeypatch)
    threads = threading.active_count()
    forward(params, _batch([20]))
    backward(params, _batch([20]), [1])
    assert calls == []
    assert threading.active_count() == threads


def test_batch_runs_whole_where_blas_threads_cannot_be_set(toy_config, set_shards, monkeypatch):
    params, batch = _params(toy_config), _batch(RAGGED)
    set_shards(1)
    whole = forward(params, batch)
    set_shards(3)
    _no_threads(monkeypatch)
    monkeypatch.setattr(model, "_blas_thread_controls", lambda: ())
    np.testing.assert_array_equal(forward(params, batch).logits, whole.logits)
    backward(params, batch, [0] * len(batch))


def test_sharded_passes_keep_the_batch_error_messages(toy_params, set_shards):
    set_shards(2)
    with pytest.raises(ValueError, match="1 labels for batch of 2"):
        backward(toy_params, toy_batch(), [1])
    # the bad row is the second shard's, run on a worker thread
    first, second = toy_batch()
    no_cls = TokenSequence(
        input_ids=second.input_ids, attention_mask=(0, *second.attention_mask[1:]),
        tokens=second.tokens,
    )
    with pytest.raises(ValueError, match=r"position 0 \(\[CLS\]\) must be real"):
        forward(toy_params, [first, no_cls])
    with pytest.raises(ValueError, match=r"position 0 \(\[CLS\]\) must be real"):
        backward(toy_params, [first, no_cls], [1, 0])
    empty = make_seq([0] * 8, 0, 8)
    with pytest.raises(ValueError, match="at least one real token"):
        forward(toy_params, [first, empty])
    with pytest.raises(ValueError, match="at least one real token"):
        backward(toy_params, [first, empty], [1, 0])

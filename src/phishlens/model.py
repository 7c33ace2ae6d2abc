"""Transformer encoder classifier: forward pass, exact reverse-mode gradients,
and binary checkpoint I/O.

Everything is plain numpy. Shapes: (B, T, D) batch/sequence/hidden, (N, D)
for the N real positions of a batch packed one after another (see _Packing;
all position-wise work runs there), and (G, h, L, d) per attention head for
the G sequences of one real length L: attention runs within each sequence's
own real positions, so it needs no key mask. The head reads only the [CLS]
row of each sequence, so the last layer computes only those B rows: keys
and values still cover all N rows, but queries, attention ((G, h, 1, L)
probabilities), the output projection, the layer norms and the feed-forward
run on the B [CLS] rows, and the result is the head's input. Passes from
token ids embed the real positions alone. A pass that keeps no cache drops
each array once its next step has read it: forward, eval mode only, keeps
none, backward consumes its own, and only forward_from_embeddings hands one
out. forward and backward run a batch as contiguous row shards, one
per CPU the process may use (`taskset -c 0` gives the one-shard pass); see
_in_shards. During a sharded pass BLAS runs single-threaded, so BLAS calls
made meanwhile by other threads of the process run single-threaded too, and
a training step holds one extra gradient set per extra shard. Each shard
runs its rows in pieces (_pieces) whose caches fit _PASS_CACHE_BYTES, as
counted by _cache_bytes_per_row (an eval pass's as the dropout-free cache
its rows would keep), so neither pass's memory grows with the batch.
Default dtype is float64 so finite-difference gradient checks are
meaningful; a float32 model computes in float32 (scalar constants are
Python floats, which never promote an array). float32 GELU takes its erf
from a rational approximation (|error| < 5e-7, see gelu_phi); float64 GELU
uses scipy's erf.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import json
import math
import numbers
import os
import struct
import threading
from concurrent import futures
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .tokenizer import TokenSequence

MAGIC = b"PHL1"
CHECKPOINT_DTYPES = ("<f4", "<f8")
RECORD_KEY = "record"  # header key of the caller's record, stored verbatim
LN_EPS = 1e-12


class ConfigError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


class StaleCacheError(ValueError):
    pass


INT_LIMIT = 2**31  # a size or count this large is a mistake: its arrays cannot exist


def check_fields(
    config, ints: dict[str, int], reals: dict[str, tuple], seeds: tuple[str, ...] = ()
) -> None:
    """The numeric check of every settings dataclass: each field of `ints` is
    an integer of at least `ints[name]` and, unless named in `seeds`, below
    INT_LIMIT; each of `reals`, `name: (rule, test)`, a real number passing
    `test` (a comparison, which nan fails), and neither is a bool (numpy's
    too). A value not yet a Python int (float) is stored back as one, so
    configs serialize to JSON; one that is costs no store (eval forward
    replaces dropout_rate per call). Raises ConfigError."""
    for name, low in ints.items():
        value = getattr(config, name)
        if type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            value = int(value)
            object.__setattr__(config, name, value)
        if value < low:
            raise ConfigError(f"{name} must be at least {low}, got {value!r}")
        if value >= INT_LIMIT and name not in seeds:
            raise ConfigError(f"{name} must be below {INT_LIMIT}, got {value!r}")
    for name, (rule, test) in reals.items():
        value = getattr(config, name)
        if type(value) is not float:
            # numpy's bool is no numbers.Real, so only Python's needs naming
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:  # an int past float's range breaks every rule
                raise ConfigError(f"{name} must {rule}, got {value!r}") from None
            object.__setattr__(config, name, value)
        if not test(value):
            raise ConfigError(f"{name} must {rule}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    max_positions: int
    hidden_dim: int
    num_heads: int
    num_layers: int
    ffn_dim: int
    num_classes: int = 2
    dropout_rate: float = 0.1

    def __post_init__(self):
        check_fields(self, {
            "vocab_size": 1, "max_positions": 1, "hidden_dim": 1, "num_heads": 1,
            "num_layers": 1, "ffn_dim": 1, "num_classes": 1,
        }, {"dropout_rate": ("lie in [0, 1)", lambda rate: 0.0 <= rate < 1.0)})
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    @classmethod
    def paper_scale(cls, vocab_size: int = 30522) -> "ModelConfig":
        # 6 layers x 12 heads x 768 wide, 512 positions: ~66M parameters.
        return cls(
            vocab_size=vocab_size,
            max_positions=512,
            hidden_dim=768,
            num_heads=12,
            num_layers=6,
            ffn_dim=3072,
        )

    @classmethod
    def toy(cls, vocab_size: int = 120) -> "ModelConfig":
        return cls(
            vocab_size=vocab_size,
            max_positions=32,
            hidden_dim=16,
            num_heads=2,
            num_layers=1,
            ffn_dim=32,
            dropout_rate=0.0,
        )


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape table; the checkpoint format serializes in this order."""
    d, f, c = config.hidden_dim, config.ffn_dim, config.num_classes
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (config.vocab_size, d),
        "position_embedding": (config.max_positions, d),
    }
    for i in range(config.num_layers):
        p = f"layer{i}."
        shapes[p + "attn_q.weight"] = (d, d)
        shapes[p + "attn_q.bias"] = (d,)
        shapes[p + "attn_k.weight"] = (d, d)
        shapes[p + "attn_k.bias"] = (d,)
        shapes[p + "attn_v.weight"] = (d, d)
        shapes[p + "attn_v.bias"] = (d,)
        shapes[p + "attn_out.weight"] = (d, d)
        shapes[p + "attn_out.bias"] = (d,)
        shapes[p + "attn_norm.scale"] = (d,)
        shapes[p + "attn_norm.shift"] = (d,)
        shapes[p + "ffn_in.weight"] = (d, f)
        shapes[p + "ffn_in.bias"] = (f,)
        shapes[p + "ffn_out.weight"] = (f, d)
        shapes[p + "ffn_out.bias"] = (d,)
        shapes[p + "ffn_norm.scale"] = (d,)
        shapes[p + "ffn_norm.shift"] = (d,)
    shapes["prehead.weight"] = (d, d)
    shapes["prehead.bias"] = (d,)
    shapes["classifier.weight"] = (d, c)
    shapes["classifier.bias"] = (c,)
    return shapes


def parameter_count(config: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in parameter_shapes(config).values())


@dataclass
class ModelParameters:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.config, {k: v.copy() for k, v in self.tensors.items()})


GradientSet = dict[str, np.ndarray]


# Elements per block of the weight draws: a float64 block of 64K (512 KiB)
# stays in cache, and no draw stages a whole tensor in float64.
_DRAW_BLOCK = 1 << 16


def _truncated_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    """rng.normal(0, std, shape) with everything beyond two standard
    deviations redrawn (BERT-style init), cast to dtype.

    Draws go block by block (_DRAW_BLOCK) into a float64 scratch block, are
    checked against the bound there, before the cast, and are then written
    straight into the dtype array. Each redraw round draws for the indices
    still out of range, in ascending order, so the values, their order in
    the stream and the rng's final state are those of redrawing out[bad]
    over the whole float64 tensor until no element is out of range."""
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    block = np.empty(min(flat.size, _DRAW_BLOCK))
    limit = 2.0 * std

    def draw(n: int) -> np.ndarray:
        z = block[:n]
        rng.standard_normal(out=z)
        z *= std
        z += 0.0  # rng.normal adds its loc 0.0, which turns a -0.0 into 0.0
        return z

    redraw = []
    for start in range(0, flat.size, _DRAW_BLOCK):
        z = draw(min(_DRAW_BLOCK, flat.size - start))
        flat[start : start + z.size] = z
        redraw.append(start + np.flatnonzero(np.abs(z) > limit))
    todo = np.concatenate(redraw)
    while todo.size:
        redraw = []
        for start in range(0, todo.size, _DRAW_BLOCK):
            at = todo[start : start + _DRAW_BLOCK]
            z = draw(at.size)
            flat[at] = z
            redraw.append(at[np.abs(z) > limit])
        todo = np.concatenate(redraw)
    return out


def init_parameters(config: ModelConfig, seed: int, dtype=np.float64) -> ModelParameters:
    """Truncated-normal weights (std 0.02), zero biases, unit layer-norm scales.

    Every weight is drawn by _truncated_normal, in parameter_shapes order,
    from one np.random.default_rng(seed): block by block, each value checked
    in float64 before its cast to dtype, so no weight is ever held in
    float64 whole and the stream is that of whole-tensor draws. dtype must
    be float32 or float64, the two a checkpoint holds; a bool seed is
    refused rather than taken as 0 or 1."""
    if isinstance(seed, (bool, np.bool_)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if np.dtype(dtype).str not in CHECKPOINT_DTYPES:
        raise ValueError(f"dtype must be float32 or float64, got {np.dtype(dtype)}")
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".scale"):
            tensors[name] = np.ones(shape, dtype=dtype)
        elif name.endswith((".bias", ".shift")):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = _truncated_normal(rng, shape, 0.02, dtype)
    return ModelParameters(config=config, tensors=tensors)


# ---------------------------------------------------------------- primitives


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in a new array."""
    return _softmax_in_place(z.copy())


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in z's own buffer."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


# Eigen's float32 erf: erf(u) = u P(u^2) / Q(u^2) on [-4, 4], beyond which
# float32 erf is +-1. Coefficients lowest degree first.
_ERF_P = (
    -1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04,
    -5.69250639462346e-05, -2.10102402082508e-06, 2.77068142495902e-08,
    -2.72614225801306e-10,
)
_ERF_Q = (
    -1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03,
    -2.13374055278905e-04, -1.45660718464996e-05,
)
# Elements per block of the float32 erf: its ~27 in-place passes over a 64K
# block stay in cache. On a (4260, 1024) array, 4K blocks pay per-call
# overhead (2.4x slower) and 256K blocks spill (1.2x slower).
_ERF_BLOCK = 1 << 16


def _horner(w: np.ndarray, coefficients: Sequence[float], out: np.ndarray) -> np.ndarray:
    """out = sum_k coefficients[k] * w**k, evaluated in place."""
    np.multiply(w, coefficients[-1], out=out)
    out += coefficients[-2]
    for c in coefficients[-3::-1]:
        out *= w
        out += c
    return out


def gelu_phi(x: np.ndarray) -> np.ndarray:
    """1 + erf(x / sqrt 2), twice the normal CDF: the one erf that gelu and
    gelu_grad share, so a training step computes it once.

    float32 evaluates Eigen's rational erf block by block and clamps the
    result to [0, 2], so gelu keeps the sign of x: |error| < 5e-7 on a dense
    sweep of [-12, 12] (5.04e-7 at worst over every float32). Other dtypes,
    float64 among them, use scipy's erf."""
    if x.dtype != np.float32:
        t = np.divide(x, math.sqrt(2.0))
        erf(t, out=t)
        t += 1.0
        return t
    phi = np.empty(x.shape, np.float32)
    flat_x, flat_phi = np.ascontiguousarray(x).reshape(-1), phi.reshape(-1)
    scratch = [np.empty(min(flat_x.size, _ERF_BLOCK), np.float32) for _ in range(3)]
    for start in range(0, flat_x.size, _ERF_BLOCK):
        u = flat_phi[start : start + _ERF_BLOCK]
        u2, num, den = (b[: u.size] for b in scratch)
        np.multiply(flat_x[start : start + u.size], math.sqrt(0.5), out=u)
        np.clip(u, -4.0, 4.0, out=u)
        np.multiply(u, u, out=u2)
        _horner(u2, _ERF_P, num)
        num *= u
        num /= _horner(u2, _ERF_Q, den)
        np.add(num, 1.0, out=u)
        np.clip(u, 0.0, 2.0, out=u)
    return phi


def gelu(x: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    # 0.5 * x * (1 + erf(x / sqrt 2)) in one buffer, from `phi` = gelu_phi(x)
    # if the caller keeps it; the halving is exact, so the order of the
    # products does not change a bit
    if phi is None:
        t = gelu_phi(x)
        t *= x
    else:
        t = phi * x
    t *= 0.5
    return t


def gelu_grad(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d gelu / dx = phi / 2 + x * pdf(x), from x and its gelu_phi(x) term,
    in one buffer plus the halved phi."""
    t = x * -0.5
    t *= x
    np.exp(t, out=t)
    t /= math.sqrt(2.0 * math.pi)
    t *= x
    t += phi * 0.5
    return t


def _layer_norm(x, scale, shift):
    """(y, (xhat, sigma)) over the last axis; xhat is computed in x's own
    buffer, so x is overwritten."""
    xhat = x
    xhat -= x.mean(axis=-1, keepdims=True)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + LN_EPS)
    xhat /= sigma
    y = xhat * scale
    y += shift
    return y, (xhat, sigma)


def _layer_norm_backward(dy, cache, scale):
    xhat, sigma = cache
    ghat = dy * scale
    m1 = ghat.mean(axis=-1, keepdims=True)
    m2 = (ghat * xhat).mean(axis=-1, keepdims=True)
    dx = (ghat - m1 - xhat * m2) / sigma
    axes = tuple(range(dy.ndim - 1))
    return dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


class _Packing:
    """Where the real positions of a (B, T) mask sit among the rows of a
    packed (N, ...) matrix: position (b, t) is flat index b*T + t, and the
    real ones follow each other in that order, so each sequence's real
    positions are consecutive rows.

    `index` holds those flat indices, or is None when every position is
    real; gather and scatter are then plain reshapes. `size` is the number
    of packed rows, and `cls_rows` the packed row of each sequence's [CLS].

    `groups` lists, for each distinct real length L, (L, rows): the packed
    rows of the G sequences of that length, sequence after sequence, so
    that m[rows] reshapes to (G, L, ...). When every sequence has the same
    length there is one group and rows is None: the packed matrix itself.
    """

    def __init__(self, mask: np.ndarray):
        real = mask != 0.0
        if not real[:, 0].all():
            raise ValueError("position 0 ([CLS]) must be real in every row")
        self.shape = mask.shape
        flat = real.reshape(-1)
        self.index = None if flat.all() else np.flatnonzero(flat)
        self.size = flat.size if self.index is None else self.index.size
        lengths = real.sum(axis=1)
        self.cls_rows = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        distinct = np.unique(lengths)
        if len(distinct) == 1:
            self.groups = [(int(distinct[0]), None)]
        else:
            self.groups = [
                (int(n), (self.cls_rows[lengths == n, None] + np.arange(n)).reshape(-1))
                for n in distinct
            ]

    def gather(self, a: np.ndarray) -> np.ndarray:
        """(B, T, ...) -> (N, ...): the real positions only."""
        flat = a.reshape(-1, *a.shape[2:])
        return flat if self.index is None else flat[self.index]

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """(N, ...) -> (B, T, ...), with zeros at padding."""
        if self.index is None:
            return rows.reshape(*self.shape, *rows.shape[1:])
        out = np.zeros((self.shape[0] * self.shape[1], *rows.shape[1:]), dtype=rows.dtype)
        out[self.index] = rows
        return out.reshape(*self.shape, *rows.shape[1:])


def _dropout_masks(cfg: ModelConfig, shape: tuple[int, int], rng) -> list[np.ndarray] | None:
    """The keep masks of a train-mode pass over a (B, T) batch: one boolean
    (B, T, D) array per dropout site, in the order the pass reaches them
    (the embeddings, then each layer's attention output and feed-forward
    output); None when the pass drops nothing. Drawn over the whole batch,
    so the rng stream and the mask at each real position do not depend on
    where the padding is, on which rows a layer computes, or on how the
    batch is sharded."""
    if cfg.dropout_rate == 0.0:
        return None
    if rng is None:
        raise ValueError("a train-mode pass with dropout needs an rng")
    return [
        rng.random((*shape, cfg.hidden_dim)) >= cfg.dropout_rate
        for _ in range(1 + 2 * cfg.num_layers)
    ]


def _dropout_keep(dtype, rate, drawn, packing: _Packing, queries=None) -> np.ndarray:
    """The factor, 0 or 1 / (1 - rate), by which dropout scales the packed
    rows, or the packed rows `queries` only, under the (B, T, n) keep mask
    `drawn`."""
    kept = packing.gather(drawn)
    if queries is not None:
        kept = kept[queries]
    return kept.astype(dtype) / (1.0 - rate)


# ------------------------------------------------------------------ shards

# The (get, set) thread-count exports of one OpenBLAS build, under the names
# that builds use: scipy-openblas wheels prefix "scipy_", ILP64 builds add
# the "64_" suffix.
_BLAS_THREAD_EXPORTS = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]
# Real tokens a shard needs to pay for its thread: below this a pass is too
# short for its numpy calls to release the GIL for long, so two shards take
# turns rather than run together. Measured on 2 cores, one shard against
# two, B=2 rows of L real tokens each: small model (d=128, float64) 1.8
# against 3.2 ms at L=16, level at L=64; desk model (d=256, float32) 15.2
# against 18.0 ms at L=64, level at B=4.
_MIN_SHARD_TOKENS = 128
_blas_lock = threading.Lock()
_blas_holders = 0  # sharded passes running now; the first saves, the last restores
_blas_saved: list[int] = []


def _cpus() -> int:
    """CPUs this process may run on: the most shards a batch is split into."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into the
    process, found by file name in /proc/self/maps; () where there is none
    or its thread count cannot be set."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {
                parts[5].strip() for parts in (line.split(None, 5) for line in fh)
                if len(parts) == 6 and "openblas" in os.path.basename(parts[5].strip())
            }
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_EXPORTS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _single_threaded_blas():
    """Hold every BLAS at one thread; the thread counts found on entry by
    the first of any overlapping holders are restored by the last."""
    global _blas_holders
    controls = _blas_thread_controls()
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved[:] = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for (_, set_), n in zip(controls, _blas_saved):
                    set_(n)


@functools.cache
def _pool(workers: int) -> futures.ThreadPoolExecutor:
    return futures.ThreadPoolExecutor(workers, thread_name_prefix="phishlens-shard")


def _shard_bounds(lengths: np.ndarray, shards: int) -> list[int]:
    """Row bounds [0, ..., B] of `shards` contiguous shards of at least one
    row each, every cut placed where the real tokens before it come nearest
    to its share of the batch's."""
    cum = np.cumsum(lengths)
    rows = len(lengths)
    bounds = [0]
    for k in range(1, shards):
        target = cum[-1] * k / shards
        cut = int(np.searchsorted(cum, target)) + 1  # the fewest rows that reach target
        if cut > 1 and target - cum[cut - 2] < cum[cut - 1] - target:
            cut -= 1
        bounds.append(min(max(cut, bounds[-1] + 1), rows - shards + k))
    bounds.append(rows)
    return bounds


def _in_shards(mask: np.ndarray, config: ModelConfig, dtype, run: Callable[[list], object]):
    """run(pieces) for each contiguous row shard of the (B, T) batch `mask`,
    results in shard order, `pieces` being the shard's rows cut by _pieces
    under the cache that a pass of `config` in `dtype` keeps per row. The
    batch splits into one shard per CPU, at most one per row and one per
    _MIN_SHARD_TOKENS real tokens, balanced by real tokens. Shard 0 runs on
    the calling thread and the others on a pool of CPUs - 1 threads, while
    BLAS is held at one thread, so each shard runs whole on its own core.
    With one CPU, one row, a short batch, or a BLAS whose thread count
    cannot be set, the batch is one shard, run on the calling thread.

    `run` may call only private functions: perfbench's tracer wraps the
    public ones, and its span stack is not thread-safe."""
    rows, cpus = len(mask), _cpus()
    lengths = (mask != 0.0).sum(axis=1)
    row_bytes = _cache_bytes_per_row(config, lengths, dtype)
    shards = min(cpus, rows, int(lengths.sum()) // _MIN_SHARD_TOKENS)
    if shards < 2 or not _blas_thread_controls():
        return [run(_pieces(row_bytes, slice(0, rows)))]
    bounds = _shard_bounds(lengths, shards)
    pieces = [_pieces(row_bytes, slice(a, b)) for a, b in itertools.pairwise(bounds)]
    with _single_threaded_blas():
        pending = [_pool(cpus - 1).submit(run, p) for p in pieces[1:]]
        try:
            first = run(pieces[0])
        finally:
            futures.wait(pending)
    return [first, *(f.result() for f in pending)]


# Cache bytes, as counted by _cache_bytes_per_row, that the rows of one
# pass may keep: each shard of eval forward and of backward runs its rows
# in pieces that fit it (_pieces), so a sharded pass holds at most _cpus()
# budgets, and IG sends _rows_per_pass path steps through each pass. An
# eval pass keeps no cache; its rows are costed as the dropout-free cache
# they would keep, and from 64 real tokens up a one-row eval pass peaks at
# 0.26-1.6 times that count. IG on the small float64 model (d=128, 2
# layers) takes 96 rows per pass at 8 real tokens and 12 at 64; training
# the desk model (d=256, 4 layers, float32, dropout) takes one row of 128
# tokens (8.0 MiB) or two shorter ones, and its eval pass runs every row of
# 260 tokens or more alone; a 512-token row of the paper's model (185 MiB
# in IG, 201 MiB in training, float32) runs alone. Half this budget, which
# runs nearly every desk-model row alone, made the train benchmark's 16-row
# backward 0.49 s against 0.40 s on 2 vCPUs.
_PASS_CACHE_BYTES = 16 << 20


def _pieces(row_bytes: np.ndarray, rows: slice) -> list[slice]:
    """The rows `rows` cut into contiguous pieces, in order, each taking as
    many rows as fit their summed `row_bytes` (one entry per row of the
    batch) in _PASS_CACHE_BYTES; a row over it runs alone."""
    bounds, held = [rows.start], 0
    for row, size in enumerate(row_bytes[rows].tolist(), rows.start):
        if held + size > _PASS_CACHE_BYTES and row > bounds[-1]:
            bounds.append(row)
            held = 0
        held += size
    bounds.append(rows.stop)
    return [slice(a, b) for a, b in itertools.pairwise(bounds)]


def _rows_per_pass(config: ModelConfig, length: int, dtype) -> int:
    """How many rows of `length` real positions one forward_from_embeddings
    pass takes under _PASS_CACHE_BYTES, at least one: the path steps per
    pass of integrated gradients. That pass drops nothing, so its cache is
    that of `config` with dropout_rate 0."""
    row_bytes = _cache_bytes_per_row(replace(config, dropout_rate=0.0), length, dtype)
    return max(1, _PASS_CACHE_BYTES // row_bytes)


# ------------------------------------------------------------------ forward


@dataclass
class ForwardOutput:
    logits: np.ndarray
    probabilities: np.ndarray
    # backward cache: kept by forward_from_embeddings() alone
    cache: dict | None = field(default=None, repr=False)


def batch_arrays(batch: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Ids and mask of a batch, without the trailing columns that are padding
    in every row: the encoder runs at the longest real length, and since
    padded positions never enter attention the logits cannot depend on them.
    An empty batch, or sequences whose ids and masks differ in width, raise
    ValueError."""
    if not batch:
        raise ValueError("a batch needs at least one sequence")
    widths = {len(seq.input_ids) for seq in batch} | {len(seq.attention_mask) for seq in batch}
    if len(widths) > 1:
        raise ValueError(
            f"every sequence of a batch needs the same width, got ids and masks of "
            f"widths {sorted(widths)}; encode them with one max_len"
        )
    ids = np.array([seq.input_ids for seq in batch], dtype=np.int64)
    mask = np.array([seq.attention_mask for seq in batch], dtype=np.float64)
    real = mask != 0.0
    if not real.any(axis=1).all():
        raise ValueError("every sequence needs at least one real token")
    width = int(np.flatnonzero(real.any(axis=0))[-1]) + 1
    return ids[:, :width], mask[:, :width]


def embed(params: ModelParameters, ids: np.ndarray) -> np.ndarray:
    """Token + learned position embeddings, shape (B, T, D)."""
    t = ids.shape[1]
    if t > params.config.max_positions:
        raise ValueError(
            f"sequence length {t} exceeds max_positions {params.config.max_positions}"
        )
    return params.tensors["token_embedding"][ids] + params.tensors["position_embedding"][:t]


def forward(
    params: ModelParameters, batch: Sequence[TokenSequence], train_mode: bool = False
) -> ForwardOutput:
    """Eval-mode logits and probabilities for a batch of token sequences,
    run at the batch's longest real length (see batch_arrays); train_mode
    True raises ValueError, as backward() runs the train-mode pass.

    The output has `.cache` None, and the pass drops each array once its
    next step has read it. It runs in row shards (_in_shards), and each
    shard runs its rows one piece after another, each piece's rows keeping
    at most _PASS_CACHE_BYTES of the dropout-free cache a pass from the
    embeddings would keep (_cache_bytes_per_row), so its memory does not
    grow with the batch.
    """
    if train_mode:
        raise ValueError("forward() runs in eval mode only; backward() runs the train-mode pass")
    ids, mask = batch_arrays(batch)
    outs = _in_shards(
        mask, replace(params.config, dropout_rate=0.0), params.tensors["token_embedding"].dtype,
        lambda pieces: [_run_encoder(params, ids[p], mask[p], None, None) for p in pieces],
    )
    return _joined([out for shard in outs for out in shard])


def _joined(outs: list[ForwardOutput]) -> ForwardOutput:
    """The cache-free output of a batch from those of its pieces."""
    if len(outs) == 1:
        return outs[0]
    return ForwardOutput(
        logits=np.concatenate([o.logits for o in outs]),
        probabilities=np.concatenate([o.probabilities for o in outs]),
    )


def forward_from_embeddings(
    params: ModelParameters, embeddings: np.ndarray, mask: np.ndarray
) -> ForwardOutput:
    """Run the encoder stack and classification head from given embeddings,
    without dropout.

    Exposed separately so attribution code can walk the embedding path; the
    output always keeps the cache that grad_wrt_embeddings() reads.
    """
    return _run_encoder(params, embeddings, mask, None, cache={})


def _cache_bytes_per_row(config: ModelConfig, length, dtype):
    """Bytes of the arrays that the cache of a pass of `config` keeps per
    row of `length` real positions (an int, or an array of one per row), in
    `dtype`: the layers' activations, the head's, the mask and, as the
    first layer's input, the embeddings; with dropout_rate > 0, as in a
    train-mode pass, also the dropout factors. forward_from_embeddings
    drops nothing, so its cache is that of the config with dropout_rate 0.
    Exact for a batch without padding; a padded row also keeps the mask at
    its padding. (The _Packing's few int64 per row are not counted.)"""
    d, f, h, n = config.hidden_dim, config.ffn_dim, config.num_heads, length
    layers = config.num_layers
    elements = n + 3 * d  # mask; head: [CLS] vector, pre-ReLU, post-ReLU
    # all n rows: input, Q, K, V, merged heads, h1, two normalized inputs,
    # FFN input and GELU term, two norm sigmas, probabilities
    per_layer = n * (8 * d + 2 * f + 2 + h * n)
    # the last layer: input, K, V over n rows; the rest at [CLS] alone
    last = 3 * d * n + 5 * d + 2 * f + 2 + h * n
    elements += (layers - 1) * per_layer + last
    if config.dropout_rate > 0.0:
        # the embeddings' factor; the attention and feed-forward factors
        # over all n rows of each layer but the last, and at its [CLS]
        elements += d * n + 2 * d * ((layers - 1) * n + 1)
    return elements * np.dtype(dtype).itemsize


def _run_encoder(params, inputs, mask, keeps, cache: dict | None) -> ForwardOutput:
    """Encoder stack and head over `inputs`: (B, T) token ids, of which only
    the real positions are embedded, or (B, T, D) embeddings. Dropout iff
    `keeps` holds the masks of _dropout_masks; fills `cache` for
    _backward_core unless it is None."""
    cfg = params.config
    p = params.tensors
    t = inputs.shape[1]
    if t > cfg.max_positions:
        raise ValueError(f"sequence length {t} exceeds max_positions {cfg.max_positions}")
    from_ids = inputs.ndim == 2
    mask = np.asarray(mask, dtype=p["token_embedding"].dtype if from_ids else inputs.dtype)
    packing = _Packing(mask)
    layers = None if cache is None else []

    if from_ids:  # the same sums as embed(), at the real positions alone
        positions = np.broadcast_to(np.arange(t), inputs.shape)
        x = p["token_embedding"][packing.gather(inputs)]
        x += p["position_embedding"][packing.gather(positions)]
    else:
        x = packing.gather(inputs)
    if keeps is not None:
        embed_keep = _dropout_keep(x.dtype, cfg.dropout_rate, keeps[0], packing)
        x = x * embed_keep
    for i in range(cfg.num_layers):
        queries = _query_rows(packing, i, cfg.num_layers)
        drawn = None if keeps is None else keeps[1 + 2 * i : 3 + 2 * i]
        x = _encoder_layer(p, f"layer{i}.", x, packing, queries, cfg, drawn, layers)

    cls_vec = x[packing.cls_rows] if queries is None else x
    pre_lin = _linear(cls_vec, p, "prehead")
    pre_act = np.maximum(pre_lin, 0.0)
    logits = _linear(pre_act, p, "classifier")
    probs_out = softmax(logits)

    if cache is not None:
        cache.update(
            mask=mask, packing=packing, layers=layers,
            cls_vec=cls_vec, pre_lin=pre_lin, pre_act=pre_act,
        )
        if keeps is not None:
            cache["embed_keep"] = embed_keep
    return ForwardOutput(logits=logits, probabilities=probs_out, cache=cache)


def _query_rows(packing: _Packing, layer: int, num_layers: int):
    """The packed rows whose outputs a layer computes, None for all of them.
    The head reads only the [CLS] rows of the last layer, so that layer
    computes those alone (its keys and values still cover every row)."""
    return packing.cls_rows if layer == num_layers - 1 else None


def _linear(x, p, name: str) -> np.ndarray:
    """x @ weight + bias of the parameters `name`, the bias added in place."""
    y = x @ p[name + ".weight"]
    y += p[name + ".bias"]
    return y


def _heads(m, rows, n: int, h: int) -> np.ndarray:
    """The (·, D) rows `rows` of G sequences -> (G, h, n, D/h)."""
    m = m[rows]
    return m.reshape(-1, n, h, m.shape[1] // h).transpose(0, 2, 1, 3)


def _unheads(m, rows, out: np.ndarray) -> None:
    """Write (G, h, n, D/h) into the rows `rows` of the C-ordered `out`; a
    slice of rows is written through a reshape, with no copy."""
    g, h, n, hd = m.shape
    if isinstance(rows, slice):
        out[rows].reshape(g, n, h, hd)[...] = m.transpose(0, 2, 1, 3)
    else:
        out[rows] = m.transpose(0, 2, 1, 3).reshape(g * n, h * hd)


def _query_groups(packing: _Packing, queries):
    """Per length group, (n, rows, m, q_rows): its sequences of n positions,
    their packed rows, sequence after sequence, and where their m query
    positions per sequence sit among the query rows. rows is the index of
    packing.groups, or a slice of every packed row for the single group of
    a batch whose sequences are all equally long. Without `queries` every
    position queries (m = n, q_rows = rows); with them (the [CLS] rows, in
    packed order) only each sequence's first (m = 1), and q_rows index
    `queries`."""
    for n, rows in packing.groups:
        whole = rows is None
        if whole:
            rows = slice(0, packing.size)
        if queries is None:
            yield n, rows, n, rows
        elif whole:
            yield n, rows, 1, slice(0, packing.size // n)
        else:
            yield n, rows, 1, np.searchsorted(queries, rows[::n])


def _attention(q, k, v, packing: _Packing, queries, h: int, probs_cache: list | None):
    """Scaled dot-product attention of each sequence over its own real
    positions, one length group at a time. k and v hold every packed row;
    q holds the rows `queries` (None: every row), and so does the merged
    context returned (zero on rows outside every group). The probabilities
    of each group, (G, h, m, n) for m query positions per sequence, are
    appended to `probs_cache` unless it is None."""
    merged = np.zeros(q.shape, dtype=q.dtype)  # C order: _unheads writes through a reshape
    root_d = math.sqrt(q.shape[1] // h)
    for n, rows, m, q_rows in _query_groups(packing, queries):
        scores = _heads(q, q_rows, m, h) @ _heads(k, rows, n, h).transpose(0, 1, 3, 2)
        scores /= root_d
        probs = _softmax_in_place(scores)
        _unheads(probs @ _heads(v, rows, n, h), q_rows, merged)
        if probs_cache is not None:
            probs_cache.append(probs)
    return merged


def _attention_backward(d_merged, q, k, v, packing: _Packing, queries, h: int, probs_cache):
    """Gradients of _attention's output with respect to its q, k and v."""
    dq, dk, dv = (np.zeros(m.shape, dtype=m.dtype) for m in (q, k, v))
    scale = 1.0 / math.sqrt(q.shape[1] // h)
    groups = _query_groups(packing, queries)
    for (n, rows, m, q_rows), probs in zip(groups, probs_cache, strict=True):
        d_ctx = _heads(d_merged, q_rows, m, h)
        qh = _heads(q, q_rows, m, h)
        kh, vh = (_heads(a, rows, n, h) for a in (k, v))
        _unheads(probs.transpose(0, 1, 3, 2) @ d_ctx, rows, dv)
        d_probs = d_ctx @ vh.transpose(0, 1, 3, 2)
        rowdot = (d_probs * probs).sum(axis=-1, keepdims=True)
        d_scores = (d_probs - rowdot) * probs
        _unheads(d_scores @ kh * scale, q_rows, dq)
        _unheads(d_scores.transpose(0, 1, 3, 2) @ qh * scale, rows, dk)
    return dq, dk, dv


def _encoder_layer(p, pre, x, packing, queries, cfg, drawn, layers: list | None) -> np.ndarray:
    """One post-layer-norm block: keys and values over the packed (N, D)
    rows x, everything else over the rows `queries` of x (None: all), whose
    outputs it returns. Dropout iff `drawn` holds the (B, T, D) keep masks of
    the attention and feed-forward outputs; the layer's backward cache is
    appended to `layers` unless it is None. Without a cache, Q, K and V are
    dropped once attention has read them, the merged heads once projected
    and the attention output once added to its residual. The key bias is
    not added: it shifts each query's scores by one constant, which softmax
    ignores, so it has no effect on any output."""
    lc: dict = {"x_in": x}
    xq = x if queries is None else x[queries]
    q = _linear(xq, p, pre + "attn_q")
    k = x @ p[pre + "attn_k.weight"]
    v = _linear(x, p, pre + "attn_v")

    probs = None if layers is None else []
    merged = _attention(q, k, v, packing, queries, cfg.num_heads, probs)
    if layers is not None:
        lc.update(q=q, k=k, v=v, probs=probs, merged=merged)
    del q, k, v
    attn = _linear(merged, p, pre + "attn_out")
    del merged
    if drawn is not None:
        lc["attn_keep"] = _dropout_keep(attn.dtype, cfg.dropout_rate, drawn[0], packing, queries)
        attn *= lc["attn_keep"]
    attn += xq
    h1, ln1_cache = _layer_norm(attn, p[pre + "attn_norm.scale"], p[pre + "attn_norm.shift"])
    if layers is not None:
        lc.update(h1=h1, ln1=ln1_cache)
    del attn, ln1_cache  # ln1_cache holds attn's buffer

    ffn_keep = None
    if drawn is not None:
        ffn_keep = lc["ffn_keep"] = _dropout_keep(
            h1.dtype, cfg.dropout_rate, drawn[1], packing, queries
        )
    ffn_sum = _feed_forward(p, pre, h1, ffn_keep, None if layers is None else lc)
    h2, ln2_cache = _layer_norm(ffn_sum, p[pre + "ffn_norm.scale"], p[pre + "ffn_norm.shift"])

    if layers is not None:
        lc["ln2"] = ln2_cache
        layers.append(lc)
    return h2


def _feed_forward(p, pre, h1, keep, lc: dict | None) -> np.ndarray:
    """h1 plus the feed-forward output, scaled by the dropout factor `keep`
    (None: no dropout), in a new array. With a cache (lc) it stores its
    input and GELU term there; without one each is dropped once read."""
    ffn_pre = _linear(h1, p, pre + "ffn_in")
    if lc is None:
        act = gelu(ffn_pre)
    else:  # kept for the backward
        lc["ffn_pre"], lc["ffn_phi"] = ffn_pre, gelu_phi(ffn_pre)
        act = gelu(ffn_pre, lc["ffn_phi"])
    del ffn_pre
    y = act @ p[pre + "ffn_out.weight"]
    del act
    y += p[pre + "ffn_out.bias"]
    if keep is not None:
        y *= keep
    y += h1
    return y


def _label_array(labels: Sequence[int], rows: int, classes: int) -> np.ndarray:
    if len(labels) != rows:
        raise ValueError(f"{len(labels)} labels for batch of {rows}")
    # int64 conversion would truncate 0.7 to 0 and take True as 1
    if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in labels):
        raise ValueError(f"labels must be integers, not floats or bools, got {labels}")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if labels_arr.min() < 0 or labels_arr.max() >= classes:
        raise ValueError(f"labels must lie in [0, {classes}), got {labels}")
    return labels_arr


def cross_entropy_loss(output: ForwardOutput, labels: Sequence[int]) -> float:
    """Mean negative log-probability of the true class, from the logits.

    The log-softmax (log-partition minus true-class logit, both shifted by
    the row maximum) stays finite where the true class's probability
    underflows to 0.
    """
    logits = output.logits
    labels_arr = _label_array(labels, *logits.shape)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_partition = np.log(np.exp(shifted).sum(axis=1))
    true_logit = shifted[np.arange(len(labels_arr)), labels_arr]
    return float(log_partition.mean() - true_logit.mean())


# ----------------------------------------------------------------- backward


def backward(
    params: ModelParameters,
    batch: Sequence[TokenSequence],
    labels: Sequence[int],
    rng: np.random.Generator | None = None,
) -> tuple[ForwardOutput, GradientSet]:
    """Train-mode forward over `batch`, then exact gradients of its mean
    cross-entropy loss for every parameter.

    The pass runs in row shards (_in_shards), and each shard runs its rows
    in pieces whose caches fit _PASS_CACHE_BYTES (_pieces, sized by
    _cache_bytes_per_row at each row's real length), one after another,
    each with its rows of the batch's dropout masks. Each piece adds its
    gradients, already divided by the whole batch's size, into its shard's
    one gradient set, and the shards' sets are summed in shard order, so
    the order of the sums depends only on the batch and the CPU count. The
    cache is consumed here: the returned output has `cache=None`.
    """
    cfg = params.config
    ids, mask = batch_arrays(batch)
    labels_arr = _label_array(labels, len(batch), cfg.num_classes)
    keeps = _dropout_masks(cfg, mask.shape, rng)

    def shard(pieces: list[slice]):
        """(outputs, gradient set, (packed ids, embedding gradient) per
        piece) of the shard cut into `pieces`."""
        outs, grads, embed_grads = [], {}, []
        for piece in pieces:
            cache: dict = {}
            piece_keeps = None if keeps is None else [k[piece] for k in keeps]
            out = _run_encoder(params, ids[piece], mask[piece], piece_keeps, cache)
            out.cache = None
            dlogits = out.probabilities.copy()
            dlogits[np.arange(len(dlogits)), labels_arr[piece]] -= 1.0
            dlogits /= len(labels_arr)
            d_embed = _backward_core(params, cache, dlogits, grads)
            outs.append(out)
            embed_grads.append((cache["packing"].gather(ids[piece]), d_embed))
        return outs, grads, embed_grads

    shards = _in_shards(mask, cfg, params.tensors["token_embedding"].dtype, shard)
    outs, grads = [], {}
    token_grad = np.zeros_like(params.tensors["token_embedding"])
    while shards:  # each shard's gradients are dropped once added
        shard_outs, shard_grads, embed_grads = shards.pop(0)
        outs += shard_outs
        for packed_ids, d_embed in embed_grads:
            np.add.at(token_grad, packed_ids, d_embed)
        for name, g in shard_grads.items():
            _accumulate(grads, name, g)
    grads["token_embedding"] = token_grad
    return _joined(outs), {name: grads[name] for name in params.tensors}


def grad_wrt_embeddings(
    params: ModelParameters, output: ForwardOutput, target: int
) -> np.ndarray:
    """d(target logit)/d(embeddings) for every batch row, shape (B, T, D) with
    zeros at padding; parameters untouched."""
    cache = output.cache
    if cache is None:
        raise StaleCacheError(
            "output has no backward cache; compute it with forward_from_embeddings()"
        )
    b, c = output.logits.shape
    dlogits = np.zeros((b, c), dtype=output.logits.dtype)
    dlogits[:, target] = 1.0
    d_embed = _backward_core(params, cache, dlogits, None)
    return cache["packing"].scatter(d_embed)


def _backward_core(params, cache, dlogits, grads: GradientSet | None) -> np.ndarray:
    """The packed (N, D) gradient of the embeddings from the cache of one
    pass; unless `grads` is None, each parameter's gradient is also added
    into it as soon as computed (see _accumulate), so a pass's gradients
    never exist as a second set. They lack token_embedding, which the
    caller builds from the embeddings' gradient."""
    cfg = params.config
    p = params.tensors

    pre_act, pre_lin, cls_vec = cache["pre_act"], cache["pre_lin"], cache["cls_vec"]
    packing = cache["packing"]

    if grads is not None:
        _accumulate(grads, "classifier.weight", pre_act.T @ dlogits)
        _accumulate(grads, "classifier.bias", dlogits.sum(axis=0))
    d_pre_act = dlogits @ p["classifier.weight"].T
    d_pre_lin = d_pre_act * (pre_lin > 0.0)
    if grads is not None:
        _accumulate(grads, "prehead.weight", cls_vec.T @ d_pre_lin)
        _accumulate(grads, "prehead.bias", d_pre_lin.sum(axis=0))
    d_cls = d_pre_lin @ p["prehead.weight"].T

    # d_cls is the gradient of the last layer's output when that layer
    # computed the [CLS] rows alone; otherwise the head read those rows out
    # of all N packed rows
    last = _query_rows(packing, cfg.num_layers - 1, cfg.num_layers)
    if last is None:
        dx = np.zeros((packing.size, d_cls.shape[1]), dtype=d_cls.dtype)
        dx[packing.cls_rows] = d_cls
    else:
        dx = d_cls

    for i in reversed(range(cfg.num_layers)):
        pre = f"layer{i}."
        lc = cache["layers"][i]
        queries = _query_rows(packing, i, cfg.num_layers)

        d_sum2, d_scale2, d_shift2 = _layer_norm_backward(
            dx, lc["ln2"], p[pre + "ffn_norm.scale"]
        )
        if grads is not None:
            _accumulate(grads, pre + "ffn_norm.scale", d_scale2)
            _accumulate(grads, pre + "ffn_norm.shift", d_shift2)
        d_h1 = d_sum2.copy()
        d_ffn_out = d_sum2
        if "ffn_keep" in lc:
            d_ffn_out = d_ffn_out * lc["ffn_keep"]

        if grads is not None:
            ffn_act = gelu(lc["ffn_pre"], lc["ffn_phi"])  # recomputed, not cached
            _accumulate(grads, pre + "ffn_out.weight", ffn_act.T @ d_ffn_out)
            del ffn_act
            _accumulate(grads, pre + "ffn_out.bias", d_ffn_out.sum(axis=0))
        d_ffn_pre = gelu_grad(lc["ffn_pre"], lc["ffn_phi"])
        d_ffn_pre *= d_ffn_out @ p[pre + "ffn_out.weight"].T
        if grads is not None:
            _accumulate(grads, pre + "ffn_in.weight", lc["h1"].T @ d_ffn_pre)
            _accumulate(grads, pre + "ffn_in.bias", d_ffn_pre.sum(axis=0))
        d_h1 += d_ffn_pre @ p[pre + "ffn_in.weight"].T

        d_sum1, d_scale1, d_shift1 = _layer_norm_backward(
            d_h1, lc["ln1"], p[pre + "attn_norm.scale"]
        )
        if grads is not None:
            _accumulate(grads, pre + "attn_norm.scale", d_scale1)
            _accumulate(grads, pre + "attn_norm.shift", d_shift1)
        d_xq = d_sum1.copy()
        d_attn = d_sum1
        if "attn_keep" in lc:
            d_attn = d_attn * lc["attn_keep"]

        if grads is not None:
            _accumulate(grads, pre + "attn_out.weight", lc["merged"].T @ d_attn)
            _accumulate(grads, pre + "attn_out.bias", d_attn.sum(axis=0))
        dq, dk, dv = _attention_backward(
            d_attn @ p[pre + "attn_out.weight"].T,
            lc["q"], lc["k"], lc["v"], packing, queries, cfg.num_heads, lc["probs"],
        )

        # dq reaches the query rows, dk and dv every row
        x_in = lc["x_in"]
        xq = x_in if queries is None else x_in[queries]
        if grads is not None:
            for dname, dm, src in (("attn_q", dq, xq), ("attn_k", dk, x_in), ("attn_v", dv, x_in)):
                _accumulate(grads, pre + dname + ".weight", src.T @ dm)
                # the forward adds no key bias (see _encoder_layer)
                bias = np.zeros(dm.shape[1], dm.dtype) if dname == "attn_k" else dm.sum(axis=0)
                _accumulate(grads, pre + dname + ".bias", bias)
        d_xq += dq @ p[pre + "attn_q.weight"].T
        if queries is None:
            d_x = d_xq
        else:
            d_x = np.zeros_like(x_in)
            d_x[queries] = d_xq
        d_x += dk @ p[pre + "attn_k.weight"].T
        d_x += dv @ p[pre + "attn_v.weight"].T
        dx = d_x

    if "embed_keep" in cache:
        dx = dx * cache["embed_keep"]

    if grads is not None:
        d_position = np.zeros_like(p["position_embedding"])
        d_position[: packing.shape[1]] = packing.scatter(dx).sum(axis=0)
        _accumulate(grads, "position_embedding", d_position)

    return dx


def _accumulate(grads: GradientSet, name: str, g: np.ndarray) -> None:
    """Add `g` into grads[name] in place, or store it there if `name` has
    no gradient yet."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


# --------------------------------------------------------------- checkpoint


def _layout(config: ModelConfig, dtype: str) -> dict[str, dict]:
    """The checkpoint's tensor table for `config` in `dtype` (<f4 or <f8):
    every tensor of parameter_shapes, in order, packed back to back."""
    table, offset = {}, 0
    for name, shape in parameter_shapes(config).items():
        table[name] = {"shape": list(shape), "dtype": dtype, "offset": offset}
        offset += math.prod(shape) * np.dtype(dtype).itemsize
    return table


def save_checkpoint(params: ModelParameters, path: str, record: dict | None = None) -> None:
    """Write magic, length-prefixed JSON header, then the tensors of _layout.

    `record`, if given, is stored verbatim in the header for load_checkpoint
    to hand back. Parameters that load_checkpoint would refuse raise
    ValueError before any file is opened; otherwise the file is written
    beside `path` under a temporary name and moved into place, so a failed
    write leaves any previous file intact.
    """
    if record is not None and not isinstance(record, dict):
        raise ValueError(f"record must be a dict, got {type(record).__name__}")
    tensors = params.tensors
    missing = [name for name in parameter_shapes(params.config) if name not in tensors]
    if missing:
        raise ValueError(f"tensor {missing[0]} is missing")
    dtype = tensors["token_embedding"].dtype.newbyteorder("<").str
    layout = _layout(params.config, dtype)
    for name, entry in layout.items():
        shape, got = list(tensors[name].shape), tensors[name].dtype.newbyteorder("<").str
        if shape != entry["shape"] or got != dtype or dtype not in CHECKPOINT_DTYPES:
            raise ValueError(
                f"tensor {name} has shape {shape} and dtype {got}; the config implies "
                f"{entry['shape']}, and every tensor needs token_embedding's dtype, "
                f"<f4 or <f8"
            )
    header = {"config": asdict(params.config), "tensors": layout}
    if record is not None:
        header[RECORD_KEY] = record
    header_bytes = json.dumps(header).encode("utf-8")
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            for name in layout:
                fh.write(np.ascontiguousarray(tensors[name], dtype=dtype))
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise


def load_checkpoint(path: str) -> tuple[ModelParameters, dict]:
    """Read and validate a checkpoint: (parameters, record).

    The tensor table must equal _layout of the header's config and of
    token_embedding's dtype, and the file must end after the last tensor,
    which are read straight into their arrays. The file's size is checked
    against the table before any array is allocated, and each read again,
    as the file may change meanwhile. Round-trips save_checkpoint
    bit-exactly; a file saved without a record loads with {}.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes {head[:4]!r}")
        if len(head) < 8:
            raise CheckpointError(f"{path}: truncated before header length")
        (header_len,) = struct.unpack("<I", head[4:])
        # a corrupt length must not make read() allocate up to 4 GiB
        raw = fh.read(min(header_len, os.fstat(fh.fileno()).st_size))
        if len(raw) < header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
            config = ModelConfig(**header["config"])
            table = header["tensors"]
            dtype = table["token_embedding"]["dtype"]
            record = header.get(RECORD_KEY, {})
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
        if not isinstance(record, dict):
            raise CheckpointError(f"{path}: header {RECORD_KEY!r} must be a JSON object")
        if dtype not in CHECKPOINT_DTYPES:
            raise CheckpointError(
                f"{path}: tensor token_embedding dtype must be <f4 or <f8, got {dtype!r}"
            )
        layout = _layout(config, dtype)
        if table != layout:
            name = next(n for n in [*layout, *table] if table.get(n) != layout.get(n))
            raise CheckpointError(
                f"{path}: tensor {name} has table entry {table.get(name)}, "
                f"but the config and dtype {dtype} imply {layout.get(name)}"
            )
        # the file must hold the table before any of its arrays is allocated
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, entry in layout.items():
            end = entry["offset"] + math.prod(entry["shape"]) * np.dtype(dtype).itemsize
            if end > available:
                raise CheckpointError(f"{path}: tensor {name} extends past end of file")
        if available > end:
            raise CheckpointError(f"{path}: file continues after the last tensor")
        tensors: dict[str, np.ndarray] = {}
        for name, entry in layout.items():
            tensors[name] = np.empty(entry["shape"], dtype=dtype)
            if fh.readinto(tensors[name]) < tensors[name].nbytes:
                raise CheckpointError(f"{path}: tensor {name} extends past end of file")
        if fh.read(1):
            raise CheckpointError(f"{path}: file continues after the last tensor")
    return ModelParameters(config=config, tensors=tensors), record

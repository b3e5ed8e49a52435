"""Bidirectional-LSTM sequence labeling numerics, written against numpy.

Shapes follow one convention throughout.  For a length-n utterance with
input width D and hidden size H:

    inputs        X      (n, D)    rows are embedded tokens; (n, B, D),
                                   time-major, for B equal-length
                                   utterances run in lockstep
    gate weights  w      (4H, D+H) fused i, f, o, g blocks over [x_t, h_{t-1}]
    features              (n, 2H)  forward and backward states concatenated
    head weights  w      (C, 2H)   one softmax head per labeling task

Every parameter of a model lives in one contiguous float64 buffer (see
``ModelParams``), and so does every gradient.  Everything is seeded.  The
LSTM cell is the standard one (no peepholes); dropout touches only the
non-recurrent connections, i.e. the embedded inputs and the features
feeding the heads, with inverted scaling so evaluation needs no
correction.  Losses are summed negative log probabilities over every
position and head; gradients come from full backpropagation through time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

CHECKPOINT_MAGIC = "atomslot-params"
CHECKPOINT_VERSION = 1


class NeuralError(Exception):
    """Base error for the numerics layer."""


class NonFiniteGradient(NeuralError):
    """A gradient contained NaN or infinity."""


def rng_stream(master_seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for (master seed, tags...)."""
    entropy = [int(master_seed) % 2**64] + [int(t) % 2**64 for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class EmbeddingTable:
    """One input channel.  Rows below ``frozen_rows`` are never updated."""

    weights: np.ndarray
    frozen_rows: int = 0

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]


@dataclass
class LstmCellParams:
    w: np.ndarray  # (4H, D+H)
    b: np.ndarray  # (4H,)

    @property
    def hidden(self) -> int:
        return self.b.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.w.shape[1] - self.hidden


@dataclass
class SoftmaxHead:
    w: np.ndarray  # (C, 2H)
    b: np.ndarray  # (C,)
    labels: tuple[str, ...]

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if len(self.labels) != self.w.shape[0]:
            raise NeuralError(
                f"head has {self.w.shape[0]} rows but {len(self.labels)} labels"
            )
        if len(set(self.labels)) != len(self.labels):
            raise NeuralError("head labels must be unique")


@dataclass(frozen=True)
class ShapeSpec:
    """Sizes needed to initialize a model.

    ``tables`` holds (rows, cols) per input channel; ``heads`` holds the
    label tuple of each softmax head.
    """

    tables: tuple[tuple[int, int], ...]
    hidden: int
    heads: tuple[tuple[str, ...], ...]
    frozen_rows: tuple[int, ...] = ()

    def table_frozen(self, k: int) -> int:
        return self.frozen_rows[k] if k < len(self.frozen_rows) else 0


class ModelParams:
    """Embedding tables, the two LSTM directions and the softmax heads, as
    named views into one contiguous float64 buffer.

    The buffer holds, in order: each embedding table; both cells' gate
    weights side by side as ``cells_w`` (2, 4H, D+H), forward first; their
    biases ``cells_b`` (2, 4H); every head's weights stacked as ``heads_w``
    (C, 2H), C summed over the heads; their biases ``heads_b`` (C,).
    ``tables``, ``fwd``, ``bwd`` and ``heads`` are views of it, so a write
    through them, or through ``blocks()``, is a write to the buffer.
    Gradients use the same layout (``zeros_like``).  A model that needs
    other shapes is a new ``ModelParams``; see ``pack``.
    """

    def __init__(self, shape: ShapeSpec, buffer: np.ndarray | None = None):
        """Views over ``buffer``, or over a new zeroed buffer."""
        H = shape.hidden
        D = sum(cols for _, cols in shape.tables)
        C = sum(len(labels) for labels in shape.heads)
        size = sum(rows * cols for rows, cols in shape.tables) + 8 * H * (D + H + 1)
        size += C * (2 * H + 1)
        if buffer is None:
            buffer = np.zeros(size)
        elif buffer.shape != (size,):
            raise NeuralError(f"a buffer of shape {buffer.shape} for {size} parameters")
        self.shape = shape
        self.hidden = H
        self.buffer = buffer
        pos = 0

        def take(*dims):
            nonlocal pos
            count = math.prod(dims)
            view = buffer[pos:pos + count].reshape(dims)
            pos += count
            return view

        tables = []
        frozen_spans = []
        for k, (rows, cols) in enumerate(shape.tables):
            frozen = shape.table_frozen(k)
            if not 0 <= frozen <= rows:
                raise NeuralError(f"table {k} has {rows} rows, {frozen} frozen")
            frozen_spans += [pos, pos + frozen * cols]
            tables.append(EmbeddingTable(take(rows, cols), frozen))
        self.tables = tuple(tables)
        self.cells_w = take(2, 4 * H, D + H)
        self.cells_b = take(2, 4 * H)
        self.heads_w = take(C, 2 * H)
        self.heads_b = take(C)
        self.fwd = LstmCellParams(self.cells_w[0], self.cells_b[0])
        self.bwd = LstmCellParams(self.cells_w[1], self.cells_b[1])
        heads, head_rows, row = [], [], 0
        for labels in shape.heads:
            rows = slice(row, row + len(labels))
            heads.append(SoftmaxHead(self.heads_w[rows], self.heads_b[rows], labels))
            head_rows.append(rows)
            row = rows.stop
        self.heads = tuple(heads)
        # each head's rows in heads_w and heads_b
        self.head_rows = tuple(head_rows)
        # SGD updates everything but each table's frozen prefix
        edges = [0] + frozen_spans + [size]
        self.trainable = tuple(
            slice(a, b) for a, b in zip(edges[::2], edges[1::2]) if b > a
        )

    @classmethod
    def pack(cls, tables, fwd, bwd, heads) -> "ModelParams":
        """Copy separately built blocks into a new buffer."""
        shape = ShapeSpec(
            tables=tuple(t.weights.shape for t in tables),
            hidden=fwd.hidden,
            heads=tuple(h.labels for h in heads),
            frozen_rows=tuple(t.frozen_rows for t in tables),
        )
        out = cls(shape)
        sources = [t.weights for t in tables] + [fwd.w, fwd.b, bwd.w, bwd.b]
        sources += [arr for h in heads for arr in (h.w, h.b)]
        for (name, block), source in zip(out.blocks(), sources):
            if block.shape != source.shape:
                raise NeuralError(
                    f"block {name} is {source.shape}, expected {block.shape}"
                )
            block[...] = source
        return out

    @property
    def input_dim(self) -> int:
        return sum(t.cols for t in self.tables)

    def copy(self) -> "ModelParams":
        return ModelParams(self.shape, self.buffer.copy())

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.shape)

    def blocks(self):
        """Named parameter arrays in canonical (checkpoint) order; each is a
        contiguous view of the buffer."""
        for k, table in enumerate(self.tables):
            yield f"table{k}", table.weights
        yield "fwd.w", self.fwd.w
        yield "fwd.b", self.fwd.b
        yield "bwd.w", self.bwd.w
        yield "bwd.b", self.bwd.b
        for j, head in enumerate(self.heads):
            yield f"head{j}.w", head.w
            yield f"head{j}.b", head.b

    def n_parameters(self) -> int:
        return self.buffer.size


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization settings shared by every model kind.

    ``learning_rate`` overrides the grid when set; otherwise every grid
    value is trained and the best validation snapshot wins.
    """

    learning_rate: float | None = None
    epochs: int = 100
    dropout: float = 0.5
    init_range: float = 0.2
    seed: int = 0
    lr_grid: tuple[float, ...] = (0.008, 0.016, 0.024, 0.032, 0.04)
    emb_dim: int = 100
    hidden: int = 100
    concept_emb_dim: int = 20
    teacher_forcing: bool = False

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.init_range <= 0:
            raise ValueError(f"init_range must be positive, got {self.init_range}")
        if self.emb_dim < 1 or self.hidden < 1 or self.concept_emb_dim < 1:
            raise ValueError("model dimensions must be positive")
        if not self.grid():
            raise ValueError("learning-rate grid is empty")
        if any(lr <= 0 for lr in self.grid()):
            raise ValueError("learning rates must be positive")

    def grid(self) -> tuple[float, ...]:
        if self.learning_rate is not None:
            return (float(self.learning_rate),)
        return tuple(self.lr_grid)


def init_params(
    shape: ShapeSpec, rng: np.random.Generator | int, init_range: float = 0.2
) -> ModelParams:
    """Draw every parameter i.i.d. uniform(-init_range, init_range), block
    by block in ``blocks()`` order."""
    if not isinstance(rng, np.random.Generator):
        rng = rng_stream(int(rng))
    params = ModelParams(shape)
    for _, block in params.blocks():
        block[...] = rng.uniform(-init_range, init_range, size=block.shape)
    return params


# ---------------------------------------------------------------------------
# dropout

@dataclass
class DropoutMasks:
    """Inverted-dropout masks: entries are 0 or 1/keep."""

    input: np.ndarray    # (n, input_dim)
    features: np.ndarray  # (n, 2H)


def make_dropout_masks(
    rng: np.random.Generator, p: float, n: int, input_dim: int, hidden: int
) -> DropoutMasks | None:
    if p <= 0.0:
        return None
    keep = 1.0 - p
    return DropoutMasks(
        input=(rng.random((n, input_dim)) < keep) / keep,
        features=(rng.random((n, 2 * hidden)) < keep) / keep,
    )


# ---------------------------------------------------------------------------
# forward

@dataclass
class _Cache:
    """Both directions' states over B equal-length sequences, direction
    first.  Direction 0 runs forward; direction 1 runs in reversed time, so
    its step t reads input n - 1 - t."""

    xs: np.ndarray     # (2, n, B, D) inputs, each direction in its own time
    gates: np.ndarray  # (2, n, B, 4H) i, f, o after the sigmoid, g after tanh
    c: np.ndarray      # (2, n + 1, B, H) cell states, c[:, 0] = 0
    tc: np.ndarray     # (2, n, B, H) tanh(c[:, t + 1])
    h: np.ndarray      # (2, n + 1, B, H) hidden states, h[:, 0] = 0

    def features(self) -> np.ndarray:
        """(n, B, 2H): both directions' states at each input position."""
        return np.concatenate([self.h[0, 1:], self.h[1, :0:-1]], axis=2)


def _run_cells(params: ModelParams, xs: np.ndarray) -> _Cache:
    """Run both LSTM directions over ``B`` equal-length sequences in lockstep.

    ``xs`` is (n, B, D), time-major.  One batched product projects every
    timestep for both directions before the loop, so only the stacked
    recurrent product ``h @ W_h.T`` stays inside it, and each step updates
    both directions with one call per operation.
    """
    n, B, D = xs.shape
    H = params.hidden
    both = np.empty((2, n, B, D))
    both[0] = xs
    both[1] = xs[::-1]
    # the projection buffer turns into the gate activations, step by step
    gates = both.reshape(2, n * B, D) @ params.cells_w[:, :, :D].transpose(0, 2, 1)
    gates += params.cells_b[:, None]
    gates = gates.reshape(2, n, B, 4 * H)
    w_h = params.cells_w[:, :, D:].transpose(0, 2, 1)
    if B > 1:
        # the stacked transposed view is fast for one row, slow for several
        w_h = np.ascontiguousarray(w_h)
    c = np.zeros((2, n + 1, B, H))
    tc = np.empty((2, n, B, H))
    h = np.zeros((2, n + 1, B, H))
    for t in range(n):
        z = gates[:, t]
        z += h[:, t] @ w_h
        # sigmoid(x) = (1 + tanh(x / 2)) / 2, so one tanh covers all four gates
        sig = z[..., :3 * H]
        sig *= 0.5
        np.tanh(z, out=z)
        sig *= 0.5
        sig += 0.5
        np.multiply(z[..., H:2 * H], c[:, t], out=c[:, t + 1])
        c[:, t + 1] += z[..., :H] * z[..., 3 * H:]
        np.tanh(c[:, t + 1], out=tc[:, t])
        np.multiply(z[..., 2 * H:3 * H], tc[:, t], out=h[:, t + 1])
    return _Cache(both, gates, c, tc, h)


def _normalize_ids(params: ModelParams, ids) -> tuple[np.ndarray, ...]:
    if isinstance(ids, tuple):
        seqs = tuple(np.asarray(s, dtype=np.int64) for s in ids)
    else:
        seqs = (np.asarray(ids, dtype=np.int64),)
    if len(seqs) != len(params.tables):
        raise NeuralError(
            f"got {len(seqs)} id sequences for {len(params.tables)} embedding tables"
        )
    lengths = {len(s) for s in seqs}
    if len(lengths) > 1:
        raise NeuralError(f"id sequences disagree on length: {sorted(lengths)}")
    return seqs


@dataclass
class _ForwardCache:
    ids: tuple[np.ndarray, ...]
    cells: _Cache           # over post-dropout inputs, B = 1
    features: np.ndarray    # (n, 2H), pre-dropout
    head_input: np.ndarray  # (n, 2H), post-dropout
    masks: DropoutMasks | None


def _forward(params: ModelParams, ids, masks: DropoutMasks | None) -> _ForwardCache:
    seqs = _normalize_ids(params, ids)
    xs = np.concatenate(
        [table.weights[seq] for table, seq in zip(params.tables, seqs)], axis=1
    )
    if masks is not None:
        xs = xs * masks.input
    cells = _run_cells(params, xs[:, None])
    features = cells.features()[:, 0]
    head_input = features * masks.features if masks is not None else features
    return _ForwardCache(seqs, cells, features, head_input, masks)


def blstm_forward(params: ModelParams, ids, masks: DropoutMasks | None = None) -> np.ndarray:
    """Per-position features: forward and backward states concatenated."""
    return _forward(params, ids, masks).features


# Sentences per lockstep group.  On 1000-sentence corpora at H=100, groups of
# 48 tagged about 10% faster than groups of 32 and as fast as groups of 64;
# each group's per-step caches, and with them peak memory, grow with its size.
GROUP_CAP = 48


def blstm_forward_batch(params: ModelParams, items: Sequence):
    """Features of many id sequences, dropout off, run in equal-length groups.

    ``items`` holds one id array, or one tuple of arrays, per sequence.
    Sequences are grouped by length and each group of at most ``GROUP_CAP``
    runs through both directions in lockstep.  Yields ``(indices,
    features)`` per group in order of increasing length, where ``indices``
    are positions in ``items`` and ``features`` is (len(indices), n, 2H).
    Empty sequences yield nothing.
    """
    seqs = [_normalize_ids(params, ids) for ids in items]
    by_length: dict[int, list[int]] = {}
    for k, seq in enumerate(seqs):
        if len(seq[0]):
            by_length.setdefault(len(seq[0]), []).append(k)
    for n in sorted(by_length):
        members = by_length[n]
        for start in range(0, len(members), GROUP_CAP):
            group = members[start:start + GROUP_CAP]
            xs = np.concatenate(
                [
                    table.weights[np.stack([seqs[k][j] for k in group], axis=1)]
                    for j, table in enumerate(params.tables)
                ],
                axis=2,
            )
            yield np.array(group), _run_cells(params, xs).features().transpose(1, 0, 2)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def head_forward(head: SoftmaxHead, features: np.ndarray) -> np.ndarray:
    """Class probabilities for one head; accepts (2H,) or (n, 2H)."""
    return softmax(features @ head.w.T + head.b)


# ---------------------------------------------------------------------------
# loss and gradients

def _backprop_cells(
    params: ModelParams, cache: _Cache, dh_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagation through time for both directions at once.

    ``dh_out`` (2, n, B, H) is the loss gradient of each state, in each
    direction's own time.  Returns the gate pre-activation gradients ``dz``
    (2, n * B, 4H) and the cell inputs ``xh`` = [x_t, h_{t-1}]
    (2, n * B, D + H) they pair with, in each direction's own time, so
    that dW = dz^T xh and db = sum(dz); and the input gradient dx
    (n, B, D) in forward time.
    """
    _, n, B, H4 = cache.gates.shape
    H = H4 // 4
    D = cache.xs.shape[3]
    i, f, o, g = (cache.gates[..., k * H:(k + 1) * H] for k in range(4))
    tc = cache.tc
    # everything that does not depend on the carried dh and dc, for all steps
    dc_of_dh = o * (1.0 - tc * tc)
    factors = np.empty((2, n, B, 4, H))
    factors[..., 0, :] = g * i * (1.0 - i)
    factors[..., 1, :] = cache.c[:, :-1] * f * (1.0 - f)
    factors[..., 2, :] = tc * o * (1.0 - o)
    factors[..., 3, :] = i * (1.0 - g * g)
    w_h = params.cells_w[:, :, D:]
    dz = np.empty((2, n, B, 4, H))
    dh_next = np.zeros((2, B, H))
    dc_next = np.zeros((2, B, H))
    for t in range(n - 1, -1, -1):
        dh = dh_out[:, t] + dh_next
        dc = dh * dc_of_dh[:, t]
        dc += dc_next
        step = dz[:, t]
        np.multiply(factors[:, t], dc[:, :, None], out=step)
        np.multiply(factors[:, t, :, 2], dh, out=step[:, :, 2])
        dh_next = step.reshape(2, B, 4 * H) @ w_h
        dc_next = dc * f[:, t]
    dz = dz.reshape(2, n * B, 4 * H)
    xh = np.concatenate([cache.xs, cache.h[:, :-1]], axis=3).reshape(2, n * B, D + H)
    dx = (dz @ params.cells_w[:, :, :D]).reshape(2, n, B, D)
    return dz, xh, dx[0] + dx[1, ::-1]


def _joined(parts: list, axis: int = 0) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def sequence_loss(params: ModelParams, batch: Sequence[tuple]) -> float:
    """Summed cross-entropy over a batch, forward only, dropout off."""
    total = 0.0
    groups = blstm_forward_batch(params, [ids for ids, _ in batch])
    for members, features in groups:
        labels = [batch[k][1] for k in members]
        if any(len(item) != len(params.heads) for item in labels):
            raise NeuralError(f"label sequences do not match the {len(params.heads)} heads")
        flat = features.reshape(-1, features.shape[2])
        rows = np.arange(flat.shape[0])
        logits = flat @ params.heads_w.T + params.heads_b
        for j, head_rows in enumerate(params.head_rows):
            gold = np.concatenate([np.asarray(item[j], dtype=np.int64) for item in labels])
            logp = log_softmax(logits[:, head_rows])
            total -= float(logp[rows, gold].sum())
    return total


def loss_and_gradients(
    params: ModelParams,
    batch: Sequence[tuple],
    masks: Sequence[DropoutMasks | None] | None = None,
) -> tuple[float, ModelParams]:
    """Summed cross-entropy and its gradients over a batch.

    Each batch item pairs token ids (one array, or a tuple of arrays for
    multi-channel inputs) with one gold id array per head.  ``masks``
    optionally supplies fixed dropout masks per item; fixed masks keep the
    computation deterministic, which the gradient check relies on.  The
    gradients come back in the parameters' layout, over one new buffer.
    Frozen embedding rows get their gradient too; ``sgd_step`` skips them.

    Each item runs forward and back on its own; every weight gradient is
    then one product over the positions of the whole batch.
    """
    grads = params.zeros_like()
    total = 0.0
    H = params.hidden
    dlogits_all, head_in_all, dz_all, xh_all, dx_all, ids_all = [], [], [], [], [], []
    for b, (ids, labels) in enumerate(batch):
        item_masks = masks[b] if masks is not None else None
        fc = _forward(params, ids, item_masks)
        n = fc.head_input.shape[0]
        if n == 0:
            continue
        if len(labels) != len(params.heads):
            raise NeuralError(
                f"batch item {b}: {len(labels)} label sequences for "
                f"{len(params.heads)} heads"
            )
        rows = np.arange(n)
        # every head's logits come from one product over the stacked heads
        dlogits = fc.head_input @ params.heads_w.T + params.heads_b
        for j, gold in enumerate(labels):
            gold = np.asarray(gold, dtype=np.int64)
            if len(gold) != n:
                raise NeuralError(
                    f"batch item {b}, head {j}: {len(gold)} labels for {n} positions"
                )
            segment = dlogits[:, params.head_rows[j]]
            logp = log_softmax(segment)
            total -= float(logp[rows, gold].sum())
            np.exp(logp, out=segment)
            segment[rows, gold] -= 1.0
        dfeats = dlogits @ params.heads_w
        if fc.masks is not None:
            dfeats *= fc.masks.features
        dh_out = np.empty((2, n, 1, H))
        dh_out[0, :, 0] = dfeats[:, :H]
        dh_out[1, :, 0] = dfeats[::-1, H:]
        dz, xh, dx = _backprop_cells(params, fc.cells, dh_out)
        dx = dx[:, 0]
        if fc.masks is not None:
            dx *= fc.masks.input
        dlogits_all.append(dlogits)
        head_in_all.append(fc.head_input)
        dz_all.append(dz)
        xh_all.append(xh)
        dx_all.append(dx)
        ids_all.append(fc.ids)
    if not dz_all:
        return total, grads
    dlogits, dz, dx = _joined(dlogits_all), _joined(dz_all, axis=1), _joined(dx_all)
    np.matmul(dlogits.T, _joined(head_in_all), out=grads.heads_w)
    np.sum(dlogits, axis=0, out=grads.heads_b)
    np.matmul(dz.transpose(0, 2, 1), _joined(xh_all, axis=1), out=grads.cells_w)
    np.sum(dz, axis=1, out=grads.cells_b)
    offset = 0
    for k, table in enumerate(grads.tables):
        ids = _joined([item[k] for item in ids_all])
        np.add.at(table.weights, ids, dx[:, offset:offset + table.cols])
        offset += table.cols
    return total, grads


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """In-place SGD update; frozen embedding rows are left untouched.

    The whole gradient is checked before anything is written, so a
    non-finite gradient leaves every parameter as it was.
    """
    g = grads.buffer
    # a finite sum of squares proves every entry finite; otherwise look
    # closer, since squares of finite entries can overflow
    if not np.isfinite(g @ g) and not np.isfinite(g).all():
        name = next(name for name, block in grads.blocks() if not np.isfinite(block).all())
        raise NonFiniteGradient(f"non-finite gradient in block {name}")
    p = params.buffer
    for span in params.trainable:
        p[span] -= learning_rate * g[span]
    return params


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class GradCheckReport:
    block_errors: dict[str, float]
    max_relative_error: float
    epsilon: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance


def gradient_check(
    params: ModelParams,
    batch: Sequence[tuple],
    epsilon: float = 1e-4,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Relative error is |a - n| / max(1e-4, |a| + |n|), so tiny true
    gradients are judged on an absolute scale.  Frozen embedding rows are
    excluded: their analytic gradient is defined as absent, not zero.
    """
    _, grads = loss_and_gradients(params, batch)

    def loss_only():
        value, _ = loss_and_gradients(params, batch)
        return value

    frozen = {f"table{k}": t.frozen_rows * t.cols for k, t in enumerate(params.tables)}
    block_errors: dict[str, float] = {}
    for (name, p), (_, g) in zip(params.blocks(), grads.blocks()):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        worst = 0.0
        for idx in range(frozen.get(name, 0), flat_p.size):
            original = flat_p[idx]
            flat_p[idx] = original + epsilon
            above = loss_only()
            flat_p[idx] = original - epsilon
            below = loss_only()
            flat_p[idx] = original
            numeric = (above - below) / (2.0 * epsilon)
            analytic = flat_g[idx]
            rel = abs(analytic - numeric) / max(1e-4, abs(analytic) + abs(numeric))
            if rel > worst:
                worst = rel
        block_errors[name] = worst
    overall = max(block_errors.values()) if block_errors else 0.0
    return GradCheckReport(block_errors, overall, epsilon, tolerance)


# ---------------------------------------------------------------------------
# checkpoint format: versioned UTF-8 text, 17 significant digits per value

def _format_row(row: np.ndarray) -> str:
    return " ".join(f"{x:.17g}" for x in row)


def save_params(params: ModelParams, path) -> None:
    meta = {
        "hidden": params.hidden,
        "tables": [
            {"rows": t.rows, "cols": t.cols, "frozen_rows": t.frozen_rows}
            for t in params.tables
        ],
        "heads": [{"labels": list(h.labels)} for h in params.heads],
    }
    lines = [
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}",
        json.dumps(meta, sort_keys=True),
    ]
    for name, arr in params.blocks():
        mat = arr if arr.ndim == 2 else arr.reshape(1, -1)
        lines.append(f"block\t{name}\t{mat.shape[0]}\t{mat.shape[1]}")
        for row in mat:
            lines.append(_format_row(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> ModelParams:
    """Read a checkpoint written by ``save_params``.

    A truncated or malformed file, or one whose blocks disagree with its
    metadata, raises NeuralError.  The checks run once per block.  The file
    is read line by line, so only one line of text is held at a time, and
    every row is parsed straight into the parameter buffer.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(CHECKPOINT_MAGIC):
            raise NeuralError(f"{path}: not a parameter checkpoint")
        version = first.split("v")[-1]
        if version != str(CHECKPOINT_VERSION):
            raise NeuralError(f"{path}: unsupported checkpoint version {version!r}")
        try:
            meta = json.loads(fh.readline())
            shape = ShapeSpec(
                tables=tuple((int(t["rows"]), int(t["cols"])) for t in meta["tables"]),
                hidden=int(meta["hidden"]),
                heads=tuple(tuple(h["labels"]) for h in meta["heads"]),
                frozen_rows=tuple(int(t["frozen_rows"]) for t in meta["tables"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise NeuralError(f"{path}: bad checkpoint metadata ({exc!r})") from None
        params = ModelParams(shape)
        blocks = {
            name: arr if arr.ndim == 2 else arr.reshape(1, -1)
            for name, arr in params.blocks()
        }
        seen = set()
        for line in fh:
            header = line.rstrip("\n").split("\t")
            if len(header) != 4 or header[0] != "block" or header[1] not in blocks:
                raise NeuralError(f"{path}: expected block header, got {line!r}")
            name = header[1]
            data = blocks[name]
            if header[2:] != [str(data.shape[0]), str(data.shape[1])]:
                raise NeuralError(
                    f"{path}: block {name} is {header[2]}x{header[3]}, "
                    f"expected {data.shape[0]}x{data.shape[1]}"
                )
            try:
                for r in range(data.shape[0]):
                    data[r] = next(fh).split()
            except StopIteration:
                raise NeuralError(f"{path}: block {name} is truncated") from None
            except ValueError:
                raise NeuralError(
                    f"{path}: block {name} has a row of the wrong width or a non-number"
                ) from None
            seen.add(name)
    missing = [name for name in blocks if name not in seen]
    if missing:
        raise NeuralError(f"{path}: missing blocks {', '.join(missing)}")
    return params
